"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, query id).  Spans come from the
benchmark's own calls into each layer (`Tracer.call`) and from wrappers
that `Tracer.instrument` installs on one index's `cnn` and on its
engine's `distance` and `door_vector`.  Nothing in the library is
patched: the wrappers are instance attributes of the objects one stream
uses, so other streams and untraced runs call the library unchanged.

Spans are kept in flat arrays (about 25 bytes each: the oracle stream on
`desk` records millions) and written out once, at exit.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

import numpy as np

NO_PARENT = -1
NO_QUERY = -1


def untraced(name, fn, *args, **kwargs):
    """Stand-in for `Tracer.call` when tracing is off."""
    return fn(*args, **kwargs)


class Tracer:
    """Spans of one run; a span's id is its row in the arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("i")
        self._stack = [NO_PARENT]
        self.query_id = NO_QUERY
        self.query_planners: list[str] = []   # query id -> planner
        # One entry per traced cnn call: points evaluated / live points.
        self.scan_frac = array("d")
        self.scan_query = array("i")

    def begin_query(self, planner: str) -> None:
        self.query_id = len(self.query_planners)
        self.query_planners.append(planner)

    def end_query(self) -> None:
        self.query_id = NO_QUERY

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _traced(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.query.append(self.query_id)
            self.end.append(0)
            stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        return self._traced(name, fn)(*args, **kwargs)

    def instrument(self, index) -> None:
        """Trace one index's `cnn` and its engine's distance methods."""
        engine = index.engine
        engine.distance = self._traced("d2d.distance", engine.distance)
        engine.door_vector = self._traced("d2d.door_vector", engine.door_vector)
        cnn = self._traced("index.cnn", index.cnn)
        live: dict[int, int] = {}

        def cnn_with_scan(from_loc, category, ctx, stats=None, counter=None):
            before = counter.point_evals if counter is not None else 0
            point = cnn(from_loc, category, ctx, stats=stats, counter=counter)
            if counter is not None:
                if category not in live:
                    live[category] = index.live_count(category)
                self.scan_frac.append((counter.point_evals - before) / live[category])
                self.scan_query.append(self.query_id)
            return point

        index.cnn = cnn_with_scan

    # -- analysis ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "query": np.frombuffer(self.query, dtype=np.int32),
        }

    def save(self, path: Path, meta: dict) -> None:
        """Write every span and the name and query tables to one .npz file."""
        np.savez_compressed(
            path,
            **self.arrays(),
            names=np.array(self.names),
            query_planners=np.array(self.query_planners),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )


class SpanTable:
    """Durations and self times of a tracer's spans, grouped for metrics."""

    def __init__(self, tracer: Tracer):
        cols = tracer.arrays()
        self.names = tracer.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.query = cols["query"]
        self.duration = (cols["end"] - cols["start"]).astype(np.float64)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=len(self.duration))
        # Children of one span run one after another, so their durations add
        # up to the part of the parent's interval they cover.
        self.self_time = self.duration - child_time
        self.planners = sorted(set(tracer.query_planners))
        planner_of_query = np.array([self.planners.index(p) for p in tracer.query_planners] + [-1],
                                    dtype=np.int8)
        self.planner = planner_of_query[self.query]   # query -1 (set-up) -> -1

    def mask(self, name: str, planner: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        m = self.name == self.names.index(name)
        if planner is not None:
            m &= self.planner == self.planners.index(planner)
        return m

    def children_of(self, span_ids: np.ndarray) -> dict[int, dict[str, float]]:
        """Per parent span: summed child durations (ns) by child name."""
        wanted = set(int(s) for s in span_ids)
        out: dict[int, dict[str, float]] = {s: {} for s in wanted}
        for i in np.flatnonzero(np.isin(self.parent, span_ids)):
            by_name = out[int(self.parent[i])]
            name = self.names[self.name[i]]
            by_name[name] = by_name.get(name, 0.0) + float(self.duration[i])
        return out
