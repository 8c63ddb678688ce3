"""Per-snapshot index of live points, the per-query distance tables, and
category-nearest-neighbour search.

A snapshot keeps each category's live rows of the venue's point table
and, on the first block a query asks for, lays every live category out
at once, each as one block of table rows in id order.  A point object is
built only when a planner is handed one (`VenueIndex.point`), once per
table row, and its row is then found by its location, so that a stop's
legs come from its row of the layout.  `QueryTables` joins the blocks of
one query's categories and holds the terms the query measures once on a
snapshot and reads again, one kernel call per location; it is the only
way a planner measures a location.  So `cnn` is one argmin over its
category's slice of a scored row, a `gcnn` or rank-once query of m
categories makes m + 1 kernel calls, and the oracle 2 plus m(m - 1)/2:
one engine `pair_table` per unordered pair of its categories.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

import numpy as np

from .d2d import D2DGraph, DistanceEngine, DoorLegs, PointBlock, PointLayout
from .routing import EmptyCategoryError, EvalCounter, QueryContext, cnn_scores
from .venue import IndoorPoint, Location, PointTable, Venue


def _stack(columns: list[np.ndarray], width: int, fill) -> np.ndarray:
    """The blocks' door or leg columns, one block after another, padded to width."""
    return np.concatenate([
        c if c.shape[1] == width
        else np.pad(c, ((0, 0), (0, width - c.shape[1])), constant_values=fill)
        for c in columns])


_LOCATION_KEY = attrgetter("x", "y", "floor", "partition_id")  # a point's Location.key()
_NO_ROWS = np.zeros(0, dtype=int)
_NO_ROWS.flags.writeable = False


class QueryTables:
    """The terms one query measures once on one snapshot and reads again;
    `cnn` and `rank_once_greedy` measure only through them, the oracle its ends.

    The query's categories (all the snapshot's live ones when none are
    given) are laid out as one joined block, their blocks in ascending
    order, with a row range (`span`) each.

    - `source`, `target`: the query's ends, resolved once.
    - `from_source`, `to_target`: every row's distance from the source and
      to the target, one kernel call each; `static` is
      `(1 - alpha) * scores`.  `category(c)` slices them.
    - `measured(loc, c)`: a from location's distance row, one record per
      location, keyed by it as given and as resolved, the source's made with
      the tables.  A first read measures the whole joined block in one kernel
      call, from a handed-out point's row of the layout or the resolved location's legs;
      the rows of c in the location's own partition are patched on c's first read.
    - `scored(loc, c)`: that row and its `routing.cnn_scores`, the whole row on
      its first scored read (`cnn`, rank-once's ranking); a later patch scores
      its rows again by that function, so they get the same bits either way.

    `cnn` keeps one per snapshot on the query's context
    (`VenueIndex.tables`), so it dies with the query; it keeps no reference
    back to the context.  The other planners build one per query."""

    def __init__(self, index: "VenueIndex", source: Location, target: Location, alpha: float,
                 categories=()):
        self.index = index
        self.engine = index.engine
        self.alpha = alpha
        src, tgt = self.engine.legs(source), self.engine.legs(target)
        self.source, self.target = src.location, tgt.location
        self._spans: dict[int, tuple[PointBlock, slice]] = {}
        at = 0
        for cat in sorted(set(categories)) or index.live_categories():
            block = index.category_block(cat)
            self._spans[cat] = (block, slice(at, at + len(block.rows)))
            at += len(block.rows)
        if not self._spans:
            raise EmptyCategoryError("the snapshot has no live points")
        blocks = [block for block, _ in self._spans.values()]
        width = max(block.doors.shape[1] for block in blocks)
        self.doors = _stack([block.doors for block in blocks], width, 0)
        self.door_legs = _stack([block.legs for block in blocks], width, np.inf)
        self.static = (1.0 - alpha) * np.concatenate([block.scores for block in blocks])
        self.from_source = self.engine.door_distances(src, self.doors, self.door_legs)
        self.to_target = self.engine.door_distances(tgt, self.doors, self.door_legs)
        for loc, dist in ((self.source, self.from_source), (self.target, self.to_target)):
            for cat in self._spans:
                self._patch(loc, cat, dist)
        record = [self.source, self.from_source, None, set(self._spans)]
        # a from location's key, as given and as resolved -> [resolved, dist, scores|None, patched]
        self._from: dict[tuple, list] = {source.key(): record, self.source.key(): record}

    def span(self, category: int) -> tuple[PointBlock, slice]:
        """The category's block and its rows in the joined block.  Raises EmptyCategoryError
        when it has no live point and ValueError, laying nothing out, when the query lacks it."""
        got = self._spans.get(category)
        if got is None:
            if not self.index.live_count(category):
                raise EmptyCategoryError(f"category {category} has no live points")
            raise ValueError(f"category {category} is not one of the query's categories")
        return got

    def category(self, category: int) -> tuple[PointBlock, np.ndarray, np.ndarray, np.ndarray]:
        """(block, source distances, target distances, (1 - alpha) * scores)
        of the category."""
        block, rows = self.span(category)
        return block, self.from_source[rows], self.to_target[rows], self.static[rows]

    def _patch(self, loc: Location, category: int, dist: np.ndarray) -> np.ndarray:
        """Patch dist's rows of the category in loc's partition; returns them."""
        block, span = self._spans[category]
        here = block.by_partition.get(loc.partition_id)
        if here is None:
            return _NO_ROWS
        rows = here[0] + span.start
        self.engine.patch(dist, loc, rows, here[1], block.table)
        return rows

    def _scored(self, dist: np.ndarray) -> np.ndarray:
        """Every row's score from a location dist away."""
        return cnn_scores(self.from_source, dist, self.to_target, self.alpha, self.static)

    def _record(self, loc: Location, category: int) -> list:
        """The from location's [resolved, distances, scores or None, patched categories],
        the category's rows in its own partition patched (and scored again if scored)."""
        got = self._from.get(key := loc.key())
        if got is None:
            row = self.index._located.get(key)
            if row is None:
                legs = self.engine.legs(loc)
            else:  # a handed-out point: its row of the table's layout holds its legs
                doors = self.index.graph.door_rows[loc.partition_id]
                legs = DoorLegs(loc, doors, self.index._shared.layout.legs[row, :doors.size])
            got = self._from.get(legs.location.key())
            if got is None:
                dist = self.engine.door_distances(legs, self.doors, self.door_legs)
                got = self._from[legs.location.key()] = [legs.location, dist, None, set()]
            self._from[key] = got
        loc, dist, scores, patched = got
        if category not in patched:
            patched.add(category)
            rows = self._patch(loc, category, dist)
            if rows.size and scores is not None:
                scores[rows] = cnn_scores(self.from_source[rows], dist[rows],
                                          self.to_target[rows], self.alpha, self.static[rows])
        return got

    def measured(self, loc: Location, category: int) -> np.ndarray:
        """The from location's whole distance row, its partition's category rows patched."""
        return self._record(loc, category)[1]

    def scored(self, loc: Location, category: int) -> tuple[np.ndarray, np.ndarray]:
        """`measured`'s row and its scores, the whole row scored on its first scored read."""
        got = self._record(loc, category)
        if got[2] is None:
            got[2] = self._scored(got[1])
        return got[1], got[2]


class _TableRows:
    """What the snapshots of one index share besides the engine: the
    venue's point table, its rows by category then id, the table laid out
    for the block kernel from the first block on, and the points handed
    out to planners, built per table row on first hand-out."""

    def __init__(self, table: PointTable, engine: DistanceEngine):
        self.table = table
        self.engine = engine
        self.ranked = np.lexsort((table.id, table.category))
        self.points: list[IndoorPoint | None] = [None] * len(table)
        self.located: dict[tuple, int] = {}  # a handed-out point's Location.key() -> its row

    @cached_property
    def layout(self) -> PointLayout:
        return self.engine.layout(self.table)

    def hand_out(self, row: int) -> IndoorPoint:
        """Build the row's point and record its location's row."""
        point = self.points[row] = self.table[row]
        self.located[_LOCATION_KEY(point)] = row
        return point


class VenueIndex:
    """One snapshot of the index; point removal yields a new snapshot.

    Every snapshot of a venue shares its `PointTable` (`table`), its
    engine, the table's layout and the points handed out so far.  A
    snapshot keeps which of the table's rows are live (`live`, a read-only
    mask) and each category's live rows in id order.  On the first block a
    query asks for, it lays out every live category's block in one
    columnar pass over its live rows (`PointLayout.blocks`); a block holds
    table rows, and a planner gets a point only through `point`."""

    def __init__(self, venue: Venue, graph: D2DGraph, live: np.ndarray | None = None,
                 engine: DistanceEngine | None = None, shared: _TableRows | None = None):
        self.venue = venue
        self.graph = graph
        self.engine = engine or DistanceEngine(venue, graph)
        self._shared = shared or _TableRows(venue.point_table(), self.engine)
        self.table = table = self._shared.table
        self.live = np.ones(len(table), dtype=bool) if live is None else live
        self.live.flags.writeable = False
        self._ranked_live = rows = self._shared.ranked[self.live[self._shared.ranked]]
        categories, starts = np.unique(table.category[rows], return_index=True)
        self._starts = starts.tolist()
        self._live_by_cat = dict(zip(categories.tolist(), np.split(rows, starts[1:])))
        self._blocks: dict[int, PointBlock] = {}  # every live category's, laid out on first use
        self._points, self._located = self._shared.points, self._shared.located

    @cached_property
    def alive(self) -> frozenset[int]:
        """The ids of the live points."""
        return frozenset(self.table.id[self.live].tolist())

    def live_categories(self) -> list[int]:
        """The categories with a live point, in id order."""
        return list(self._live_by_cat)

    def live_rows(self, category: int) -> np.ndarray:
        """The category's live rows of the table, in id order."""
        return self._live_by_cat.get(category, _NO_ROWS)

    def live_points(self, category: int) -> list[IndoorPoint]:
        return self.table.points(self.live_rows(category))

    def live_count(self, category: int) -> int:
        return len(self.live_rows(category))

    def is_live(self, point_id: int) -> bool:
        return point_id in self.alive

    def point(self, row: int) -> IndoorPoint:
        """The point of a table row, as a planner hands it out: built on its
        first hand-out from any snapshot of the table, its location's row
        recorded for `QueryTables`, and then one list index."""
        return self._points[row] or self._shared.hand_out(row)

    def category_block(self, category: int) -> PointBlock:
        """The category's live points, in id order, as one distance block.
        Raises EmptyCategoryError when the category has none."""
        block = self._blocks.get(category)
        if block is None:
            if category not in self._live_by_cat:
                raise EmptyCategoryError(f"category {category} has no live points")
            self._blocks.update(zip(self._live_by_cat, self._shared.layout.blocks(
                self.venue, self.table, self._ranked_live, self._starts)))
            block = self._blocks[category]
        return block

    def tables(self, ctx: QueryContext) -> QueryTables:
        """The query's tables on this snapshot, kept on ctx.memo for every
        later call with the same context object."""
        got = ctx.memo.get(self)
        if got is None:
            got = ctx.memo[self] = QueryTables(self, ctx.source, ctx.target, ctx.alpha,
                                               ctx.categories)
        return got

    def cnn(self, from_loc: Location, category: int, ctx: QueryContext,
            stats: EvalCounter | None = None, counter: EvalCounter | None = None
            ) -> tuple[IndoorPoint, tuple[float, float, float]]:
        """Live point of the category minimising the three-leg score, and
        its (source, from_loc, target) legs.

        One argmin over the category's slice of the from location's scored
        row in the query's QueryTables (kept on ctx for later calls with the
        same context object): every live point, in id order, so it equals a
        linear scan and ties go to the smallest point id.  The legs are the
        winning row's entries of the distance rows it was scored from.  The
        scan counts into counter, or into stats when only stats is given.
        """
        tables = self.tables(ctx)
        block, rows = tables.span(category)
        dist, scores = tables.scored(from_loc, category)
        if counter is None:
            counter = stats
        if counter is not None:
            counter.point_evals += len(block.rows)
        row = int(scores[rows].argmin())  # first minimum: the smallest id among ties
        at, row = rows.start + row, block.rows[row]
        point = self._points[row] or self._shared.hand_out(row)  # `point`, inline
        return point, (tables.from_source.item(at), dist.item(at), tables.to_target.item(at))

    def remove_points(self, point_ids) -> "VenueIndex":
        """New snapshot with the given points dead; it shares the table and engine.
        Raises KeyError for an unknown id and ValueError for a dead one."""
        rows = []
        for pid in set(point_ids):
            try:
                rows.append(self.table.row_of(pid))
            except KeyError:
                raise KeyError(f"unknown point {pid}") from None
        return self.remove_rows(np.array(rows, dtype=np.intp))

    def remove_rows(self, rows: np.ndarray) -> "VenueIndex":
        """New snapshot with the given table rows dead; ValueError if one is already."""
        dead = rows[~self.live[rows]]
        if dead.size:
            raise ValueError(f"point {self.table.id[dead[0]]} is already dead")
        live = self.live.copy()
        live[rows] = False
        return VenueIndex(self.venue, self.graph, live, self.engine, self._shared)


def build_index(venue: Venue, graph: D2DGraph) -> VenueIndex:
    """The venue's index, with every point live."""
    return VenueIndex(venue, graph)
