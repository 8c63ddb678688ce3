"""Per-snapshot index of live points, the per-query distance tables, and
category-nearest-neighbour search.

A snapshot keeps its live point ids by category, lays each category's
live points out, on first use, as one block in id order, and finds a
laid-out point's row by its location.  `QueryTables` joins the blocks of
one query's categories and holds the terms the query measures once on a
snapshot and reads again, one kernel call per location; it is the only
way a planner measures a location.  So `cnn` is one argmin over its
category's slice of a scored row, a `gcnn` or rank-once query of m
categories makes m + 1 kernel calls, and the oracle 2 plus m(m - 1)/2:
one engine `pair_table` per unordered pair of its categories.
"""

from __future__ import annotations

import numpy as np

from .d2d import D2DGraph, DistanceEngine, DoorLegs, PointBlock
from .routing import EmptyCategoryError, EvalCounter, QueryContext, cnn_scores
from .venue import IndoorPoint, Location, Venue


def _stack(columns: list[np.ndarray], width: int, fill) -> np.ndarray:
    """The blocks' door or leg columns, one block after another, padded to width."""
    return np.concatenate([
        c if c.shape[1] == width
        else np.pad(c, ((0, 0), (0, width - c.shape[1])), constant_values=fill)
        for c in columns])


_NO_ROWS = np.zeros(0, dtype=int)


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
      call, from a laid-out point's block row or the resolved location's legs;
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
            self._spans[cat] = (block, slice(at, at + len(block.points)))
            at += len(block.points)
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
        self.engine.patch(dist, loc, rows, here[1])
        return rows

    def _scored(self, dist: np.ndarray) -> np.ndarray:
        """Every row's score from a location dist away."""
        return cnn_scores(self.from_source, dist, self.to_target, self.alpha, self.static)

    def _record(self, loc: Location, category: int) -> list:
        """The from location's [resolved, distances, scores or None, patched categories],
        the category's rows in its own partition patched (and scored again if scored)."""
        got = self._from.get(key := loc.key())
        if got is None:
            at = self.index._rows.get(key)
            if at is None:
                legs = self.engine.legs(loc)
            else:  # a laid-out live point: its block row holds its legs
                block, row = at
                doors = self.index.graph.door_rows[loc.partition_id]
                legs = DoorLegs(loc, doors, block.legs[row, :doors.size])
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


class VenueIndex:
    """One snapshot of the index; point removal yields a new snapshot."""

    def __init__(self, venue: Venue, graph: D2DGraph, alive: frozenset[int],
                 engine: DistanceEngine | None = None):
        self.venue = venue
        self.graph = graph
        self.alive = alive
        self.engine = engine or DistanceEngine(venue, graph)
        by_cat: dict[int, list[int]] = {}
        for p in venue.points.values():
            if p.id in alive:
                by_cat.setdefault(p.category, []).append(p.id)
        self._live_by_cat = {cat: tuple(sorted(ids)) for cat, ids in by_cat.items()}
        self._blocks: dict[int, PointBlock] = {}  # each category's block, built on first use
        self._rows: dict[tuple, tuple[PointBlock, int]] = {}  # a laid-out point's Location.key() -> its row

    def live_categories(self) -> list[int]:
        """The categories with a live point, in id order."""
        return sorted(self._live_by_cat)

    def live_points(self, category: int) -> list[IndoorPoint]:
        return [self.venue.points[i] for i in self._live_by_cat.get(category, ())]

    def live_count(self, category: int) -> int:
        return len(self._live_by_cat.get(category, ()))

    def is_live(self, point_id: int) -> bool:
        return point_id in self.alive

    def category_block(self, category: int) -> PointBlock:
        """The category's live points, in id order, as one distance block.
        Raises EmptyCategoryError when the category has none."""
        block = self._blocks.get(category)
        if block is None:
            if category not in self._live_by_cat:
                raise EmptyCategoryError(f"category {category} has no live points")
            block = self.engine.block(self.live_points(category))
            self._rows.update(((p.x, p.y, p.floor, p.partition_id), (block, row))
                              for row, p in enumerate(block.points))
            self._blocks[category] = block
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
            counter.point_evals += len(block.points)
        row = int(scores[rows].argmin())  # first minimum: the smallest id among ties
        at = rows.start + row
        return block.points[row], (float(tables.from_source[at]), float(dist[at]),
                                   float(tables.to_target[at]))

    def remove_points(self, point_ids) -> "VenueIndex":
        """New snapshot with the given points dead; it shares the engine."""
        ids = set(point_ids)
        for pid in ids:
            if pid not in self.venue.points:
                raise KeyError(f"unknown point {pid}")
            if pid not in self.alive:
                raise ValueError(f"point {pid} is already dead")
        return VenueIndex(self.venue, self.graph, alive=frozenset(self.alive - ids),
                          engine=self.engine)


def build_index(venue: Venue, graph: D2DGraph) -> VenueIndex:
    """The venue's index, with every point live."""
    return VenueIndex(venue, graph, alive=frozenset(venue.points))
