"""Per-snapshot index of live points, the per-query distance tables, and
category-nearest-neighbour search.

A snapshot keeps its live points by (partition, category) and by
category, and lays each category's live points out, on first use, as one
block in id order.  `QueryTables` holds the terms one query measures
once on a snapshot and reads again; `cnn`, `rank_once_greedy` and the
oracle score from it.  `cnn` scores a category's whole block with at most
one block-kernel call, from the from location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .d2d import D2DGraph, DistanceEngine, DoorLegs, PointBlock
from .routing import EmptyCategoryError, EvalCounter, QueryContext
from .venue import IndoorPoint, Location, Venue


@dataclass
class CnnStats:
    evaluated: int = 0


class QueryTables:
    """The terms one query measures once on one snapshot and reads again.
    `cnn`, `rank_once_greedy` and the oracle all score from these tables:

    - `legs(loc)`: a location's door legs, resolved and measured on first
      sight and keyed by the location as given and as resolved; `source`
      and `target` are the query's.
    - `category(c)`: made on first use, the snapshot's block for c, its
      source and target distances, and `(1 - alpha) * block.scores`.
    - `between(a, b)`: the distances from each point of category a to
      each point of b, for the oracle's layered DP.
    - `winner_legs`: the (source, from, target) legs of each point `cnn`
      returned, keyed by the resolved from location and the point id, for
      `cnn_legs`.

    `cnn` keeps one table per snapshot on the query's context
    (`QueryContext.memo`), so it lives and dies with the query; it keeps no
    reference back to the context.  The other planners build one per
    query.  Every array here is read, never written."""

    def __init__(self, index: "VenueIndex", source: Location, target: Location, alpha: float):
        self.index = index
        self.engine = index.engine
        self.alpha = alpha
        self.located: dict[tuple, DoorLegs] = {}
        self.source = self.legs(source)
        self.target = self.legs(target)
        self._categories: dict[int, tuple[PointBlock, np.ndarray, np.ndarray, np.ndarray]] = {}
        self._between: dict[tuple[int, int], np.ndarray] = {}
        self.winner_legs: dict[tuple[tuple, int], tuple[float, float, float]] = {}

    def legs(self, loc: Location) -> DoorLegs:
        """loc's legs to the doors of its partition, resolved on first sight."""
        key = loc.key()
        got = self.located.get(key)
        if got is None:
            got = self.located[key] = self.engine.legs(loc)
            self.located.setdefault(got.location.key(), got)
        return got

    def category(self, category: int) -> tuple[PointBlock, np.ndarray, np.ndarray, np.ndarray]:
        """(block, source distances, target distances, (1 - alpha) * scores)
        of the category.  Raises EmptyCategoryError when it has no live point."""
        terms = self._categories.get(category)
        if terms is None:
            block = self.index.category_block(category)
            terms = self._categories[category] = (
                block,
                self.engine.block_distances(self.source, block),
                self.engine.block_distances(self.target, block),
                (1.0 - self.alpha) * block.scores,
            )
        return terms

    def between(self, a: int, b: int) -> np.ndarray:
        """[i, j] = distance from point i of category a to point j of b."""
        got = self._between.get((a, b))
        if got is None:
            if (b, a) in self._between:
                return self._between[(b, a)].T  # the metric is exactly symmetric
            block = self.category(b)[0]
            got = np.array([
                self.engine.block_distances(self.engine.legs(p.location), block)
                for p in self.category(a)[0].points
            ])
            self._between[(a, b)] = got
        return got


class VenueIndex:
    """One snapshot of the index; point removal yields a new snapshot."""

    def __init__(self, venue: Venue, graph: D2DGraph, alive: frozenset[int],
                 engine: DistanceEngine | None = None):
        self.venue = venue
        self.graph = graph
        self.alive = alive
        self.engine = engine or DistanceEngine(venue, graph)
        by_part_cat: dict[tuple[int, int], list[int]] = {}
        for p in venue.points.values():
            if p.id in alive:
                by_part_cat.setdefault((p.partition_id, p.category), []).append(p.id)
        self._live_by_part_cat = {k: tuple(sorted(v)) for k, v in by_part_cat.items()}
        by_cat: dict[int, list[int]] = {}
        for (_, cat), ids in by_part_cat.items():
            by_cat.setdefault(cat, []).extend(ids)
        self._live_by_cat = {cat: tuple(sorted(ids)) for cat, ids in by_cat.items()}
        # Each category's block, built on first use.
        self._blocks: dict[int, PointBlock] = {}

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
            self._blocks[category] = block
        return block

    def cnn(self, from_loc: Location, category: int, ctx: QueryContext,
            stats: CnnStats | None = None, counter: EvalCounter | None = None) -> IndoorPoint:
        """Live point of the category minimising the three-leg score.

        Scores the category's whole block of live points, in id order, so
        it equals a linear scan and ties go to the smallest point id.  It
        reads the query's QueryTables, kept on ctx for later calls with the
        same context object, and records the winner's legs there for cnn_legs.
        """
        tables = ctx.memo.get(self)
        if tables is None:
            tables = ctx.memo.setdefault(self, QueryTables(self, ctx.source, ctx.target, ctx.alpha))
        block, to_source, to_target, static = tables.category(category)
        from_legs = tables.legs(from_loc)
        from_here = (to_source if from_legs is tables.source
                     else self.engine.block_distances(from_legs, block))
        # The kernel's score, ((s + f) + t) * a + static, in a new array.
        scores = to_source + from_here
        scores += to_target
        scores *= ctx.alpha
        scores += static
        if stats is not None:
            stats.evaluated += len(block.points)
        if counter is not None:
            counter.point_evals += len(block.points)
        row = int(scores.argmin())  # first minimum: the smallest id among ties
        point = block.points[row]
        tables.winner_legs[(from_legs.location.key(), point.id)] = (
            float(to_source[row]), float(from_here[row]), float(to_target[row]))
        return point

    def cnn_legs(self, from_loc: Location, point: IndoorPoint,
                 ctx: QueryContext) -> tuple[float, float, float]:
        """The point's (source, from_loc, target) distances under ctx, as
        recorded by the cnn call on this snapshot that returned the point for
        from_loc with the same context object."""
        tables = ctx.memo[self]
        return tables.winner_legs[(tables.legs(from_loc).location.key(), point.id)]

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
