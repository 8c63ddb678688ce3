"""Flat partition index: a tuple of leaves, each a few adjacent partitions.

Partitions are grouped into leaves by adjacency; the leaves are built
once and shared by every snapshot.  A snapshot keeps its live points by
(partition, category) and by category.  For category-nearest-neighbour
search it lays out, per category, a flat table of the leaves that hold
it, with the least distance from every door into each leaf.  A query
location's legs to its own partition's doors then bound the score of
every leaf in one vector expression, so a query never has to look at
every object, and each location a query touches is resolved and
measured once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .d2d import D2DGraph, DistanceEngine, DoorLegs, PointBlock
from .routing import EmptyCategoryError, EvalCounter, QueryContext
from .venue import IndoorPoint, Location, Venue


@dataclass(frozen=True)
class Leaf:
    partition_ids: tuple[int, ...]
    boundary_doors: tuple[int, ...]     # doors linking the leaf to the rest


@dataclass
class CnnStats:
    evaluated: int = 0
    skipped_bounds: list[float] = field(default_factory=list)


class _QueryMemo:
    """Terms fixed for one query that its cnn calls on one snapshot reuse:
    the door legs of each location seen, resolved and measured once and
    keyed by the location as given and as resolved; one `_CategoryTerms`
    record per category, made on the query's first cnn call for it; and
    the (source, from, target) legs of each point cnn returned, keyed by
    the resolved from location and the point, for the planner to build its
    route from.  The query's context holds it (`QueryContext.memo`), so it
    lives and dies with the query; it keeps no reference back to the
    context."""

    def __init__(self, ctx: QueryContext, engine: DistanceEngine):
        self.engine = engine
        self.located: dict[tuple, DoorLegs] = {}
        # Resolved here: the bounds rely on partition membership.
        self.source = self.legs(ctx.source)
        self.target = self.legs(ctx.target)
        self.categories: dict[int, _CategoryTerms] = {}
        self.winner_legs: dict[tuple[tuple, int], tuple[float, float, float]] = {}

    def legs(self, loc: Location) -> DoorLegs:
        """loc's legs to the doors of its partition, resolved on first sight."""
        key = loc.key()
        got = self.located.get(key)
        if got is None:
            got = self.located[key] = self.engine.legs(loc)
            self.located.setdefault(got.location.key(), got)
        return got


class _CategoryTerms:
    """One query's fixed terms for one category's leaf table: the source
    and target entry rows, (1 - alpha) times each leaf's least static
    score, and for each leaf visited so far its block's source and target
    distances and (1 - alpha) times its static scores (None until then).
    Every array here is read, never written: cnn builds its bounds and
    scores in new arrays."""

    __slots__ = ("table", "source_entries", "target_entries", "static", "leaves")

    def __init__(self, table: "_LeafTable", memo: _QueryMemo, alpha: float):
        self.table = table
        self.source_entries = table.entries(memo.source)
        self.target_entries = table.entries(memo.target)
        self.static = (1.0 - alpha) * table.min_static
        self.leaves: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = \
            [None] * len(table.blocks)

    def bounds(self, from_legs: DoorLegs, at_source: bool, alpha: float) -> np.ndarray:
        """A lower bound on the score of every point in each leaf, for a
        from location's legs (the source's when at_source): the kernel's
        score expression ((s + f) + t) * alpha + (1 - alpha) * static on the
        entry bounds and each leaf's least static score."""
        if at_source:
            out = self.source_entries + self.source_entries
        else:
            out = self.table.entries(from_legs)
            out += self.source_entries  # f + s == s + f: float addition commutes
        out += self.target_entries
        out *= alpha
        out += self.static
        return out


def bound_scale(door_count: int) -> float:
    """Factor that keeps a leaf's entry bound at or below every float
    distance the block kernel returns from a location outside the leaf to
    a point inside it.  (The leaf that holds the location gets bound 0.)

    Let u = 2**-53 and gamma_k = k*u / (1 - k*u).  A float sum of k + 1
    nonnegative terms, bracketed in any way, lies within a factor
    (1 -+ gamma_k) of its real value.  Take the float legs and door-graph
    edge weights as real inputs, let M be the real shortest door paths
    over them and D the real distance, and let n = door_count.

    - The kernel, from below.  A kernel entry is the least over door
      pairs (i, j) of (leg_i + leg_j) + door_matrix[i, j].  A door matrix
      entry is Dijkstra's float sum along one simple path of at most
      n - 1 edges, summed from one end or the other (the matrix is
      symmetrized).  So each candidate sums at most n + 1 terms, and the
      entry is at least (1 - gamma_n) * D(loc, p).
    - The crossing.  A door-graph edge joins two doors of one partition
      (partitions and doors list each other), so no edge joins a door
      whose partitions all lie inside the leaf to one whose partitions
      all lie outside it.  A door path from loc's partition, outside the
      leaf, to p's, inside it, therefore passes a boundary door b, and
      the real shortest one splits there:
      D(loc, p) = leg_i + M[i, b] + M[b, j] + leg_j(p), where its parts
      from i to b and from b to j are one simple path of at most n - 1
      edges.
    - The bound, from above.  The bound for that leaf is at most the
      float sum leg_i + (door_matrix[i, b] + inner[b]), inner[b] being
      the engine's door_block_min from b into the leaf: three float
      terms and two roundings, and inner[b] <= leg_j(p) +
      door_matrix[b, j], one more rounding.  Float addition is monotone
      and adding a nonnegative term never shrinks a sum, so Dijkstra
      returns the least float path sum over all paths from its source:
      door_matrix[i, b] is at most the float sum from i of the edges of
      the real path's part from i to b, and door_matrix[b, j] at most
      that from b of its part from b to j.  Put those sums in their
      place and the bound can only grow; what results is one bracketed
      float sum of the real path's at most n + 1 terms (leg_i, its
      edges and leg_j(p)).  So the unscaled bound is at most
      (1 + gamma_n) * D(loc, p).

    Together, kernel(loc, p) >= (1 - gamma_n) / (1 + gamma_n) times the
    unscaled bound.  The bound multiplies its least sum by this factor s:
    one more rounding of at most (1 + u).  So s is safe when s * (1 + u)
    <= (1 - gamma_n) / (1 + gamma_n), whose right side is at least
    1 - 4*n*u since gamma_n <= 2*n*u.  s = 1 - 4*(n + 1)*u =
    1 - (n + 1) * 2**-51, which binary floating point represents exactly,
    gives s * (1 + u) <= 1 - (4*n + 3)*u, so it is safe with 3u to spare.
    The leaf's score bound applies the kernel's score expression, whose
    operations are monotone, to these entry bounds and the leaf's least
    static score, so it never exceeds the float score of any of the
    leaf's points.
    """
    return 1.0 - (door_count + 1) * 2.0 ** -51


@dataclass(frozen=True)
class _LeafTable:
    """The leaves that hold one category on one snapshot, one row each in
    leaf order, laid out so that one vector expression bounds them all.

    door_entries[i, r] is the least door_matrix[i, b] + inner[b] over leaf
    r's boundary doors b, where inner[b] is the least distance from b to a
    live point of the category in leaf r: the distance from door i into
    leaf r, inf for a leaf with none.
    """

    blocks: tuple[PointBlock, ...]  # each leaf's live points of the category, in id order
    door_entries: np.ndarray        # (D, L) least distance from each door into each leaf
    min_static: np.ndarray          # (L,) each leaf's least live static score
    row_of: dict[int, int]          # partition id -> row of the leaf that covers it
    scale: float                    # bound_scale of the venue's door count

    def entries(self, legs: DoorLegs) -> np.ndarray:
        """A lower bound on the distance from a resolved location to the
        category's live points in each leaf: 0 in its own leaf, else the
        scaled least legs[k] + door_entries[doors[k]] over its doors k."""
        out = np.minimum.reduce(legs.legs[:, None] + self.door_entries.take(legs.doors, axis=0),
                                axis=0, initial=np.inf)
        out *= self.scale
        row = self.row_of.get(legs.location.partition_id)
        if row is not None:
            out[row] = 0.0
        return out


class VenueIndex:
    """One snapshot of the index; point removal yields a new snapshot."""

    def __init__(self, venue: Venue, graph: D2DGraph, leaves: tuple[Leaf, ...],
                 alive: frozenset[int], engine: DistanceEngine | None = None):
        self.venue = venue
        self.graph = graph
        self.leaves = leaves
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
        # Built on first use, keyed by category: its block and its leaf table.
        self._blocks: dict[int, PointBlock] = {}
        self._leaf_tables: dict[int, _LeafTable] = {}

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
        """The category's live points, in id order, as one distance block."""
        block = self._blocks.get(category)
        if block is None:
            block = self.engine.block(self.live_points(category))
            self._blocks[category] = block
        return block

    def _leaf_table(self, category: int) -> _LeafTable:
        """The category's leaf table, built on the first cnn call for it."""
        table = self._leaf_tables.get(category)
        if table is not None:
            return table
        if category not in self._live_by_cat:
            raise EmptyCategoryError(f"category {category} has no live points")
        matrix = self.graph.distance_matrix()
        blocks, columns, row_of = [], [], {}
        for leaf in self.leaves:
            ids = [i for pid in leaf.partition_ids
                   for i in self._live_by_part_cat.get((pid, category), ())]
            if not ids:
                continue
            block = self.engine.block(self.venue.points[i] for i in sorted(ids))
            idx = np.array([self.graph.index_of(d) for d in leaf.boundary_doors], dtype=int)
            inner = self.engine.door_block_min(idx, block)
            columns.append((matrix[:, idx] + inner).min(axis=1, initial=np.inf))
            row_of.update(dict.fromkeys(leaf.partition_ids, len(blocks)))
            blocks.append(block)
        table = _LeafTable(
            blocks=tuple(blocks), door_entries=np.column_stack(columns),
            min_static=np.array([b.scores.min() for b in blocks]),
            row_of=row_of, scale=bound_scale(len(self.graph.door_ids)),
        )
        return self._leaf_tables.setdefault(category, table)

    def _query_memo(self, ctx: QueryContext) -> _QueryMemo:
        """The memo this snapshot keeps on the context, made on first use."""
        memo = ctx.memo.get(self)
        if memo is None:
            memo = ctx.memo.setdefault(self, _QueryMemo(ctx, self.engine))
        return memo

    def _category_terms(self, memo: _QueryMemo, category: int, alpha: float) -> _CategoryTerms:
        """The memo's record for the category, made on first use."""
        terms = memo.categories.get(category)
        if terms is None:
            terms = memo.categories[category] = _CategoryTerms(
                self._leaf_table(category), memo, alpha)
        return terms

    def cnn(self, from_loc: Location, category: int, ctx: QueryContext,
            stats: CnnStats | None = None, counter: EvalCounter | None = None) -> IndoorPoint:
        """Live point of the category minimising the three-leg score.

        Equals a linear scan over the category's live points; ties go to
        the smallest point id.  Leaves are visited in order of their score
        bound until a bound exceeds the best score, each scored as one
        block.  Terms fixed by the query are memoized on ctx for later
        calls with the same context object, as are the winner's legs for
        cnn_legs.
        """
        memo = self._query_memo(ctx)
        a = ctx.alpha
        terms = self._category_terms(memo, category, a)
        from_legs = memo.legs(from_loc)
        at_source = from_legs is memo.source
        bounds = terms.bounds(from_legs, at_source, a)
        order = bounds.argsort(kind="stable").tolist()
        bound_of = bounds.tolist()

        engine = self.engine
        blocks = terms.table.blocks
        best_score = float("inf")
        best_point: IndoorPoint | None = None
        best_legs = (0.0, 0.0, 0.0)
        for pos, row in enumerate(order):
            if best_point is not None and bound_of[row] > best_score:
                if stats is not None:
                    stats.skipped_bounds.extend(bound_of[r] for r in order[pos:])
                break
            block = blocks[row]
            leaf = terms.leaves[row]
            if leaf is None:
                leaf = terms.leaves[row] = (
                    engine.block_distances(memo.source, block),
                    engine.block_distances(memo.target, block),
                    (1.0 - a) * block.scores,
                )
            to_source, to_target, static = leaf
            from_here = to_source if at_source else engine.block_distances(from_legs, block)
            # The kernel's score, ((s + f) + t) * a + static, in a new array.
            scores = to_source + from_here
            scores += to_target
            scores *= a
            scores += static
            if stats is not None:
                stats.evaluated += len(block.points)
            if counter is not None:
                counter.point_evals += len(block.points)
            row_min = int(scores.argmin())  # first minimum: the smallest id among ties
            score = float(scores[row_min])
            point = block.points[row_min]
            if score < best_score or (
                score == best_score and best_point is not None and point.id < best_point.id
            ):
                best_score = score
                best_point = point
                best_legs = (float(to_source[row_min]), float(from_here[row_min]),
                             float(to_target[row_min]))
        assert best_point is not None
        memo.winner_legs[(from_legs.location.key(), best_point.id)] = best_legs
        return best_point

    def cnn_legs(self, from_loc: Location, point: IndoorPoint,
                 ctx: QueryContext) -> tuple[float, float, float]:
        """The point's (source, from_loc, target) distances under ctx, as
        recorded by the cnn call on this snapshot that returned the point for
        from_loc with the same context object."""
        memo = ctx.memo[self]
        return memo.winner_legs[(memo.legs(from_loc).location.key(), point.id)]

    def remove_points(self, point_ids) -> "VenueIndex":
        """New snapshot with the given points dead; it shares the leaves."""
        ids = set(point_ids)
        for pid in ids:
            if pid not in self.venue.points:
                raise KeyError(f"unknown point {pid}")
            if pid not in self.alive:
                raise ValueError(f"point {pid} is already dead")
        return VenueIndex(self.venue, self.graph, self.leaves,
                          alive=frozenset(self.alive - ids), engine=self.engine)


def _leaf_partition_groups(venue: Venue, size: int) -> list[list[int]]:
    """Adjacency-respecting breadth-first order, chunked to size."""
    adj = venue.adjacency()
    order: list[int] = []
    seen: set[int] = set()
    for start in sorted(venue.partitions):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            pid = queue.popleft()
            order.append(pid)
            for other in sorted(adj[pid]):
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
    return [order[i:i + size] for i in range(0, len(order), size)]


def _boundary_doors(venue: Venue, covered: frozenset[int]) -> tuple[int, ...]:
    doors = []
    for door in venue.doors.values():
        inside = [p for p in door.partition_ids if p in covered]
        outside = [p for p in door.partition_ids if p not in covered]
        if inside and outside:
            doors.append(door.id)
    return tuple(sorted(doors))


def build_index(venue: Venue, graph: D2DGraph, leaf_size: int = 4) -> VenueIndex:
    """The venue's index, its partitions grouped leaf_size to a leaf."""
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be at least 1, got {leaf_size}")
    leaves = tuple(
        Leaf(tuple(group), _boundary_doors(venue, frozenset(group)))
        for group in _leaf_partition_groups(venue, leaf_size)
    )
    return VenueIndex(venue, graph, leaves, alive=frozenset(venue.points))
