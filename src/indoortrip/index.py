"""Hierarchical partition index with per-node category summaries.

Partitions are grouped into leaves by adjacency, leaves into internal
nodes, up to a single root.  Each node keeps an inverted file (category
-> partitions below it that still hold a live point of that category)
and the minimum live static score per category.  Those two summaries
give an admissible lower bound for best-first category-nearest-neighbour
search, so a query never has to look at every object.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .d2d import D2DGraph, DistanceEngine, PointBlock
from .routing import EmptyCategoryError, EvalCounter, QueryContext
from .venue import IndoorPoint, Location, Venue


@dataclass
class IndexNode:
    id: int
    children: tuple[int, ...] = ()          # internal nodes
    partition_ids: tuple[int, ...] = ()     # leaves
    covered: frozenset[int] = frozenset()   # every partition under this node
    boundary_doors: tuple[int, ...] = ()    # doors linking the node's region to the rest
    inverted: dict[int, set[int]] = field(default_factory=dict)
    min_static: dict[int, float] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class CnnStats:
    evaluated: int = 0
    skipped_bounds: list[float] = field(default_factory=list)


class _QueryMemo:
    """Terms fixed for one query that its cnn calls on one snapshot reuse:
    door vectors of the locations seen, each node's source and target entry
    bounds, and each leaf block's source and target distances.  It also
    keeps the (source, from, target) legs of each point cnn returned, keyed
    by the from location and the point, for the planner to build its route
    from.  The query's context holds it (`QueryContext.memo`), so it lives
    and dies with the query; it keeps no reference back to the context."""

    def __init__(self, ctx: QueryContext, engine: DistanceEngine):
        self.engine = engine
        self.source = engine.legs(ctx.source)
        self.target = engine.legs(ctx.target)
        self.door_vectors: dict[tuple, np.ndarray] = {}
        self.node_ends: dict[int, tuple[float, float]] = {}
        self.block_ends: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.winner_legs: dict[tuple[tuple, int], tuple[float, float, float]] = {}

    def door_vector(self, loc: Location) -> np.ndarray:
        vec = self.door_vectors.get(loc.key())
        if vec is None:
            vec = self.door_vectors[loc.key()] = self.engine.door_vector(loc)
        return vec


class VenueIndex:
    """One snapshot of the index; point removal yields a new snapshot."""

    def __init__(self, venue: Venue, graph: D2DGraph, nodes: dict[int, IndexNode],
                 root_id: int, alive: frozenset[int], engine: DistanceEngine | None = None):
        self.venue = venue
        self.graph = graph
        self.nodes = nodes
        self.root_id = root_id
        self.alive = alive
        self.engine = engine or DistanceEngine(venue, graph)
        self._live_by_part_cat: dict[tuple[int, int], tuple[int, ...]] = {}
        self._boundary_idx: dict[int, np.ndarray] = {}
        # Built on first use: a category's block, and a leaf's per category.
        self._blocks: dict = {}
        self._refresh_aggregates()

    # -- aggregate maintenance ------------------------------------------------

    def _refresh_aggregates(self) -> None:
        by_part_cat: dict[tuple[int, int], list[int]] = {}
        part_cats: dict[int, dict[int, float]] = {}  # partition -> {category: min live score}
        for p in self.venue.points.values():
            if p.id not in self.alive:
                continue
            by_part_cat.setdefault((p.partition_id, p.category), []).append(p.id)
            cats = part_cats.setdefault(p.partition_id, {})
            if p.category not in cats or p.static_score < cats[p.category]:
                cats[p.category] = p.static_score
        self._live_by_part_cat = {k: tuple(sorted(v)) for k, v in by_part_cat.items()}

        def leaf_aggregates(node: IndexNode) -> tuple[dict, dict]:
            inverted: dict[int, set[int]] = {}
            min_static: dict[int, float] = {}
            for pid in node.partition_ids:
                for cat, low in part_cats.get(pid, {}).items():
                    inverted.setdefault(cat, set()).add(pid)
                    if cat not in min_static or low < min_static[cat]:
                        min_static[cat] = low
            return inverted, min_static

        # Bottom-up: leaves from live points, parents from children.
        order = self._topological_children_first()
        for nid in order:
            node = self.nodes[nid]
            if node.is_leaf:
                node.inverted, node.min_static = leaf_aggregates(node)
            else:
                inverted: dict[int, set[int]] = {}
                min_static: dict[int, float] = {}
                for cid in node.children:
                    child = self.nodes[cid]
                    for cat, parts in child.inverted.items():
                        inverted.setdefault(cat, set()).update(parts)
                    for cat, low in child.min_static.items():
                        if cat not in min_static or low < min_static[cat]:
                            min_static[cat] = low
                node.inverted, node.min_static = inverted, min_static

    def _topological_children_first(self) -> list[int]:
        order: list[int] = []
        stack = [self.root_id]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(self.nodes[nid].children)
        order.reverse()
        return order

    # -- queries ----------------------------------------------------------------

    @property
    def root(self) -> IndexNode:
        return self.nodes[self.root_id]

    def min_static_score(self, node_id: int, category: int) -> float | None:
        if node_id not in self.nodes:
            raise KeyError(f"unknown index node {node_id}")
        return self.nodes[node_id].min_static.get(category)

    def live_points(self, category: int) -> list[IndoorPoint]:
        ids = [
            i
            for (part, cat), ids in self._live_by_part_cat.items()
            if cat == category
            for i in ids
        ]
        return [self.venue.points[i] for i in sorted(ids)]

    def live_count(self, category: int) -> int:
        return sum(
            len(ids) for (_, cat), ids in self._live_by_part_cat.items() if cat == category
        )

    def is_live(self, point_id: int) -> bool:
        return point_id in self.alive

    def _boundary_indices(self, node: IndexNode) -> np.ndarray:
        idx = self._boundary_idx.get(node.id)
        if idx is None:
            idx = np.array([self.graph.index_of(d) for d in node.boundary_doors], dtype=int)
            self._boundary_idx[node.id] = idx
        return idx

    def category_block(self, category: int) -> PointBlock:
        """The category's live points, in id order, as one distance block."""
        block = self._blocks.get(category)
        if block is None:
            block = self.engine.block(self.live_points(category))
            self._blocks[category] = block
        return block

    def _leaf_block(self, node: IndexNode, category: int) -> PointBlock:
        """The leaf's live points of the category, in id order."""
        key = (node.id, category)
        block = self._blocks.get(key)
        if block is None:
            ids = sorted(
                i for pid in node.inverted[category] for i in self._live_by_part_cat[(pid, category)]
            )
            block = self.engine.block(self.venue.points[i] for i in ids)
            self._blocks[key] = block
        return block

    def _resolved(self, ctx: QueryContext) -> QueryContext:
        if ctx.source.partition_id is None or ctx.target.partition_id is None:
            # Bounds rely on partition membership; resolve once up front.
            ctx = QueryContext(
                self.venue.resolve(ctx.source), self.venue.resolve(ctx.target), ctx.alpha
            )
        return ctx

    def _query_memo(self, ctx: QueryContext) -> _QueryMemo:
        """The memo this snapshot keeps on the context, made on first use."""
        memo = ctx.memo.get(self)
        if memo is None:
            memo = ctx.memo.setdefault(self, _QueryMemo(self._resolved(ctx), self.engine))
        return memo

    def _entry_bound(self, door_vector: np.ndarray, loc: Location, node: IndexNode) -> float:
        """Lower bound on the distance from loc to anywhere inside node."""
        if loc.partition_id in node.covered:
            return 0.0
        idx = self._boundary_indices(node)
        if idx.size == 0:
            return 0.0
        return float(door_vector[idx].min())

    def _node_bound(self, node: IndexNode, category: int, from_loc: Location,
                    from_vector: np.ndarray, ctx: QueryContext, memo: _QueryMemo) -> float:
        ms = node.min_static[category]
        a = ctx.alpha
        ends = memo.node_ends.get(node.id)
        if ends is None:
            source, target = ctx.source, ctx.target
            ends = memo.node_ends[node.id] = (
                self._entry_bound(memo.door_vector(source), source, node),
                self._entry_bound(memo.door_vector(target), target, node),
            )
        travel_lb = ends[0] + self._entry_bound(from_vector, from_loc, node) + ends[1]
        return a * travel_lb + (1.0 - a) * ms

    def cnn(self, from_loc: Location, category: int, ctx: QueryContext,
            stats: CnnStats | None = None, counter: EvalCounter | None = None) -> IndoorPoint:
        """Live point of the category minimising the three-leg score.

        Equals a linear scan over the category's live points; ties go to
        the smallest point id.  Each visited leaf is scored as one block.
        Terms fixed by the query are memoized on ctx for later calls with
        the same context object, as are the winner's legs for cnn_legs.
        """
        root = self.root
        if category not in root.inverted:
            raise EmptyCategoryError(f"category {category} has no live points")
        from_loc = self.venue.resolve(from_loc)
        memo = self._query_memo(ctx)
        ctx = self._resolved(ctx)
        from_vector = memo.door_vector(from_loc)
        from_legs = self.engine.legs(from_loc)
        a = ctx.alpha

        best_score = float("inf")
        best_point: IndoorPoint | None = None
        best_legs = (0.0, 0.0, 0.0)
        heap: list[tuple[float, int]] = [
            (self._node_bound(root, category, from_loc, from_vector, ctx, memo), root.id)
        ]
        while heap:
            bound, nid = heapq.heappop(heap)
            if best_point is not None and bound > best_score:
                if stats is not None:
                    stats.skipped_bounds.append(bound)
                continue
            node = self.nodes[nid]
            if node.is_leaf:
                block = self._leaf_block(node, category)
                ends = memo.block_ends.get((nid, category))
                if ends is None:
                    ends = memo.block_ends[(nid, category)] = (
                        self.engine.block_distances(memo.source, block),
                        self.engine.block_distances(memo.target, block),
                    )
                to_source, to_target = ends
                from_here = self.engine.block_distances(from_legs, block)
                travel = to_source + from_here + to_target
                scores = a * travel + (1.0 - a) * block.scores
                if stats is not None:
                    stats.evaluated += len(block.points)
                if counter is not None:
                    counter.point_evals += len(block.points)
                row = int(scores.argmin())  # first minimum: the smallest id among ties
                score = float(scores[row])
                point = block.points[row]
                if score < best_score or (
                    score == best_score and best_point is not None and point.id < best_point.id
                ):
                    best_score = score
                    best_point = point
                    best_legs = (float(to_source[row]), float(from_here[row]),
                                 float(to_target[row]))
            else:
                for cid in node.children:
                    child = self.nodes[cid]
                    if category in child.inverted:
                        bound = self._node_bound(child, category, from_loc, from_vector, ctx, memo)
                        heapq.heappush(heap, (bound, cid))
        assert best_point is not None
        memo.winner_legs[(from_loc.key(), best_point.id)] = best_legs
        return best_point

    def cnn_legs(self, from_loc: Location, point: IndoorPoint,
                 ctx: QueryContext) -> tuple[float, float, float]:
        """The point's (source, from_loc, target) distances under ctx, as
        recorded by the cnn call on this snapshot that returned the point for
        from_loc with the same context object."""
        return ctx.memo[self].winner_legs[(self.venue.resolve(from_loc).key(), point.id)]

    # -- mutation (snapshotting) --------------------------------------------------

    def remove_points(self, point_ids) -> "VenueIndex":
        """New snapshot with the given points dead; summaries recomputed."""
        ids = set(point_ids)
        for pid in ids:
            if pid not in self.venue.points:
                raise KeyError(f"unknown point {pid}")
            if pid not in self.alive:
                raise ValueError(f"point {pid} is already dead")
        nodes = {
            nid: IndexNode(
                id=n.id,
                children=n.children,
                partition_ids=n.partition_ids,
                covered=n.covered,
                boundary_doors=n.boundary_doors,
            )
            for nid, n in self.nodes.items()
        }
        return VenueIndex(
            self.venue, self.graph, nodes, self.root_id,
            alive=frozenset(self.alive - ids), engine=self.engine,
        )


def _leaf_partition_groups(venue: Venue, fanout: int) -> list[list[int]]:
    """Adjacency-respecting breadth-first order, chunked to fanout."""
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
    return [order[i:i + fanout] for i in range(0, len(order), fanout)]


def _boundary_doors(venue: Venue, covered: frozenset[int]) -> tuple[int, ...]:
    doors = []
    for door in venue.doors.values():
        inside = [p for p in door.partition_ids if p in covered]
        outside = [p for p in door.partition_ids if p not in covered]
        if inside and outside:
            doors.append(door.id)
    return tuple(sorted(doors))


def build_index(venue: Venue, graph: D2DGraph, fanout: int = 4) -> VenueIndex:
    if fanout < 2:
        raise ValueError("fanout must be at least 2")

    nodes: dict[int, IndexNode] = {}
    next_id = 0
    level: list[int] = []
    for group in _leaf_partition_groups(venue, fanout):
        covered = frozenset(group)
        nodes[next_id] = IndexNode(
            id=next_id,
            partition_ids=tuple(group),
            covered=covered,
            boundary_doors=_boundary_doors(venue, covered),
        )
        level.append(next_id)
        next_id += 1

    while len(level) > 1:
        parents: list[int] = []
        for i in range(0, len(level), fanout):
            children = tuple(level[i:i + fanout])
            if len(children) == 1 and parents:
                # Fold a trailing singleton into the previous parent.
                prev = nodes[parents[-1]]
                prev.children = prev.children + children
                prev.covered = frozenset(prev.covered | nodes[children[0]].covered)
                prev.boundary_doors = _boundary_doors(venue, prev.covered)
                continue
            covered = frozenset().union(*(nodes[c].covered for c in children))
            nodes[next_id] = IndexNode(
                id=next_id,
                children=children,
                covered=covered,
                boundary_doors=_boundary_doors(venue, covered),
            )
            parents.append(next_id)
            next_id += 1
        level = parents

    root_id = level[0]
    alive = frozenset(venue.points)
    return VenueIndex(venue, graph, nodes, root_id, alive=alive)
