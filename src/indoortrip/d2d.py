"""Door-to-door graph and the indoor distance metric built on it.

Doors are vertices; two doors sharing a partition get an edge weighted by
their intra-partition distance.  All longer-range distances reduce to
shortest paths over this graph plus straight-line legs inside the first
and last partition.  `build_d2d_graph` measures the shortest path of
every door pair once, into the graph's door matrix, before it returns
the graph: a block Bellman-Ford in numpy, one partition's door clique
per step.  The engine evaluates that formula for one location (or one
block's rows: `pair_table`) against a whole block of points in a single
numpy expression, its one kernel (`door_distances`), and then patches the
rows in the location's own partition to their straight-line distance
(`patch`), in one comprehension whose `math.hypot` calls are
`intra_distance`'s.  The engine keeps no cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .venue import IndoorPoint, Location, Venue, intra_distance

# Floats in one block relaxation's (doors, doors, sources) temporary.
_RELAX_FLOATS = 2 ** 18
# Floats in one pair-table chunk's (rows, I, P, K) temporary and row gather.
_PAIR_FLOATS = 2 ** 18


class DisconnectedVenueError(Exception):
    """Raised when a door cannot reach the rest of the graph."""

    def __init__(self, door_id: int):
        self.door_id = door_id
        super().__init__(f"door {door_id} is unreachable in the door graph")


@dataclass(frozen=True, eq=False)
class D2DGraph:
    """A venue's door graph and its all-pairs shortest door distances,
    complete and immutable from construction: `build_d2d_graph` measures
    the matrix first and leaves it, and each partition's `door_rows`
    (its doors' matrix rows, in the partition's `door_ids` order), read-only."""

    door_ids: tuple[int, ...]                      # sorted; row/column order of the matrix
    edges: dict[tuple[int, int], float]            # (low id, high id) -> weight
    matrix: np.ndarray = field(repr=False)         # (doors, doors) shortest door-path lengths (m)
    door_rows: dict[int, np.ndarray] = field(repr=False)  # partition id -> its doors' rows


def build_d2d_graph(venue: Venue) -> D2DGraph:
    """Connect every door pair of every partition (shared pairs keep the
    minimum weight) and measure all-pairs shortest paths over them.

    A block Bellman-Ford: each partition relaxes its door clique for every
    source at once, in the breadth-first order of `Venue.components()`,
    deepest first, then back and forth until a sweep changes nothing.  This is
    directed Dijkstra's matrix bit for bit.  A relaxation forms fl(d[u] + w),
    the sum Dijkstra forms, and min is exact; fl(a + w) never decreases as
    a grows and is at least a for w >= 0, so a walk that repeats a door
    never beats the same walk without the loop.  The fixpoint is thus, per
    source, the least left-to-right float sum over simple door paths:
    Dijkstra's result.  A sweep that changes something lowers an entry to
    such a sum, so at most n sweeps run.  The matrix is then symmetrized:
    a path summed from its two ends can differ in the last ulp.
    Raises DisconnectedVenueError if any door is cut off."""
    door_ids = tuple(sorted(venue.doors))
    index = {d: i for i, d in enumerate(door_ids)}
    edges: dict[tuple[int, int], float] = {}
    door_rows: dict[int, np.ndarray] = {}
    for part in venue.partitions.values():
        door_rows[part.id] = own = np.array([index[d] for d in part.door_ids], dtype=int)
        own.flags.writeable = False
        doors = venue.partition_doors(part.id)
        for i, da in enumerate(doors):
            for db in doors[i + 1:]:
                if da.id == db.id:
                    continue
                key = (da.id, db.id) if da.id < db.id else (db.id, da.id)
                w = intra_distance(part, da, db)
                if key not in edges or w < edges[key]:
                    edges[key] = w

    n = len(door_ids)
    weight = np.full((n, n), np.inf)
    u, v = np.searchsorted(door_ids, np.fromiter(chain.from_iterable(edges), int)).reshape(-1, 2).T
    weight[u, v] = weight[v, u] = np.fromiter(edges.values(), float, len(edges))
    order = list(chain.from_iterable(venue.components()))
    blocks = [(rows, weight[np.ix_(rows, rows)]) for rows in map(door_rows.get, reversed(order))
              if rows.size > 1]
    dist = np.full((n, n), np.inf)  # dist[v, s]: from door s to door v
    np.fill_diagonal(dist, 0.0)
    changed = True
    while changed:
        changed = False
        for rows, w in blocks:
            cur, step = dist[rows], np.empty((rows.size, n))
            width = max(1, _RELAX_FLOATS // rows.size ** 2)
            for lo in range(0, n, width):
                np.minimum.reduce(cur[:, None, lo:lo + width] + w[:, :, None], axis=0,
                                  out=step[:, lo:lo + width])
            if (step < cur).any():
                dist[rows] = np.minimum(cur, step)
                changed = True
        blocks.reverse()
    matrix = np.minimum(dist, dist.T)
    unreachable = np.isinf(matrix[:1]).nonzero()[1]
    if unreachable.size:
        raise DisconnectedVenueError(door_ids[int(unreachable[0])])
    matrix.flags.writeable = False
    return D2DGraph(door_ids=door_ids, edges=edges, matrix=matrix, door_rows=door_rows)


class DoorLegs(NamedTuple):
    """A resolved location's straight-line legs to its partition's doors, cheap
    to build off a stop's block row; location None for `pair_table`'s block rows."""

    location: Location | None
    doors: np.ndarray   # door-matrix indices of the partition's doors: (I,) or (rows, I)
    legs: np.ndarray    # intra-partition distance to each of them, the same shape


@dataclass(frozen=True)
class PointBlock:
    """Points laid out for the block kernel: one row per point, in the order
    given (id order for a snapshot's category block), one column per door
    slot of its partition, padded to the widest partition with door index 0
    and an infinite leg.  A row's leading slots are its point's `DoorLegs`,
    the only copy of them.  `by_partition` gives the rows (ascending) and
    points in each partition: the rows a location there patches."""

    points: tuple[IndoorPoint, ...]
    doors: np.ndarray        # (P, K) door-matrix indices
    legs: np.ndarray         # (P, K) intra legs, inf where padded
    scores: np.ndarray       # (P,) static scores
    by_partition: dict[int, tuple[np.ndarray, tuple[IndoorPoint, ...]]]


class DistanceEngine:
    """Indoor distance through the door matrix.

    Point-to-point distance is a straight line inside a shared partition,
    otherwise a minimum over (door of a's partition, door of b's
    partition) pairs.  The entry/exit legs are added to each other before
    the door-graph term so that both evaluation directions sum in the
    same order: the metric is exactly symmetric, not just within float
    noise.  `distance`, `pair_table` and the query tables of `index` share
    that one formula (the `door_distances` kernel, then `patch`), so a
    block entry equals the scalar distance bit for bit.  The query tables
    call the two parts themselves, to patch only the rows they read.

    The kernel gathers the door-matrix rows of the location's doors once
    per call and takes the block's door columns from them in one `take`,
    so a location with many doors (a hallway) costs one row gather, not a
    fancy index per door and point slot.
    """

    def __init__(self, venue: Venue, graph: D2DGraph):
        self.venue = venue
        self.graph = graph

    def legs(self, loc: Location) -> DoorLegs:
        """Resolve loc and measure its legs to the doors of its partition."""
        loc = self.venue.resolve(loc)
        part = self.venue.partitions[loc.partition_id]
        legs = [intra_distance(part, loc, d) for d in self.venue.partition_doors(part.id)]
        return DoorLegs(loc, self.graph.door_rows[part.id], np.array(legs, dtype=float))

    def block(self, points) -> PointBlock:
        """Lay points out as a block, in the given order, one partition at a
        time: its door rows, and each point's `intra_distance` to its doors.
        Raises ValueError for a point its partition does not hold."""
        points = tuple(points)
        by_partition: dict[int, list[int]] = {}
        for row, p in enumerate(points):
            by_partition.setdefault(self.venue.partition_of(p).id, []).append(row)
        width = max((self.graph.door_rows[part].size for part in by_partition), default=0)
        doors, legs = [None] * len(points), [None] * len(points)  # row lists, one conversion each
        for part, at in by_partition.items():
            partition, there = self.venue.partitions[part], self.venue.partition_doors(part)
            pad = width - len(there)
            own = self.graph.door_rows[part].tolist() + [0] * pad
            for r in at:
                doors[r] = own
                legs[r] = [intra_distance(partition, points[r], d) for d in there] + [math.inf] * pad
        return PointBlock(
            points=points,
            doors=np.array(doors, dtype=int).reshape(len(points), width),
            legs=np.array(legs, dtype=float).reshape(len(points), width),
            scores=np.array([p.static_score for p in points], dtype=float),
            by_partition={part: (np.array(at), tuple(points[r] for r in at))
                          for part, at in by_partition.items()},
        )

    def door_distances(self, src: DoorLegs, doors: np.ndarray, legs: np.ndarray) -> np.ndarray:
        """min over (i, j) of (src.legs[i] + legs[p, j]) + door_matrix[src.doors[i], doors[p, j]]
        for every row p, and every src row if src is a block: the through-doors distance,
        same-partition pairs unpatched.  The block kernel: every distance is measured through it.

        One-leg bound: let K be this kernel then `patch`, W bound every distance K
        returns (`dominance.venue_reach`), u = 2**-53, and d be the distance of p
        and q, on one floor of one partition, from float coordinate differences.
        Then K(L, q) <= K(L, p) + d + 23u*W for every location L.  d and every leg
        are within (1 -+ 4u) of the real distance, so the partition's triangle
        inequality (straight lines on a floor, the diagonal to another) gives
        leg_j(q) <= leg_j(p) + d + 8.1u*W, as leg_j(p) + d <= W.  From inside, that
        is K itself; from outside, q's entry for the door pair (i, j) that gives
        K(L, p) differs only in leg_j(q), and each sum's two roundings add 2u."""
        rows = self.graph.matrix.take(src.doors, axis=0)  # ([rows,] I, doors)
        total = (src.legs[..., None, None] + legs) + rows.take(doors, axis=-1)  # ([rows,] I, P, K)
        return np.minimum.reduce(total, axis=(-3, -1), initial=np.inf)

    def pair_table(self, a: PointBlock, b: PointBlock) -> np.ndarray:
        """[i, j] = distance from a's point i to b's point j: the kernel from
        chunks of a's rows, each (rows, I, P, K) temporary and (rows, I, doors)
        row gather within `_PAIR_FLOATS`, then `patch` where two points share
        a partition.  Row i is point i's own kernel row, patched, bit for bit."""
        per_row = max(1, a.doors.shape[1] * max(b.doors.size, len(self.graph.door_ids)))
        step = max(1, _PAIR_FLOATS // per_row)
        cuts = range(step, len(a.points), step)
        out = np.concatenate([self.door_distances(DoorLegs(None, *chunk), b.doors, b.legs)
                              for chunk in zip(np.split(a.doors, cuts), np.split(a.legs, cuts))])
        for part in a.by_partition.keys() & b.by_partition.keys():
            for row, p in zip(*a.by_partition[part]):
                self.patch(out[row], p.location, *b.by_partition[part])
        return out

    def patch(self, out: np.ndarray, loc: Location, rows, points) -> None:
        """Set out[rows] to the distance from loc to each of the points, which
        lie in loc's partition: `intra_distance`'s calls, so the same bits."""
        x, y, floor = loc.x, loc.y, loc.floor
        diagonal = self.venue.partitions[loc.partition_id].diagonal
        out[rows] = [math.hypot(x - p.x, y - p.y) if p.floor == floor else diagonal
                     for p in points]

    def door_vector(self, loc: Location) -> np.ndarray:
        """Distance from loc to every door, through its partition's doors.
        No query path calls it: every planner measures with the block
        kernel, through the query tables."""
        src = self.legs(loc)
        return (src.legs[:, None] + self.graph.matrix[src.doors]).min(axis=0, initial=np.inf)

    def distance(self, a: Location, b: Location) -> float:
        a, b = self.legs(a), self.legs(b)
        if (part := a.location.partition_id) == b.location.partition_id:
            return intra_distance(self.venue.partitions[part], a.location, b.location)
        return float(self.door_distances(a, b.doors[None, :], b.legs[None, :])[0])
