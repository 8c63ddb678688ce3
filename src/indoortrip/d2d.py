"""Door-to-door graph and the indoor distance metric built on it.

Doors are vertices; two doors sharing a partition get an edge weighted by
their intra-partition distance.  All longer-range distances reduce to
shortest paths over this graph plus straight-line legs inside the first
and last partition.  `build_d2d_graph` measures the shortest path of
every door pair once, into the graph's door matrix, before it returns
the graph: a semi-naive block Bellman-Ford in numpy, one partition's
door clique per step, each step relaxing only the source columns that
may have changed in the clique's rows since it last ran.  The engine
evaluates that formula for one location (or one block's rows:
`pair_table`) against a whole block of points in a single numpy
expression, its one kernel (`door_distances`), and then patches the
rows in the location's own partition to their straight-line distance
(`patch`), in one comprehension whose `math.hypot` calls are
`intra_distance`'s, on coordinates read from the point table's columns.
A point table is laid out for the kernel in one gather
(`DistanceEngine.layout`); blocks are cut from one gather of some of its
rows (`PointLayout.blocks`) and hold table rows, not points.  The engine
keeps no cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .venue import (Location, PointTable, Venue, fits_int64, intra_distance,
                    point_partitions)

# Floats in one block relaxation's (doors, doors, sources) temporary.
_RELAX_FLOATS = 2 ** 18
# Floats in one pair-table chunk's (rows, I, P, K) temporary and row gather.
_PAIR_FLOATS = 2 ** 18
_NO_DOORS = np.zeros(0, dtype=int)


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

    A semi-naive block Bellman-Ford over `_cliques`, in their order, then
    back and forth until none is dirty: each relaxes the source columns of
    its dirty range at once.  `dist` starts at one hop, the weights with a
    zero diagonal: each clique's first relaxation from the diagonal, as
    fl(0 + w) = w.  Doors are numbered in the order the first sweep
    reaches them, so that a clique's live columns lie close together, and
    permuted back at the end.

    This is directed Dijkstra's matrix bit for bit.  Source columns relax
    independently.  A relaxation forms fl(d[u] + w), the sum Dijkstra
    forms, and min is exact; fl(a + w) never decreases as a grows and is
    at least a for w >= 0, so a walk that repeats a door never beats the
    same walk without the loop, and a relaxation lowers an entry only to a
    left-to-right float sum over a simple door path.  A clique's range
    starts as the span of the doors of the cliques that share a door with
    it, which holds every column with a finite entry in its rows: an
    all-infinite column relaxes to itself.  A clique whose rows have not changed in a
    column, since a relaxation that left that column unchanged, would leave
    it unchanged again.  So a relaxation that lowers columns re-marks them
    on every clique that shares a door with it, and on itself, as a second
    hop inside the clique may lower them again; a range is the span of the
    marked columns, and relaxing a column it need not is harmless.  An
    empty worklist is thus a fixpoint of every clique on every column (and
    so of every dropped one): per source, the least left-to-right float
    sum over simple door paths, Dijkstra's result.  Each relaxation that
    changes something lowers an entry to such a sum, so the loop ends.
    The matrix is then symmetrized: a path summed from its two ends can
    differ in the last ulp.
    Raises DisconnectedVenueError if any door is cut off."""
    door_ids = tuple(sorted(venue.doors))
    index = {d: i for i, d in enumerate(door_ids)}
    parts = venue.partitions.values()
    ends = list(accumulate(len(part.door_ids) for part in parts))
    flat = np.fromiter(map(index.__getitem__, chain.from_iterable(p.door_ids for p in parts)), int)
    flat.flags.writeable = False  # each partition's door rows are a slice of it
    door_rows = {part.id: flat[a:b] for part, a, b in zip(parts, [0, *ends], ends)}
    edges: dict[tuple[int, int], float] = {}
    cliques: list[list[int]] = []
    for part in parts:
        if len(part.door_ids) > 1:  # intra_distance of each pair, inline
            diagonal = part.diagonal
            doors = [(d.id, d.x, d.y, d.floor) for d in venue.partition_doors(part.id)]
            clique = {(a, b) if a < b else (b, a): math.hypot(xa - xb, ya - yb) if fa == fb
                      else diagonal
                      for i, (a, xa, ya, fa) in enumerate(doors) for b, xb, yb, fb in doors[i + 1:]
                      if a != b}
            for key in clique.keys() & edges.keys():
                clique[key] = min(edges[key], clique[key])
            edges.update(clique)
            cliques.append(list(dict.fromkeys(door_rows[part.id].tolist())))
    cliques, near = _cliques(cliques)

    n = len(door_ids)
    touched = dict.fromkeys(chain.from_iterable(cliques))
    new = np.empty(n, dtype=int)
    new[[*touched, *(i for i in range(n) if i not in touched)]] = np.arange(n)
    dist = np.full((n, n), np.inf)  # dist[v, s]: from door s to door v, numbered by `new`
    u, v = new[np.searchsorted(door_ids, np.fromiter(chain.from_iterable(edges), int))].reshape(-1, 2).T
    dist[u, v] = dist[v, u] = np.fromiter(edges.values(), float, len(edges))
    np.fill_diagonal(dist, 0.0)
    blocks = [(rows, dist.take(rows, 0).take(rows, 1), marks)
              for rows, marks in zip(map(new.take, cliques), near)]
    spans = [(min(rows), max(rows) + 1) for rows in (rows.tolist() for rows, _, _ in blocks)]
    lo = [min(spans[k][0] for k in marks) for marks in near]
    hi = [max(spans[k][1] for k in marks) for marks in near]
    sweep = list(range(len(blocks)))
    while any(map(int.__lt__, lo, hi)):
        for b in sweep:
            a, z = lo[b], hi[b]
            if a < z:
                lo[b], hi[b] = n, 0
                rows, w, marks = blocks[b]
                cur = dist[rows, a:z]
                step = _relax(cur, w)
                lowered = (step < cur).any(axis=0).nonzero()[0]
                if lowered.size:
                    dist[rows, a:z] = step
                    first, last = a + int(lowered[0]), a + int(lowered[-1]) + 1
                    for k in marks:
                        lo[k], hi[k] = min(lo[k], first), max(hi[k], last)
        sweep.reverse()
    matrix = np.minimum(dist, dist.T)[np.ix_(new, new)]
    unreachable = np.isinf(matrix[:1]).nonzero()[1]
    if unreachable.size:
        raise DisconnectedVenueError(door_ids[int(unreachable[0])])
    matrix.flags.writeable = False
    return D2DGraph(door_ids=door_ids, edges=edges, matrix=matrix, door_rows=door_rows)


def _cliques(cliques: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """The door cliques that `build_d2d_graph` relaxes, of each partition's
    distinct door rows: those of two or more doors not all in another
    clique (a principal submatrix of the one weight matrix, so the larger
    clique's fixpoint implies its own; of equal ones the first stays),
    breadth-first over shared doors, deepest first.  Also, for each, the
    positions of the cliques sharing a door with it, itself included."""
    cliques = [rows for rows in cliques if len(rows) > 1]
    held = [set(rows) for rows in cliques]
    holding: dict[int, list[int]] = {}  # door row -> the kept cliques through it
    for c in sorted(range(len(cliques)), key=lambda c: -len(held[c])):
        if not any(held[c] <= held[k] for k in holding.get(cliques[c][0], ())):
            for row in cliques[c]:
                holding.setdefault(row, []).append(c)
    near = {c: set(chain.from_iterable(map(holding.__getitem__, cliques[c])))
            for c in sorted(set(chain.from_iterable(holding.values())))}
    seen, walks = set(), []
    for start in near:
        if start not in seen:
            seen.add(start)
            walks.append(queue := [start])
            for c in queue:
                queue += sorted(near[c] - seen)
                seen |= near[c]
    order = list(chain.from_iterable(walks))[::-1]
    at = {c: i for i, c in enumerate(order)}
    return [cliques[c] for c in order], [[at[k] for k in near[c]] for c in order]


def _relax(cur: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One clique relaxation of some source columns: [v, s] = min over u of
    cur[u, s] + w[u, v], w with a zero diagonal.  Each (u, v, column)
    temporary holds at most `_RELAX_FLOATS` floats, or one u row: a wide
    clique splits u too, which min, being exact, allows."""
    k, cols = cur.shape
    if k * k * cols <= _RELAX_FLOATS:
        return np.minimum.reduce(cur[:, None] + w[:, :, None], axis=0)
    span = max(1, min(k, _RELAX_FLOATS // k))
    width = max(1, _RELAX_FLOATS // (span * k))
    step = np.empty_like(cur)
    for lo in range(0, cols, width):
        out = step[:, lo:lo + width]
        for u in range(0, k, span):
            least = np.minimum.reduce(cur[u:u + span, None, lo:lo + width] + w[u:u + span, :, None], axis=0)
            out[...] = np.minimum(out, least) if u else least
    return step


class DoorLegs(NamedTuple):
    """A resolved location's straight-line legs to its partition's doors, cheap
    to build off a stop's block row; location None for `pair_table`'s block rows."""

    location: Location | None
    doors: np.ndarray   # door-matrix indices of the partition's doors: (I,) or (rows, I)
    legs: np.ndarray    # intra-partition distance to each of them, the same shape


@dataclass(frozen=True)
class PointBlock:
    """Rows of a point table laid out for the block kernel: one row per
    point, in the order given (id order for a snapshot's category block),
    one column per door slot of its partition, padded to the widest
    partition with door index 0 and an infinite leg.  A row's leading
    slots are its point's `DoorLegs`.  A block holds no point object:
    `rows` are its points' rows of `table`, and `by_partition` gives, for
    each partition, its block rows there (an array, ascending) and their
    table rows: the rows a location there patches."""

    table: PointTable = field(repr=False)
    rows: list[int]          # (P,) table rows, Python ints for a plain list index
    doors: np.ndarray        # (P, K) door-matrix indices
    legs: np.ndarray         # (P, K) intra legs, inf where padded
    scores: np.ndarray       # (P,) static scores
    by_partition: dict[int, tuple[np.ndarray, list[int]]]


class PointLayout(NamedTuple):
    """A point table's rows laid out for the block kernel, as
    `PointBlock`'s rows are, padded to the widest partition of the table.
    A row its partition does not hold (`held`) is laid out as nothing."""

    doors: np.ndarray   # (n, K) door-matrix indices
    legs: np.ndarray    # (n, K) intra legs, inf where padded
    count: np.ndarray   # (n,) door slots of each row's partition
    held: np.ndarray    # (n,) whether `Venue.partition_of` accepts the row

    def blocks(self, venue: Venue, table: PointTable, rows: np.ndarray,
               starts: list[int]) -> list[PointBlock]:
        """The table's rows, in the given order, cut before each of starts
        (the first 0) into blocks in one columnar pass: one gather of this
        layout's rows and of the scores, each block a slice of it cut to the
        widest of its rows, and every block's rows grouped by partition in
        one stable sort.  Builds no point.  Raises `Venue.partition_of`'s
        ValueError for the first row its partition does not hold."""
        held = self.held[rows]
        if not held.all():
            venue.partition_of(table[int(rows[held.argmin()])])
        ends = [*starts[1:], len(rows)]
        doors, legs, count = self.doors[rows], self.legs[rows], self.count[rows]
        scores = table.static_score[rows]
        block = np.repeat(np.arange(len(starts)), np.subtract(ends, starts))
        order = np.lexsort((table.partition_id[rows], block))  # stable: rows ascend in a group
        part, block = table.partition_id[rows[order]], block[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (part[1:] != part[:-1]) | (block[1:] != block[:-1])
        first = first.nonzero()[0].tolist()
        at = order - np.array(starts, dtype=int)[block]  # each group's block rows
        for array in (doors, legs, scores, at):
            array.flags.writeable = False
        grouped, rows = rows[order].tolist(), rows.tolist()  # and their table rows
        by_partition: list[dict] = [{} for _ in starts]
        for b, pid, a, z in zip(block[first].tolist(), part[first].tolist(), first,
                                [*first[1:], len(rows)]):
            by_partition[b][pid] = (at[a:z], grouped[a:z])
        return [PointBlock(table, rows[a:z], doors[a:z, :w], legs[a:z, :w], scores[a:z], parts)
                for a, z, parts in zip(starts, ends, by_partition)
                for w in (int(count[a:z].max(initial=0)),)]


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

    def layout(self, table: PointTable) -> PointLayout:
        """Lay a point table out in one gather: each row's partition's door
        rows, padded, and for a held row its `intra_distance` to each of
        those doors, `math.hypot` of the same float differences to a door
        on its floor, else the partition's diagonal."""
        parts, at, held = point_partitions(self.venue, table)
        own = [self.graph.door_rows[part.id] if part else _NO_DOORS for part in parts]
        count = np.array([rows.size for rows in own], dtype=int)
        width = int(count.max(initial=0))
        real = np.arange(width) < count[:, None]
        doors = np.zeros((len(parts), width), dtype=int)
        doors[real] = np.concatenate(own) if own else _NO_DOORS
        doors, real, count = doors[at], real[at], count[at]
        # by door-matrix index; a floor outside int64 is on no row's floor
        there = [self.venue.doors[d] for d in self.graph.door_ids]
        fits = np.array([fits_int64(d.floor) for d in there], dtype=bool)
        floor = np.array([d.floor if ok else 0 for d, ok in zip(there, fits.tolist())],
                         dtype=np.int64)
        diagonal = np.array([part.diagonal if part else 0.0 for part in parts], dtype=float)
        legs = np.where(real, diagonal[at, None], np.inf)
        r, c = np.nonzero(real & held[:, None] & fits[doors] & (floor[doors] == table.floor[:, None]))
        door = doors[r, c]
        x = np.array([d.x for d in there], dtype=float)[door]
        y = np.array([d.y for d in there], dtype=float)[door]
        legs[r, c] = list(map(math.hypot, (table.x[r] - x).tolist(), (table.y[r] - y).tolist()))
        return PointLayout(doors, legs, count, held)

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
        cuts = range(step, len(a.rows), step)
        out = np.concatenate([self.door_distances(DoorLegs(None, *chunk), b.doors, b.legs)
                              for chunk in zip(np.split(a.doors, cuts), np.split(a.legs, cuts))])
        xs, ys, floors = a.table.coordinates
        for part in a.by_partition.keys() & b.by_partition.keys():
            at, rows = a.by_partition[part]
            for i, r in zip(at.tolist(), rows):
                self.patch(out[i], Location(xs[r], ys[r], floors[r], part), *b.by_partition[part],
                           b.table)
        return out

    def patch(self, out: np.ndarray, loc: Location, at: np.ndarray, rows: list[int],
              table: PointTable) -> None:
        """Set out[at] to the distance from loc to the points of the table's
        rows, which lie in loc's partition: `intra_distance`'s float
        differences of the table's coordinates and `math.hypot`, so the same bits."""
        x, y, floor = loc.x, loc.y, loc.floor
        diagonal = self.venue.partitions[loc.partition_id].diagonal
        xs, ys, floors = table.coordinates
        out[at] = [math.hypot(x - xs[r], y - ys[r]) if floors[r] == floor else diagonal
                   for r in rows]

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
