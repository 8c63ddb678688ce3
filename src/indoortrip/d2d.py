"""Door-to-door graph and the indoor distance metric built on it.

Doors are vertices; two doors sharing a partition get an edge weighted by
their intra-partition distance.  All longer-range distances reduce to
shortest paths over this graph plus straight-line legs inside the first
and last partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .venue import Location, Venue, intra_distance


class DisconnectedVenueError(Exception):
    """Raised when a door cannot reach the rest of the graph."""

    def __init__(self, door_id: int):
        self.door_id = door_id
        super().__init__(f"door {door_id} is unreachable in the door graph")


@dataclass
class D2DGraph:
    door_ids: tuple[int, ...]                      # sorted; row/column order of the matrix
    edges: dict[tuple[int, int], float]            # (low id, high id) -> weight
    _index: dict[int, int] = field(default_factory=dict, repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {d: i for i, d in enumerate(self.door_ids)}

    def index_of(self, door_id: int) -> int:
        try:
            return self._index[door_id]
        except KeyError:
            raise KeyError(f"unknown door {door_id}") from None

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path door distances (meters), cached.

        Symmetrized after the fact: per-source runs can disagree in the
        last ulp because they sum path edges in opposite orders.
        """
        if self._matrix is None:
            n = len(self.door_ids)
            rows, cols, weights = [], [], []
            for (a, b), w in self.edges.items():
                ia, ib = self._index[a], self._index[b]
                rows.extend((ia, ib))
                cols.extend((ib, ia))
                weights.extend((w, w))
            graph = csr_matrix((weights, (rows, cols)), shape=(n, n))
            dist = dijkstra(graph, directed=False)
            self._matrix = np.minimum(dist, dist.T)
        return self._matrix


def build_d2d_graph(venue: Venue) -> D2DGraph:
    """Connect every door pair of every partition; shared pairs keep the
    minimum weight.  Raises DisconnectedVenueError if any door is cut off."""
    edges: dict[tuple[int, int], float] = {}
    for part in venue.partitions.values():
        doors = venue.partition_doors(part.id)
        for i, da in enumerate(doors):
            for db in doors[i + 1:]:
                if da.id == db.id:
                    continue
                key = (da.id, db.id) if da.id < db.id else (db.id, da.id)
                w = intra_distance(part, da.location, db.location)
                if key not in edges or w < edges[key]:
                    edges[key] = w

    door_ids = tuple(sorted(venue.doors))
    graph = D2DGraph(door_ids=door_ids, edges=edges)

    if door_ids:
        matrix = graph.distance_matrix()
        unreachable = np.isinf(matrix[0])
        if unreachable.any():
            bad = door_ids[int(np.argmax(unreachable))]
            raise DisconnectedVenueError(bad)
    return graph


def door_distance(graph: D2DGraph, a: int, b: int) -> float:
    """Minimum-weight path length between two doors."""
    got = float(graph.distance_matrix()[graph.index_of(a), graph.index_of(b)])
    if not np.isfinite(got):
        raise DisconnectedVenueError(b)
    return got


class DistanceEngine:
    """Indoor distance with memoised door legs.

    Point-to-point distance is a straight line inside a shared partition,
    otherwise a minimum over (door of a's partition, door of b's
    partition) pairs.  The entry/exit legs are added to each other before
    the door-graph term so that both evaluation directions sum in the
    same order: the metric is exactly symmetric, not just within float
    noise.
    """

    def __init__(self, venue: Venue, graph: D2DGraph):
        self.venue = venue
        self.graph = graph
        self._door_vectors: dict[tuple, np.ndarray] = {}
        self._intra_vectors: dict[tuple, np.ndarray] = {}
        self._part_door_idx: dict[int, np.ndarray] = {}
        self._pair_cache: dict[tuple, float] = {}

    def _resolve(self, loc: Location) -> Location:
        return self.venue.resolve(loc)

    def _door_indices(self, partition_id: int) -> np.ndarray:
        idx = self._part_door_idx.get(partition_id)
        if idx is None:
            idx = np.array(
                [self.graph.index_of(d) for d in self.venue.partitions[partition_id].door_ids],
                dtype=int,
            )
            self._part_door_idx[partition_id] = idx
        return idx

    def _intra_vector(self, loc: Location) -> np.ndarray:
        """Straight-line legs from loc to each door of its partition."""
        key = loc.key()
        vec = self._intra_vectors.get(key)
        if vec is None:
            part = self.venue.partitions[loc.partition_id]
            vec = np.array(
                [intra_distance(part, loc, d.location) for d in self.venue.partition_doors(part.id)]
            )
            self._intra_vectors[key] = vec
        return vec

    def door_vector(self, loc: Location) -> np.ndarray:
        """Distance from loc to every door, through its partition's doors."""
        loc = self._resolve(loc)
        key = loc.key()
        vec = self._door_vectors.get(key)
        if vec is None:
            part = self.venue.partitions[loc.partition_id]
            matrix = self.graph.distance_matrix()
            vec = np.full(len(self.graph.door_ids), np.inf)
            for door in self.venue.partition_doors(part.id):
                leg = intra_distance(part, loc, door.location)
                np.minimum(vec, leg + matrix[self.graph.index_of(door.id)], out=vec)
            self._door_vectors[key] = vec
        return vec

    def distance(self, a: Location, b: Location) -> float:
        a = self._resolve(a)
        b = self._resolve(b)
        if a.partition_id == b.partition_id:
            part = self.venue.partitions[a.partition_id]
            return intra_distance(part, a, b)
        ka, kb = a.key(), b.key()
        cache_key = (ka, kb) if ka <= kb else (kb, ka)
        got = self._pair_cache.get(cache_key)
        if got is not None:
            return got
        matrix = self.graph.distance_matrix()
        rows = self._door_indices(a.partition_id)
        cols = self._door_indices(b.partition_id)
        legs = self._intra_vector(a)[:, None] + self._intra_vector(b)[None, :]
        total = float((legs + matrix[np.ix_(rows, cols)]).min())
        self._pair_cache[cache_key] = total
        return total
