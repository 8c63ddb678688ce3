import math
import random

import numpy as np
import pytest

from indoortrip import (
    DisconnectedVenueError,
    DistanceEngine,
    Door,
    Location,
    Partition,
    Venue,
    WorkloadSpec,
    build_d2d_graph,
    build_workload,
    door_distance,
)
from indoortrip.venue import intra_distance

from conftest import make_corridor_venue, make_two_room_venue


def bellman_ford(graph, source):
    """Independent all-pairs check: |V|-1 rounds of edge relaxation."""
    dist = {d: math.inf for d in graph.door_ids}
    dist[source] = 0.0
    for _ in range(len(graph.door_ids) - 1):
        changed = False
        for (a, b), w in graph.edges.items():
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
            if dist[b] + w < dist[a]:
                dist[a] = dist[b] + w
                changed = True
        if not changed:
            break
    return dist


def test_single_partition_edge_is_euclidean():
    venue = Venue(
        partitions={0: Partition(id=0, floor=0, bounds=(0, 0, 3, 4), kind="room", door_ids=(0, 1))},
        doors={
            0: Door(id=0, x=0.0, y=0.0, floor=0, partition_ids=(0,)),
            1: Door(id=1, x=3.0, y=4.0, floor=0, partition_ids=(0,)),
        },
    )
    graph = build_d2d_graph(venue)
    assert graph.edges == {(0, 1): 5.0}


def test_shared_door_produces_no_self_loop(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    assert all(a != b for a, b in graph.edges)
    assert graph.edges == {}


def test_corridor_chain_edges_and_path_metric():
    venue = make_corridor_venue(rooms=4, width=10.0)
    graph = build_d2d_graph(venue)
    assert len(graph.edges) == 4
    # path metric equals the sum of segment lengths
    assert door_distance(graph, 0, 4) == pytest.approx(40.0)
    assert door_distance(graph, 1, 3) == pytest.approx(20.0)


def test_door_distance_identity_and_forced_chain():
    venue = make_corridor_venue(rooms=2, width=10.0)
    # chain d0-d1-d2 with weights 10, 10
    graph = build_d2d_graph(venue)
    assert door_distance(graph, 1, 1) == 0.0
    assert door_distance(graph, 0, 2) == pytest.approx(20.0)


def test_duplicate_door_pairs_keep_minimum_weight():
    # two partitions share both doors; the taller one yields the longer edge
    venue = Venue(
        partitions={
            0: Partition(id=0, floor=0, bounds=(0, 0, 10, 4), kind="room", door_ids=(0, 1)),
            1: Partition(id=1, floor=0, bounds=(0, 4, 10, 20), kind="room", door_ids=(0, 1)),
        },
        doors={
            0: Door(id=0, x=0.0, y=4.0, floor=0, partition_ids=(0, 1)),
            1: Door(id=1, x=10.0, y=4.0, floor=0, partition_ids=(0, 1)),
        },
    )
    graph = build_d2d_graph(venue)
    assert graph.edges == {(0, 1): 10.0}


def test_disconnected_graph_names_an_unreachable_door():
    venue = make_two_room_venue()
    venue.partitions[2] = Partition(id=2, floor=0, bounds=(30, 0, 40, 10), kind="room", door_ids=(1,))
    venue.doors[1] = Door(id=1, x=30.0, y=5.0, floor=0, partition_ids=(2,))
    with pytest.raises(DisconnectedVenueError) as err:
        build_d2d_graph(venue)
    assert err.value.door_id in venue.doors


def test_door_distance_matches_bellman_ford_on_random_venue():
    spec = WorkloadSpec(seed=5, floors=2, rooms_per_floor=9, categories=2,
                        count_range=(1, 2), query_count=1, doors_per_room=2,
                        query_categories=(2,))
    venue, _, _ = build_workload(spec)
    graph = build_d2d_graph(venue)
    assert len(graph.door_ids) >= 20
    matrix = graph.distance_matrix()
    for source in graph.door_ids:
        reference = bellman_ford(graph, source)
        for target in graph.door_ids:
            got = matrix[graph.index_of(source), graph.index_of(target)]
            assert got == pytest.approx(reference[target], abs=1e-9)


def test_edge_count_formula_on_generated_venue():
    spec = WorkloadSpec(seed=5, floors=2, rooms_per_floor=6, categories=2,
                        count_range=(1, 2), query_count=1, doors_per_room=2,
                        query_categories=(2,))
    venue, _, _ = build_workload(spec)
    graph = build_d2d_graph(venue)
    pairs = set()
    for part in venue.partitions.values():
        doors = sorted(part.door_ids)
        for i, a in enumerate(doors):
            for b in doors[i + 1:]:
                pairs.add((a, b))
    assert len(graph.edges) == len(pairs)


def test_indoor_distance_identity_and_euclidean(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    p = Location(1.0, 2.0, 0)
    assert DistanceEngine(two_room_venue, graph).distance(p, p) == 0.0
    a = Location(0.0, 0.0, 0)
    b = Location(6.0, 8.0, 0)
    assert DistanceEngine(two_room_venue, graph).distance(a, b) == 10.0


def brute_force_distance(venue, graph, p, q, max_doors=3):
    """Enumerate door sequences up to length max_doors between p and q."""
    p = venue.resolve(p)
    q = venue.resolve(q)
    if p.partition_id == q.partition_id:
        best = intra_distance(venue.partitions[p.partition_id], p, q)
    else:
        best = math.inf
    doors = list(venue.doors.values())

    def door_partitions(d):
        return set(d.partition_ids)

    def leg(part_id, a, b):
        return intra_distance(venue.partitions[part_id], a, b)

    def walk(seq):
        # a valid walk visits consecutive doors through a shared partition
        total = leg(p.partition_id, p, seq[0].location)
        for d1, d2 in zip(seq, seq[1:]):
            shared = door_partitions(d1) & door_partitions(d2)
            if not shared:
                return math.inf
            total += min(leg(s, d1.location, d2.location) for s in shared)
        total += leg(q.partition_id, seq[-1].location, q)
        return total

    import itertools

    for n in range(1, max_doors + 1):
        for seq in itertools.permutations(doors, n):
            if p.partition_id not in door_partitions(seq[0]):
                continue
            if q.partition_id not in door_partitions(seq[-1]):
                continue
            best = min(best, walk(seq))
    return best


def test_adjacent_rooms_distance_matches_exhaustive_enumeration():
    venue = make_corridor_venue(rooms=3, width=10.0)
    graph = build_d2d_graph(venue)
    rng = random.Random(9)
    for _ in range(25):
        p = Location(rng.uniform(0, 30), rng.uniform(0, 10), 0)
        q = Location(rng.uniform(0, 30), rng.uniform(0, 10), 0)
        expected = brute_force_distance(venue, graph, p, q)
        got = DistanceEngine(venue, graph).distance(p, q)
        assert got == pytest.approx(expected, abs=1e-9)


def test_adjacent_rooms_single_door_decomposition(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    p = Location(2.0, 2.0, 0)
    q = Location(18.0, 9.0, 0)
    door = two_room_venue.doors[0].location
    expected = math.hypot(10 - 2, 5 - 2) + math.hypot(18 - 10, 9 - 5)
    assert DistanceEngine(two_room_venue, graph).distance(p, q) == pytest.approx(expected)
    assert expected == pytest.approx(
        brute_force_distance(two_room_venue, graph, p, q), abs=1e-9
    )


def test_metric_symmetry_and_triangle_inequality():
    spec = WorkloadSpec(seed=13, floors=3, rooms_per_floor=8, categories=2,
                        count_range=(1, 2), query_count=1, query_categories=(2,))
    venue, _, _ = build_workload(spec)
    graph = build_d2d_graph(venue)
    engine = DistanceEngine(venue, graph)
    rooms = sorted(p.id for p in venue.partitions.values() if p.kind == "room")
    rng = random.Random(31)

    def sample():
        part = venue.partitions[rng.choice(rooms)]
        x0, y0, x1, y1 = part.bounds
        return Location(rng.uniform(x0, x1), rng.uniform(y0, y1), part.floor, part.id)

    for _ in range(400):
        p, q, r = sample(), sample(), sample()
        pq = engine.distance(p, q)
        assert pq == engine.distance(q, p)
        assert engine.distance(p, r) <= pq + engine.distance(q, r) + 1e-9


def test_multi_floor_distance_goes_through_stairs():
    spec = WorkloadSpec(seed=1, floors=2, rooms_per_floor=4, categories=2,
                        count_range=(1, 2), query_count=1, query_categories=(2,))
    venue, _, _ = build_workload(spec)
    graph = build_d2d_graph(venue)
    rooms = {p.id: p for p in venue.partitions.values() if p.kind == "room"}
    lower = next(p for p in rooms.values() if p.floor == 0)
    upper = next(p for p in rooms.values() if p.floor == 1)
    p = Location(*(np.mean([lower.bounds[0], lower.bounds[2]]),
                   np.mean([lower.bounds[1], lower.bounds[3]])), floor=0)
    q = Location(*(np.mean([upper.bounds[0], upper.bounds[2]]),
                   np.mean([upper.bounds[1], upper.bounds[3]])), floor=1)
    stairs = next(p for p in venue.partitions.values() if p.kind == "stairs")
    d = DistanceEngine(venue, graph).distance(p, q)
    assert d >= stairs.diagonal  # must pay at least one stair flight
