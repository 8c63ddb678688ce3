import dataclasses
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

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
)
from indoortrip import d2d
from indoortrip.venue import intra_distance
from indoortrip.workload import generate_venue

from conftest import make_corridor_venue, make_two_room_venue, perfbench_workloads


def door_distance(graph, a, b):
    return graph.matrix[graph.door_ids.index(a), graph.door_ids.index(b)]


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


def make_shared_pair_venue():
    """Two partitions that share both doors; the taller one yields the longer edge."""
    return Venue(
        partitions={
            0: Partition(id=0, floor=0, bounds=(0, 0, 10, 4), kind="room", door_ids=(0, 1)),
            1: Partition(id=1, floor=0, bounds=(0, 4, 10, 20), kind="room", door_ids=(0, 1)),
        },
        doors={
            0: Door(id=0, x=0.0, y=4.0, floor=0, partition_ids=(0, 1)),
            1: Door(id=1, x=10.0, y=4.0, floor=0, partition_ids=(0, 1)),
        },
    )


def test_duplicate_door_pairs_keep_minimum_weight():
    graph = build_d2d_graph(make_shared_pair_venue())
    assert graph.edges == {(0, 1): 10.0}


def test_disconnected_graph_names_an_unreachable_door():
    venue = make_two_room_venue()
    venue.partitions[2] = Partition(id=2, floor=0, bounds=(30, 0, 40, 10), kind="room", door_ids=(1,))
    venue.doors[1] = Door(id=1, x=30.0, y=5.0, floor=0, partition_ids=(2,))
    with pytest.raises(DisconnectedVenueError) as err:
        build_d2d_graph(venue)
    assert err.value.door_id == 1


def test_door_distance_matches_bellman_ford_on_random_venue():
    spec = WorkloadSpec(seed=5, floors=2, rooms_per_floor=9, categories=2,
                        count_range=(1, 2), query_count=1, doors_per_room=2,
                        query_categories=(2,))
    venue, _, _ = build_workload(spec)
    graph = build_d2d_graph(venue)
    assert len(graph.door_ids) >= 20
    matrix = graph.matrix
    for source in graph.door_ids:
        reference = bellman_ford(graph, source)
        for target in graph.door_ids:
            got = matrix[graph.door_ids.index(source), graph.door_ids.index(target)]
            assert got == pytest.approx(reference[target], abs=1e-9)


def test_the_door_matrix_is_built_with_the_graph_and_read_only(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    assert graph.matrix.tolist() == [[0.0]]
    with pytest.raises(ValueError):
        graph.matrix[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.matrix = np.zeros((1, 1))
    room = Partition(id=0, floor=0, bounds=(0, 0, 10, 10), kind="room")
    assert build_d2d_graph(Venue(partitions={0: room}, doors={})).matrix.shape == (0, 0)


def undirected_reference(graph):
    """The door matrix of scipy's undirected Dijkstra over a CSR of both
    directions of every edge, built from Python lists in edge order."""
    index = {d: i for i, d in enumerate(graph.door_ids)}
    rows, cols, weights = [], [], []
    for (a, b), w in graph.edges.items():
        rows += [index[a], index[b]]
        cols += [index[b], index[a]]
        weights += [w, w]
    n = len(graph.door_ids)
    u = dijkstra(csr_matrix((weights, (rows, cols)), shape=(n, n)), directed=False)
    return np.minimum(u, u.T)


def generated_venue(**spec):
    return lambda: build_workload(WorkloadSpec(**spec))[0]


def make_shuffled_corridor_venue(rooms, seed):
    """A corridor whose partition ids are shuffled, so that id order is not
    the order of the rooms along it."""
    venue = make_corridor_venue(rooms=rooms)
    new = dict(zip(venue.partitions, random.Random(seed).sample(sorted(venue.partitions), rooms)))
    return Venue(
        partitions={new[p.id]: dataclasses.replace(p, id=new[p.id]) for p in venue.partitions.values()},
        doors={d.id: dataclasses.replace(d, partition_ids=tuple(new[q] for q in d.partition_ids))
               for d in venue.doors.values()},
    )


def make_repeated_listing_venue():
    """Partition 0 lists door 0 twice, and door 1 names partition 0 twice:
    input `validate_venue` refuses and `build_d2d_graph` still accepts."""
    return Venue(
        partitions={
            0: Partition(id=0, floor=0, bounds=(0, 0, 10, 10), kind="room", door_ids=(0, 0, 1, 2)),
            1: Partition(id=1, floor=0, bounds=(10, 0, 20, 10), kind="room", door_ids=(0, 3)),
        },
        doors={
            0: Door(id=0, x=10.0, y=5.0, floor=0, partition_ids=(0, 1)),
            1: Door(id=1, x=0.0, y=5.0, floor=0, partition_ids=(0, 0)),
            2: Door(id=2, x=5.0, y=0.0, floor=0, partition_ids=(0,)),
            3: Door(id=3, x=20.0, y=5.0, floor=0, partition_ids=(1,)),
        },
    )


def make_coincident_doors_venue():
    """A corridor with a second door at the point of door 1: a zero-weight edge."""
    venue = make_corridor_venue(rooms=3)
    venue.doors[9] = Door(id=9, x=10.0, y=5.0, floor=0, partition_ids=(0, 1))
    for pid in (0, 1):
        part = venue.partitions[pid]
        venue.partitions[pid] = dataclasses.replace(part, door_ids=part.door_ids + (9,))
    return venue


def make_nested_cliques_venue():
    """Cliques inside cliques: two rooms list the same two doors of their
    hallway (in either order), a third room holds three of its doors, a
    fourth holds the same two and the one way into a fifth, and two stairs of
    different diagonals hold the same pair of doors, one on each floor, so
    that their edge keeps the shorter diagonal."""
    def door(i, x, floor, *parts):
        return Door(id=i, x=x, y=4.0, floor=floor, partition_ids=parts)

    return Venue(
        partitions={
            0: Partition(id=0, floor=0, bounds=(0, 0, 40, 4), kind="hallway", door_ids=(0, 1, 2, 3, 4)),
            1: Partition(id=1, floor=0, bounds=(10, 4, 20, 10), kind="room", door_ids=(1, 2)),
            2: Partition(id=2, floor=0, bounds=(10, 4, 20, 12), kind="room", door_ids=(2, 1)),
            3: Partition(id=3, floor=0, bounds=(0, 4, 40, 20), kind="room", door_ids=(0, 2, 3)),
            4: Partition(id=4, floor=0, bounds=(40, 0, 44, 6), kind="stairs", door_ids=(4, 5),
                         floor2=1),
            5: Partition(id=5, floor=0, bounds=(40, 0, 47, 9), kind="stairs", door_ids=(5, 4),
                         floor2=1),
            6: Partition(id=6, floor=1, bounds=(0, 0, 40, 4), kind="hallway", door_ids=(5, 6, 7)),
            7: Partition(id=7, floor=1, bounds=(10, 4, 30, 10), kind="room", door_ids=(6, 7)),
            8: Partition(id=8, floor=0, bounds=(10, 4, 20, 10), kind="room", door_ids=(2, 8, 1)),
            9: Partition(id=9, floor=0, bounds=(10, 10, 20, 16), kind="room", door_ids=(8, 9)),
        },
        doors={
            0: door(0, 0.0, 0, 0, 3), 1: door(1, 10.0, 0, 0, 1, 2, 8), 2: door(2, 20.0, 0, 0, 1, 2, 3, 8),
            3: door(3, 30.0, 0, 0, 3), 4: door(4, 40.0, 0, 0, 4, 5), 5: door(5, 40.0, 1, 4, 5, 6),
            6: door(6, 10.0, 1, 6, 7), 7: door(7, 30.0, 1, 6, 7),
            8: Door(id=8, x=15.0, y=10.0, floor=0, partition_ids=(8, 9)),
            9: Door(id=9, x=15.0, y=16.0, floor=0, partition_ids=(9,)),
        },
    )


REFERENCE_VENUES = {
    "two-room": make_two_room_venue,
    "corridor-2": lambda: make_corridor_venue(rooms=2),
    "corridor-4": make_corridor_venue,
    "shared-pair": make_shared_pair_venue,
    "doorless": lambda: Venue(partitions={0: Partition(id=0, floor=0, bounds=(0, 0, 10, 10))},
                              doors={}),
    "random-9": generated_venue(seed=5, floors=2, rooms_per_floor=9, categories=2,
                                count_range=(1, 2), query_count=1, doors_per_room=2,
                                query_categories=(2,)),
    "stairs": generated_venue(seed=1, floors=2, rooms_per_floor=4, categories=2,
                              count_range=(1, 2), query_count=1, query_categories=(2,)),
    "desk-workload": generated_venue(seed=11, categories=8, count_range=(25, 35),
                                     query_count=10),
    "corridor-60-shuffled": lambda: make_shuffled_corridor_venue(60, seed=4),
    "repeated-listings": make_repeated_listing_venue,
    "coincident-doors": make_coincident_doors_venue,
    "nested-cliques": make_nested_cliques_venue,
    # One hallway with 120 doors: its relaxation runs in several column chunks.
    "hallway-1x120": generated_venue(seed=2, floors=1, rooms_per_floor=120, categories=2,
                                     count_range=(1, 2), query_count=1, query_categories=(2,)),
    "multi-door-4x12x3": generated_venue(seed=3, floors=4, rooms_per_floor=12, categories=2,
                                         count_range=(1, 2), query_count=1, doors_per_room=3,
                                         query_categories=(2,)),
    **{f"{w.name}-{seed}": (lambda w=w, seed=seed: build_workload(w.workload_spec(seed))[0])
       for w in perfbench_workloads().values() for seed in (w.seed, w.holdout_seed)},
}


@pytest.mark.parametrize("make_venue", REFERENCE_VENUES.values(), ids=REFERENCE_VENUES.keys())
def test_the_door_matrix_is_the_undirected_reference_bit_for_bit(make_venue):
    graph = build_d2d_graph(make_venue())
    assert all(a < b for a, b in graph.edges)
    assert np.array_equal(graph.matrix, undirected_reference(graph))


def test_nested_equal_cliques_keep_the_least_weight():
    graph = build_d2d_graph(make_nested_cliques_venue())
    assert graph.edges[(4, 5)] == math.hypot(4, 6)
    assert graph.edges[(1, 2)] == 10.0


@pytest.mark.parametrize("floats", [40, 1000])
@pytest.mark.parametrize("name", ["hallway-1x120", "multi-door-4x12x3"])
def test_a_relaxation_budget_below_a_clique_squared_keeps_the_bits(monkeypatch, name, floats):
    """A budget below a clique's k * k floats splits its doors as well as
    its columns: one door row per temporary at 40; at 1,000, eight of the
    hallway's 120 doors, or 26-27 of a 37-38-door hallway's."""
    monkeypatch.setattr(d2d, "_RELAX_FLOATS", floats)
    graph = build_d2d_graph(REFERENCE_VENUES[name]())
    assert np.array_equal(graph.matrix, undirected_reference(graph))


def shuffled_venue(venue, rng, scale):
    """The venue with partition ids and door ids drawn afresh (sparse, in no
    order), partitions listed in a random order, and every coordinate
    scaled by `scale`."""
    parts = dict(zip(venue.partitions, rng.sample(range(5 * len(venue.partitions)), len(venue.partitions))))
    doors = dict(zip(venue.doors, rng.sample(range(5 * len(venue.doors)), len(venue.doors))))
    partitions = [
        dataclasses.replace(p, id=parts[p.id], bounds=tuple(b * scale for b in p.bounds),
                            door_ids=tuple(doors[d] for d in p.door_ids))
        for p in venue.partitions.values()
    ]
    rng.shuffle(partitions)
    return Venue(
        partitions={p.id: p for p in partitions},
        doors={doors[d.id]: dataclasses.replace(d, id=doors[d.id], x=d.x * scale, y=d.y * scale,
                                                partition_ids=tuple(parts[q] for q in d.partition_ids))
               for d in venue.doors.values()},
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(floors=st.integers(1, 4), rooms=st.integers(1, 12), doors=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), scale=st.sampled_from([0.1, 0.3, 1.1, 2.7, 7.9]))
def test_the_door_matrix_is_the_reference_on_shuffled_scaled_venues(floors, rooms, doors, seed, scale):
    spec = WorkloadSpec(seed=seed, floors=floors, rooms_per_floor=rooms, doors_per_room=doors)
    graph = build_d2d_graph(shuffled_venue(generate_venue(spec), random.Random(seed), scale))
    assert np.array_equal(graph.matrix, undirected_reference(graph))


def test_importing_the_library_loads_no_scipy():
    """Scipy is a test dependency only: the library and its CLI run on numpy."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import indoortrip, indoortrip.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
