"""The block distance kernel: exact agreement with the scalar metric, the
tie rule on blocks (cnn, gcnn and rank-once), and an engine that keeps no
per-query state."""

import math
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indoortrip import (
    DistanceEngine,
    IndoorPoint,
    Location,
    QueryContext,
    TripQuery,
    build_d2d_graph,
    build_index,
    gcnn,
    rank_once_greedy,
)

from indoortrip.dominance import venue_reach
from indoortrip.oracle import RANK_ONCE_SHORTLIST, _shortlist
from indoortrip.venue import intra_distance

from conftest import block_distances, make_corridor_venue, small_workload

SEEDS = (0, 1, 2)


@cache
def workload(seed):
    return small_workload(seed=seed)


@st.composite
def located(draw, venue, partition_id=None):
    """A location inside a room, a many-door hallway or a two-floor stairs."""
    if partition_id is None:
        kind = draw(st.sampled_from(("room", "hallway", "stairs")))
        partition_id = draw(st.sampled_from(
            sorted(pid for pid, p in venue.partitions.items() if p.kind == kind)
        ))
    part = venue.partitions[partition_id]
    x0, y0, x1, y1 = part.bounds
    fx = draw(st.floats(0.0, 1.0))
    fy = draw(st.floats(0.0, 1.0))
    floor = draw(st.sampled_from(part.floors))
    return Location(x0 + fx * (x1 - x0), y0 + fy * (y1 - y0), floor, part.id)


@st.composite
def at_door(draw, venue):
    """A location exactly at a door of a hallway or stairs partition: a leg
    of 0 from a location with many doors, or with doors on two floors."""
    part = venue.partitions[draw(st.sampled_from(
        sorted(pid for pid, p in venue.partitions.items() if p.kind in ("hallway", "stairs"))
    ))]
    door = venue.doors[draw(st.sampled_from(part.door_ids))]
    return Location(door.x, door.y, door.floor, part.id)


def point_at(pid, loc):
    return IndoorPoint(id=pid, partition_id=loc.partition_id, x=loc.x, y=loc.y,
                       floor=loc.floor, category=0, static_score=1.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.sampled_from(SEEDS))
def test_block_kernel_equals_scalar_distance(data, seed):
    venue, graph, index, _ = workload(seed)
    source = data.draw(st.one_of(located(venue), at_door(venue)), label="source")
    spots = data.draw(st.lists(located(venue), min_size=1, max_size=10), label="spots")
    spots += data.draw(st.lists(at_door(venue), min_size=1, max_size=3), label="door spots")
    spots.append(data.draw(located(venue, source.partition_id), label="same partition"))
    category = data.draw(st.sampled_from(index.live_categories()), label="category")
    points = [point_at(10_000 + i, loc) for i, loc in enumerate(spots)]
    points += index.live_points(category)

    engine = DistanceEngine(venue, graph)
    got = block_distances(engine, engine.legs(source), engine.block(points))
    # A fresh engine has laid out no block, so it measures every leg itself.
    scalar = DistanceEngine(venue, graph)
    for p, d in zip(points, got):
        want = scalar.distance(source, p.location)
        assert d == want
        assert scalar.distance(p.location, source) == want
    block = index.category_block(category)
    got = block_distances(index.engine, index.engine.legs(source), block)
    assert list(got) == [scalar.distance(source, p.location) for p in block.points]


@cache
def doors_workload(doors):
    return small_workload(seed=doors, doors_per_room=doors)


@st.composite
def neighbours(draw, venue):
    """p and q on one floor of one partition: q anywhere there, at p, or
    both on one segment from a door, q the farther (the triangle
    inequality's equality case through that door)."""
    p = draw(located(venue))
    how = draw(st.sampled_from(("anywhere", "co-located", "in line")))
    if how == "in line":
        door = venue.doors[draw(st.sampled_from(venue.partitions[p.partition_id].door_ids))]
        near, far = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
        return [Location(door.x + t * (p.x - door.x), door.y + t * (p.y - door.y), door.floor,
                         p.partition_id) for t in (near, far)]
    q = p if how == "co-located" else replace(draw(located(venue, p.partition_id)), floor=p.floor)
    return [p, q]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), doors=st.integers(1, 3))
def test_a_leg_to_a_neighbour_exceeds_the_leg_by_at_most_their_distance(data, doors):
    """The one-leg bound at `DistanceEngine.door_distances`: for p and q on
    one floor of one partition, K(L, q) <= K(L, p) + d + 23u*W, with d their
    distance as `intra_distance` or `dominance.certified` computes it and W
    `venue_reach`, from doors, hallway and stairs spots, on 1-3 doors a room."""
    venue, _, index, _ = doors_workload(doors)
    engine = index.engine
    p, q = data.draw(neighbours(venue), label="p, q")
    at = data.draw(st.one_of(at_door(venue), located(venue)), label="L")
    kp, kq = block_distances(engine, engine.legs(at), engine.block([point_at(0, p), point_at(1, q)]))
    dx, dy = p.x - q.x, p.y - q.y
    slack = 23 * Fraction(venue_reach(index)) / 2 ** 53
    for d in (math.hypot(dx, dy), math.sqrt(dx * dx + dy * dy)):
        assert Fraction(kq) <= Fraction(kp) + Fraction(d) + slack


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_patch_equals_intra_distance_bit_for_bit(seed):
    """For every partition, every (location, point) pair of spots in it:
    each door, and random spots on each floor it reaches (so stairs pairs
    on two floors).  The patch writes exactly intra_distance's floats into
    its rows and leaves the other rows alone."""
    venue, graph, index, _ = workload(seed)
    engine = index.engine
    rng = random.Random(seed)
    kinds = set()
    for pid, part in sorted(venue.partitions.items()):
        x0, y0, x1, y1 = part.bounds
        spots = [Location(d.x, d.y, d.floor, pid) for d in venue.partition_doors(pid)]
        spots += [Location(rng.uniform(x0, x1), rng.uniform(y0, y1), floor, pid)
                  for floor in part.floors for _ in range(6)]
        points = [point_at(i, loc) for i, loc in enumerate(spots)]
        rows = np.arange(len(points)) * 3 + 1
        for loc in spots:
            out = np.full(3 * len(points) + 1, -1.0)
            engine.patch(out, loc, rows, points)
            want = np.array([intra_distance(part, loc, p) for p in points])
            assert out[rows].tobytes() == want.tobytes()
            assert (np.delete(out, rows) == -1.0).all()
            kinds.update("other floor" if p.floor != loc.floor else "same floor" for p in points)
    assert kinds == {"same floor", "other floor"}


def tie_venue(points):
    """Four rooms in a row, doors at x = 0, 10, 20, 30, 40."""
    venue = make_corridor_venue(rooms=4)
    venue = venue.with_points(points)
    index = build_index(venue, build_d2d_graph(venue))
    return venue, index


def pt(pid, part, x, score=2.0, category=1):
    return IndoorPoint(id=pid, partition_id=part, x=x, y=5.0, floor=0, category=category,
                       static_score=score)


@pytest.mark.parametrize("ids", [(3, 8), (8, 3)])
def test_cnn_tie_between_co_located_points_goes_to_the_smaller_id(ids):
    # Co-located, equal scores, in adjacent partitions.
    venue, index = tie_venue([pt(ids[0], 0, 10.0), pt(ids[1], 1, 10.0), pt(20, 0, 2.0, 30.0)])
    here = Location(4.0, 5.0, 0, 0)
    ctx = QueryContext(here, here, 0.5)
    assert index.cnn(here, 1, ctx)[0].id == 3


@pytest.mark.parametrize("ids", [(3, 8), (8, 3)])
def test_cnn_tie_across_a_doorway_goes_to_the_smaller_id(ids):
    # Standing in the doorway between rooms 1 and 2, a point 5 m into
    # each room is equally far.
    venue, index = tie_venue([pt(ids[0], 1, 15.0), pt(ids[1], 2, 25.0)])
    door = Location(20.0, 5.0, 0)
    for alpha in (0.0, 0.5, 1.0):
        ctx = QueryContext(door, door, alpha)
        assert index.cnn(door, 1, ctx)[0].id == 3
        assert index.engine.distance(door, venue.points[3].location) == \
            index.engine.distance(door, venue.points[8].location)


def test_rank_once_step_tie_goes_to_the_smaller_id():
    # Two co-located points of equal score, both on the shortlist, ids on
    # either side of a third, worse point's.
    venue, index = tie_venue([pt(9, 2, 25.0), pt(5, 1, 15.0, 30.0), pt(2, 2, 25.0)])
    here = Location(4.0, 5.0, 0)
    route = rank_once_greedy(TripQuery(here, here, (1,), 0.5), index)
    assert [s.point_id for s in route.stops] == [2]


@pytest.mark.parametrize("planner", [gcnn, rank_once_greedy], ids=["gcnn", "rank-once"])
def test_an_equal_step_across_categories_goes_to_the_smaller_category(planner):
    # Co-located and of equal score, so the first round's candidates tie;
    # the smaller category holds the larger id, so only the category decides.
    venue, index = tie_venue([pt(8, 2, 25.0, category=1), pt(3, 2, 25.0, category=2)])
    here = Location(4.0, 5.0, 0)
    route = planner(TripQuery(here, here, (2, 1), 0.5), index)
    assert [(s.category, s.point_id) for s in route.stops] == [(1, 8), (2, 3)]


def test_rank_once_shortlist_keeps_the_smaller_id_of_a_tie_at_its_edge():
    # From a source that is also the target, a point's source score is
    # 1.5 d + 0.5 s and its first step 0.5 d + 0.5 s.  Seven points 1 m off
    # with score 10 rank first (6.5); two co-located points 8 m off with
    # score 0 tie at 12 for the last place, and either would be the first
    # step (4 < 5.5), so the stop shows which one the shortlist kept.
    near = [pt(pid, 0, 2.0, 10.0) for pid in range(1, RANK_ONCE_SHORTLIST)]
    venue, index = tie_venue(near + [pt(20, 0, 9.0, 0.0), pt(0, 0, 9.0, 0.0)])
    here = Location(1.0, 5.0, 0)
    route = rank_once_greedy(TripQuery(here, here, (1,), 0.5), index)
    assert [s.point_id for s in route.stops] == [0]


# Few distinct values, so ties are heavy, and infinities of both signs;
# -0.0 and 0.0 compare equal.
TIED = st.one_of(st.sampled_from([-math.inf, math.inf, -0.0]),
                 st.integers(-3, 3).map(float), st.floats(allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), k=st.integers(1, 10))
def test_rank_once_shortlist_is_the_stable_argsort_prefix_in_row_order(data, k):
    n = data.draw(st.one_of(st.sampled_from([k, k + 1]), st.integers(0, 3 * k)), label="n")
    ranked = np.array(data.draw(st.lists(TIED, min_size=n, max_size=n), label="ranked"))
    want = np.sort(np.argsort(ranked, kind="stable")[:k])
    got = _shortlist(ranked, k)
    assert got.tolist() == want.tolist()


def test_engine_keeps_no_per_query_state_over_a_stream():
    venue, graph, index, queries = small_workload(seed=3, query_count=50)
    assert len({(q.source, q.target) for q in queries}) > 25
    built = dict(vars(index))
    for q in queries:
        gcnn(q, index)
    engine = index.engine
    # No state of its own: the engine is the venue and its door graph.
    assert set(vars(engine)) == {"venue", "graph"}
    # The snapshot keeps what it was built with; only its caches filled, and
    # those by category, never by query.
    assert vars(index).keys() == built.keys()
    assert all(vars(index)[name] is value for name, value in built.items())
    categories = set(venue.categories)
    assert index._blocks and set(index._blocks) <= categories
    # The row map holds laid-out points only, never a query's source or target.
    assert set(index._rows) == {p.location.key() for block in index._blocks.values()
                                for p in block.points}


def test_concurrent_queries_on_one_snapshot_match_sequential_routes():
    """Threads interleaving queries on one index share its block caches
    while each query keeps its own memo; every route must still equal its
    sequential result."""
    venue, graph, index, queries = small_workload(seed=4, query_count=12)
    want = {i: gcnn(q, build_index(venue, graph)) for i, q in enumerate(queries)}
    got, errors = [], []

    def worker(offset):
        try:
            for rep in range(3):
                for k in range(len(queries)):
                    i = (k + offset + rep) % len(queries)
                    got.append((i, gcnn(queries[i], index)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t * 5,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(got) == 6 * 3 * len(queries)
    for i, route in got:
        assert route == want[i]
