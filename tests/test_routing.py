import random

import pytest

from indoortrip import (
    EmptyCategoryError,
    EvalCounter,
    IndoorPoint,
    Location,
    QueryContext,
    Route,
    TripQuery,
    build_d2d_graph,
    build_index,
    enumerate_route,
    exact_route,
    gcnn,
    point_score,
    rank_once_greedy,
    route_cost,
)
from indoortrip.dominance import DominanceContext
from indoortrip.routing import Stop
from indoortrip.venue import intra_distance

from conftest import make_two_room_venue, small_workload


def make_route(engine, waypoints, stops=()):
    legs = tuple(
        engine.distance(waypoints[i], waypoints[i + 1]) for i in range(len(waypoints) - 1)
    )
    return Route(waypoints=tuple(waypoints), stops=tuple(stops), leg_lengths=legs)


def reference_gcnn(query, index):
    """Literal re-derivation of the greedy rounds with plain linear scans."""
    engine = index.engine
    venue = index.venue
    source = venue.resolve(query.source)
    target = venue.resolve(query.target)
    ctx = QueryContext(source, target, query.alpha)

    current = source
    stops = []
    covered = set()
    legs = []
    while covered != set(query.categories):
        candidates = []
        for cat in sorted(set(query.categories) - covered):
            best = None
            for p in index.live_points(cat):
                s = point_score(ctx, current, p, engine)
                if best is None or s < best[0] or (s == best[0] and p.id < best[1]):
                    best = (s, p.id, p)
            p = best[2]
            travel = sum(legs) + engine.distance(current, p.location)
            static = sum(s.score for s in stops) + p.static_score
            key = (
                query.alpha * travel + (1 - query.alpha) * static
                + engine.distance(source, p.location)
                + engine.distance(p.location, target)
            )
            candidates.append((key, cat, p.id, p))
        key, cat, pid, p = min(candidates, key=lambda t: t[:3])
        legs.append(engine.distance(current, p.location))
        stops.append(Stop(cat, p.id, p.static_score, p.location))
        covered.add(cat)
        current = p.location
    legs.append(engine.distance(current, target))
    waypoints = [source] + [s.location for s in stops] + [target]
    return Route(waypoints=tuple(waypoints), stops=tuple(stops),
                 leg_lengths=tuple(legs), complete=True)


# -- cost model ----------------------------------------------------------------

def test_travel_cost_single_waypoint_is_zero(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    from indoortrip import DistanceEngine

    engine = DistanceEngine(two_room_venue, graph)
    route = make_route(engine, [Location(1, 1, 0)])
    assert route.travel == 0.0


def test_travel_cost_two_waypoints(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    from indoortrip import DistanceEngine

    engine = DistanceEngine(two_room_venue, graph)
    a, b = Location(1, 1, 0), Location(4, 5, 0)
    route = make_route(engine, [a, b])
    assert route.travel == pytest.approx(5.0)


def test_travel_cost_equals_pairwise_recomputation(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    from indoortrip import DistanceEngine

    engine = DistanceEngine(two_room_venue, graph)
    pts = [Location(1, 1, 0), Location(8, 2, 0), Location(15, 5, 0), Location(19, 9, 0)]
    route = make_route(engine, pts)
    expected = sum(engine.distance(pts[i], pts[i + 1]) for i in range(3))
    assert route.travel == pytest.approx(expected, rel=1e-12)


def test_static_cost_sums_covering_point_scores():
    empty = Route(waypoints=(Location(0, 0, 0),), stops=(), leg_lengths=())
    assert empty.static == 0.0
    stops = (
        Stop(0, 1, 2.0, Location(1, 1, 0)),
        Stop(1, 2, 3.0, Location(2, 2, 0)),
    )
    route = Route(waypoints=(Location(0, 0, 0),), stops=stops, leg_lengths=())
    assert route.static == 5.0


def test_route_cost_blends_travel_and_static():
    stops = (Stop(0, 1, 4.0, Location(1, 1, 0)),)
    route = Route(
        waypoints=(Location(0, 0, 0), Location(1, 1, 0)),
        stops=stops,
        leg_lengths=(10.0,),
    )
    assert route_cost(route, 1.0) == 10.0
    assert route_cost(route, 0.0) == 4.0
    assert route_cost(route, 0.5) == 7.0


def test_point_score_alpha_zero_is_static_score(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    from indoortrip import DistanceEngine

    engine = DistanceEngine(two_room_venue, graph)
    p = IndoorPoint(id=0, partition_id=0, x=3, y=3, floor=0, category=0, static_score=4.25)
    ctx = QueryContext(Location(1, 1, 0), Location(9, 9, 0), alpha=0.0)
    assert point_score(ctx, Location(2, 2, 0), p, engine) == 4.25


def test_point_score_colocated_is_weighted_static(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    from indoortrip import DistanceEngine

    engine = DistanceEngine(two_room_venue, graph)
    loc = Location(3.0, 3.0, 0)
    p = IndoorPoint(id=0, partition_id=0, x=3.0, y=3.0, floor=0, category=0, static_score=8.0)
    ctx = QueryContext(loc, loc, alpha=0.25)
    assert point_score(ctx, loc, p, engine) == pytest.approx(0.75 * 8.0)


def test_point_score_concrete_three_leg_value(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    from indoortrip import DistanceEngine

    engine = DistanceEngine(two_room_venue, graph)
    src = Location(1, 5, 0)
    cur = Location(5, 5, 0)
    tgt = Location(15, 5, 0)
    p = IndoorPoint(id=0, partition_id=0, x=9, y=5, floor=0, category=0, static_score=2.0)
    ctx = QueryContext(src, tgt, alpha=0.5)
    expected = 0.5 * (
        engine.distance(src, p.location)
        + engine.distance(cur, p.location)
        + engine.distance(p.location, tgt)
    ) + 0.5 * 2.0
    assert point_score(ctx, cur, p, engine) == pytest.approx(expected, rel=1e-12)


# -- planner -------------------------------------------------------------------

def test_query_validation():
    loc = Location(1, 1, 0)
    with pytest.raises(ValueError):
        TripQuery(loc, loc, categories=())
    with pytest.raises(ValueError):
        TripQuery(loc, loc, categories=(1, 1))
    with pytest.raises(ValueError):
        TripQuery(loc, loc, categories=(1,), alpha=1.5)


def test_gcnn_single_category_is_source_cnn_target():
    points = [
        IndoorPoint(id=0, partition_id=0, x=4, y=4, floor=0, category=1, static_score=1.0),
        IndoorPoint(id=1, partition_id=1, x=16, y=6, floor=0, category=1, static_score=1.0),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    src, tgt = Location(1, 1, 0), Location(2, 2, 0)
    query = TripQuery(src, tgt, categories=(1,), alpha=0.5)
    route = gcnn(query, index)
    ctx = QueryContext(venue.resolve(src), venue.resolve(tgt), 0.5)
    expected = index.cnn(venue.resolve(src), 1, ctx)
    assert [s.point_id for s in route.stops] == [expected.id]
    assert route.waypoints[0] == venue.resolve(src)
    assert route.waypoints[-1] == venue.resolve(tgt)
    assert route.complete


def test_gcnn_dequeues_lowest_key_extension_first():
    # Two uncovered categories; the first category's candidate carries the
    # smaller enqueue key, so it must be the first stop of the route.
    points = [
        IndoorPoint(id=0, partition_id=0, x=3, y=5, floor=0, category=1, static_score=1.0),
        IndoorPoint(id=1, partition_id=1, x=18, y=5, floor=0, category=2, static_score=9.0),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    query = TripQuery(Location(1, 5, 0), Location(2, 5, 0), categories=(1, 2), alpha=0.5)
    route = gcnn(query, index)
    assert [s.category for s in route.stops] == [1, 2]


def test_gcnn_matches_reference_implementation():
    rng = random.Random(3)
    for seed in (0, 1, 2, 3):
        venue, graph, index, queries = small_workload(seed=seed)
        for q in queries:
            got = gcnn(q, index)
            want = reference_gcnn(q, index)
            assert [ (s.category, s.point_id) for s in got.stops ] == [
                (s.category, s.point_id) for s in want.stops
            ]
            assert route_cost(got, q.alpha) == pytest.approx(
                route_cost(want, q.alpha), rel=1e-12
            )


def pair_route_cases(venue):
    """(route, entry, exit, categories, dist) for every pair_route of the first
    partition that holds two categories, through its first and last door."""
    by_part = {}
    for p in sorted(venue.points.values(), key=lambda p: p.id):
        by_part.setdefault(p.partition_id, {}).setdefault(p.category, []).append(p)
    pid = min(pid for pid, cats in by_part.items() if len(cats) >= 2)
    part = venue.partitions[pid]
    doors = venue.partition_doors(pid)
    cat_a, cat_b = sorted(by_part[pid])[:2]
    ctx = DominanceContext(part, doors[0], doors[-1], cat_a, cat_b)

    def dist(a, b):
        return intra_distance(part, a, b)

    return [
        (ctx.pair_route(a, b), doors[0].location, doors[-1].location, (cat_a, cat_b), dist)
        for a in by_part[pid][cat_a] for b in by_part[pid][cat_b]
    ]


@pytest.mark.parametrize(
    "planner", [gcnn, rank_once_greedy, exact_route, enumerate_route, "pair_route"],
    ids=["gcnn", "rank-once", "oracle", "enumerate", "pair_route"],
)
def test_gcnn_completeness_and_monotone_coverage(planner):
    venue, graph, index, queries = small_workload(seed=9)
    if planner == "pair_route":
        cases = pair_route_cases(venue)
    else:
        cases = [
            (planner(q, index), venue.resolve(q.source), venue.resolve(q.target),
             q.categories, index.engine.distance)
            for q in queries
        ]
    assert cases
    for route, source, target, categories, dist in cases:
        assert route.complete
        assert len(route.stops) == len(categories)
        assert route.covered_categories == set(categories)
        stop_categories = [s.category for s in route.stops]
        assert len(set(stop_categories)) == len(stop_categories)
        assert route.waypoints[0] == source
        assert route.waypoints[-1] == target
        # legs and stops are exactly what the shared builder makes of the stops
        points = [venue.points[s.point_id] for s in route.stops]
        assert route == Route.through(dist, source, points, target)
        # travel is recomputable from the waypoints
        recomputed = sum(dist(a, b) for a, b in zip(route.waypoints, route.waypoints[1:]))
        assert route.travel == pytest.approx(recomputed, rel=1e-12)


def test_gcnn_cost_never_beats_the_oracle():
    venue, graph, index, queries = small_workload(seed=10)
    for q in queries:
        greedy = route_cost(gcnn(q, index), q.alpha)
        optimal = route_cost(exact_route(q, index), q.alpha)
        assert greedy >= optimal - 1e-9


def test_gcnn_work_bound():
    venue, graph, index, queries = small_workload(seed=12)
    for q in queries:
        m = len(q.categories)
        n_avg = sum(index.live_count(c) for c in q.categories) / m
        counter = EvalCounter()
        gcnn(q, index, counter=counter)
        assert counter.point_evals <= n_avg * m * m + 8 * m


def test_gcnn_empty_category_errors_before_search():
    venue, graph, index, _ = small_workload(seed=12)
    q = TripQuery(Location(1, 5, 0), Location(2, 5, 0), categories=(999,))
    with pytest.raises(EmptyCategoryError):
        gcnn(q, index)
