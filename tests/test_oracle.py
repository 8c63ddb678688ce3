import itertools
import random
import statistics

import pytest

from indoortrip import (
    IndoorPoint,
    Location,
    OracleScaleError,
    TripQuery,
    build_d2d_graph,
    build_index,
    enumerate_route,
    exact_route,
    gcnn,
    rank_once_greedy,
    route_cost,
)
from indoortrip.oracle import fixed_order_best

from conftest import make_two_room_venue, small_workload


def scatter_points(rng, venue, categories, per_category):
    points = []
    pid = 0
    parts = sorted(venue.partitions)
    for cat in categories:
        for _ in range(per_category):
            part = venue.partitions[rng.choice(parts)]
            x0, y0, x1, y1 = part.bounds
            points.append(
                IndoorPoint(
                    id=pid, partition_id=part.id,
                    x=rng.uniform(x0, x1), y=rng.uniform(y0, y1),
                    floor=part.floor, category=cat,
                    static_score=rng.uniform(0, 15),
                )
            )
            pid += 1
    return points


def tiny_instance(seed, m=2, per_category=4):
    rng = random.Random(seed)
    venue = make_two_room_venue()
    cats = list(range(m))
    venue = venue.with_points(scatter_points(rng, venue, cats, per_category))
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    src = Location(rng.uniform(0, 10), rng.uniform(0, 10), 0)
    tgt = Location(rng.uniform(10, 20), rng.uniform(0, 10), 0)
    query = TripQuery(src, tgt, categories=tuple(cats), alpha=rng.choice([0.3, 0.5, 0.7]))
    return query, index


def test_fixed_order_single_category_is_direct_argmin():
    query, index = tiny_instance(seed=1, m=1, per_category=5)
    route = fixed_order_best(query, (0,), index)
    engine = index.engine
    src = index.venue.resolve(query.source)
    tgt = index.venue.resolve(query.target)

    def direct(p):
        travel = engine.distance(src, p.location) + engine.distance(p.location, tgt)
        return query.alpha * travel + (1 - query.alpha) * p.static_score

    best = min(index.live_points(0), key=lambda p: (direct(p), p.id))
    assert [s.point_id for s in route.stops] == [best.id]


def test_fixed_order_alpha_zero_picks_min_score_points():
    query, index = tiny_instance(seed=2, m=3, per_category=4)
    query = TripQuery(query.source, query.target, query.categories, alpha=0.0)
    route = fixed_order_best(query, tuple(sorted(query.categories)), index)
    for stop in route.stops:
        pool = index.live_points(stop.category)
        assert stop.score == min(p.static_score for p in pool)


def test_fixed_order_requires_a_permutation():
    query, index = tiny_instance(seed=3, m=2)
    with pytest.raises(ValueError):
        fixed_order_best(query, (0,), index)


def test_fixed_order_matches_exhaustive_tuple_enumeration():
    for seed in range(8):
        query, index = tiny_instance(seed=seed, m=2, per_category=5)
        engine = index.engine
        src = index.venue.resolve(query.source)
        tgt = index.venue.resolve(query.target)
        for order in itertools.permutations(sorted(query.categories)):
            route = fixed_order_best(query, order, index)
            best = min(
                query.alpha
                * (
                    engine.distance(src, a.location)
                    + engine.distance(a.location, b.location)
                    + engine.distance(b.location, tgt)
                )
                + (1 - query.alpha) * (a.static_score + b.static_score)
                for a in index.live_points(order[0])
                for b in index.live_points(order[1])
            )
            assert route_cost(route, query.alpha) == pytest.approx(best, rel=1e-12)


def test_exact_route_single_category_equals_fixed_order():
    query, index = tiny_instance(seed=4, m=1)
    via_order = fixed_order_best(query, (0,), index)
    via_exact = exact_route(query, index)
    assert route_cost(via_exact, query.alpha) == route_cost(via_order, query.alpha)
    assert [s.point_id for s in via_exact.stops] == [s.point_id for s in via_order.stops]


def test_exact_route_tie_keeps_first_permutation():
    # symmetric two-point instance: both orders cost the same
    points = [
        IndoorPoint(id=0, partition_id=0, x=5, y=4, floor=0, category=0, static_score=1.0),
        IndoorPoint(id=1, partition_id=0, x=5, y=6, floor=0, category=1, static_score=1.0),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    query = TripQuery(Location(5, 5, 0), Location(5, 5, 0), categories=(0, 1), alpha=0.5)
    route = exact_route(query, index)
    assert [s.category for s in route.stops] == [0, 1]  # lexicographically first order


def test_exact_route_equals_naive_enumeration_on_tiny_instances():
    for seed in range(10):
        query, index = tiny_instance(seed=seed, m=3, per_category=4)
        dp_cost = route_cost(exact_route(query, index), query.alpha)
        naive_cost = route_cost(enumerate_route(query, index), query.alpha)
        assert dp_cost == pytest.approx(naive_cost, rel=1e-9)


def test_exact_route_is_a_lower_bound_for_everything_else():
    venue, graph, index, queries = small_workload(seed=21)
    for q in queries:
        opt = route_cost(exact_route(q, index), q.alpha)
        assert route_cost(gcnn(q, index), q.alpha) >= opt - 1e-9
        assert route_cost(rank_once_greedy(q, index), q.alpha) >= opt - 1e-9


def test_exact_route_factorial_guard():
    query, index = tiny_instance(seed=5, m=2)
    big = TripQuery(query.source, query.target, categories=tuple(range(2)), alpha=0.5)
    with pytest.raises(OracleScaleError):
        exact_route(big, index, limit=1)


def test_min_over_permutations_is_internally_consistent():
    query, index = tiny_instance(seed=6, m=3, per_category=3)
    best = min(
        route_cost(fixed_order_best(query, order, index), query.alpha)
        for order in itertools.permutations(sorted(query.categories))
    )
    assert route_cost(exact_route(query, index), query.alpha) == best


def test_rank_once_single_category_matches_gcnn():
    query, index = tiny_instance(seed=8, m=1, per_category=6)
    a = rank_once_greedy(query, index)
    b = gcnn(query, index)
    assert [s.point_id for s in a.stops] == [s.point_id for s in b.stops]
    assert route_cost(a, query.alpha) == pytest.approx(route_cost(b, query.alpha), rel=1e-12)


def test_rank_once_pays_for_frozen_shortlists():
    # The up-front ranking double-counts source distance, so the cheap decoys
    # (near, pricey) crowd the shortlist while the partner that pairs best
    # with the first stop (far from the source, free) falls outside top-k.
    points = [
        IndoorPoint(id=0, partition_id=0, x=5, y=5, floor=0, category=0, static_score=0.0),
        # the good partner: 8m from the source but adjacent to the first stop
        IndoorPoint(id=1, partition_id=0, x=9, y=5, floor=0, category=1, static_score=0.0),
    ]
    for i in range(4):
        points.append(
            IndoorPoint(id=2 + i, partition_id=0, x=3.0, y=1.4 + 0.1 * i, floor=0,
                        category=1, static_score=10.0)
        )
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    query = TripQuery(Location(1, 5, 0), Location(1, 5, 0), categories=(0, 1), alpha=0.5)
    base = route_cost(rank_once_greedy(query, index, top_k=4), query.alpha)
    smart = route_cost(gcnn(query, index), query.alpha)
    assert smart == pytest.approx(8.0)
    assert base > smart


def test_rank_once_mean_ratio_not_better_than_gcnn():
    ratios_g, ratios_r = [], []
    for seed in (31, 32, 33):
        venue, graph, index, queries = small_workload(seed=seed)
        for q in queries:
            opt = route_cost(exact_route(q, index), q.alpha)
            ratios_g.append(route_cost(gcnn(q, index), q.alpha) / opt)
            ratios_r.append(route_cost(rank_once_greedy(q, index), q.alpha) / opt)
    assert statistics.mean(ratios_r) >= statistics.mean(ratios_g) - 1e-9
