"""Planners build their routes from distances their kernels have already
measured: pinned routes on the acceptance fixture, no scalar distance call
on a query path, and legs read after the cnn memo was replaced."""

import hashlib
import json

import pytest

from indoortrip import (
    Location,
    QueryContext,
    WorkloadSpec,
    build_d2d_graph,
    build_index,
    build_workload,
    exact_route,
    gcnn,
    preprocess,
    rank_once_greedy,
)
from indoortrip.bench import frequent_categories
from indoortrip.routing import route_to_dict

from conftest import small_workload

# sha256 of the JSON list of route dicts over the fixture's 50 queries, as
# the planners produced them when every leg was a scalar distance call.
PINNED = {
    "gcnn": "3b2ef6fa3995a34c3e8a00cc844d6a26710bfe6a03fd3e08eb21fe0bc659ad28",
    "gcnn-dom": "cde7fcd2abcda1aba7fa8eed16137806cd075c327b86bec2506c47afe247b2ba",
    "rank-once": "6528ca8f4e400c67f461e973a0f28cfdefc51801e900cbf8820e77df215b373e",
    "oracle": "61d53219b3c56cb19766005ff59ec734bbddaade81c5753b8e54d2db2a1cc90e",
}


def build_fixture():
    """The acceptance fixture: seed 2026, 50 queries, pruned at delta 100."""
    spec = WorkloadSpec(
        seed=2026, floors=4, rooms_per_floor=12, categories=8,
        count_range=(30, 40), store_rooms=8, hosts_per_category=3,
        query_count=50, query_categories=(2, 3, 4), alpha=0.5,
    )
    venue, _, queries = build_workload(spec)
    index = build_index(venue, build_d2d_graph(venue))
    pruned, _ = preprocess(index, frequent_categories(queries, 100))
    return index, pruned, queries


def runs(index, pruned):
    return (("gcnn", gcnn, index), ("gcnn-dom", gcnn, pruned),
            ("rank-once", rank_once_greedy, index), ("oracle", exact_route, index))


def test_routes_on_the_acceptance_fixture_are_pinned():
    index, pruned, queries = build_fixture()
    for name, plan, idx in runs(index, pruned):
        dicts = [route_to_dict(plan(q, idx), q.alpha) for q in queries]
        digest = hashlib.sha256(json.dumps(dicts, sort_keys=True).encode()).hexdigest()
        assert digest == PINNED[name], name


def test_no_scalar_distance_call_on_a_query_path(monkeypatch):
    index, pruned, queries = build_fixture()
    engine = index.engine
    assert pruned.engine is engine
    calls = []
    scalar = engine.distance
    monkeypatch.setattr(engine, "distance", lambda a, b: calls.append((a, b)) or scalar(a, b))
    for name, plan, idx in runs(index, pruned):
        for q in queries:
            route = plan(q, idx)
            assert route.complete
        assert calls == [], name
    # The wrapper is live: a direct call is counted.
    engine.distance(queries[0].source, queries[0].target)
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_legs_read_after_the_memo_was_replaced_equal_scalar_distances(seed, monkeypatch):
    venue, _, index, queries = small_workload(seed=seed)
    engine = index.engine
    first, other = queries[0], queries[1]
    ctx = QueryContext(venue.resolve(first.source), venue.resolve(first.target), first.alpha)
    here = Location(ctx.target.x, ctx.target.y, ctx.target.floor)  # resolved by cnn_legs
    found = [(index.cnn(loc, cat, ctx), loc) for cat in first.categories
             for loc in (ctx.source, here)]

    # While the memo is this query's, the legs are read, not measured.
    measured_blocks = []
    block_distances = engine.block_distances
    monkeypatch.setattr(engine, "block_distances",
                        lambda src, block: measured_blocks.append(block) or block_distances(src, block))
    recorded = [index.cnn_legs(loc, point, ctx) for point, loc in found]
    assert measured_blocks == []

    # Another query's cnn call replaces the memo: every leg is measured again.
    other_ctx = QueryContext(venue.resolve(other.source), venue.resolve(other.target), other.alpha)
    assert other_ctx != ctx
    index.cnn(other_ctx.source, other.categories[0], other_ctx)
    assert index._memo.ctx == other_ctx
    measured_blocks.clear()
    for (point, loc), legs in zip(found, recorded):
        measured = index.cnn_legs(loc, point, ctx)
        scalar = (engine.distance(ctx.source, point.location),
                  engine.distance(loc, point.location),
                  engine.distance(point.location, ctx.target))
        assert measured == scalar
        assert legs == scalar
        assert all(type(leg) is float for leg in measured + legs)
    assert len(measured_blocks) == 3 * len(found)
