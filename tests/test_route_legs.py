"""Planners build their routes from distances their kernels have already
measured: pinned routes on the acceptance fixture, no scalar distance call
on a query path, and a cnn memo that lives with its query context."""

import dataclasses
import gc
import hashlib
import json
import weakref

import pytest

from indoortrip import (
    Location,
    QueryContext,
    Route,
    WorkloadSpec,
    build_d2d_graph,
    build_index,
    build_workload,
    exact_route,
    gcnn,
    generate_queries,
    preprocess,
    rank_once_greedy,
)
from indoortrip.bench import frequent_categories, pruned_index
from indoortrip.index import QueryTables
from indoortrip.routing import route_to_dict

from conftest import perfbench_workloads, small_workload

# sha256 of the JSON list of route dicts over the fixture's 50 queries, as
# the planners produced them when every leg was a scalar distance call.
# gcnn-dom has no pin of its own: pruning keeps every cnn result, so gcnn
# on the pruned snapshot must hash to gcnn's.
PINNED = {
    "gcnn": "3b2ef6fa3995a34c3e8a00cc844d6a26710bfe6a03fd3e08eb21fe0bc659ad28",
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


def routes_digest(plan, queries, index):
    dicts = [route_to_dict(plan(q, index), q.alpha) for q in queries]
    return hashlib.sha256(json.dumps(dicts, sort_keys=True).encode()).hexdigest()


def test_routes_on_the_acceptance_fixture_are_pinned():
    index, pruned, queries = build_fixture()
    for name, plan, idx in runs(index, pruned):
        digest = routes_digest(plan, queries, idx)
        assert digest == PINNED["gcnn" if name == "gcnn-dom" else name], name


# sha256 of the route dicts over the benchmark's `big` (seed 3) and `spread`
# (seed 7) query streams, as the planners produced them before the venue
# generator listed partitions in id order.  gcnn-dom runs on the snapshot
# bench.pruned_index gives at delta 100, so it must hash to gcnn's.
WORKLOAD_PINS = {
    "big": {
        "gcnn": "7a5c209a75de6d5bfbd2b81f9d0ecad04eca8139ccfb0c5ee8d21f776548fe3a",
        "rank-once": "76510d8b8d10a627c045f9724dacc9f5f70ef707a4c5d39379c0d715ff36c419",
    },
    "spread": {
        "gcnn": "0c927fc422893c0539cc4b273a81a711c21111e4c009eb25c75dacdc24a966cf",
        "rank-once": "6d1246f80e0660239982c3915554aafd26bceda28eca8011746e472d90ddcfd1",
        "oracle": "e5ab1d8b12f9f8b7747d73eaf8a8263b3bb8c10c8b2502b95277644f2d097e1e",
    },
}


@pytest.mark.parametrize("name, seed", [("big", 3), ("spread", 7)])
def test_routes_on_the_benchmark_workloads_are_pinned(name, seed):
    """Each planner the benchmark runs on the workload, generated in-process;
    its alphas split over the stream in order, as the benchmark's inputs
    split them."""
    workload = perfbench_workloads()[name]
    venue, _, queries = build_workload(workload.workload_spec(seed))
    if workload.alphas:
        share = len(workload.alphas)
        queries = [dataclasses.replace(q, alpha=workload.alphas[i * share // len(queries)])
                   for i, q in enumerate(queries)]
    index = build_index(venue, build_d2d_graph(venue))
    pruned, _ = pruned_index(index, queries, 100)
    plans = {"gcnn": (gcnn, index), "gcnn-dom": (gcnn, pruned),
             "rank-once": (rank_once_greedy, index), "oracle": (exact_route, index)}
    for algorithm in workload.planners:
        plan, idx = plans[algorithm]
        digest = routes_digest(plan, queries, idx)
        pin = WORKLOAD_PINS[name]["gcnn" if algorithm == "gcnn-dom" else algorithm]
        assert digest == pin, algorithm


# sha256 of exact_route's route dicts over desk queries of m categories:
# m -> (queries, digest).  The m = 7 pin was taken before the oracle read
# its distances between categories from the engine's pair tables.
EXACT_PINS = {
    5: (3, "f8e6ef25cb9dbfd6b051be74fa15fea79e9c51d8a6561d61f820382deb2ee698"),
    6: (3, "d75bdd360047d44dd27681c1c937ce64c4d24fbd31a305650a703b2fd3e3b174"),
    7: (2, "ac79e8a0a7444dae2606145ffb8dea1dd66eaf07b50bd2f053dcdec53c004cdf"),
}


def check_desk_exact_pins(*ms):
    desk = perfbench_workloads()["desk"]
    venue, points, _ = build_workload(desk.workload_spec(desk.seed))
    index = build_index(venue, build_d2d_graph(venue))
    eligible = sorted({p.category for p in points})
    for m in ms:
        count, pin = EXACT_PINS[m]
        queries = generate_queries(eligible, count, m, 0.5, venue, desk.seed)
        assert routes_digest(exact_route, queries, index) == pin, m


def test_exact_routes_on_desk_at_five_and_six_categories_are_pinned():
    check_desk_exact_pins(5, 6)


def test_exact_routes_on_desk_at_seven_categories_are_pinned():
    check_desk_exact_pins(7)


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


def test_gcnn_resolves_each_query_location_once(monkeypatch):
    index, pruned, queries = build_fixture()
    for q in queries:  # lay out the blocks first
        gcnn(q, index)
    venue = index.venue
    assert index.engine.venue is venue
    calls = []
    resolve = venue.resolve
    monkeypatch.setattr(venue, "resolve", lambda loc: calls.append(loc) or resolve(loc))
    for q in queries:
        calls.clear()
        assert gcnn(q, index).complete
        # The tables' source and target, once each: every later round's
        # from location is a stop, whose legs its block row holds.
        assert len(calls) == 2


def test_gcnn_resolves_its_source_and_target_exactly_once(monkeypatch):
    """gcnn starts and ends its route at the locations its query tables
    resolved, and resolves neither again."""
    index, pruned, queries = build_fixture()
    venue = index.venue
    calls = []
    resolve = venue.resolve
    monkeypatch.setattr(venue, "resolve", lambda loc: calls.append(loc) or resolve(loc))
    for q in queries:
        source, target = resolve(q.source), resolve(q.target)
        assert source != target
        calls.clear()
        route = gcnn(q, index)
        assert route.waypoints[0] == source and route.waypoints[-1] == target
        assert sum(loc in (q.source, source) for loc in calls) == 1
        assert sum(loc in (q.target, target) for loc in calls) == 1


def test_gcnn_builds_one_route_extension_per_round(monkeypatch):
    """Only each round's winner is turned into a route: m Route.then calls
    for m categories, one per stop of the returned route."""
    index, pruned, queries = build_fixture()
    assert max(len(q.categories) for q in queries) >= 3
    calls = []
    then = Route.then
    monkeypatch.setattr(Route, "then",
                        lambda self, point, leg: calls.append(point.id) or then(self, point, leg))
    for idx in (index, pruned):
        for q in queries:
            calls.clear()
            route = gcnn(q, idx)
            assert len(calls) == len(q.categories)
            assert calls == [s.point_id for s in route.stops]


def test_gcnn_makes_one_kernel_call_per_category_end_and_per_cnn_call_off_the_source(monkeypatch):
    """The query's tables measure the source and the target with one kernel
    call each, over the joined block of all its categories, and every other
    from location with one call on its first cnn call.  So a query of m
    categories makes m + 1 calls: 1 from the source, 1 from the target and
    1 from each of the m - 1 stops of rounds 2 to m."""
    index, pruned, queries = build_fixture()
    engine = index.engine
    assert pruned.engine is engine
    calls = []
    door_distances = engine.door_distances
    monkeypatch.setattr(engine, "door_distances",
                        lambda src, doors, legs: calls.append(src) or door_distances(src, doors, legs))
    for idx in (index, pruned):
        for q in queries:
            calls.clear()
            assert gcnn(q, idx).complete
            m = len(set(q.categories))
            assert len(calls) == m + 1


def test_every_planner_measures_its_source_and_target_terms_once_per_category(monkeypatch):
    """Every planner measures its ends through one QueryTables per query: 1
    kernel call from the query's resolved source and 1 from its resolved
    target, over the joined block of its categories.  rank-once then makes
    1 call from each stop of rounds 2 to m, m + 1 in all.  The oracle
    measures no other location: it makes m(m - 1)/2 calls with no location,
    one `pair_table` chunk for each unordered pair of its categories (the
    reverse direction reads its transpose), 2 + m(m - 1)/2 in all."""
    index, pruned, queries = build_fixture()
    engine, venue = index.engine, index.venue
    calls = []
    door_distances = engine.door_distances
    monkeypatch.setattr(engine, "door_distances",
                        lambda src, doors, legs: calls.append(src.location)
                        or door_distances(src, doors, legs))
    for name, plan, idx in runs(index, pruned):
        for q in queries:
            calls.clear()
            assert plan(q, idx).complete
            m = len(set(q.categories))
            source, target = venue.resolve(q.source), venue.resolve(q.target)
            assert calls.count(source) == 1, name
            assert calls.count(target) == 1, name
            if name == "rank-once":
                assert len(calls) == m + 1
            if name == "oracle":
                assert calls.count(None) == m * (m - 1) // 2
                assert len(calls) == 2 + m * (m - 1) // 2


def test_only_readers_of_scores_score_a_row(monkeypatch):
    """A from location's row is scored whole on its first scored read: gcnn
    scores m rows per query, its source's and each of its m - 1 later
    from locations' (every cnn call reads scores); rank-once scores 1, the
    source's, for its ranking, as its rounds read distances only; the
    oracle reads no score row and scores none."""
    index, pruned, queries = build_fixture()
    calls = []
    scored = QueryTables._scored
    monkeypatch.setattr(QueryTables, "_scored",
                        lambda self, dist: calls.append(dist) or scored(self, dist))
    for name, plan, idx in runs(index, pruned):
        for q in queries:
            calls.clear()
            assert plan(q, idx).complete
            m = len(set(q.categories))
            assert len(calls) == {"rank-once": 1, "oracle": 0}.get(name, m), name


def route_and_evals(query, index, other=None):
    """gcnn's route for the query and the kernel calls made inside its own
    cnn calls.  It also checks that gcnn reads nothing off the index but
    its tables, once, and cnn, once per candidate.  With other,
    gcnn(other) runs on the same snapshot ahead of each of the query's cnn
    calls; its work is not counted."""
    engine = index.engine
    state = {"in": False, "other": False, "evals": 0, "others": 0}
    reads = []
    door_distances = engine.door_distances

    def counted_door_distances(src, doors, legs):
        state["evals"] += state["in"]
        return door_distances(src, doors, legs)

    def cnn(*args, _cnn=index.cnn, **kwargs):
        if state["other"]:
            return _cnn(*args, **kwargs)
        if other is not None:
            state["other"] = True
            gcnn(other, index)
            state["other"] = False
            state["others"] += 1
        state["in"] = True
        try:
            return _cnn(*args, **kwargs)
        finally:
            state["in"] = False

    class Reads:  # the index as gcnn sees it: each attribute read is recorded
        def __getattr__(self, name):
            reads.append(name)
            return getattr(index, name)

    engine.door_distances, index.cnn = counted_door_distances, cnn
    try:
        route = gcnn(query, Reads())
    finally:
        del engine.door_distances, index.cnn
    m = len(query.categories)
    assert state["others"] == (0 if other is None else m * (m + 1) // 2)  # one per cnn call
    assert reads == ["tables"] + ["cnn"] * (m * (m + 1) // 2)
    return route, state["evals"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_query_interleaved_with_another_on_one_snapshot_does_the_same_work(seed):
    venue, graph, index, queries = small_workload(seed=seed)
    a, b = queries[0], queries[1]
    assert a.context() != b.context()
    alone, alone_evals = route_and_evals(a, build_index(venue, graph))
    interleaved, evals = route_and_evals(a, index, other=b)
    assert interleaved == alone
    assert evals == alone_evals > 0
    # The other query's routes were not disturbed either.
    assert gcnn(b, index) == gcnn(b, build_index(venue, graph))


@pytest.mark.parametrize("bare", [False, True], ids=["resolved", "bare"])
def test_a_dropped_context_frees_its_memo_without_the_cycle_collector(bare):
    venue, graph, index, queries = small_workload(seed=0)
    query = queries[0]
    source, target = query.source, query.target
    if bare:  # no partition: cnn resolves them
        source, target = (Location(loc.x, loc.y, loc.floor) for loc in (source, target))
    gc.disable()
    try:
        ctx = QueryContext(source, target, query.alpha)
        _, legs = index.cnn(source, query.categories[0], ctx)
        assert all(type(leg) is float for leg in legs)
        memo = weakref.ref(ctx.memo[index])
        del ctx
        assert memo() is None
    finally:
        gc.enable()


def test_contexts_keep_value_semantics_after_serving_cnn():
    venue, graph, index, queries = small_workload(seed=0)
    query = queries[0]
    used, fresh = query.context(), query.context()
    index.cnn(query.source, query.categories[0], used)
    assert used.memo and not fresh.memo
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert "memo" not in repr(used)


def test_a_location_given_bare_and_resolved_is_measured_once(monkeypatch):
    """cnn from the bare form of a context's resolved source reuses the
    source's legs: it makes no kernel call of its own, and cnn from either
    form returns the same winner and legs."""
    venue, graph, index, queries = small_workload(seed=0)
    query = queries[0]
    source, target = venue.resolve(query.source), venue.resolve(query.target)
    bare = Location(source.x, source.y, source.floor)
    ctx = QueryContext(source, target, query.alpha)
    engine = index.engine
    calls = []
    door_distances = engine.door_distances
    monkeypatch.setattr(engine, "door_distances",
                        lambda src, doors, legs: calls.append(src) or door_distances(src, doors, legs))
    got = index.cnn(bare, query.categories[0], ctx)
    assert index.cnn(source, query.categories[0], ctx) == got
    assert len(calls) == 2  # the source and the target, once each
