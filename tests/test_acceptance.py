"""Acceptance suite: every release gate in one module.

Each test prints one PASS/FAIL line (run with -s to see them live).
The desk-scale workload used by the quality gates is pinned by seed so
every run exercises identical inputs.
"""

import json
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from indoortrip import (
    DistanceEngine,
    EvalCounter,
    ExperimentConfig,
    IndoorPoint,
    Location,
    QueryContext,
    TripQuery,
    Venue,
    WorkloadSpec,
    build_d2d_graph,
    build_index,
    build_workload,
    enumerate_route,
    exact_route,
    gcnn,
    point_score,
    preprocess,
    route_cost,
    run_experiment,
    save_objects_csv,
    save_venue,
    sweep_delta,
)
from indoortrip.bench import frequent_categories
from indoortrip.routing import Route, save_queries
from indoortrip.venue import Door, Partition, intra_distance

WORK_BOUND_SLACK = 8  # fixed additive-per-category constant in the work bound

FAILURE_DUMP_DIR = Path(__file__).parent / "_pruning_exceptions"


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except AssertionError:
        print(f"FAIL criterion {number}: {name} ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"PASS criterion {number}: {name} ({time.perf_counter() - start:.1f}s)")


@pytest.fixture(scope="module")
def desk():
    """Pinned desk-scale workload: ~55 partitions, <=40 points/category,
    50 queries cycling 2-4 categories at alpha 0.5."""
    spec = WorkloadSpec(
        seed=2026, floors=4, rooms_per_floor=12, categories=8,
        count_range=(30, 40), store_rooms=8, hosts_per_category=3,
        query_count=50, query_categories=(2, 3, 4), alpha=0.5,
    )
    venue, points, queries = build_workload(spec)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    pruned, report = preprocess(index, frequent_categories(queries, 100))
    return {
        "spec": spec, "venue": venue, "points": points, "queries": queries,
        "graph": graph, "index": index, "pruned": pruned, "report": report,
    }


@pytest.fixture(scope="module")
def desk_runs(desk):
    """Per-query costs and work counters for every algorithm on the desk
    workload, measured once and shared by the quality criteria."""
    index, pruned = desk["index"], desk["pruned"]
    rows = []
    for q in desk["queries"]:
        c_full, c_dom = EvalCounter(), EvalCounter()
        full = gcnn(q, index, counter=c_full)
        dom = gcnn(q, pruned, counter=c_dom)
        opt = exact_route(q, index)
        rows.append({
            "m": len(q.categories),
            "gcnn_cost": route_cost(full, q.alpha),
            "dom_cost": route_cost(dom, q.alpha),
            "opt_cost": route_cost(opt, q.alpha),
            "gcnn_evals": c_full.point_evals,
            "dom_evals": c_dom.point_evals,
        })
    return rows


def random_location_in(venue, rng):
    rooms = sorted(p.id for p in venue.partitions.values() if p.kind == "room")
    part = venue.partitions[rng.choice(rooms)]
    x0, y0, x1, y1 = part.bounds
    return Location(rng.uniform(x0, x1), rng.uniform(y0, y1), part.floor, part.id)


def test_criterion_1_cnn_matches_linear_scan_on_1000_trials():
    with criterion(1, "cnn equals linear-scan argmin on 1000 randomized trials"):
        rng = random.Random(101)
        trials = 0
        for seed in range(5):
            spec = WorkloadSpec(
                seed=seed, floors=1 + seed % 3, rooms_per_floor=6 + 2 * (seed % 2),
                categories=6, count_range=(5, 20), store_rooms=6,
                hosts_per_category=3 if seed % 2 else None,
                query_count=1, query_categories=(2,),
            )
            venue, points, _ = build_workload(spec)
            graph = build_d2d_graph(venue)
            index = build_index(venue, graph)
            cats = index.live_categories()
            for _ in range(200):
                ctx = QueryContext(
                    source=random_location_in(venue, rng),
                    target=random_location_in(venue, rng),
                    alpha=rng.choice([0.0, 0.1, 0.5, 0.9, 1.0, rng.random()]),
                )
                from_loc = random_location_in(venue, rng)
                cat = rng.choice(cats)
                got, _ = index.cnn(from_loc, cat, ctx)
                best = None
                for p in index.live_points(cat):
                    s = point_score(ctx, from_loc, p, index.engine)
                    if best is None or s < best[0] or (s == best[0] and p.id < best[1]):
                        best = (s, p.id)
                assert got.id == best[1], f"cnn mismatch on seed {seed}"
                trials += 1
        assert trials >= 1000


def test_criterion_2_exact_oracle_self_consistency():
    with criterion(2, "permutation-DP equals naive enumeration on 200 tiny instances"):
        rng = random.Random(202)
        checked = 0
        for trial in range(200):
            m = 1 + trial % 3
            spec = WorkloadSpec(
                seed=3000 + trial, floors=1, rooms_per_floor=4, categories=m,
                count_range=(1, 5), store_rooms=4, hosts_per_category=2,
                query_count=1, query_categories=(m,),
            )
            venue, points, queries = build_workload(spec)
            graph = build_d2d_graph(venue)
            index = build_index(venue, graph)
            query = TripQuery(
                source=random_location_in(venue, rng),
                target=random_location_in(venue, rng),
                categories=tuple(range(m)),
                alpha=rng.choice([0.0, 0.3, 0.5, 0.8, 1.0]),
            )
            dp_cost = route_cost(exact_route(query, index), query.alpha)
            naive_cost = route_cost(enumerate_route(query, index), query.alpha)
            assert dp_cost == pytest.approx(naive_cost, rel=1e-9, abs=1e-12)
            checked += 1
        assert checked == 200


def test_criterion_3_approximation_quality(desk_runs):
    with criterion(3, "mean ratio: greedy <= 1.20 and pruned greedy <= 1.25"):
        ratio_g = statistics.mean(r["gcnn_cost"] / r["opt_cost"] for r in desk_runs)
        ratio_d = statistics.mean(r["dom_cost"] / r["opt_cost"] for r in desk_runs)
        print(f"  mean ratio gcnn={ratio_g:.4f} gcnn-dom={ratio_d:.4f}", end=" ")
        assert ratio_g <= 1.20
        assert ratio_d <= 1.25


def test_criterion_4_pruning_fidelity(desk_runs):
    with criterion(4, "pruned-greedy ratio within 0.05 of plain greedy"):
        ratio_g = statistics.mean(r["gcnn_cost"] / r["opt_cost"] for r in desk_runs)
        ratio_d = statistics.mean(r["dom_cost"] / r["opt_cost"] for r in desk_runs)
        assert ratio_d - ratio_g <= 0.05


def pair_route(partition, entry_door, exit_door, first, second):
    """Two-stop in-partition route entry -> first -> second -> exit."""
    # Measured inside the partition, not by the engine: doors sit on its
    # walls, and resolving one may place it in the neighbouring room.
    return Route.through(
        lambda a, b: intra_distance(partition, a, b),
        entry_door.location, (first, second), exit_door.location,
    )


def test_criterion_5_pairwise_pruning_soundness():
    with criterion(5, "two-stop optimum survives pruning in all 500 instances"):
        rng = random.Random(505)
        failures = []
        for trial in range(500):
            width, height = rng.uniform(10, 30), rng.uniform(6, 15)
            part = Partition(id=0, floor=0, bounds=(0, 0, width, height),
                             kind="room", door_ids=(0, 1))
            doors = {
                0: Door(id=0, x=0.0, y=height / 2, floor=0, partition_ids=(0,)),
                1: Door(id=1, x=width, y=height / 2, floor=0, partition_ids=(0,)),
            }
            by_cat = {}
            pid = 0
            for cat in (0, 1):
                pts = []
                for _ in range(rng.randint(1, 15)):
                    pts.append(IndoorPoint(
                        id=pid, partition_id=0, x=rng.uniform(0, width),
                        y=rng.uniform(0, height), floor=0, category=cat,
                        static_score=rng.uniform(0, width + height),
                    ))
                    pid += 1
                by_cat[cat] = pts
            venue = Venue(partitions={0: part}, doors=doors,
                          points={p.id: p for c in by_cat for p in by_cat[c]})
            pruned, _ = preprocess(build_index(venue, build_d2d_graph(venue)), [0, 1])
            survivors = {c: {p.id for p in pruned.live_points(c)} for c in by_cat}
            kept = {c: [p for p in by_cat[c] if p.id in survivors[c]] for c in by_cat}
            sound = True
            for ds in (0, 1):
                for dt in (0, 1):
                    def best(a_pts, b_pts):
                        return min(
                            route_cost(pair_route(part, doors[ds], doors[dt], a, b), 0.5)
                            for a in a_pts for b in b_pts
                        )

                    if best(kept[0], kept[1]) != best(by_cat[0], by_cat[1]):
                        sound = False
            if not sound:
                failures.append({
                    "trial": trial,
                    "bounds": [0, 0, width, height],
                    "doors": [[d.x, d.y] for d in doors.values()],
                    "points": [
                        [p.id, p.x, p.y, p.category, p.static_score]
                        for c in by_cat for p in by_cat[c]
                    ],
                    "survivors": {str(c): sorted(survivors[c]) for c in survivors},
                })
        if failures:
            FAILURE_DUMP_DIR.mkdir(exist_ok=True)
            dump = FAILURE_DUMP_DIR / "pairwise_soundness_failures.json"
            dump.write_text(json.dumps(failures, indent=1))
            print(f"  dumped {len(failures)} fixture(s) to {dump}", end=" ")
        assert failures == []


def test_criterion_6_work_reduction(desk, desk_runs):
    with criterion(6, "pruned greedy evaluates fewer points on every query, >=2x in total"):
        assert all(r["dom_evals"] < r["gcnn_evals"] for r in desk_runs)
        total_g = sum(r["gcnn_evals"] for r in desk_runs)
        total_d = sum(r["dom_evals"] for r in desk_runs)
        # wall-clock speedup is informational, never gated
        t0 = time.perf_counter()
        for q in desk["queries"]:
            gcnn(q, desk["index"])
        t1 = time.perf_counter()
        for q in desk["queries"]:
            gcnn(q, desk["pruned"])
        t2 = time.perf_counter()
        speedup = (t1 - t0) / max(t2 - t1, 1e-9)
        print(f"  total evals {total_g} -> {total_d} ({total_g / total_d:.2f}x), "
              f"wall-clock {speedup:.2f}x", end=" ")
        assert total_g >= 2 * total_d


def test_criterion_7_gcnn_work_bound(desk):
    with criterion(7, "per-query point evaluations within n*m^2 + c*m"):
        index = desk["index"]
        for q in desk["queries"]:
            m = len(q.categories)
            n_avg = sum(index.live_count(c) for c in q.categories) / m
            counter = EvalCounter()
            gcnn(q, index, counter=counter)
            assert counter.point_evals <= n_avg * m * m + WORK_BOUND_SLACK * m


def test_criterion_8_metric_properties():
    with criterion(8, "distance symmetry exact, triangle inequality within 1e-9"):
        for seed in (8, 88):
            spec = WorkloadSpec(seed=seed, floors=3, rooms_per_floor=10, categories=2,
                                count_range=(1, 2), query_count=1, query_categories=(2,))
            venue, _, _ = build_workload(spec)
            graph = build_d2d_graph(venue)
            engine = DistanceEngine(venue, graph)
            rng = random.Random(seed)
            locs = [random_location_in(venue, rng) for _ in range(60)]
            checked = 0
            while checked < 10_000:
                p, q, r = rng.choice(locs), rng.choice(locs), rng.choice(locs)
                pq = engine.distance(p, q)
                assert pq == engine.distance(q, p)
                assert engine.distance(p, r) <= pq + engine.distance(q, r) + 1e-9
                checked += 1


def test_criterion_9_bench_determinism(desk, tmp_path):
    with criterion(9, "bench runs are byte-identical apart from the runtime column"):
        venue_path = tmp_path / "venue.json"
        objects_path = tmp_path / "objects.csv"
        queries_path = tmp_path / "queries.jsonl"
        save_venue(desk["venue"], venue_path)
        save_objects_csv(desk["points"], objects_path)
        save_queries(desk["queries"][:12], queries_path)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"run_{run}.csv"
            config = ExperimentConfig(
                venue_path=str(venue_path), objects_path=str(objects_path),
                queries_path=str(queries_path),
                algorithms=("gcnn", "gcnn-dom", "oracle", "rank-once"),
                delta=100, output_path=str(out),
            )
            run_experiment(config)
            outs.append(out.read_text().splitlines())

        def blank_runtime(lines):
            rows = []
            for line in lines[1:]:
                cells = line.split(",")
                cells[5] = ""
                rows.append(",".join(cells))
            return rows

        assert outs[0][0] == outs[1][0]
        assert blank_runtime(outs[0]) == blank_runtime(outs[1])


def test_criterion_10_delta_monotonicity(desk, tmp_path):
    with criterion(10, "total point evaluations non-increasing in delta"):
        venue_path = tmp_path / "venue.json"
        objects_path = tmp_path / "objects.csv"
        queries_path = tmp_path / "queries.jsonl"
        save_venue(desk["venue"], venue_path)
        save_objects_csv(desk["points"], objects_path)
        save_queries(desk["queries"], queries_path)
        config = ExperimentConfig(
            venue_path=str(venue_path), objects_path=str(objects_path),
            queries_path=str(queries_path), algorithms=("gcnn-dom",), delta=0,
        )
        results = sweep_delta(config, [0, 50, 100])
        totals = [
            results[d].summary["algorithms"]["gcnn-dom"]["points_evaluated"]
            for d in (0, 50, 100)
        ]
        print(f"  evals by delta: {dict(zip((0, 50, 100), totals))}", end=" ")
        assert totals[0] >= totals[1] >= totals[2]
