"""Set-up, query streams, route checks and metrics for one workload.

Every planner's stream runs on a system set up on its own from the input
files: its own D2D graph, index and `DistanceEngine`, and for `gcnn-dom`
its own `preprocess` snapshot.  No stream inherits another's distance
caches, so each pays the warm-up a user serving only that planner pays.
(`bench.run_experiment` instead runs `gcnn-dom` on an engine that `gcnn`
has already warmed, because `remove_points` hands the engine on; that
ordering makes `gcnn-dom` look 2-3x faster than it is.)

A stream is a single-client closed loop: each query is sent when the
previous one has returned.  Routes are checked after the stream, on a
separate engine, so checking neither adds to nor warms the timed path.
Each time is kept as measured together with a factor, from calibrations
taken around it, that scales it to a reference host speed.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from indoortrip import (
    DistanceEngine,
    EvalCounter,
    build_d2d_graph,
    build_index,
    exact_route,
    gcnn,
    load_objects_csv,
    load_venue,
    preprocess,
    rank_once_greedy,
    route_cost,
    validate_venue,
)
from indoortrip.routing import load_queries

from tracing import SpanTable, Tracer, untraced
from workloads import Workload, write_inputs

REL_TOL = 1e-9
SETUP_REPEATS = 3
RATIO_PREFIX = 50   # the acceptance fixture's query count on `desk`
# About what calibrate_ms() takes on an uncontended 2.1 GHz Xeon vCPU under
# Python 3.11.7, so that scaled times there read as measured.
CAL_REF_MS = 1.0
CAL_EVERY_NS = 250_000_000
_CAL_VALUES = np.arange(8.0)


@dataclass(frozen=True)
class Planner:
    name: str
    plan: Callable      # plan(query, index, counter=None) -> Route
    span: str           # span name of the call into the library
    pruned: bool = False


PLANNERS = {
    "gcnn": Planner("gcnn", gcnn, "routing.gcnn"),
    "gcnn-dom": Planner("gcnn-dom", gcnn, "routing.gcnn", pruned=True),
    "rank-once": Planner("rank-once", rank_once_greedy, "oracle.rank_once_greedy"),
    "oracle": Planner("oracle", exact_route, "oracle.exact_route"),
}


@dataclass
class System:
    queries: list
    index: object         # the full index
    pruned: object        # its `preprocess` snapshot; shares the full index's engine
    prune_report: object
    seconds: float


def query_categories(queries) -> list[int]:
    """Every category the workload's queries use: `preprocess` at delta 100."""
    return sorted({c for q in queries for c in q.categories})


def set_up(files, call=untraced) -> System:
    """Files on disk to a ready-to-query system, timed.

    Every set-up runs `preprocess`, so that every stream adds a sample to
    `setup_s` and the samples spread over the whole run."""
    start = time.perf_counter()

    def steps():
        venue = call("venue.load_venue", load_venue, files.venue)
        venue = venue.with_points(call("venue.load_objects_csv", load_objects_csv, files.objects))
        queries = call("routing.load_queries", load_queries, files.queries)
        report = call("venue.validate_venue", validate_venue, venue)
        if not report.ok:
            raise ValueError(f"venue failed validation: {report.findings[:5]}")
        graph = call("d2d.build_d2d_graph", build_d2d_graph, venue)
        index = call("index.build_index", build_index, venue, graph)
        pruned, prune_report = call("dominance.preprocess", preprocess, index,
                                    query_categories(queries))
        return queries, index, pruned, prune_report

    return System(*call("bench.setup", steps), time.perf_counter() - start)


# -- host speed ----------------------------------------------------------------

def calibrate_ms() -> float:
    """Mean time of three bouts of fixed dict, float and numpy-scalar work,
    the kinds of operation the planners spend their time on.

    A shared host's speed drifts by 30% and more over tens of seconds; a
    time measured next to a calibration and scaled by `scale` is steady to
    a few percent (see README.md)."""
    t0 = time.perf_counter_ns()
    for _ in range(3):
        table, total = {}, 0.0
        for i in range(2000):
            table[(i, i & 7)] = i * 0.5
            total += table[(i, i & 7)] + float(_CAL_VALUES[i & 7] + _CAL_VALUES[(i + 1) & 7])
    return (time.perf_counter_ns() - t0) / 3e6


def scale(before_ms: float, after_ms: float) -> float:
    """Factor taking a time measured between two calibrations to the
    reference host's speed."""
    return CAL_REF_MS / ((before_ms + after_ms) / 2.0)


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- route checks --------------------------------------------------------------

def check_route(route, query, index) -> str | None:
    """What is wrong with a route, or None.

    The route must be complete; its stops must cover exactly the query's
    categories, each with a live point of that category in this index; and
    its cost must equal alpha * travel + (1 - alpha) * static recomputed
    from legs measured on a fresh engine and scores read from the venue.
    """
    venue = index.venue
    if not route.complete:
        return "route is not complete"
    if sorted(s.category for s in route.stops) != sorted(query.categories):
        return f"stops cover {sorted(s.category for s in route.stops)}, query asks {sorted(query.categories)}"
    static = 0.0
    for stop in route.stops:
        point = venue.points.get(stop.point_id)
        if point is None or point.category != stop.category or not index.is_live(stop.point_id):
            return f"stop {stop.point_id} is not a live point of category {stop.category}"
        if stop.location != point.location:
            return f"stop {stop.point_id} is not at its point's location"
        static += point.static_score
    waypoints = ([venue.resolve(query.source)] + [s.location for s in route.stops]
                 + [venue.resolve(query.target)])
    if list(route.waypoints) != waypoints:
        return "waypoints are not source, stops, target"
    engine = DistanceEngine(venue, index.graph)
    legs = [engine.distance(a, b) for a, b in zip(waypoints, waypoints[1:])]
    if len(legs) != len(route.leg_lengths) or not all(
        math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL) for a, b in zip(legs, route.leg_lengths)
    ):
        return "leg lengths differ from the indoor distances"
    cost = query.alpha * sum(legs) + (1.0 - query.alpha) * static
    if not math.isclose(cost, route_cost(route, query.alpha), rel_tol=REL_TOL):
        return f"cost {route_cost(route, query.alpha)!r} differs from recomputed {cost!r}"
    return None


def route_digest(routes) -> str:
    """Digest of the chosen point ids, query by query, in query-id order."""
    h = hashlib.sha256()
    for route in routes:
        ids = "-" if route is None else ",".join(str(s.point_id) for s in route.stops)
        h.update(ids.encode() + b";")
    return h.hexdigest()[:16]


# -- streams -------------------------------------------------------------------

@dataclass
class Stream:
    planner: str
    traced: bool
    setup: tuple[float, float]    # (seconds as measured, scale)
    attempted: int
    removed_frac: float           # share of points `preprocess` removed
    latency_ms: dict[int, float] = field(default_factory=dict)   # query id -> ms as measured
    scale: dict[int, float] = field(default_factory=dict)        # query id -> scale
    costs: dict[int, float] = field(default_factory=dict)
    evals: dict[int, int] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)      # query id -> reason
    calibrations: list[float] = field(default_factory=list)
    rss_growth_mb: float = 0.0
    digest: str = ""

    def scaled_ms(self) -> list[float]:
        return [ms * self.scale[q] for q, ms in self.latency_ms.items()]


def run_stream(planner: Planner, files, order: list[int], tracer: Tracer | None = None) -> Stream:
    """Set up a system for this stream alone, send every query in order,
    each when the previous has returned, then check the routes."""
    call = tracer.call if tracer is not None else untraced
    cals = [calibrate_ms()]
    system = set_up(files, call=call)
    cals.append(calibrate_ms())
    queries = system.queries
    index = system.pruned if planner.pruned else system.index
    report = system.prune_report
    stream = Stream(planner.name, tracer is not None, (system.seconds, scale(*cals)),
                    attempted=len(order),
                    removed_frac=report.removed / (report.removed + report.kept))
    del system   # the index this stream does not use can go
    if tracer is not None:
        tracer.instrument(index)
    routes = [None] * len(queries)
    rss_before = current_rss_mb()
    clock = time.perf_counter_ns
    block: dict[int, int] = {}   # query id -> index of the calibration before it
    next_cal = clock() + CAL_EVERY_NS
    for qid in order:
        if clock() >= next_cal:
            cals.append(calibrate_ms())
            next_cal = clock() + CAL_EVERY_NS
        query = queries[qid]
        counter = EvalCounter() if tracer is not None else None
        if tracer is not None:
            tracer.begin_query(planner.name)
        t0 = clock()
        try:
            route = call(planner.span, planner.plan, query, index, counter=counter)
        except Exception as exc:  # counted in failed_frac; the stream goes on
            stream.failures[qid] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            elapsed = clock() - t0
            if tracer is not None:
                tracer.end_query()
        stream.latency_ms[qid] = elapsed / 1e6
        block[qid] = len(cals) - 1
        routes[qid] = route
        if counter is not None:
            stream.evals[qid] = counter.point_evals
    stream.rss_growth_mb = current_rss_mb() - rss_before
    cals.append(calibrate_ms())
    stream.scale = {q: scale(cals[b], cals[b + 1]) for q, b in block.items()}
    stream.calibrations = cals

    for qid, route in enumerate(routes):
        if route is None:
            continue
        problem = check_route(route, queries[qid], index)
        if problem is not None:
            stream.failures[qid] = problem
            del stream.latency_ms[qid]
        else:
            stream.costs[qid] = route_cost(route, queries[qid].alpha)
    stream.digest = route_digest(routes)
    return stream


def run_pass(planners: list[Planner], files, order: list[int],
             tracer: Tracer | None = None) -> list[Stream]:
    """Each planner's stream in turn; one stream's system is gone before
    the next is set up, so none shares memory or caches with another."""
    streams = []
    for planner in planners:
        streams.append(run_stream(planner, files, order, tracer))
        gc.collect()
    return streams


# -- one run of a workload -----------------------------------------------------

@dataclass
class Run:
    workload: Workload
    streams: list[Stream]
    setups: list[tuple[float, float]]   # every untraced set-up: (seconds, scale)
    tracer: Tracer | None
    peak_rss_mb: float
    problems: list[str]           # run-level check failures (digests)


def warm_up(workdir: Path) -> None:
    """Pay import and first-call costs on a throwaway index, untimed."""
    tiny = Workload(
        name="warm-up", seed=0, holdout_seed=0, planners=tuple(PLANNERS),
        spec=dict(floors=1, rooms_per_floor=4, categories=3, count_range=(4, 6),
                  store_rooms=4, query_count=2, query_categories=(2,)),
    )
    run_pass(list(PLANNERS.values()), write_inputs(tiny, 0, workdir / "warm-up"), [0, 1])


def run_workload(workload: Workload, workload_seed: int, seed: int, seconds: float,
                 trace: bool, workdir: Path, planners: dict[str, Planner] = PLANNERS) -> Run:
    """Set up repeatedly, then run passes of every planner's stream until
    `seconds` have gone by.  Each pass sends the queries in a new order
    drawn from `seed`.

    The oracle runs in the first pass only (in the first two when traced):
    its routes are deterministic and it takes most of a pass.  With trace
    on, passes alternate untraced and traced, so the run also measures the
    tracing overhead; its first pass is untraced.
    """
    files = write_inputs(workload, workload_seed, workdir / f"{workload.name}-{workload_seed}")
    warm_up(workdir)
    tracer = Tracer() if trace else None
    call = tracer.call if tracer is not None else untraced

    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibrate_ms()
        took = set_up(files, call=call).seconds
        setups.append((took, scale(before, calibrate_ms())))
        gc.collect()

    rng = random.Random(seed)
    order = list(range(workload.spec["query_count"]))
    streams: list[Stream] = []
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while pass_no < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and pass_no % 2 == 1
        with_oracle = pass_no < (2 if trace else 1)
        rng.shuffle(order)
        done = run_pass([planners[name] for name in workload.planners
                         if with_oracle or name != "oracle"],
                        files, order, tracer if traced else None)
        streams.extend(done)
        setups.extend(s.setup for s in done if not traced)
        pass_no += 1

    problems = []
    for name in workload.planners:
        digests = {s.digest for s in streams if s.planner == name}
        if len(digests) > 1:
            problems.append(f"{name}: routes differ between repeats ({sorted(digests)})")
    check_oracle(streams)
    return Run(workload, streams, setups, tracer, peak_rss_mb(), problems)


def check_oracle(streams: list[Stream]) -> None:
    """Fail each oracle query whose cost exceeds some heuristic's cost."""
    heuristic = [s for s in streams if s.planner != "oracle"]
    for oracle in (s for s in streams if s.planner == "oracle"):
        for qid, best in list(oracle.costs.items()):
            beaten = [s.planner for s in heuristic
                      if s.costs.get(qid, math.inf) * (1.0 + REL_TOL) < best]
            if beaten:
                oracle.failures[qid] = f"oracle cost {best!r} exceeds that of {sorted(set(beaten))}"
                del oracle.costs[qid]
                del oracle.latency_ms[qid]


# -- metrics -------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """NaN when every query failed: the run is then incorrect anyway."""
    return float(np.percentile(values, q)) if len(values) else math.nan


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else math.nan


def metric_key(planner: str) -> str:
    return planner.replace("-", "_")


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end metric as name -> (value, unit, sample count).

    Times are scaled to the reference host's speed; the same times as
    measured are reported under `measured.<name>`."""
    n = len(run.setups)
    out: dict[str, tuple[float, str, int]] = {
        "setup_s": (statistics.median(t * k for t, k in run.setups), "s", n),
    }
    measured = {"measured.setup_s": (statistics.median(t for t, _ in run.setups), "s", n)}
    untraced_streams = [s for s in run.streams if not s.traced]
    for name in run.workload.planners:
        mine = [s for s in untraced_streams if s.planner == name]
        scaled = [ms for s in mine for ms in s.scaled_ms()]
        raw = [ms for s in mine for ms in s.latency_ms.values()]
        key = metric_key(name)
        for q in (50, 90):
            out[f"{key}_p{q}_ms"] = (percentile(scaled, q), "ms", len(scaled))
            measured[f"measured.{key}_p{q}_ms"] = (percentile(raw, q), "ms", len(raw))
    oracle = next((s for s in run.streams if s.planner == "oracle"), None)
    if oracle is not None:
        for name in run.workload.planners:
            if name == "oracle":
                continue
            first = next(s for s in run.streams if s.planner == name)
            ratios = {q: c / oracle.costs[q] for q, c in first.costs.items()
                      if oracle.costs.get(q, 0.0) > 0.0}
            head = [r for q, r in ratios.items() if q < RATIO_PREFIX]
            key = metric_key(name)
            out[f"{key}_ratio_mean"] = (mean(ratios.values()), "ratio", len(ratios))
            out[f"{key}_ratio_mean_first{RATIO_PREFIX}"] = (mean(head), "ratio", len(head))
    out["peak_rss_mb"] = (run.peak_rss_mb, "MB", 1)
    attempted, failed = counts(run)
    out["failed_frac"] = (failed / attempted, "ratio", attempted)
    out.update(measured)
    out.update(host_speed(run))
    return out


def host_speed(run: Run) -> dict[str, tuple[float, str, int]]:
    """The host's speed over the run relative to the reference host."""
    cals = [c for s in run.streams for c in s.calibrations]
    return {"host.speed": (CAL_REF_MS / statistics.median(cals), "ratio", len(cals))}


def counts(run: Run) -> tuple[int, int]:
    """(queries attempted, queries failed) over every stream of the run."""
    attempted = sum(s.attempted for s in run.streams)
    failed = sum(len(s.failures) for s in run.streams)
    return attempted, failed


def per_layer(run: Run) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics from the traced streams, as name -> (value, unit, samples)."""
    tracer = run.tracer
    table = SpanTable(tracer)
    out: dict[str, tuple[float, str, int]] = {}

    setups = list(table.children_of(np.flatnonzero(table.mask("bench.setup"))).values())

    def setup_ms(*names):
        vals = [sum(s.get(n, 0.0) for n in names) / 1e6 for s in setups]
        return statistics.median(vals), "ms", len(vals)

    out["venue.load_ms"] = setup_ms("venue.load_venue", "venue.load_objects_csv")
    out["venue.validate_ms"] = setup_ms("venue.validate_venue")
    out["d2d.build_ms"] = setup_ms("d2d.build_d2d_graph")
    out["index.build_ms"] = setup_ms("index.build_index")
    out["dominance.preprocess_ms"] = setup_ms("dominance.preprocess")

    traced = [s for s in run.streams if s.traced]
    scan = np.frombuffer(tracer.scan_frac, dtype=np.float64)
    scan_planner = np.array(tracer.query_planners + [""])[np.frombuffer(tracer.scan_query, dtype=np.int32)]
    for name in run.workload.planners:
        planner = PLANNERS[name]
        mine = [s for s in traced if s.planner == name]
        n = sum(s.attempted for s in mine)
        evals = [e for s in mine for e in s.evals.values()]
        distance = table.mask("d2d.distance", name)
        out[f"d2d.distance_calls.{name}"] = (distance.sum() / n, "count", n)
        out[f"d2d.distance_ms.{name}"] = (table.duration[distance].sum() / n / 1e6, "ms", n)
        if name in ("gcnn", "gcnn-dom"):
            cnn = table.mask("index.cnn", name)
            out[f"d2d.door_vector_calls.{name}"] = (table.mask("d2d.door_vector", name).sum() / n, "count", n)
            out[f"index.cnn_calls.{name}"] = (cnn.sum() / n, "count", n)
            out[f"index.cnn_self_ms.{name}"] = (table.self_time[cnn].sum() / n / 1e6, "ms", n)
            out[f"index.points_evaluated.{name}"] = (mean(evals), "count", len(evals))
            fracs = scan[scan_planner == name]
            out[f"index.scan_frac.{name}"] = (float(fracs.mean()), "ratio", len(fracs))
            out[f"routing.gcnn_self_ms.{name}"] = (
                table.self_time[table.mask(planner.span, name)].sum() / n / 1e6, "ms", n)
        elif name == "rank-once":
            out["oracle.rank_once_evals"] = (mean(evals), "count", len(evals))
        elif name == "oracle":
            out["oracle.point_evals"] = (mean(evals), "count", len(evals))
            out["oracle.self_ms"] = (
                table.self_time[table.mask(planner.span, name)].sum() / n / 1e6, "ms", n)

    out["dominance.removed_frac"] = (run.streams[0].removed_frac, "ratio", 1)
    g_evals = sum(e for s in traced if s.planner == "gcnn" for e in s.evals.values())
    d_evals = sum(e for s in traced if s.planner == "gcnn-dom" for e in s.evals.values())
    out["dominance.eval_cut"] = (g_evals / d_evals, "ratio", 1)

    first_pass = {}
    for s in run.streams:
        first_pass.setdefault(s.planner, s)
    out["d2d.stream_rss_growth_mb"] = (max(s.rss_growth_mb for s in first_pass.values()), "MB",
                                       len(first_pass))

    def mean_busy(traced_flag):
        per = {}
        for s in run.streams:
            if s.traced == traced_flag:
                per.setdefault(s.planner, []).append(sum(s.scaled_ms()))
        return {p: mean(v) for p, v in per.items()}

    on, off = mean_busy(True), mean_busy(False)
    both = sorted(set(on) & set(off))
    overhead = sum(on[p] for p in both) / sum(off[p] for p in both) - 1.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%", len(both))
    for p in both:
        out[f"trace.overhead_pct.{p}"] = (100.0 * (on[p] / off[p] - 1.0), "%", 1)
    out["repo.src_lines"] = (float(src_lines()), "lines", 1)
    out.update(host_speed(run))
    return out


def src_lines() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
