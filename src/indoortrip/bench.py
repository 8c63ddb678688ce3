"""Experiment harness: run planner suites over query sets, emit CSV.

One result row per (query, algorithm, repetition).  When the exact
solver is in the suite, every row carries an approximation ratio against
it.  Non-timing columns are deterministic for a fixed seed and config.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .d2d import build_d2d_graph
from .dominance import PruneReport, preprocess
from .index import VenueIndex, build_index
from .oracle import OracleScaleError, exact_route, rank_once_greedy
from .routing import EmptyCategoryError, EvalCounter, TripQuery, gcnn, load_queries, route_cost
from .venue import Venue, load_checked_venue

CSV_HEADER = "query_id,algorithm,cost,travel,static,runtime_us,points_evaluated,ratio"

# name -> (planner(query, index, counter=...), whether it runs on the pruned index)
PLANNERS = {
    "gcnn": (gcnn, False),
    "gcnn-dom": (gcnn, True),
    "oracle": (exact_route, False),
    "rank-once": (rank_once_greedy, False),
}

ALGORITHMS = tuple(PLANNERS)

ALLOWED_DELTAS = (0, 10, 20, 50, 80, 100)


@dataclass(frozen=True)
class ExperimentConfig:
    venue_path: str
    queries_path: str
    objects_path: str | None = None
    algorithms: tuple[str, ...] = ("gcnn", "gcnn-dom", "oracle")
    delta: int = 50
    repetitions: int = 1
    output_path: str | None = None
    fanout: int = 4
    allow_any_delta: bool = False

    def __post_init__(self):
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if self.delta not in ALLOWED_DELTAS and not self.allow_any_delta:
            raise ValueError(f"delta must be one of {ALLOWED_DELTAS}, got {self.delta}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")


def config_from_dict(data: dict) -> ExperimentConfig:
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "algorithms" in data:
        data = dict(data, algorithms=tuple(data["algorithms"]))
    return ExperimentConfig(**data)


@dataclass
class ResultRow:
    query_id: int
    algorithm: str
    cost: float | None
    travel: float | None
    static: float | None
    runtime_us: int
    points_evaluated: int
    ratio: float | None = None
    error: str | None = None

    def csv_fields(self) -> list[str]:
        def num(v):
            return "" if v is None else repr(v)

        return [
            str(self.query_id),
            self.algorithm,
            num(self.cost),
            num(self.travel),
            num(self.static),
            str(self.runtime_us),
            str(self.points_evaluated),
            num(self.ratio),
        ]


def approximation_ratio(cost: float, optimal_cost: float) -> float:
    if optimal_cost <= 0.0:
        raise ValueError(f"optimal cost must be positive, got {optimal_cost}")
    return cost / optimal_cost


def frequent_categories(queries: list[TripQuery], delta: int) -> list[int]:
    """The delta% most frequent query categories, most frequent first."""
    counts: dict[int, int] = {}
    for q in queries:
        for c in q.categories:
            counts[c] = counts.get(c, 0) + 1
    ranked = sorted(counts, key=lambda c: (-counts[c], c))
    take = int(len(ranked) * delta / 100)
    return ranked[:take]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ResultRow]
    summary: dict
    prune_report: PruneReport | None = None
    preprocess_us: int = 0

    def write_csv(self, path: str | Path) -> None:
        lines = [CSV_HEADER]
        lines.extend(",".join(row.csv_fields()) for row in self.rows)
        Path(path).write_text("\n".join(lines) + "\n")


def _run_algorithm(algorithm: str, query: TripQuery, indices: dict[str, VenueIndex]):
    planner, pruned = PLANNERS[algorithm]
    counter = EvalCounter()
    start = time.perf_counter_ns()
    route = planner(query, indices["pruned" if pruned else "full"], counter=counter)
    elapsed_us = max(1, (time.perf_counter_ns() - start) // 1000)
    return route, counter.point_evals, elapsed_us


def load_experiment_inputs(config: ExperimentConfig) -> tuple[Venue, list[TripQuery]]:
    venue = load_checked_venue(config.venue_path, config.objects_path)
    return venue, load_queries(config.queries_path)


def run_experiment(config: ExperimentConfig,
                   inputs: tuple[Venue, list[TripQuery]] | None = None) -> ExperimentResult:
    venue, queries = inputs if inputs is not None else load_experiment_inputs(config)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph, fanout=config.fanout)
    indices = {"full": index}

    prune_report = None
    preprocess_us = 0
    if any(PLANNERS[a][1] for a in config.algorithms):
        cats = frequent_categories(queries, config.delta)
        if cats:
            start = time.perf_counter_ns()
            indices["pruned"], prune_report = preprocess(index, cats)
            preprocess_us = max(1, (time.perf_counter_ns() - start) // 1000)
        else:
            indices["pruned"] = index

    rows: list[ResultRow] = []
    optima: dict[int, float] = {}
    want_ratio = "oracle" in config.algorithms

    for qid, query in enumerate(queries):
        for algorithm in sorted(config.algorithms):
            for _ in range(config.repetitions):
                try:
                    route, evals, elapsed_us = _run_algorithm(algorithm, query, indices)
                except (OracleScaleError, EmptyCategoryError) as exc:
                    rows.append(
                        ResultRow(
                            query_id=qid, algorithm=algorithm, cost=None, travel=None,
                            static=None, runtime_us=1, points_evaluated=0,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    continue
                cost = route_cost(route, query.alpha)
                if algorithm == "oracle":
                    optima[qid] = cost
                rows.append(
                    ResultRow(
                        query_id=qid, algorithm=algorithm, cost=cost,
                        travel=route.travel, static=route.static,
                        runtime_us=elapsed_us, points_evaluated=evals,
                    )
                )

    if want_ratio:
        for row in rows:
            opt = optima.get(row.query_id)
            if row.cost is not None and opt is not None and opt > 0.0:
                row.ratio = approximation_ratio(row.cost, opt)

    rows.sort(key=lambda r: (r.query_id, r.algorithm))
    summary = summarize(rows, config, preprocess_us)
    result = ExperimentResult(
        config=config, rows=rows, summary=summary,
        prune_report=prune_report, preprocess_us=preprocess_us,
    )
    if config.output_path:
        result.write_csv(config.output_path)
    return result


def summarize(rows: list[ResultRow], config: ExperimentConfig, preprocess_us: int) -> dict:
    summary: dict = {
        "delta": config.delta,
        "repetitions": config.repetitions,
        "preprocess_us": preprocess_us,
        "algorithms": {},
    }
    for algorithm in sorted(config.algorithms):
        algo_rows = [r for r in rows if r.algorithm == algorithm]
        ok = [r for r in algo_rows if r.cost is not None]
        ratios = [r.ratio for r in ok if r.ratio is not None]
        runtimes = [r.runtime_us for r in algo_rows]
        entry = {
            "queries": len(algo_rows),
            "errors": len(algo_rows) - len(ok),
            "mean_cost": float(np.mean([r.cost for r in ok])) if ok else None,
            "mean_runtime_us": float(np.mean(runtimes)) if runtimes else None,
            "median_runtime_us": float(np.median(runtimes)) if runtimes else None,
            "points_evaluated": int(sum(r.points_evaluated for r in algo_rows)),
            "mean_ratio": float(np.mean(ratios)) if ratios else None,
            "median_ratio": float(np.median(ratios)) if ratios else None,
        }
        summary["algorithms"][algorithm] = entry
    return summary


def sweep_delta(config: ExperimentConfig, deltas: list[int]) -> dict[int, ExperimentResult]:
    """Re-run the experiment at several preprocessing percentages."""
    inputs = load_experiment_inputs(config)
    results = {}
    for delta in deltas:
        cfg = replace(config, delta=delta, output_path=None)
        results[delta] = run_experiment(cfg, inputs=inputs)
    return results


def write_summary(result: ExperimentResult, path: str | Path) -> None:
    payload = dict(result.summary)
    if result.prune_report is not None:
        payload["prune_report"] = result.prune_report.to_dict()
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
