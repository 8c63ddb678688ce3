"""The pinned benchmark workloads and the input files generated for them.

Each workload is a `WorkloadSpec` plus the planners that run on it.  Its
inputs are generated by `indoortrip.workload` from the workload seed and
written as the venue JSON, objects CSV and queries JSONL that the timed
set-up then loads, the way a user's files would be.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from indoortrip import WorkloadSpec, build_workload, save_objects_csv, save_venue
from indoortrip.routing import save_queries

HEURISTICS = ("gcnn", "gcnn-dom", "rank-once")
ALL_PLANNERS = HEURISTICS + ("oracle",)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int           # pinned default workload seed
    holdout_seed: int   # for checking a claim on inputs it was not tuned on
    planners: tuple[str, ...]
    spec: dict          # WorkloadSpec fields other than the seed
    # Per-query alphas, split evenly over the query list in order; empty
    # keeps the spec's single alpha.
    alphas: tuple[float, ...] = ()

    def workload_spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(seed=seed, **self.spec)


# Why these three: see README.md.  In short, `desk` is the acceptance
# fixture and carries the oracle layer and quality ratios; `big` carries the
# d2d and index layers, set-up time and memory; `spread` spreads objects over
# every room, where pruning does little and alpha is far from 0.5.
WORKLOADS = {
    "desk": Workload(
        name="desk", seed=2026, holdout_seed=2027, planners=ALL_PLANNERS,
        spec=dict(floors=4, rooms_per_floor=12, categories=8, count_range=(30, 40),
                  store_rooms=8, hosts_per_category=3, query_count=100,
                  query_categories=(2, 3, 4), alpha=0.5),
    ),
    "big": Workload(
        name="big", seed=3, holdout_seed=5, planners=HEURISTICS,
        spec=dict(floors=6, rooms_per_floor=30, categories=10, count_range=(300, 400),
                  store_rooms=40, query_count=200, query_categories=(3, 4, 5), alpha=0.5),
    ),
    "spread": Workload(
        name="spread", seed=7, holdout_seed=8, planners=ALL_PLANNERS,
        spec=dict(floors=3, rooms_per_floor=16, categories=8, count_range=(20, 30),
                  hosts_per_category=None, query_count=100, query_categories=(3, 4)),
        alphas=(0.2, 0.8),
    ),
}


@dataclass(frozen=True)
class InputFiles:
    venue: Path
    objects: Path
    queries: Path


def write_inputs(workload: Workload, seed: int, directory: Path) -> InputFiles:
    """Generate the workload from its seed and write its three input files."""
    venue, points, queries = build_workload(workload.workload_spec(seed))
    if workload.alphas:
        share = len(workload.alphas)
        queries = [
            replace(q, alpha=workload.alphas[i * share // len(queries)])
            for i, q in enumerate(queries)
        ]
    directory.mkdir(parents=True, exist_ok=True)
    files = InputFiles(directory / "venue.json", directory / "objects.csv",
                       directory / "queries.jsonl")
    save_venue(venue.with_points([]), files.venue)
    save_objects_csv(points, files.objects)
    save_queries(queries, files.queries)
    return files
