"""Smoke test of the benchmark at a tiny size.

    python -m pytest perfbench/test_smoke.py
"""

import json
from dataclasses import replace

import pytest

import run

run.use_checkout_source()

import harness  # noqa: E402  (needs the checkout's src on sys.path)
from indoortrip.routing import Route  # noqa: E402
from workloads import ALL_PLANNERS, Workload  # noqa: E402

TINY = Workload(
    name="tiny", seed=1, holdout_seed=2, planners=ALL_PLANNERS,
    spec=dict(floors=2, rooms_per_floor=6, categories=4, count_range=(6, 10),
              store_rooms=4, hosts_per_category=2, query_count=6, query_categories=(2, 3)),
    alphas=(0.2, 0.8),
)


def contract():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
def test_every_contract_metric_is_emitted_with_its_unit(tmp_path, trace):
    result = harness.run_workload(TINY, TINY.seed, seed=0, seconds=0, trace=trace, workdir=tmp_path)
    values = harness.per_layer(result) if trace else harness.end_to_end(result)
    wanted = contract()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        m["name"]: values[m["name"]][1] for m in wanted if m["name"] in values
    }
    line, _ = run.result_line(result, trace, contract())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0


def test_corrupted_route_counts_as_failed(tmp_path):
    def corrupted_gcnn(query, index, counter=None):
        route = harness.gcnn(query, index, counter=counter)
        legs = (route.leg_lengths[0] + 1.0,) + route.leg_lengths[1:]
        return Route(route.waypoints, route.stops, legs, complete=True)

    planners = dict(harness.PLANNERS, gcnn=replace(harness.PLANNERS["gcnn"], plan=corrupted_gcnn))
    result = harness.run_workload(TINY, TINY.seed, seed=0, seconds=0, trace=False,
                                  workdir=tmp_path, planners=planners)
    attempted, failed = harness.counts(result)
    assert failed == TINY.spec["query_count"]
    assert harness.end_to_end(result)["failed_frac"][0] == failed / attempted > 0
    line, _ = run.result_line(result, False, contract())
    assert not line["correct"]
