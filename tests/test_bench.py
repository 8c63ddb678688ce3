import json

import numpy as np
import pytest

from indoortrip import (
    ExperimentConfig,
    WorkloadSpec,
    approximation_ratio,
    build_workload,
    run_experiment,
    save_objects_csv,
    save_venue,
    sweep_delta,
)
from indoortrip.bench import (
    CSV_HEADER, config_from_dict, frequent_categories, summarize, write_summary,
)
from indoortrip.routing import TripQuery, save_queries
from indoortrip.venue import Location


def write_workload(tmp_path, **overrides):
    params = dict(seed=17, floors=2, rooms_per_floor=8, categories=5,
                  count_range=(6, 10), store_rooms=5, hosts_per_category=2,
                  query_count=5, query_categories=(2, 3))
    params.update(overrides)
    spec = WorkloadSpec(**params)
    venue, points, queries = build_workload(spec)
    paths = {
        "venue": tmp_path / "venue.json",
        "objects": tmp_path / "objects.csv",
        "queries": tmp_path / "queries.jsonl",
    }
    save_venue(venue, paths["venue"])
    save_objects_csv(points, paths["objects"])
    save_queries(queries, paths["queries"])
    return paths, queries


def base_config(paths, **overrides):
    params = dict(
        venue_path=str(paths["venue"]),
        objects_path=str(paths["objects"]),
        queries_path=str(paths["queries"]),
        algorithms=("gcnn", "gcnn-dom", "oracle"),
        delta=100,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def test_approximation_ratio_basics():
    assert approximation_ratio(10.0, 10.0) == 1.0
    assert approximation_ratio(12.0, 10.0) == pytest.approx(1.2)
    with pytest.raises(ValueError):
        approximation_ratio(5.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(venue_path="v", queries_path="q", algorithms=("magic",))
    with pytest.raises(ValueError, match=r"repeated algorithms: \['gcnn'\]"):
        ExperimentConfig(venue_path="v", queries_path="q", algorithms=("gcnn", "oracle", "gcnn"))
    for delta in (-1, 101):
        with pytest.raises(ValueError, match="delta"):
            ExperimentConfig(venue_path="v", queries_path="q", delta=delta)
        with pytest.raises(ValueError, match="delta"):
            frequent_categories([], delta)
    cfg = ExperimentConfig(venue_path="v", queries_path="q", delta=37)
    assert cfg.delta == 37
    with pytest.raises(ValueError):
        config_from_dict({"venue_path": "v", "queries_path": "q", "bogus": 1})
    with pytest.raises(ValueError, match="at least one algorithm"):
        ExperimentConfig(venue_path="v", queries_path="q", algorithms=())
    with pytest.raises(ValueError, match="at least one algorithm"):
        config_from_dict({"venue_path": "v", "queries_path": "q", "algorithms": []})
    with pytest.raises(ValueError, match="config key 'algorithms' must be a list"):
        config_from_dict({"venue_path": "v", "queries_path": "q", "algorithms": "gcnn"})


@pytest.mark.parametrize("key", ["delta", "repetitions"])
@pytest.mark.parametrize("value", [True, 50.5, None])
def test_config_from_dict_refuses_a_value_int_would_truncate(key, value):
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        config_from_dict({"venue_path": "v", "queries_path": "q", key: value})


def test_config_from_dict_reads_an_integral_float_as_an_int():
    cfg = config_from_dict({"venue_path": "v", "queries_path": "q", "delta": 50.0,
                            "repetitions": 2.0})
    assert (cfg.delta, cfg.repetitions) == (50, 2)
    assert type(cfg.delta) is int and type(cfg.repetitions) is int


def test_frequent_categories_ranked_and_truncated():
    loc = Location(1, 5, 0, 0)
    queries = [
        TripQuery(loc, loc, categories=(1, 2)),
        TripQuery(loc, loc, categories=(2, 3)),
        TripQuery(loc, loc, categories=(2, 4)),
        TripQuery(loc, loc, categories=(3, 4)),
    ]
    assert frequent_categories(queries, 100) == [2, 3, 4, 1]
    assert frequent_categories(queries, 50) == [2, 3]
    assert frequent_categories(queries, 0) == []


def test_single_algorithm_rows_have_no_ratio(tmp_path):
    paths, queries = write_workload(tmp_path)
    config = base_config(paths, algorithms=("gcnn",))
    result = run_experiment(config)
    assert len(result.rows) == len(queries)
    assert all(r.ratio is None for r in result.rows)
    assert all(r.cost is not None for r in result.rows)


def test_full_suite_produces_ratios_of_at_least_one(tmp_path):
    paths, queries = write_workload(tmp_path)
    config = base_config(paths, algorithms=("gcnn", "gcnn-dom", "oracle", "rank-once"))
    result = run_experiment(config)
    assert len(result.rows) == 4 * len(queries)
    for row in result.rows:
        assert row.ratio is not None
        assert row.ratio >= 1.0 - 1e-12
        assert row.runtime_us > 0
    oracle_rows = [r for r in result.rows if r.algorithm == "oracle"]
    assert all(r.ratio == 1.0 for r in oracle_rows)


def test_csv_header_is_the_documented_one():
    assert CSV_HEADER == "query_id,algorithm,cost,travel,static,runtime_us,points_evaluated,ratio"


def test_csv_schema_and_determinism_excluding_runtime(tmp_path):
    paths, _ = write_workload(tmp_path)
    outputs = []
    for run in ("x", "y"):
        out = tmp_path / f"results_{run}.csv"
        config = base_config(paths, output_path=str(out))
        run_experiment(config)
        outputs.append(out.read_text().splitlines())
    assert outputs[0][0] == CSV_HEADER
    assert len(outputs[0]) == len(outputs[1])

    def strip_runtime(lines):
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            cells[5] = ""
            rows.append(",".join(cells))
        return rows

    assert strip_runtime(outputs[0]) == strip_runtime(outputs[1])


def test_repetitions_multiply_rows(tmp_path):
    paths, queries = write_workload(tmp_path)
    config = base_config(paths, algorithms=("gcnn",), repetitions=3)
    result = run_experiment(config)
    assert len(result.rows) == 3 * len(queries)


def test_summary_matches_recomputation_from_rows(tmp_path):
    paths, _ = write_workload(tmp_path)
    config = base_config(paths)
    result = run_experiment(config)
    for algorithm, entry in result.summary["algorithms"].items():
        rows = [r for r in result.rows if r.algorithm == algorithm]
        ratios = [r.ratio for r in rows if r.ratio is not None]
        assert entry["queries"] == len(rows)
        assert entry["points_evaluated"] == sum(r.points_evaluated for r in rows)
        if ratios:
            assert entry["mean_ratio"] == pytest.approx(float(np.mean(ratios)))
            assert entry["median_ratio"] == pytest.approx(float(np.median(ratios)))
        assert entry["mean_runtime_us"] == pytest.approx(
            float(np.mean([r.runtime_us for r in rows if r.cost is not None]))
        )


def test_missing_category_yields_error_row_and_run_continues(tmp_path):
    paths, queries = write_workload(tmp_path)
    bad = TripQuery(queries[0].source, queries[0].target, categories=(999,), alpha=0.5)
    save_queries(list(queries) + [bad], paths["queries"])
    config = base_config(paths, algorithms=("gcnn",))
    result = run_experiment(config)
    errors = [r for r in result.rows if r.error]
    assert len(errors) == 1
    assert errors[0].cost is None
    assert len(result.rows) == len(queries) + 1
    assert result.summary["algorithms"]["gcnn"]["errors"] == 1


def test_runtime_summary_leaves_out_error_rows(tmp_path):
    """An error row's runtime_us is a placeholder: the runtime mean and
    median are taken over the rows that returned a route, and are None
    when none did.  The CSV keeps the error row as it is."""
    paths, queries = write_workload(tmp_path, categories=8)
    too_many = TripQuery(queries[0].source, queries[0].target, categories=tuple(range(8)),
                         alpha=0.5)
    save_queries(list(queries) + [too_many], paths["queries"])
    config = base_config(paths, algorithms=("oracle",), output_path=str(tmp_path / "out.csv"))
    result = run_experiment(config)
    errors = [r for r in result.rows if r.error]
    assert [r.error.split(":")[0] for r in errors] == ["OracleScaleError"]
    assert errors[0].runtime_us == 1
    ok = [r.runtime_us for r in result.rows if r.cost is not None]
    assert len(ok) == len(queries)
    entry = result.summary["algorithms"]["oracle"]
    assert entry["errors"] == 1
    assert entry["mean_runtime_us"] == pytest.approx(float(np.mean(ok)))
    assert entry["median_runtime_us"] == pytest.approx(float(np.median(ok)))
    assert len((tmp_path / "out.csv").read_text().splitlines()) == len(queries) + 2
    only_errors = summarize(errors, config, 0)["algorithms"]["oracle"]
    assert only_errors["mean_runtime_us"] is None
    assert only_errors["median_runtime_us"] is None


def test_preprocessing_time_recorded_separately(tmp_path):
    paths, _ = write_workload(tmp_path)
    result = run_experiment(base_config(paths, algorithms=("gcnn-dom",)))
    assert result.preprocess_us > 0
    assert result.prune_report is not None
    assert result.prune_report.removed > 0


def test_delta_zero_skips_preprocessing(tmp_path):
    paths, _ = write_workload(tmp_path)
    result = run_experiment(base_config(paths, algorithms=("gcnn", "gcnn-dom"), delta=0))
    assert result.preprocess_us == 0
    g = result.summary["algorithms"]["gcnn"]["points_evaluated"]
    d = result.summary["algorithms"]["gcnn-dom"]["points_evaluated"]
    assert g == d


def test_delta_sweep_monotone_points_evaluated(tmp_path):
    paths, _ = write_workload(tmp_path, query_count=8)
    config = base_config(paths, algorithms=("gcnn-dom",))
    results = sweep_delta(config, [0, 50, 100])
    totals = [
        results[d].summary["algorithms"]["gcnn-dom"]["points_evaluated"]
        for d in (0, 50, 100)
    ]
    assert totals[0] >= totals[1] >= totals[2]


def test_a_sweep_refuses_a_repeated_delta_before_it_runs(tmp_path):
    # The inputs do not exist: the refusal comes before anything is loaded.
    config = ExperimentConfig(venue_path=str(tmp_path / "none.json"),
                              queries_path=str(tmp_path / "none.jsonl"))
    with pytest.raises(ValueError, match=r"^repeated deltas: \[0, 50\]$"):
        sweep_delta(config, [50, 0, 100, 50, 0])


def test_write_summary_includes_prune_report(tmp_path):
    paths, _ = write_workload(tmp_path)
    result = run_experiment(base_config(paths, algorithms=("gcnn-dom",)))
    out = tmp_path / "summary.json"
    write_summary(result, out)
    data = json.loads(out.read_text())
    assert "prune_report" in data
    assert data["algorithms"]["gcnn-dom"]["queries"] == 5
