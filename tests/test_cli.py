import json

import pytest

from indoortrip.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def generated(tmp_path):
    venue = tmp_path / "venue.json"
    objects = tmp_path / "objects.csv"
    queries = tmp_path / "queries.jsonl"
    common = ["--seed", 4, "--floors", 2, "--rooms-per-floor", 8, "--categories", 5,
              "--count-range", "6,10", "--stores", 5, "--hosts", 2]
    assert run(["gen-venue", *common, "--out", venue]) == 0
    assert run(["gen-objects", *common, "--venue", venue, "--out", objects]) == 0
    assert run([
        "gen-queries", "--venue", venue, "--objects", objects, "--out", queries,
        "--seed", 4, "--count", 4, "--m", "2", "--categories-list", "0,1,2,3,4",
    ]) == 0
    return {"venue": venue, "objects": objects, "queries": queries, "dir": tmp_path}


def test_generation_pipeline_products_exist(generated):
    assert json.loads(generated["venue"].read_text())["partitions"]
    assert generated["objects"].read_text().startswith("id,partition_id,x,y,floor,")
    lines = generated["queries"].read_text().splitlines()
    assert len(lines) == 4
    assert all("categories" in json.loads(l) for l in lines)


def test_gen_is_deterministic(tmp_path, generated):
    venue2 = tmp_path / "venue2.json"
    common = ["--seed", 4, "--floors", 2, "--rooms-per-floor", 8, "--categories", 5,
              "--count-range", "6,10", "--stores", 5, "--hosts", 2]
    assert run(["gen-venue", *common, "--out", venue2]) == 0
    assert venue2.read_bytes() == generated["venue"].read_bytes()


def test_replicate_doubles_objects(generated, tmp_path):
    out = tmp_path / "rep.csv"
    assert run(["replicate", "--venue", generated["venue"], "--objects",
                generated["objects"], "--k", 2, "--seed", 1, "--out", out]) == 0
    n_in = len(generated["objects"].read_text().splitlines()) - 1
    n_out = len(out.read_text().splitlines()) - 1
    assert n_out == 2 * n_in


def test_build_index_reports_stats(generated, capsys):
    assert run(["build-index", "--venue", generated["venue"],
                "--objects", generated["objects"]]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["live_points"] > 0
    assert stats["leaves"] >= 1


def test_prune_writes_deterministic_report(generated, tmp_path):
    report_a = tmp_path / "prune_a.json"
    report_b = tmp_path / "prune_b.json"
    for out in (report_a, report_b):
        assert run(["prune", "--venue", generated["venue"], "--objects",
                    generated["objects"], "--categories", "0,1,2,3,4", "--out", out]) == 0
    assert report_a.read_bytes() == report_b.read_bytes()
    data = json.loads(report_a.read_text())
    assert data["removed"] > 0
    assert data["categories"] == [0, 1, 2, 3, 4]


def test_query_and_oracle_routes(generated, tmp_path):
    routes = tmp_path / "routes.jsonl"
    assert run(["query", "--venue", generated["venue"], "--objects", generated["objects"],
                "--queries", generated["queries"], "--out", routes]) == 0
    entries = [json.loads(l) for l in routes.read_text().splitlines()]
    assert len(entries) == 4
    for entry in entries:
        assert entry["complete"]
        assert entry["cost"] == pytest.approx(
            0.5 * entry["travel"] + 0.5 * entry["static"]
        )
        assert len(entry["leg_lengths"]) == len(entry["waypoints"]) - 1

    exact = tmp_path / "exact.jsonl"
    assert run(["oracle", "--venue", generated["venue"], "--objects", generated["objects"],
                "--queries", generated["queries"], "--out", exact]) == 0
    opt = [json.loads(l) for l in exact.read_text().splitlines()]
    for got, best in zip(entries, opt):
        assert best["cost"] <= got["cost"] + 1e-9


def test_oracle_guard_refuses_large_queries(generated, tmp_path, capsys):
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    assert run(["oracle", *inputs, "--limit", "1"]) != 0
    plain, forced = tmp_path / "plain.jsonl", tmp_path / "forced.jsonl"
    assert run(["oracle", *inputs, "--out", plain]) == 0
    assert run(["oracle", *inputs, "--limit", "1", "--force", "--out", forced]) == 0
    assert forced.read_bytes() == plain.read_bytes()


def test_query_gcnn_dom_matches_bench_rows(generated, tmp_path):
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    routes, results = tmp_path / "dom.jsonl", tmp_path / "dom.csv"
    assert run(["query", *inputs, "--algorithm", "gcnn-dom", "--delta", "50",
                "--out", routes]) == 0
    assert run(["bench", *inputs, "--algorithms", "gcnn-dom", "--delta", "50",
                "--out", results]) == 0
    via_query = [json.loads(l)["cost"] for l in routes.read_text().splitlines()]
    via_bench = [float(l.split(",")[2]) for l in results.read_text().splitlines()[1:]]
    assert len(via_query) == 4
    assert via_query == via_bench


def test_bench_emits_csv_and_summary(generated, tmp_path, capsys):
    out = tmp_path / "results.csv"
    summary = tmp_path / "summary.json"
    assert run(["bench", "--venue", generated["venue"], "--objects", generated["objects"],
                "--queries", generated["queries"], "--algorithms", "gcnn,gcnn-dom,oracle",
                "--delta", "100", "--out", out, "--summary", summary]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "query_id,algorithm,cost,travel,static,runtime_us,points_evaluated,ratio"
    assert len(lines) == 1 + 3 * 4
    data = json.loads(summary.read_text())
    assert data["algorithms"]["gcnn"]["mean_ratio"] >= 1.0


def test_bench_delta_sweep_writes_per_delta_csvs(generated, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["bench", "--venue", generated["venue"], "--objects", generated["objects"],
                "--queries", generated["queries"], "--algorithms", "gcnn-dom",
                "--delta", "0,100", "--out", out]) == 0
    assert (tmp_path / "sweep_delta0.csv").exists()
    assert (tmp_path / "sweep_delta100.csv").exists()


def test_bench_accepts_json_config(generated, tmp_path, capsys):
    out = tmp_path / "viaconfig.csv"
    config = {
        "venue_path": str(generated["venue"]),
        "objects_path": str(generated["objects"]),
        "queries_path": str(generated["queries"]),
        "algorithms": ["gcnn"],
        "delta": 0,
        "output_path": str(out),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["bench", "--config", cfg_path]) == 0
    assert out.exists()
    # the config file's delta wins when no --delta flag is passed
    summary = json.loads(capsys.readouterr().out)
    assert summary["delta"] == 0


def test_query_rank_once_algorithm(generated, tmp_path):
    routes = tmp_path / "ro.jsonl"
    assert run(["query", "--venue", generated["venue"], "--objects", generated["objects"],
                "--queries", generated["queries"], "--algorithm", "rank-once",
                "--out", routes]) == 0
    entries = [json.loads(l) for l in routes.read_text().splitlines()]
    assert all(e["complete"] for e in entries)


def test_errors_exit_nonzero(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["build-index", "--venue", missing]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
