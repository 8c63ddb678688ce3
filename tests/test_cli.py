import hashlib
import json
from collections import Counter

import pytest

from indoortrip import (ExperimentConfig, build_d2d_graph, build_index, gcnn,
                        load_checked_venue, preprocess)
from indoortrip.bench import frequent_categories, pruned_index
from indoortrip.cli import main
from indoortrip.routing import load_queries
from indoortrip.venue import load_objects_csv
from indoortrip.workload import scaled_bucket_ranges


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def generated(tmp_path):
    venue = tmp_path / "venue.json"
    objects = tmp_path / "objects.csv"
    queries = tmp_path / "queries.jsonl"
    categories = ["--categories", 5]
    placement = ["--seed", 4, "--count-range", "6,10", "--stores", 5, "--hosts", 2]
    assert run(["gen-venue", "--floors", 2, "--rooms-per-floor", 8, *categories,
                "--out", venue]) == 0
    assert run(["gen-objects", *categories, *placement, "--venue", venue, "--out", objects]) == 0
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
    assert run(["gen-venue", "--floors", 2, "--rooms-per-floor", 8, "--categories", 5,
                "--out", venue2]) == 0
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
    assert set(stats) == {"partitions", "doors", "edges", "live_points", "categories"}
    venue = load_checked_venue(generated["venue"], generated["objects"])
    index = build_index(venue, build_d2d_graph(venue))
    assert stats["live_points"] == len(index.alive) > 0
    assert stats["categories"] == len(index.live_categories())


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
    assert data["alpha"] == 0.5


def test_gcnn_dom_prunes_at_the_queries_largest_alpha(generated, tmp_path, capsys):
    """With alpha 0.8 queries, query --algorithm gcnn-dom prints gcnn's
    routes, and prune --queries reports alpha 0.8."""
    queries = tmp_path / "alpha08.jsonl"
    assert run(["gen-queries", "--venue", generated["venue"], "--objects", generated["objects"],
                "--out", queries, "--seed", 4, "--count", 4, "--m", "2,3", "--alpha", 0.8,
                "--categories-list", "0,1,2,3,4"]) == 0
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", queries]
    printed = {}
    for algorithm in ("gcnn", "gcnn-dom"):
        capsys.readouterr()
        assert run(["query", *inputs, "--algorithm", algorithm]) == 0
        routes = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for route in routes:  # the pruned index evaluates fewer points
            del route["points_evaluated"]
        printed[algorithm] = routes
    assert len(printed["gcnn"]) == 4
    assert printed["gcnn-dom"] == printed["gcnn"]

    assert run(["prune", *inputs, "--delta", 100]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.8
    # A snapshot pruned at 0.5 would change a route, so the check bites.
    venue = load_checked_venue(generated["venue"], generated["objects"])
    index = build_index(venue, build_d2d_graph(venue))
    loaded = load_queries(queries)
    assert {q.alpha for q in loaded} == {0.8}
    half, _ = preprocess(index, frequent_categories(loaded, 100))
    assert any(gcnn(q, half) != gcnn(q, index) for q in loaded)


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


# sha256 of each output file on the fixture's inputs; the bench CSV with its
# runtime column blanked.
OUTPUT_PINS = {
    ("query", "--algorithm", "gcnn"):
        "d2d09da2371a518ccb7974e04c27e5c3a6540b6cf59fbca183ee7a9ec1e129d3",
    ("query", "--algorithm", "gcnn-dom"):
        "5e29dc8bcf4e633e3d764baebf7d51cc4ff78d59015281c039e210b63272b657",
    ("query", "--algorithm", "rank-once"):
        "810855d7947aae65f225953a452ed44dbee87131bda407b60f84de02658ac7bd",
    ("oracle",): "0ec739b1cdf86e11079c57daee78af53da910605a842a8f4cba771a0e7b8829f",
    ("prune", "--delta", "50"): "bdee1ef2d013cfe6b5611a72e872d6f0abc9f090c422a76376c39b19a72c1143",
    ("bench", "--algorithms", "gcnn,gcnn-dom,oracle,rank-once", "--delta", "50"):
        "b50ea81eade6d3a5c13f0c745633bfe95cac2b6dbbc0fc64b03e554a39a3b865",
}


@pytest.mark.parametrize("command", OUTPUT_PINS, ids=lambda c: " ".join(c))
def test_outputs_are_pinned(generated, tmp_path, command):
    out = tmp_path / "out"
    assert run([*command, "--venue", generated["venue"], "--objects", generated["objects"],
                "--queries", generated["queries"], "--out", out]) == 0
    data = out.read_bytes()
    if command[0] == "bench":
        lines = [line.split(b",") for line in data.splitlines(keepends=True)]
        for cells in lines[1:]:
            cells[5] = b""
        data = b"".join(b",".join(cells) for cells in lines)
    assert hashlib.sha256(data).hexdigest() == OUTPUT_PINS[command]


@pytest.mark.parametrize("command", [["query"], ["query", "--algorithm", "gcnn-dom"], ["oracle"]],
                         ids=" ".join)
def test_an_empty_queries_file_gives_no_routes(generated, tmp_path, capsys, command):
    queries, out = tmp_path / "none.jsonl", tmp_path / "routes.jsonl"
    queries.write_text("")
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", queries]
    assert run([*command, *inputs, "--out", out]) == 0
    assert out.read_bytes() == b""
    assert "0 routes" in capsys.readouterr().out
    assert run([*command, *inputs]) == 0
    assert capsys.readouterr().out == ""


def test_oracle_guard_refuses_large_queries(generated, tmp_path, capsys):
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    assert run(["oracle", *inputs, "--limit", "1"]) == 1
    assert "2 categories exceed the factorial guard of 1" in capsys.readouterr().err
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


@pytest.mark.parametrize("delta", ["-50", "150"])
@pytest.mark.parametrize("command", [["query", "--algorithm", "gcnn-dom"], ["prune"]],
                         ids=["query", "prune"])
def test_a_delta_outside_0_to_100_exits_1(generated, capsys, command, delta):
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    assert run([*command, *inputs, "--delta", delta]) == 1
    assert f"delta must lie in 0..100, got {delta}" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["gcnn", "rank-once"])
def test_query_rejects_a_delta_outside_0_to_100_for_every_algorithm(generated, capsys,
                                                                     algorithm):
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    assert run(["query", *inputs, "--algorithm", algorithm, "--delta", "999"]) == 1
    assert "delta must lie in 0..100, got 999" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    pytest.param("oracle", ["--delta", "500"], id="oracle--delta"),
    pytest.param("query", ["--limit", "1"], id="query--limit"),
    pytest.param("query", ["--force"], id="query--force"),
])
def test_a_subcommand_refuses_flags_it_does_not_read(generated, capsys, command, flags):
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    with pytest.raises(SystemExit) as exit_:
        run([command, *inputs, *flags])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    *(pytest.param("gen-venue", flags, id="gen-venue" + flags[0]) for flags in (
        ["--seed", "4"], ["--stores", "0"], ["--hosts", "2"], ["--count-range", "6,10"],
        ["--bucket", "S"], ["--scale", "1.0"])),
    *(pytest.param("gen-objects", flags, id="gen-objects" + flags[0]) for flags in (
        ["--floors", "2"], ["--rooms-per-floor", "8"], ["--doors-per-room", "2"])),
])
def test_gen_venue_refuses_the_placement_flags_it_does_not_read(tmp_path, capsys, command,
                                                                 flags):
    """gen-venue refuses the placement flags, and gen-objects, which reads
    the venue's shape from --venue, refuses the shape flags."""
    out = tmp_path / "out"
    inputs = ["--venue", tmp_path / "venue.json"] if command == "gen-objects" else []
    with pytest.raises(SystemExit) as exit_:
        run([command, *inputs, "--out", out, *flags])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_prune_queries_reports_what_bench_prunes(generated, capsys):
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    assert run(["prune", *inputs, "--delta", 60]) == 0
    printed = json.loads(capsys.readouterr().out)
    venue = load_checked_venue(generated["venue"], generated["objects"])
    index = build_index(venue, build_d2d_graph(venue))
    _, report = pruned_index(index, load_queries(generated["queries"]), 60)
    assert printed == dict(report.to_dict(), categories=list(report.categories))
    assert 0 < len(printed["categories"]) < 5
    # Without --delta, prune reads bench's default.
    assert run(["prune", *inputs]) == 0
    printed = json.loads(capsys.readouterr().out)
    _, report = pruned_index(index, load_queries(generated["queries"]), ExperimentConfig.delta)
    assert printed == dict(report.to_dict(), categories=list(report.categories))
    assert run(["prune", *inputs, "--delta", 0]) == 1
    assert "error: no categories selected for pruning" in capsys.readouterr().err


def test_gen_objects_with_no_stores_names_the_value(generated, tmp_path, capsys):
    assert run(["gen-objects", "--stores", 0, "--venue", generated["venue"],
                "--out", tmp_path / "none.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: clustered placement needs at least 1 store room, got 0")
    assert not (tmp_path / "none.csv").exists()


def test_a_non_integer_delta_exits_1(generated, tmp_path, capsys):
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    assert run(["bench", *inputs, "--algorithms", "gcnn", "--delta", "0,x",
                "--out", tmp_path / "never.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --delta takes an integer or a comma list of them, got '0,x'")
    assert "Traceback" not in err
    assert not (tmp_path / "never.csv").exists()


ANY_COUNT = "an integer or a comma list of them"


@pytest.mark.parametrize("command, flag, text, takes", [
    pytest.param("gen-queries", "--m", "2,y", ANY_COUNT, id="m"),
    pytest.param("gen-queries", "--categories-list", "0,,1", ANY_COUNT, id="categories-list"),
    pytest.param("gen-objects", "--count-range", "1,2,3", "2 comma-separated integers",
                 id="count-range-three"),
    pytest.param("gen-objects", "--count-range", "5", "2 comma-separated integers",
                 id="count-range-one"),
    pytest.param("gen-objects", "--count-range", "1,x", "2 comma-separated integers",
                 id="count-range-text"),
    pytest.param("prune", "--categories", "0,x", ANY_COUNT, id="prune-categories"),
])
def test_a_malformed_comma_list_names_its_flag(generated, tmp_path, capsys, command, flag,
                                               text, takes):
    """These flags used to print only int()'s or unpacking's own message."""
    out = tmp_path / "never"
    # gen-queries gets a valid category list, which a later --categories-list replaces.
    inputs = {"gen-queries": ["--venue", generated["venue"], "--objects", generated["objects"],
                              "--categories-list", "0,1"],
              "gen-objects": ["--venue", generated["venue"]],
              "prune": ["--venue", generated["venue"], "--objects", generated["objects"]]}[command]
    assert run([command, *inputs, flag, text, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {flag} takes {takes}, got {text!r}\n"
    assert not out.exists()


def test_a_repeated_algorithm_exits_1(generated, tmp_path, capsys):
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    assert run(["bench", *inputs, "--algorithms", "gcnn,gcnn",
                "--out", tmp_path / "never.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: repeated algorithms: ['gcnn']")
    assert "Traceback" not in err
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("deltas, repeated", [("50,50", [50]), ("0,100,0", [0])],
                         ids=["50,50", "0,100,0"])
def test_a_repeated_delta_exits_1(generated, tmp_path, capsys, deltas, repeated):
    """A repeated delta used to run its experiment twice, report it once and
    write <stem>_delta<d>.csv as if it were a sweep."""
    inputs = ["--venue", generated["venue"], "--objects", generated["objects"],
              "--queries", generated["queries"]]
    assert run(["bench", *inputs, "--algorithms", "gcnn", "--delta", deltas,
                "--out", tmp_path / "never.csv"]) == 1
    assert capsys.readouterr().err == f"error: repeated deltas: {repeated}\n"
    assert not list(tmp_path.glob("never*"))


@pytest.mark.parametrize("categories, message", [
    pytest.param("1,99", "--categories-list names categories with no objects: [99]", id="absent"),
    pytest.param("7,0,5", "--categories-list names categories with no objects: [5, 7]",
                 id="two-absent"),
    pytest.param("1,1,2", "--categories-list repeats categories [1]", id="repeated"),
    pytest.param("3,9,3", "--categories-list repeats categories [3]", id="repeated-and-absent"),
])
def test_gen_queries_refuses_a_category_list_no_planner_can_answer(generated, tmp_path, capsys,
                                                                  categories, message):
    out = tmp_path / "never.jsonl"
    assert run(["gen-queries", "--venue", generated["venue"], "--objects", generated["objects"],
                "--out", out, "--count", 5, "--m", "2", "--categories-list", categories]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("categories, message", [
    pytest.param("1,99", "--categories names categories with no objects: [99]", id="absent"),
    pytest.param("7,0,5", "--categories names categories with no objects: [5, 7]",
                 id="two-absent"),
    pytest.param("1,1", "--categories repeats categories [1]", id="repeated"),
    pytest.param("3,9,3", "--categories repeats categories [3]", id="repeated-and-absent"),
])
def test_prune_refuses_a_category_list_it_cannot_prune(generated, tmp_path, capsys, categories,
                                                       message):
    """prune --categories used to report a repeated category once and an
    absent one as pruned, and exit 0."""
    out = tmp_path / "never.json"
    assert run(["prune", "--venue", generated["venue"], "--objects", generated["objects"],
                "--categories", categories, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


NOT_BOTH = "prune --categories takes neither --queries nor --delta"
NEITHER = "prune needs --categories or --queries with --delta"


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--categories", "0", "--queries", "nowhere.jsonl", "--delta", "100"], NOT_BOTH,
                 id="categories-missing-queries-delta"),
    pytest.param(["--categories", "0", "--queries", "QUERIES"], NOT_BOTH,
                 id="categories-queries"),
    pytest.param(["--categories", "0", "--delta", "50"], NOT_BOTH, id="categories-delta"),
    pytest.param(["--delta", "50"], NEITHER, id="delta"),
    pytest.param([], NEITHER, id="nothing"),
])
def test_prune_refuses_flags_it_would_not_read(generated, tmp_path, capsys, flags, message):
    """prune --categories with --queries used to prune the categories at 0.5
    and exit 0 without opening the queries file, even a missing one."""
    out = tmp_path / "never.json"
    flags = [generated["queries"] if f == "QUERIES" else f for f in flags]
    assert run(["prune", "--venue", generated["venue"], "--objects", generated["objects"],
                *flags, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("objects_bucket, queries_bucket, code, printed", [
    pytest.param("XS", "XS", 0, "wrote {out}: 6 queries over categories [0, 1, 2]", id="XS"),
    pytest.param("S", "S", 0, "wrote {out}: 6 queries over categories [0, 1, 2]", id="S"),
    pytest.param("XS", "L", 1, "error: no categories fall in bucket L at scale 0.1", id="empty"),
])
def test_the_bucket_paths_of_gen_objects_and_gen_queries(tmp_path, capsys, objects_bucket,
                                                         queries_bucket, code, printed):
    """Without --count-range, gen-objects draws each category's count from
    its scaled bucket, and gen-queries draws from the categories whose
    counts fall in its bucket."""
    venue, objects, out = tmp_path / "venue.json", tmp_path / "objects.csv", tmp_path / "q.jsonl"
    assert run(["gen-venue", "--floors", 1, "--rooms-per-floor", 6, "--categories", 3,
                "--out", venue]) == 0
    assert run(["gen-objects", "--categories", 3, "--bucket", objects_bucket, "--scale", 0.1,
                "--seed", 2, "--venue", venue, "--out", objects]) == 0
    lo, hi = scaled_bucket_ranges(0.1)[objects_bucket]
    counts = Counter(p.category for p in load_objects_csv(objects))
    assert sorted(counts) == [0, 1, 2] and all(lo <= n <= hi for n in counts.values())
    capsys.readouterr()
    assert run(["gen-queries", "--venue", venue, "--objects", objects, "--out", out,
                "--bucket", queries_bucket, "--scale", 0.1, "--count", 6, "--m", "2"]) == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err) == printed.format(out=out) + "\n"
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("x, y", [(float("nan"), float("nan")), (1e6, 1e6)], ids=["nan", "far"])
def test_query_rejects_an_endpoint_outside_its_partition(generated, tmp_path, capsys, x, y):
    lines = generated["queries"].read_text().splitlines()
    first = json.loads(lines[0])
    first["source"] = dict(first["source"], x=x, y=y, partition_id=7)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert run(["query", "--venue", generated["venue"], "--objects", generated["objects"],
                "--queries", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "partition 7" in err


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


def test_bench_delta_sweep_writes_a_summary_per_delta(generated, tmp_path):
    summary = tmp_path / "s.json"
    assert run(["bench", "--venue", generated["venue"], "--objects", generated["objects"],
                "--queries", generated["queries"], "--algorithms", "gcnn-dom",
                "--delta", "0,100", "--summary", summary, "--seed", 9]) == 0
    assert not summary.exists()
    for delta in (0, 100):
        data = json.loads((tmp_path / f"s_delta{delta}.json").read_text())
        assert data["delta"] == delta
        assert data["seed"] == 9
    assert "prune_report" in json.loads((tmp_path / "s_delta100.json").read_text())


def test_bench_config_with_an_unknown_key_exits_1(generated, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"venue_path": str(generated["venue"]),
                                  "queries_path": str(generated["queries"]), "bogus": 4}))
    assert run(["bench", "--config", config]) == 1
    assert "unknown config keys: ['bogus']" in capsys.readouterr().err


@pytest.mark.parametrize("algorithms, message", [
    pytest.param([], "the suite needs at least one algorithm", id="empty"),
    pytest.param("gcnn", "config key 'algorithms' must be a list of names, got 'gcnn'",
                 id="string"),
])
def test_bench_config_with_no_algorithm_list_exits_1(generated, tmp_path, capsys,
                                                     algorithms, message):
    out = tmp_path / "none.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"venue_path": str(generated["venue"]),
                                  "queries_path": str(generated["queries"]),
                                  "algorithms": algorithms, "output_path": str(out)}))
    assert run(["bench", "--config", config]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("flags, named", [
    *(pytest.param([flag, value], flag, id=flag) for flag, value in (
        ("--venue", "VENUE"), ("--objects", "OBJECTS"), ("--queries", "QUERIES"),
        ("--algorithms", "rank-once"), ("--repetitions", "3"), ("--out", "OUT"))),
    pytest.param(["--out", "OUT", "--algorithms", "rank-once", "--repetitions", "3"],
                 "--algorithms, --repetitions, --out", id="three"),
])
def test_bench_config_refuses_the_flags_its_file_sets(generated, tmp_path, capsys, flags,
                                                      named):
    """Beside --config these flags used to be ignored: bench ran the
    config's suite and wrote no --out file, and exited 0."""
    out = tmp_path / "x.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"venue_path": str(generated["venue"]),
                                  "objects_path": str(generated["objects"]),
                                  "queries_path": str(generated["queries"]),
                                  "algorithms": ["gcnn"]}))
    paths = {"VENUE": generated["venue"], "OBJECTS": generated["objects"],
             "QUERIES": generated["queries"], "OUT": out}
    assert run(["bench", "--config", config, *(paths.get(f, f) for f in flags)]) == 1
    assert capsys.readouterr() == ("", f"error: bench --config does not take {named}\n")
    assert not out.exists()


def test_bench_config_takes_delta_summary_and_seed(generated, tmp_path, capsys):
    """The flags bench reads beside a config file: they override its delta
    and add the summary file and seed."""
    out, summary = tmp_path / "viaconfig.csv", tmp_path / "summary.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"venue_path": str(generated["venue"]),
                                  "objects_path": str(generated["objects"]),
                                  "queries_path": str(generated["queries"]),
                                  "algorithms": ["gcnn-dom"], "delta": 0,
                                  "output_path": str(out)}))
    assert run(["bench", "--config", config, "--delta", "100", "--summary", summary,
                "--seed", "7"]) == 0
    data = json.loads(summary.read_text())
    assert (data["delta"], data["seed"]) == (100, 7)
    assert len(out.read_text().splitlines()) == 1 + 4


def test_bench_flags_default_to_the_config_defaults(generated, tmp_path, capsys):
    """Without --algorithms, --delta or --repetitions, bench runs
    ExperimentConfig's default suite once per query at its default delta."""
    out = tmp_path / "defaults.csv"
    assert run(["bench", "--venue", generated["venue"], "--objects", generated["objects"],
                "--queries", generated["queries"], "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["delta"] == 50
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert Counter(row[1] for row in rows) == {"gcnn": 4, "gcnn-dom": 4, "oracle": 4}


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
