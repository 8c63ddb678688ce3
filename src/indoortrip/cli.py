"""Command-line front end.

Subcommands cover the whole pipeline: generate a venue, place objects,
draw queries, build and prune the index, plan routes, run the exact
solver, and benchmark algorithm suites to CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    PLANNERS,
    ExperimentConfig,
    check_delta,
    config_from_dict,
    pruned_index,
    run_planner,
    set_up,
    sweep_delta,
    write_summary,
)
from .d2d import build_d2d_graph
from .dominance import preprocess
from .index import build_index
from .oracle import ORACLE_CATEGORY_LIMIT
from .routing import load_queries, route_to_dict, save_queries
from .venue import (
    load_checked_venue,
    load_objects_csv,
    load_venue,
    save_objects_csv,
    save_venue,
    validate_venue,
)
from .workload import (
    BUCKET_RANGES,
    DESK_SCALE,
    WorkloadSpec,
    bucket_categories,
    generate_queries,
    generate_venue,
    place_objects,
    replicate_dataset,
)


class CliError(Exception):
    """User-facing command failure; printed and mapped to exit code 1."""


def int_list(text: str, flag: str, count: int | None = None) -> list[int]:
    """The integers of a flag's comma list: count of them when count is given."""
    try:
        values = [int(v) for v in text.split(",")]
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    takes = f"{count} comma-separated integers" if count else "an integer or a comma list of them"
    raise CliError(f"{flag} takes {takes}, got {text!r}")


def category_list(text: str, flag: str, table) -> list[int]:
    """The categories a flag's comma list names, refusing a repeated one
    and one that none of the table's points has."""
    cats = int_list(text, flag)
    repeated = sorted({c for c in cats if cats.count(c) > 1})
    if repeated:
        raise CliError(f"{flag} repeats categories {repeated}")
    absent = sorted(set(cats) - set(table.category.tolist()))
    if absent:
        raise CliError(f"{flag} names categories with no objects: {absent}")
    return cats


def cmd_gen_venue(args) -> int:
    venue = generate_venue(WorkloadSpec(
        floors=args.floors, rooms_per_floor=args.rooms_per_floor,
        doors_per_room=args.doors_per_room, categories=args.categories,
    ))
    report = validate_venue(venue)
    if not report.ok:
        raise CliError(f"generated venue failed validation: {report.findings[:5]}")
    save_venue(venue, args.out)
    print(f"wrote {args.out}: {len(venue.partitions)} partitions, {len(venue.doors)} doors")
    return 0


def cmd_gen_objects(args) -> int:
    spec = WorkloadSpec(
        seed=args.seed,
        categories=args.categories,
        bucket=args.bucket,
        bucket_scale=args.scale,
        store_rooms=args.stores,
        hosts_per_category=None if args.hosts == 0 else args.hosts,
        count_range=(tuple(int_list(args.count_range, "--count-range", 2))
                     if args.count_range else None),
    )
    venue = load_venue(args.venue)
    points = place_objects(venue, spec)
    save_objects_csv(points, args.out)
    cats = len({p.category for p in points})
    print(f"wrote {args.out}: {len(points)} objects across {cats} categories")
    return 0


def cmd_gen_queries(args) -> int:
    venue = load_venue(args.venue)
    points = load_objects_csv(args.objects)
    if args.categories_list:
        pool = category_list(args.categories_list, "--categories-list", points)
    else:
        pool = bucket_categories(points, scale=args.scale)[args.bucket]
        if not pool:
            raise CliError(f"no categories fall in bucket {args.bucket} at scale {args.scale}")
    m = tuple(int_list(args.m, "--m"))
    queries = generate_queries(pool, args.count, m, args.alpha, venue, args.seed)
    save_queries(queries, args.out)
    print(f"wrote {args.out}: {len(queries)} queries over categories {pool}")
    return 0


def cmd_replicate(args) -> int:
    venue = load_venue(args.venue)
    points = load_objects_csv(args.objects)
    out = replicate_dataset(venue, points, args.k, args.seed)
    save_objects_csv(out, args.out)
    print(f"wrote {args.out}: {len(out)} objects ({args.k}x replication)")
    return 0


def cmd_build_index(args) -> int:
    venue = load_checked_venue(args.venue, args.objects)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    stats = {
        "partitions": len(venue.partitions),
        "doors": len(venue.doors),
        "edges": len(graph.edges),
        "live_points": len(index.alive),
        "categories": len(index.live_categories()),
    }
    print(json.dumps(stats, indent=1, sort_keys=True))
    return 0


def cmd_prune(args) -> int:
    if args.categories_list and (args.queries or args.delta is not None):
        raise CliError("prune --categories takes neither --queries nor --delta")
    venue = load_checked_venue(args.venue, args.objects)
    index = build_index(venue, build_d2d_graph(venue))
    if args.categories_list:
        _, report = preprocess(index, category_list(args.categories_list, "--categories",
                                                    venue.points.table))
    elif args.queries:
        _, report = pruned_index(index, load_queries(args.queries),
                                 ExperimentConfig.delta if args.delta is None else args.delta)
    else:
        raise CliError("prune needs --categories or --queries with --delta")
    if report is None:
        raise CliError("no categories selected for pruning")
    payload = report.to_dict()
    payload["categories"] = list(report.categories)
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}: removed {report.removed} points")
    else:
        print(text)
    return 0


def _run_queries(args, algorithm: str, delta: int) -> int:
    """One JSON line per query, each route with the points it evaluated."""
    venue = load_checked_venue(args.venue, args.objects)
    queries = load_queries(args.queries)
    indices, _, _ = set_up(venue, queries, (algorithm,), delta)

    lines = []
    for query in queries:
        limits = {}
        if algorithm == "oracle":
            limits["limit"] = len(query.categories) if args.force else args.limit
        route, evals, _ = run_planner(algorithm, query, indices, **limits)
        payload = route_to_dict(route, query.alpha)
        payload["points_evaluated"] = evals
        lines.append(json.dumps(payload, sort_keys=True) + "\n")

    if args.out:
        Path(args.out).write_text("".join(lines))
        print(f"wrote {args.out}: {len(lines)} routes")
    else:
        sys.stdout.write("".join(lines))
    return 0


def cmd_query(args) -> int:
    check_delta(args.delta)
    return _run_queries(args, args.algorithm, args.delta)


def cmd_oracle(args) -> int:
    return _run_queries(args, "oracle", delta=0)  # the oracle runs unpruned


def _per_delta(path: str, delta: int, sweep: bool) -> Path:
    """The path itself, or in a sweep the delta's file <stem>_delta<d><suffix>."""
    path = Path(path)
    return path.with_name(f"{path.stem}_delta{delta}{path.suffix}") if sweep else path


# bench's flags that set an ExperimentConfig field, which a --config file sets instead
BENCH_CONFIG_FLAGS = {"venue": "venue_path", "objects": "objects_path", "queries": "queries_path",
                      "algorithms": "algorithms", "repetitions": "repetitions",
                      "out": "output_path"}


def cmd_bench(args) -> int:
    given = {f: v for f, v in vars(args).items() if f in BENCH_CONFIG_FLAGS and v is not None}
    if args.config:
        if given:
            raise CliError(f"bench --config does not take --{', --'.join(given)}")
        config = config_from_dict(json.loads(Path(args.config).read_text()))
    else:
        config = ExperimentConfig(**{BENCH_CONFIG_FLAGS[f]: v for f, v in given.items()})
    deltas = [config.delta] if args.delta_list is None else int_list(args.delta_list, "--delta")
    sweep = len(deltas) > 1
    for delta, result in sweep_delta(config, deltas).items():
        result.summary["seed"] = args.seed
        if config.output_path:
            result.write_csv(_per_delta(config.output_path, delta, sweep))
        if args.summary:
            write_summary(result, _per_delta(args.summary, delta, sweep))
        if sweep:
            print(f"delta={delta}:")
        print(json.dumps(result.summary, indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indoortrip",
        description="Category-aware multi-criteria trip planning for indoor venues",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-venue", help="generate a synthetic venue JSON")
    p.add_argument("--floors", type=int, default=4)
    p.add_argument("--rooms-per-floor", type=int, default=12)
    p.add_argument("--doors-per-room", type=int, default=1)
    p.add_argument("--categories", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_venue)

    p = sub.add_parser("gen-objects", help="place category objects into a venue")
    p.add_argument("--categories", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bucket", choices=list(BUCKET_RANGES), default="M")
    p.add_argument("--scale", type=float, default=DESK_SCALE,
                   help="bucket range scale (1.0 = reference ranges)")
    p.add_argument("--stores", type=int, default=8,
                   help="rooms that carry objects at all")
    p.add_argument("--hosts", type=int, default=3,
                   help="host stores per category; 0 scatters uniformly")
    p.add_argument("--count-range", default=None,
                   help="lo,hi override for objects per category")
    p.add_argument("--venue", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_objects)

    p = sub.add_parser("gen-queries", help="draw random trip queries")
    p.add_argument("--venue", required=True)
    p.add_argument("--objects", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--m", default="2,3,4", help="category counts per query, cycled")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--bucket", choices=list(BUCKET_RANGES), default="M")
    p.add_argument("--scale", type=float, default=DESK_SCALE)
    p.add_argument("--categories-list", default=None,
                   help="explicit category ids (bypasses bucket selection)")
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("replicate", help="replicate and relocate an object set")
    p.add_argument("--venue", required=True)
    p.add_argument("--objects", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("build-index", help="build the index and print stats")
    p.add_argument("--venue", required=True)
    p.add_argument("--objects", default=None)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("prune", help="dominance-prune categories, report removals")
    p.add_argument("--venue", required=True)
    p.add_argument("--objects", default=None)
    p.add_argument("--categories", dest="categories_list", default=None)
    p.add_argument("--queries", default=None)
    p.add_argument("--delta", type=int, default=None, help=f"with --queries (default {ExperimentConfig.delta})")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prune)

    def add_query_flags(p):
        p.add_argument("--venue", required=True)
        p.add_argument("--objects", default=None)
        p.add_argument("--queries", required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("query", help="plan routes for a query file")
    add_query_flags(p)
    p.add_argument("--algorithm", choices=["gcnn", "gcnn-dom", "rank-once"], default="gcnn")
    p.add_argument("--delta", type=int, default=100,
                   help="gcnn-dom's preprocessing percentage, 0..100")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("oracle", help="exact routes (factorial guard applies)")
    add_query_flags(p)
    p.add_argument("--limit", type=int, default=ORACLE_CATEGORY_LIMIT)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run an algorithm suite, emit CSV results")
    p.add_argument("--config", default=None,
                   help="JSON config file, in place of --venue, --objects, --queries, "
                        "--algorithms, --repetitions and --out")
    p.add_argument("--venue")
    p.add_argument("--objects")
    p.add_argument("--queries")
    p.add_argument("--algorithms", type=lambda text: tuple(text.split(",")),
                   help=f"comma list from {tuple(PLANNERS)}")
    p.add_argument("--delta", dest="delta_list", default=None,
                   help="preprocessing percentage, or comma list to sweep")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the summary for provenance")
    p.add_argument("--out", default=None)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and not args.config and (not args.venue or not args.queries):
        parser.error("bench needs --config or both --venue and --queries")
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
