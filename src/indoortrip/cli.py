"""Command-line front end.

Subcommands cover the whole pipeline: generate a venue, place objects,
draw queries, build and prune the index, plan routes, run the exact
solver, and benchmark algorithm suites to CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    ALGORITHMS,
    PLANNERS,
    ExperimentConfig,
    config_from_dict,
    frequent_categories,
    run_experiment,
    sweep_delta,
    write_summary,
)
from .d2d import build_d2d_graph
from .dominance import preprocess
from .index import build_index
from .oracle import ORACLE_CATEGORY_LIMIT
from .routing import EvalCounter, load_queries, route_to_dict
from .venue import (
    load_checked_venue,
    load_objects_csv,
    load_venue,
    save_objects_csv,
    save_venue,
    validate_venue,
)
from .workload import (
    WorkloadSpec,
    bucket_categories,
    generate_queries,
    generate_venue,
    place_objects,
    replicate_dataset,
)


class CliError(Exception):
    """User-facing command failure; printed and mapped to exit code 1."""


def _spec_from_args(args) -> WorkloadSpec:
    spec = WorkloadSpec(
        seed=args.seed,
        floors=args.floors,
        rooms_per_floor=args.rooms_per_floor,
        doors_per_room=args.doors_per_room,
        categories=args.categories,
        bucket=args.bucket,
        bucket_scale=args.scale,
        store_rooms=args.stores,
        hosts_per_category=None if args.hosts == 0 else args.hosts,
    )
    if args.count_range:
        lo, hi = (int(v) for v in args.count_range.split(","))
        spec = replace(spec, count_range=(lo, hi))
    return spec


def cmd_gen_venue(args) -> int:
    spec = _spec_from_args(args)
    venue = generate_venue(spec)
    report = validate_venue(venue)
    if not report.ok:
        raise CliError(f"generated venue failed validation: {report.findings[:5]}")
    save_venue(venue, args.out)
    print(f"wrote {args.out}: {len(venue.partitions)} partitions, {len(venue.doors)} doors")
    return 0


def cmd_gen_objects(args) -> int:
    spec = _spec_from_args(args)
    venue = load_venue(args.venue)
    points = place_objects(venue, spec)
    save_objects_csv(points, args.out)
    cats = len({p.category for p in points})
    print(f"wrote {args.out}: {len(points)} objects across {cats} categories")
    return 0


def cmd_gen_queries(args) -> int:
    venue = load_venue(args.venue)
    points = load_objects_csv(args.objects)
    venue = venue.with_points(points)
    if args.categories_list:
        pool = [int(c) for c in args.categories_list.split(",")]
    else:
        buckets = bucket_categories(points, scale=args.scale)
        pool = buckets[args.bucket]
        if not pool:
            raise CliError(f"no categories fall in bucket {args.bucket} at scale {args.scale}")
    m = tuple(int(v) for v in args.m.split(","))
    queries = generate_queries(pool, args.count, m, args.alpha, venue, args.seed)
    from .routing import save_queries

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
    index = build_index(venue, graph, fanout=args.fanout)
    leaves = sum(1 for n in index.nodes.values() if n.is_leaf)
    stats = {
        "partitions": len(venue.partitions),
        "doors": len(venue.doors),
        "edges": len(graph.edges),
        "nodes": len(index.nodes),
        "leaves": leaves,
        "live_points": len(index.alive),
        "categories": len(index.root.inverted),
    }
    print(json.dumps(stats, indent=1, sort_keys=True))
    return 0


def cmd_prune(args) -> int:
    venue = load_checked_venue(args.venue, args.objects)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph, fanout=args.fanout)
    if args.categories_list:
        cats = [int(c) for c in args.categories_list.split(",")]
    elif args.queries:
        queries = load_queries(args.queries)
        cats = frequent_categories(queries, args.delta)
    else:
        raise CliError("prune needs --categories or --queries with --delta")
    if not cats:
        raise CliError("no categories selected for pruning")
    _, report = preprocess(index, cats)
    payload = report.to_dict()
    payload["categories"] = sorted(cats)
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}: removed {report.removed} points")
    else:
        print(text)
    return 0


def _run_queries(args, algorithm: str) -> int:
    venue = load_checked_venue(args.venue, args.objects)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph, fanout=args.fanout)
    queries = load_queries(args.queries)

    planner, pruned = PLANNERS[algorithm]
    if pruned:
        cats = frequent_categories(queries, args.delta)
        if cats:
            index, _ = preprocess(index, cats)

    outputs = []
    for query in queries:
        limits = {}
        if algorithm == "oracle":
            if len(query.categories) > args.limit and not args.force:
                raise CliError(
                    f"query has {len(query.categories)} categories; "
                    f"pass --force to exceed the limit of {args.limit}"
                )
            limits["limit"] = len(query.categories)  # the guard above replaces the library's
        counter = EvalCounter()
        route = planner(query, index, counter=counter, **limits)
        payload = route_to_dict(route, query.alpha)
        payload["points_evaluated"] = counter.point_evals
        outputs.append(payload)

    text = "\n".join(json.dumps(o, sort_keys=True) for o in outputs)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}: {len(outputs)} routes")
    else:
        print(text)
    return 0


def cmd_query(args) -> int:
    return _run_queries(args, args.algorithm)


def cmd_oracle(args) -> int:
    return _run_queries(args, "oracle")


def cmd_bench(args) -> int:
    if args.config:
        data = json.loads(Path(args.config).read_text())
        config = config_from_dict(data)
        deltas = args.delta_list if args.delta_list is not None else [config.delta]
    else:
        deltas = args.delta_list if args.delta_list is not None else [50]
        config = ExperimentConfig(
            venue_path=args.venue,
            objects_path=args.objects,
            queries_path=args.queries,
            algorithms=tuple(args.algorithms.split(",")),
            delta=deltas[0],
            repetitions=args.repetitions,
            output_path=args.out,
        )
    if len(deltas) == 1:
        result = run_experiment(replace(config, delta=deltas[0]))
        result.summary["seed"] = args.seed
        if args.summary:
            write_summary(result, args.summary)
        print(json.dumps(result.summary, indent=1, sort_keys=True))
    else:
        results = sweep_delta(config, deltas)
        for delta, result in results.items():
            if config.output_path:
                stem = Path(config.output_path)
                result.write_csv(stem.with_name(f"{stem.stem}_delta{delta}{stem.suffix}"))
            print(f"delta={delta}:")
            print(json.dumps(result.summary, indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indoortrip",
        description="Category-aware multi-criteria trip planning for indoor venues",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--floors", type=int, default=4)
        p.add_argument("--rooms-per-floor", type=int, default=12)
        p.add_argument("--doors-per-room", type=int, default=1)
        p.add_argument("--categories", type=int, default=8)
        p.add_argument("--bucket", choices=["XS", "S", "M", "L", "XL"], default="M")
        p.add_argument("--scale", type=float, default=0.1,
                       help="bucket range scale (1.0 = reference ranges)")
        p.add_argument("--stores", type=int, default=8,
                       help="rooms that carry objects at all")
        p.add_argument("--hosts", type=int, default=3,
                       help="host stores per category; 0 scatters uniformly")
        p.add_argument("--count-range", default=None,
                       help="lo,hi override for objects per category")

    p = sub.add_parser("gen-venue", help="generate a synthetic venue JSON")
    add_spec_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_venue)

    p = sub.add_parser("gen-objects", help="place category objects into a venue")
    add_spec_flags(p)
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
    p.add_argument("--bucket", choices=["XS", "S", "M", "L", "XL"], default="M")
    p.add_argument("--scale", type=float, default=0.1)
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
    p.add_argument("--fanout", type=int, default=4)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("prune", help="dominance-prune categories, report removals")
    p.add_argument("--venue", required=True)
    p.add_argument("--objects", default=None)
    p.add_argument("--fanout", type=int, default=4)
    p.add_argument("--categories", dest="categories_list", default=None)
    p.add_argument("--queries", default=None)
    p.add_argument("--delta", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prune)

    def add_query_flags(p):
        p.add_argument("--venue", required=True)
        p.add_argument("--objects", default=None)
        p.add_argument("--queries", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--fanout", type=int, default=4)
        p.add_argument("--delta", type=int, default=100)
        p.add_argument("--limit", type=int, default=ORACLE_CATEGORY_LIMIT)
        p.add_argument("--force", action="store_true")

    p = sub.add_parser("query", help="plan routes for a query file")
    add_query_flags(p)
    p.add_argument("--algorithm", choices=["gcnn", "gcnn-dom", "rank-once"], default="gcnn")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("oracle", help="exact routes (factorial guard applies)")
    add_query_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run an algorithm suite, emit CSV results")
    p.add_argument("--config", default=None, help="JSON config file (overrides flags)")
    p.add_argument("--venue")
    p.add_argument("--objects", default=None)
    p.add_argument("--queries")
    p.add_argument("--algorithms", default="gcnn,gcnn-dom,oracle",
                   help=f"comma list from {ALGORITHMS}")
    p.add_argument("--delta", dest="delta_list", default=None,
                   help="preprocessing percentage, or comma list to sweep")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the summary for provenance")
    p.add_argument("--out", default=None)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        if args.delta_list is not None:
            args.delta_list = [int(v) for v in str(args.delta_list).split(",")]
        if not args.config and (not args.venue or not args.queries):
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
