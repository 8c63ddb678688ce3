"""indoortrip benchmark: one workload per process, closed-loop query streams.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 the last line of output is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1, every per-layer
metric.  The lines above it print every metric with its unit and sample
count, including those that exist only on some workloads.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# The keys of workloads.WORKLOADS, which cannot be imported before the
# thread variables are set: it imports numpy.
WORKLOAD_NAMES = ("desk", "big", "spread")


def use_checkout_source() -> None:
    """Import indoortrip from this checkout, with BLAS/OpenMP on one thread.

    Must run before numpy is first imported."""
    if not (SRC / "indoortrip" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'indoortrip'}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders each stream's queries; the inputs stay pinned")
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="regenerate the workload's venue, objects and queries "
                             "(default: its pinned seed; see README for holdouts)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def result_line(run, trace: bool, spec: dict) -> tuple[dict, dict]:
    """The final JSON line, holding exactly the metrics BENCHMARK.json lists
    for this mode, and every metric of the mode."""
    import harness

    values = harness.per_layer(run) if trace else harness.end_to_end(run)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    attempted, failed = harness.counts(run)
    return {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": values[m["name"]][1]}
                    for m in wanted},
    }, values


def run_one(args) -> int:
    use_checkout_source()
    import harness
    from workloads import WORKLOADS

    spec = contract()
    workload = WORKLOADS[args.workload]
    workload_seed = workload.seed if args.workload_seed is None else args.workload_seed
    workdir = OUT / f"work-{os.getpid()}"
    try:
        run = harness.run_workload(workload, workload_seed, args.seed, args.seconds,
                                   bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line, values = result_line(run, bool(args.trace), spec)
    env = environment()

    print(f"# workload={workload.name} workload_seed={workload_seed} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in values.items():
        print(f"{name:36s} {value:14.6g} {unit:6s} n={n}")
    for s in run.streams:
        for qid, reason in sorted(s.failures.items())[:3]:
            print(f"# FAILED {s.planner} query {qid}: {reason}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    for name in workload.planners:
        digests = sorted({s.digest for s in run.streams if s.planner == name})
        streams = sum(s.planner == name for s in run.streams)
        print(f"# digest {name} {' '.join(digests)} ({streams} streams)")
    if run.tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-{workload_seed}-{args.seed}.npz"
        run.tracer.save(path, {"workload": workload.name, "workload_seed": workload_seed,
                               "seed": args.seed, "env": env})
        print(f"# spans: {len(run.tracer.start)} written to {path.relative_to(ROOT)}")
    print(json.dumps(line, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
