"""Benchmark of the ifmixup package: training, intrusion audits and decoding.

Run one workload (one fresh process, the form the benchmark contract uses):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0

or every workload, each in its own process, with a summary table:

    python3 benchmarks/run.py --all --seed N --seconds S [--trace 1]

``--trace 0`` measures the end-to-end metrics with tracing off, their times
in reference seconds (see ``speed.py``); ``--trace 1`` makes the separate
traced run that reports the per-layer metrics, in wall seconds, and writes
its spans to ``.bench_work/trace/``. Human-readable lines (each metric with
its unit and sample count, the environment, any failed check) come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
nonzero when any correctness check fails.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy. Generated input files live under
``.bench_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_one(args, workloads, speed) -> int:
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
    try:
        if args.trace:
            res, recs, metrics = workloads.traced_run(wl, args.seed, args.seconds, work)
            os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
            with open(os.path.join(WORK, "trace", f"{wl.name}-seed{args.seed}.json"), "w") as fh:
                json.dump({"env": environment(), **{k: r.as_dict() for k, r in recs.items()}}, fh)
        else:
            res, metrics = workloads.run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit:<6} n={n}")
    if "units" in res.samples:
        train, audit, recover = res.samples["units"]
        print(f"  timed units: {train} train cells, {audit} audit calls, {recover} recover passes")
    refs = res.samples["reference_s"]
    slowdown = statistics.median(refs) / speed.NOMINAL_S
    print(
        f"  times are in {'wall' if args.trace else 'reference'} seconds; the reference took"
        f" {slowdown:.3f}x its nominal time (median of {len(refs)} samples)"
    )
    ratio = res.failed / res.attempted
    print(f"  {'fail_ratio':<32} {ratio:>14.6g} {'1':<6} n={res.attempted}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for problem in res.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not res.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args, workloads) -> int:
    """Every workload in a fresh process, one after the other; their output passes through."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = status or subprocess.run(cmd).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ifmixup", "__init__.py")):
        print(f"error: no ifmixup package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import speed
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    return run_all(args, workloads) if args.all else run_one(args, workloads, speed)


if __name__ == "__main__":
    sys.exit(main())
