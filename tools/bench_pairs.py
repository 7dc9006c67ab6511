"""Alternating parent/change benchmark pairs, summarized into ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --parent REV --label L [--pairs N] [--seed S]
                                 [--workloads W ...] [--trace 0|1]

The change is the checkout this file sits in, as it stands: its tracked
files with uncommitted edits, and its untracked files that ``.gitignore``
does not name, copied into a temporary directory. The parent is REV,
checked out into a temporary ``git worktree`` beside it, so both sides run
from fresh trees of the same kind of path; both are removed when the
script ends. For each workload
(default: every one in the change's ``BENCHMARK.json``), pair k runs each
revision's own ``benchmarks/run.py --workload W --seed S --seconds 35
--trace T`` in a fresh process, the parent first in even pairs and the
change first in odd ones, and reads the run's last stdout line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is nonzero when a run failed a check. With ``--trace 0`` (the
default) the metrics are the end-to-end ones; with ``--trace 1`` they are
the traced run's per-layer ones, in wall seconds.

``BENCH_<label>.json``, written at the root of the checkout, holds both
revisions, the command, the trace setting, the environment line of the
first run, and per workload: each pair's runs (check status, failed and
attempted operation counts, every metric) and, per metric, each side's
median and quartiles and the change's wins out of the pairs, a win being a
strictly better value in the direction ``BENCHMARK.json`` gives in its
``end_to_end`` or ``per_layer`` list (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 35  # the run length BENCHMARK.json sets


def git(*args: str, root: str = ROOT) -> str:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True, text=True).stdout.strip()


def copy_checkout(dest: str, root: str = ROOT) -> None:
    """Copy the checkout at ``root`` into ``dest``: its tracked files as they
    stand (a deleted one stays out) and its untracked files that are not ignored."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard", root=root).split("\0"):
        source, target = os.path.join(root, name), os.path.join(dest, name)
        if name and os.path.lexists(source):
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target, follow_symlinks=False)


def run_once(tree: str, workload: str, seed: int, trace: int) -> tuple[dict, dict | None]:
    """One ``benchmarks/run.py`` process of ``tree``: its last stdout line, and its environment line."""
    cmd = [sys.executable, os.path.join(tree, "benchmarks", "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} without a JSON line:\n{proc.stderr}") from None
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env {")), None)
    return result, env


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def directions(contract: dict) -> dict[str, str]:
    """Each metric's better direction, "higher" or "lower", end-to-end and per-layer alike."""
    return {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of the pairs ``runs`` (each {"parent": result, "change": result}):
    both sides' spread, the median ratio change/parent and the change's wins."""
    summary = {}
    for name in runs[0]["change"]["metrics"]:
        sides = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in ("parent", "change")}
        row = {"unit": runs[0]["change"]["metrics"][name]["unit"], "better": better.get(name)}
        row.update({side: spread(values) for side, values in sides.items()})
        base = row["parent"]["median"]
        row["ratio"] = row["change"]["median"] / base if base else None
        if row["better"] is not None:
            sign = 1.0 if row["better"] == "higher" else -1.0
            row["wins"] = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        row["pairs"] = len(runs)
        summary[name] = row
    return summary


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the revision to compare against")
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--workloads", nargs="+", default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics of traced runs")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    better = directions(contract)
    workloads = args.workloads or [w["name"] for w in contract["workloads"]]
    parent_rev = git("rev-parse", f"{args.parent}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))  # edits and untracked files, as copied

    work = tempfile.mkdtemp(prefix="bench_pairs-")
    trees = {side: os.path.join(work, side) for side in ("parent", "change")}
    git("worktree", "add", "--detach", trees["parent"], parent_rev)
    env_line, report = None, {}
    try:
        copy_checkout(trees["change"])
        for workload in workloads:
            runs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"order": list(order)}
                for side in order:
                    pair[side], env = run_once(trees[side], workload, args.seed, args.trace)
                    env_line = env_line or env
                    print(
                        f"{workload} pair {k} {side}: correct={pair[side]['correct']} failed={pair[side]['failed']}",
                        file=sys.stderr,
                        flush=True,
                    )
                runs.append(pair)
            report[workload] = {"metrics": summarize(runs, better), "runs": runs}
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", trees["parent"]], check=False)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], check=False)
        shutil.rmtree(work, ignore_errors=True)

    doc = {
        "label": args.label,
        "command": " ".join(["python3", "tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])]),
        "parent": {"ref": args.parent, "rev": parent_rev},
        "change": {"rev": head, "uncommitted_edits": dirty},
        "seed": args.seed,
        "seconds": SECONDS,
        "trace": args.trace,
        "pairs": args.pairs,
        "environment": env_line,
        "workloads": report,
    }
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    correct = all(pair[side]["correct"] for w in report.values() for pair in w["runs"] for side in trees)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
