"""Intrusion-audit counts on near-singular vocabularies, compared between two source trees.

    python3 tools/near_singular_audits.py OLD_SRC NEW_SRC [--examples N] > OUT.jsonl

Each SRC is a directory holding an ``ifmixup`` package (a checkout's
``src``); each runs in its own interpreter with BLAS pinned to one thread.
Examples come from one fixed stream and follow the generator of
``tests/test_recovery.py::test_vocabulary_builds_what_the_rank_test_accepts``:
k rows (1-4) of width k + extra (extra 0-2) whose smallest singular value is
log-uniform in [1e-9.5, 1e-8.5], or exactly RANK_TOL, and, half the time, the
sum of the first and last row as one more row. Every row becomes a one-node
graph of its own class. For each set that ``feature_vocabulary`` builds and
``check_linear_independence`` calls independent, a 50-trial Beta(2, 2)
``intrusion_audit`` runs on the generator's own rng. The output's first
JSON line holds each tree's totals; each further line is one set whose build
verdict, collision count or recovery-failure count differs between the
trees, with its sigma_min/sigma_max.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def near_singular_vocabulary(k, d, rng, at_tol, rank_tol):
    """The test's generator: (u * s) @ w[:k] with orthonormal u and w."""
    import numpy as np

    u = np.linalg.qr(rng.standard_normal((k, k)))[0]
    w = np.linalg.qr(rng.standard_normal((d, d)))[0]
    smallest = rank_tol if at_tol else 10.0 ** rng.uniform(-9.5, -8.5)
    return (u * np.append(rng.uniform(0.5, 2.0, k - 1), smallest)) @ w[:k]


def audit_examples(examples: int) -> None:
    """One JSON line per example, from the ``ifmixup`` first on sys.path."""
    import numpy as np

    import ifmixup as m
    from ifmixup.graphs import RANK_TOL

    draw = np.random.default_rng(2026)
    for i in range(examples):
        k, extra = int(draw.integers(1, 5)), int(draw.integers(0, 3))
        seed, at_tol, sum_row = int(draw.integers(0, 2**32)), bool(draw.integers(2)), bool(draw.integers(2))
        rng = np.random.default_rng(seed)
        v = near_singular_vocabulary(k, k + extra, rng, at_tol, RANK_TOL)
        if sum_row:
            v = np.vstack([v, v[0] + v[-1]])
        v = v[np.lexsort(v.T[::-1])]
        sv = np.linalg.svd(v, compute_uv=False)
        row = {"example": i, "k": k, "extra": extra, "seed": seed, "at_tol": at_tol, "sum_row": sum_row}
        row.update(sigma_ratio=float(sv[-1] / sv[0]), independent=m.check_linear_independence(v)[0])
        graphs = [m.NodeFeaturedGraph(r[None], np.zeros((1, 1))) for r in v]
        ds = m.GraphDataset([(g, m.LabelDistribution.one_hot(j, len(v))) for j, g in enumerate(graphs)], len(v), v.shape[1])
        try:
            m.feature_vocabulary(ds)
            row["built"] = True
        except ValueError:
            row["built"] = False
        if row["built"] and row["independent"]:
            report = m.intrusion_audit(ds, 50, m.BetaParams(2, 2), rng)
            row.update(collisions=report.collisions, failures=report.recovery_failures, first=report.first_failure)
        print(json.dumps(row), flush=True)


def run_tree(src: str, examples: int) -> list[dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.abspath(__file__), "--emit", str(examples)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src", nargs="?")
    p.add_argument("new_src", nargs="?")
    p.add_argument("--examples", type=int, default=3000)
    p.add_argument("--emit", type=int, default=None, help=argparse.SUPPRESS)  # one tree's lines
    args = p.parse_args(argv)
    if args.emit is not None:
        audit_examples(args.emit)
        return 0
    if not (args.old_src and args.new_src):
        p.error("give OLD_SRC and NEW_SRC")
    old, new = run_tree(args.old_src, args.examples), run_tree(args.new_src, args.examples)
    key = ("built", "collisions", "failures")

    def totals(rows):
        rows = [r for r in rows if "failures" in r]
        return {
            "audited_sets": len(rows),
            "sets_with_a_failure": sum(r["failures"] > 0 for r in rows),
            "failures": sum(r["failures"] for r in rows),
            "collisions": sum(r["collisions"] for r in rows),
        }

    print(json.dumps({"examples": args.examples, "old": totals(old), "new": totals(new)}))
    for o, n in zip(old, new):
        if any(o.get(k) != n.get(k) for k in key):
            given = {k: o[k] for k in ("example", "k", "extra", "seed", "at_tol", "sum_row", "sigma_ratio")}
            print(json.dumps({**given, "old": {k: o.get(k) for k in key}, "new": {k: n.get(k) for k in key}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
