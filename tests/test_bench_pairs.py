"""The summary that ``tools/bench_pairs.py`` writes for alternating benchmark pairs."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(**values: float) -> dict:
    return {"correct": True, "failed": 0, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def traced(vocabulary_s: float, backward_s: float, collisions: float) -> dict:
    """The last line of a ``--trace 1`` run: per-layer metrics only."""
    metrics = {
        "graphs.feature_vocabulary_s": {"value": vocabulary_s, "unit": "s"},
        "autodiff.backward_s": {"value": backward_s, "unit": "s"},
        "recovery.collisions": {"value": collisions, "unit": "count"},
    }
    return {"correct": True, "failed": 0, "metrics": metrics}


def test_wins_follow_the_better_direction_and_ties_count_for_neither(bench_pairs):
    runs = [
        {"parent": result(t=1.0, rate=10.0, n=3.0), "change": result(t=0.5, rate=12.0, n=3.0)},
        {"parent": result(t=1.0, rate=10.0, n=3.0), "change": result(t=1.0, rate=9.0, n=3.0)},
        {"parent": result(t=1.2, rate=10.0, n=3.0), "change": result(t=1.3, rate=11.0, n=3.0)},
    ]
    summary = bench_pairs.summarize(runs, {"t": "lower", "rate": "higher"})
    assert summary["t"]["wins"] == 1 and summary["rate"]["wins"] == 2
    assert "wins" not in summary["n"] and summary["n"]["better"] is None
    assert summary["t"]["pairs"] == 3 and summary["t"]["unit"] == "s"


def test_medians_quartiles_and_ratio(bench_pairs):
    runs = [{"parent": result(t=p), "change": result(t=p / 2)} for p in (4.0, 1.0, 3.0, 2.0, 5.0)]
    row = bench_pairs.summarize(runs, {"t": "lower"})["t"]
    assert row["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert row["change"] == {"median": 1.5, "q1": 1.0, "q3": 2.0}
    assert row["ratio"] == 0.5 and row["wins"] == 5
    assert bench_pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_per_layer_rows_take_the_contract_directions(bench_pairs):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = bench_pairs.directions(json.load(fh))
    assert better["graphs.feature_vocabulary_s"] == "lower" and better["audit_trials_per_s"] == "higher"
    runs = [
        {"parent": traced(0.02, 0.010, 0.0), "change": traced(0.0, 0.011, 0.0)},
        {"parent": traced(0.03, 0.012, 0.0), "change": traced(0.0, 0.012, 0.0)},
    ]
    summary = bench_pairs.summarize(runs, better)
    row = summary["graphs.feature_vocabulary_s"]
    assert row["better"] == "lower" and row["wins"] == 2 and row["ratio"] == 0.0
    assert row["parent"] == {"median": 0.025, "q1": 0.0225, "q3": 0.0275}
    assert summary["autodiff.backward_s"]["wins"] == 0
    counts = summary["recovery.collisions"]
    assert counts["unit"] == "count" and counts["ratio"] is None and counts["wins"] == 0


def test_copied_checkout_holds_the_tree_as_it_stands(bench_pairs, tmp_path):
    """Tracked files with their edits and untracked files not ignored are
    copied; a deleted tracked file and an ignored one are not."""
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "src").mkdir(parents=True)
    files = {".gitignore": "out/\n", "src/kept.py": "x = 1\n", "src/edited.py": "y = 1\n", "gone.txt": "old\n"}
    for name, text in files.items():
        (repo / name).write_text(text)
    for args in (["init", "-q"], ["add", "-A"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "seed"]):
        bench_pairs.git(*args, root=str(repo))
    (repo / "src/edited.py").write_text("y = 2\n")
    (repo / "gone.txt").unlink()
    (repo / "src/new.py").write_text("z = 3\n")
    (repo / "out").mkdir()
    (repo / "out/ignored.txt").write_text("left behind\n")

    bench_pairs.copy_checkout(str(dest), root=str(repo))
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/edited.py", "src/kept.py", "src/new.py"]
    assert (dest / "src/edited.py").read_text() == "y = 2\n"
