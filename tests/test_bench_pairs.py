"""The summary that ``tools/bench_pairs.py`` writes for alternating benchmark pairs."""

from __future__ import annotations

import importlib.util
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
