"""Shared fixtures and the acceptance-suite result summary.

The acceptance tests in test_acceptance.py each cover one headline
guarantee; the terminal-summary hook below prints one PASS/FAIL line per
criterion so the outcome is visible even without -s.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

import ifmixup as m

# Every property test draws the same examples on every run, keeps no example
# database on disk and has no per-example deadline, which a loaded host misses.
settings.register_profile("ifmixup", derandomize=True, database=None, deadline=None)
settings.load_profile("ifmixup")

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
MUTAG_DIR = os.path.join(DATA_DIR, "MUTAG")


def mutag_available() -> bool:
    return os.path.exists(os.path.join(MUTAG_DIR, "MUTAG_A.txt"))


def source_env() -> dict[str, str]:
    """The caller's environment, with the tested ``ifmixup`` first on PYTHONPATH.

    A fresh interpreter then imports the source under test, not some other
    installed copy.
    """
    env = dict(os.environ)
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(m.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def rand_one_hot_graph(
    rng: np.random.Generator, n: int, d: int, edge_prob: float = 0.35
) -> m.NodeFeaturedGraph:
    """A random binary graph with one-hot node features."""
    v = np.zeros((n, d))
    v[np.arange(n), rng.integers(d, size=n)] = 1.0
    e = np.triu((rng.random((n, n)) < edge_prob).astype(float), k=1)
    return m.NodeFeaturedGraph(v, e + e.T)


def graphs_equal(a: m.NodeFeaturedGraph, b: m.NodeFeaturedGraph, tol: float = 1e-9) -> bool:
    return (
        a.n == b.n
        and np.array_equal(a.e, b.e)
        and float(np.max(np.abs(a.v - b.v), initial=0.0)) <= tol
    )


@pytest.fixture(scope="session")
def benchmark_dataset() -> tuple[m.GraphDataset, str]:
    """MUTAG when its files are present, else the synthetic stand-in.

    Returns the encoded dataset and a short description of which one it is.
    """
    if mutag_available():
        return m.load_dataset(MUTAG_DIR, "MUTAG"), "MUTAG"
    parsed = m.make_synthetic_molecules(188, seed=7)
    return m.encode_node_features(parsed, "one_hot_labels"), "SYNTHETIC (MUTAG files not present)"


@pytest.fixture()
def tiny_dataset() -> m.GraphDataset:
    """Twelve small one-hot graphs in two separable classes."""
    rng = np.random.default_rng(42)
    items = []
    for i in range(12):
        cls = i % 2
        n = int(rng.integers(4, 8))
        g = rand_one_hot_graph(rng, n, 5, edge_prob=0.3 if cls == 0 else 0.7)
        items.append((g, m.LabelDistribution.one_hot(cls, 2)))
    return m.GraphDataset(items, 2, 5, "TINY")


# -- acceptance summary ------------------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, tuple[str, str]] = {}  # nodeid -> (outcome, title)


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance" in item.nodeid:
            doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
            _ACCEPTANCE_RESULTS[item.nodeid] = ("not run", doc)


def pytest_runtest_logreport(report):
    if report.nodeid not in _ACCEPTANCE_RESULTS:
        return
    title = _ACCEPTANCE_RESULTS[report.nodeid][1]
    if report.when == "call":
        outcome = {"passed": "PASS", "failed": "FAIL"}.get(report.outcome, report.outcome.upper())
        _ACCEPTANCE_RESULTS[report.nodeid] = (outcome, title)
    elif report.when == "setup" and report.outcome in ("failed", "skipped"):
        outcome = "SKIP" if report.outcome == "skipped" else "ERROR"
        _ACCEPTANCE_RESULTS[report.nodeid] = (outcome, title)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid, (outcome, title) in _ACCEPTANCE_RESULTS.items():
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{outcome}: {title} [{name}]")
