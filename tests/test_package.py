"""Package metadata: the declared version, the public export list, the
names the benchmark reaches into, and the runtime imports."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import os
import sys

import numpy as np
import pytest

import ifmixup as m
import ifmixup.cli
import ifmixup.graphs
import ifmixup.mixing
import ifmixup.recovery
import ifmixup.training

PYPROJECT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml"
)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert m.__version__ == declared


def test_all_exports_resolve_once():
    assert len(m.__all__) == len(set(m.__all__))
    missing = [name for name in m.__all__ if not hasattr(m, name)]
    assert missing == []


@pytest.mark.parametrize("module", [ifmixup.graphs, ifmixup.recovery], ids=lambda mod: mod.__name__)
def test_no_public_tolerance_parameter(module):
    """Rank and decode decisions read the module tolerances (RANK_TOL,
    DEFAULT_TOL); no public function or method takes its own."""
    public = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            public.append((name, obj))
        elif inspect.isclass(obj):
            public += [
                (f"{name}.{attr}", fn)
                for attr, fn in vars(obj).items()
                if inspect.isfunction(fn) and not attr.startswith("_")
            ]
    assert len(public) > 5
    assert [name for name, fn in public if "tol" in inspect.signature(fn).parameters] == []


BENCHMARKS = os.path.join(os.path.dirname(PYPROJECT), "benchmarks")
BENCHMARK_MODULES = ("workloads", "inputs", "spans", "speed")


@pytest.fixture
def bench_workloads(monkeypatch):
    """``benchmarks/workloads.py``, imported the way ``benchmarks/run.py`` does."""
    monkeypatch.syspath_prepend(BENCHMARKS)
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in BENCHMARK_MODULES:
            sys.modules.pop(name, None)


def test_benchmark_span_targets_see_calls(bench_workloads, monkeypatch):
    """Each attribute the benchmark rebinds for a span is called through it.

    The benchmark times the package from outside by rebinding module
    attributes. A call that bypasses the binding (say, a name bound at
    import time) leaves its span with no samples and no error.
    """
    targets = bench_workloads.AUDIT_TARGETS + bench_workloads.RECOVER_TARGETS
    targets = targets + [(ifmixup.mixing, "mix_pair", "mixing.mix_pair")]
    calls: dict[tuple[str, str], int] = {}
    for owner, attr, _ in targets:
        key = (owner.__name__, attr)
        if key not in calls:
            calls[key] = 0

            def counted(*args, _fn=getattr(owner, attr), _key=key, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

    parsed = m.make_synthetic_molecules(num_graphs=12, seed=3)
    ds = m.encode_node_features(parsed, "one_hot_labels")
    report = bench_workloads.intrusion_audit(ds, 3, m.BetaParams(2, 2), np.random.default_rng(0))
    assert report.ok() and report.mode == "independent"

    v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # dependent vocabulary
    g = m.NodeFeaturedGraph(v, np.zeros((3, 3)))
    h = m.NodeFeaturedGraph(v[::-1].copy(), np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    pair = m.GraphDataset([(x, m.LabelDistribution.one_hot(0, 1)) for x in (g, h)], 1, 2)
    for (a, b), basis, mode in (
        (ds.graphs()[:2], m.feature_vocabulary(ds), "independent"),
        ((g, h), m.feature_vocabulary(pair), "basis"),
    ):
        rec = ifmixup.recovery.recover_pair(m.mix_pair(a, b, 0.3), basis, mode)
        assert rec.matches(a, b, 0.3)

    cfg = m.TrainConfig(augment=m.AugmentSpec("if_mixup", beta=m.BetaParams(2, 2)))
    ifmixup.training.build_epoch_stream(ds.items, cfg, np.random.default_rng(0))

    assert {key: n for key, n in calls.items() if n == 0} == {}


def test_runtime_imports_are_numpy_and_stdlib():
    """The only runtime dependency is numpy: every import in the package is
    numpy, the package itself, or a standard-library module."""
    source = os.path.dirname(m.__file__)
    allowed = set(sys.stdlib_module_names) | {"numpy", "ifmixup"}
    foreign = []
    for filename in sorted(os.listdir(source)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(source, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(filename, n) for n in names if n.split(".")[0] not in allowed]
    assert foreign == []


CONFIGS = (m.ModelConfig, m.AugmentSpec, m.BetaParams, m.TrainConfig, ifmixup.cli._DatasetBlock)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_config_field_has_a_schema_rule(config):
    """A config field without a rule would skip validation on every path."""
    assert [f.name for f in dataclasses.fields(config) if "kind" not in f.metadata] == []


def schema_rows(config, prefix: str = ""):
    """One README table row per leaf field of ``config`` (an instance, which
    gives the defaults of the blocks it holds)."""
    for f in dataclasses.fields(config):
        kind, bounds, value = f.metadata["kind"], f.metadata["bounds"], getattr(config, f.name)
        if dataclasses.is_dataclass(kind):
            yield from schema_rows(value, f"{prefix}{f.name}.")
            continue
        allowed = ", ".join(f"`{json.dumps(c)}`" for c in bounds) if isinstance(bounds, tuple) else bounds
        default = "—" if value is None else f"`{json.dumps(value)}`"
        yield f"| `{prefix}{f.name}` | {kind.__name__} | {allowed or '—'} | {default} |"


def test_readme_configuration_table_matches_schema():
    with open(os.path.join(os.path.dirname(PYPROJECT), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    rows = [*schema_rows(m.TrainConfig()), *schema_rows(ifmixup.cli._DatasetBlock(), "dataset.")]
    assert [row for row in rows if row not in readme] == []
