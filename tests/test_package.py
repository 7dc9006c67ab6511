"""Package metadata: the declared version and the public export list."""

from __future__ import annotations

import os

import pytest

import ifmixup as m

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
