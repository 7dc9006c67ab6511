"""Smoke runs of the demo scripts: each must finish with exit status 0.

Each demo is copied into a temporary directory first, so files it writes
next to itself stay out of the checkout. ``03_train_and_compare.py`` is left
out: it trains two GIN runs of 60 epochs, about 13 s.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

from conftest import source_env

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize(
    "script", ["01_mix_and_recover.py", "02_beta_densities.py", "04_intrusion_audit.py"]
)
def test_demo_runs(script, tmp_path):
    copy = shutil.copy(os.path.join(DEMO_DIR, script), tmp_path)
    proc = subprocess.run(
        [sys.executable, copy],
        capture_output=True,
        text=True,
        timeout=120,
        env=source_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
