"""The narrative demos run to completion against the current API (the
convergence study without its `--full` level)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "01_mesh_tour.py",
    "02_quadrature_and_basis.py",
    "03_solve_semilinear.py",
    "04_convergence_study.py",
    "05_penalty_sweep.py",
    "06_property_gallery.py",
])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
