"""The narrative demos and README's library quickstart run to completion
against the current API (the convergence study without its `--full`
level)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args):
    """Run the interpreter with `args` and `src` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", [
    "01_mesh_tour.py",
    "02_quadrature_and_basis.py",
    "03_solve_semilinear.py",
    "04_convergence_study.py",
    "05_penalty_sweep.py",
    "06_property_gallery.py",
])
def test_demo_runs(script):
    done = run_python([str(ROOT / "demos" / script)])
    assert done.returncode == 0, done.stderr


def test_readme_library_quickstart_runs():
    # the section's python blocks build on one another, so they run in
    # order as one script
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quickstart\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks
    done = run_python(["-c", "\n".join(blocks)])
    assert done.returncode == 0, done.stderr
