"""A traced benchmark pass still reaches every layer it reports.

The benchmark wraps module-level bindings of `dgsl` by name, so renaming
one of them silently drops its span or count. This runs one traced pass
of `perfbench/child.py` on a tiny P1 ladder and reads its report; the
harness's own self-tests (`perfbench/selftest.py`) are not collected
here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# bindings the hooks name whose targets no longer exist in `dgsl`
KNOWN_MISSING = ["dgsl.assembly.assemble_weighted_mass",
                 "dgsl.analysis.edge_identity_residual"]


def test_traced_pass_reports_the_hooked_layers(tmp_path):
    result = tmp_path / "child.json"
    spec = {"argv": ["run", "--config", "demos/configs/table_r1.conf",
                     "--set", "mesh.levels=4,8",
                     "--set", f"output.path={tmp_path / 'table.csv'}"],
            "result": str(result), "mode": "pass", "trace": 1}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(result.read_text())
    assert {"assembly.matrix_nnz", "newton.iterations"} <= set(report["counts"])
    assert report["missing_bindings"] == KNOWN_MISSING
