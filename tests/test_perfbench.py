"""A traced benchmark pass still reaches every layer it reports, and the
P3 ladder still passes the benchmark's correctness gate.

The benchmark wraps module-level bindings of `dgsl` by name, so renaming
one of them silently drops its span or count. This runs one traced pass
of `perfbench/child.py` on a tiny P1 ladder and reads its report; the
harness's own self-tests (`perfbench/selftest.py`) are not collected
here. The gate is checked on the two smallest levels of the P3 ladder,
with the harness's own settings, baseline and check, read from
`perfbench/`, so that a solver change that moves the benchmark's digits
or Newton counts past its bounds fails here first.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import dgsl.cli

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


def load_harness():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness


def test_p3_ladder_passes_the_benchmark_gate(tmp_path):
    harness = load_harness()
    name, levels, seed = "p3_perturbed_ladder", (16, 32), harness.DEFAULT_SEED
    spec = harness.WORKLOADS[name]
    csv_path = tmp_path / "p3.csv"
    assert dgsl.cli.main(
        spec["argv"] + ["--set", "mesh.levels=" + ",".join(map(str, levels)),
                        "--set", f"mesh.seed={seed}",
                        "--set", f"output.path={csv_path}"]) == 0
    baseline = json.loads(harness.BASELINE.read_text())
    # the check compares l2_error, dg_error and h within the gate's 1e-6
    # relative, Newton counts and dofs exactly, and the finest orders
    ops = harness.check_ladder(name, spec, levels, seed,
                               csv_path.read_text(), baseline)
    assert [op for op, _, _ in ops] == [f"level n={n}" for n in levels]
    assert all(ok for _, ok, _ in ops), ops
