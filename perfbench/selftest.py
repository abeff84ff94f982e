"""Self-tests of the benchmark harness: tiny instances of each workload.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so that the repository's own test
run does not collect it. Each test works in a copy of the checkout under
``perfbench/_out/selftest`` so that history files of real runs are not
touched.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "_out" / "selftest"

spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((HERE / "baseline.json").read_text())


def _copy_harness(dest):
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    (dest / "perfbench").mkdir()
    for name in ("run.py", "child.py", "baseline.json"):
        shutil.copy2(HERE / name, dest / "perfbench" / name)


@pytest.fixture(scope="module")
def checkout():
    dest = SCRATCH / "checkout"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    _copy_harness(dest)
    shutil.copytree(ROOT / "src" / "dgsl", dest / "src" / "dgsl",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (dest / "demos" / "configs").mkdir(parents=True)
    for conf in (ROOT / "demos" / "configs").glob("*.conf"):
        shutil.copy2(conf, dest / "demos" / "configs" / conf.name)
    return dest


def _run(root, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _assert_declared(result, declared):
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_ladder_end_to_end_metrics_and_determinism(checkout):
    args = ("--workload", "p1_table_r1", "--levels", "8,16", "--trace", "0")
    first = _result(_run(checkout, *args))
    assert first["correct"] and first["failed"] == 0 and first["attempted"] == 2
    _assert_declared(first, BENCHMARK["end_to_end"])
    values = {k: m["value"] for k, m in first["metrics"].items()}
    assert values["ops_total"] == 2
    assert 0 < values["setup_s"] < values["wall_s"]
    assert values["peak_rss_mb"] > 10

    # The second run compares its CSV with the first one's.
    second = _result(_run(checkout, *args))
    assert second["correct"] and second["attempted"] == 3

    stored = next((checkout / "perfbench" / "_out" / "history").rglob(
        "p1_table_r1-levels8_16.csv"))
    stored.write_text(stored.read_text().replace("1536", "1537"))
    third = _result(_run(checkout, *args))
    assert not third["correct"] and third["failed"] == 1


def test_traced_ladder_reports_every_layer_and_repeats_counts(checkout):
    args = ("--workload", "p3_perturbed_ladder", "--levels", "4,8",
            "--seed", "5", "--trace", "1")
    runs = [_result(_run(checkout, *args)) for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        _assert_declared(result, BENCHMARK["per_layer"])
    values = [{k: m["value"] for k, m in r["metrics"].items()} for r in runs]
    for name in ("mesh.edges", "dofs", "assembly.bilinear_calls",
                 "linear_solver.factor_calls", "linear_solver.factor_fill",
                 "newton.iterations", "analysis.dg_norm_calls"):
        assert values[0][name] > 0, name
    for name in filter(bench.is_exact, values[0]):
        assert values[0][name] == values[1][name], name
    assert values[0]["dofs"] == 10 * 2 * (4 * 4 + 8 * 8)
    assert values[0]["newton.iterations"] + 2 <= values[0]["assembly.residual_calls"]
    assert values[0]["trace.level_uncovered_max"] < 0.05
    assert values[0]["properties.rates_s"] == 0


def test_verify_subset_untraced_and_traced(checkout):
    args = ("--workload", "verify_all", "--suites", "quadrature,mesh")
    plain = _result(_run(checkout, *args, "--trace", "0"))
    assert plain["correct"] and plain["attempted"] == 2
    traced = _result(_run(checkout, *args, "--trace", "1"))
    assert traced["correct"] and traced["attempted"] == 2
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    assert values["properties.quadrature_s"] > 0
    assert values["properties.mesh_s"] > 0
    assert values["properties.rates_s"] == 0
    assert values["mesh.edges"] > 0


def test_fails_without_the_program():
    dest = SCRATCH / "bare"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    _copy_harness(dest)
    proc = _run(dest, "--workload", "verify_all", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "not a dgsl checkout" in proc.stderr


def _csv(rows):
    lines = [bench.CSV_HEADER]
    for row in rows:
        lines.append(",".join([repr(row["h"]), f"{row['l2_error']:.10e}",
                               "" if row.get("l2_order") is None else f"{row['l2_order']:.4f}",
                               f"{row['dg_error']:.10e}",
                               "" if row.get("dg_order") is None else f"{row['dg_order']:.4f}",
                               str(row["newton_iters"]), str(row["dofs"])]))
    return "\n".join(lines) + "\n"


def _seed_rows(name, orders):
    rows = [dict(r) for r in BASELINE["workloads"][name]["rows"].values()]
    rows[-1]["l2_order"], rows[-1]["dg_order"] = orders
    return rows


def _failed(ops):
    return [op for op, ok, _ in ops if not ok]


@pytest.mark.parametrize("change, failing", [
    (None, []),
    (("l2_error", 1 + 1e-5), ["level n=128"]),
    (("dg_error", 1 - 1e-5), ["level n=128"]),
    (("newton_iters", 1), ["level n=128"]),
    (("l2_order", 0.7), ["level n=128"]),
])
def test_gate_on_the_seed_baseline(change, failing):
    rows = _seed_rows("p1_table_r1", (2.0, 1.0))
    if change is not None:
        key, factor = change
        rows[-1][key] = rows[-1][key] + factor if key == "newton_iters" \
            else rows[-1][key] * factor
    ops = bench.check_ladder("p1_table_r1", bench.WORKLOADS["p1_table_r1"],
                             (16, 32, 64, 128), None, _csv(rows), BASELINE)
    assert _failed(ops) == failing


def test_gate_on_other_seeds_and_missing_rows():
    spec = bench.WORKLOADS["p3_perturbed_ladder"]
    levels = (16, 32, 64)
    rows = _seed_rows("p3_perturbed_ladder", (4.1, 3.1))
    rows[0]["l2_error"] *= 1.02          # another seed moves errors a little
    assert _failed(bench.check_ladder("p3_perturbed_ladder", spec, levels, 7,
                                      _csv(rows), BASELINE)) == []
    assert _failed(bench.check_ladder("p3_perturbed_ladder", spec, levels, 42,
                                      _csv(rows), BASELINE)) == ["level n=16"]
    rows[1]["dg_error"] *= 1.5
    assert _failed(bench.check_ladder("p3_perturbed_ladder", spec, levels, 7,
                                      _csv(rows), BASELINE)) == ["level n=32"]
    assert _failed(bench.check_ladder("p3_perturbed_ladder", spec, levels, 7,
                                      _csv(rows[:1]), BASELINE)) == \
        ["level n=32", "level n=64"]
    assert len(_failed(bench.check_ladder("p3_perturbed_ladder", spec, levels, 7,
                                          "", BASELINE))) == 3


def test_suite_gate():
    expected = ["quadrature", "mesh", "rates"]
    stdout = "PASS  quadrature: fine\nFAIL  mesh: broken\n"
    assert _failed(bench.check_suites(expected, stdout)) == ["suite mesh", "suite rates"]
