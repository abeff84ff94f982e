#!/usr/bin/env python3
"""The dgsl benchmark: three workloads through ``dgsl.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload p1_table_r1 --seed 42 --seconds 20 --trace 0

Each pass runs in a fresh child interpreter (``perfbench/child.py``),
one at a time, with BLAS threads capped at the number of usable cores.
Every output is checked against the seed baseline (``baseline.json``);
a level or suite that raises or fails the check is a failed operation.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a traced
pass's per-layer metrics. Metric names and units come from
``BENCHMARK.json``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable report. See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
CHILD = HERE / "child.py"
BASELINE = HERE / "baseline.json"

DEFAULT_SEED = 42
SETUP_SAMPLES = 4          # set-up-only children per untraced run
RUN_DEADLINE_S = 165.0     # every child is killed past this point of a run

P3_SETTINGS = ["degree=3", "quad.volume_degree=14", "quad.edge_degree=12",
               "newton.abs_tol=1e-11", "mesh.kind=perturbed",
               "mesh.amplitude=0.2"]

# kind "ladder": one operation per refinement level, output is the CSV;
# kind "suites": one operation per property suite, output is stdout.
WORKLOADS = {
    "p1_table_r1": {
        "kind": "ladder", "degree": 1, "levels": (16, 32, 64, 128),
        "argv": ["run", "--config", "demos/configs/table_r1.conf"],
        "seeded": False,
    },
    "p3_perturbed_ladder": {
        "kind": "ladder", "degree": 3, "levels": (16, 32, 64),
        "argv": ["run"] + [a for s in P3_SETTINGS for a in ("--set", s)],
        "seeded": True,
    },
    "verify_all": {"kind": "suites", "argv": ["verify"]},
}

# Per-layer names that are exact work counts, with every ``*_calls``:
# they must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = ("dofs", "mesh.edges", "assembly.matrix_nnz",
                "linear_solver.factor_fill", "linear_solver.refine_steps",
                "newton.iterations")


def is_exact(name):
    return name in EXACT_COUNTS or name.endswith("_calls")


class CheckoutError(Exception):
    """The directory does not hold the program to benchmark."""


def check_checkout():
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "dgsl" / "cli.py",
              ROOT / "demos" / "configs" / "table_r1.conf", BASELINE, CHILD]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise CheckoutError("not a dgsl checkout; missing " + ", ".join(missing))


def source_hash():
    """Digest of the program sources and shipped configs."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + \
        sorted((ROOT / "demos" / "configs").glob("*.conf"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def thread_cap():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    cap = str(thread_cap())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env.pop("PYTHONPATH", None)
    return env


# ---------------------------------------------------------------- children

@dataclass
class Child:
    """Outcome of one child process."""

    wall_s: float
    setup_s: float          # None when the child never reached a level or suite
    peak_rss_mb: float
    exit_code: int
    report: dict            # the child's own JSON report, None if it wrote none
    stdout: str
    stderr: str
    timed_out: bool
    output: str = None      # the CSV a ladder pass wrote


def run_child(workdir, name, argv, mode, trace, deadline, suites=None):
    workdir.mkdir(parents=True, exist_ok=True)
    result = workdir / f"{name}.json"
    out_path, err_path = workdir / f"{name}.out", workdir / f"{name}.err"
    for path in (result, out_path, err_path):
        path.unlink(missing_ok=True)
    spec = {"argv": argv, "result": str(result), "mode": mode,
            "trace": int(trace), "suites": suites}
    cmd = [sys.executable, str(CHILD), json.dumps(spec)]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall_s = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(result.read_text()) if result.is_file() else None
    setup_s = None
    if report and report.get("first_op") is not None:
        setup_s = report["first_op"] - start
    return Child(wall_s, setup_s, usage.ru_maxrss / 1024.0, proc.returncode,
                 report, out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"),
                 timed_out=proc.returncode == -9)


# ---------------------------------------------------------------- checks

CSV_HEADER = "h,l2_error,l2_order,dg_error,dg_order,newton_iters,dofs"


def parse_csv(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        return []
    rows = []
    for line in lines[1:]:
        h, l2, l2o, dg, dgo, its, dofs = line.split(",")
        rows.append({"h": float(h), "l2_error": float(l2),
                     "l2_order": float(l2o) if l2o else None,
                     "dg_error": float(dg),
                     "dg_order": float(dgo) if dgo else None,
                     "newton_iters": int(its), "dofs": int(dofs)})
    return rows


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_ladder(name, spec, levels, mesh_seed, csv_text, baseline):
    """One (op, ok, reason) per level of a refinement ladder."""
    gate = baseline["gate"]
    ref = baseline["workloads"][name]
    exact_ref = not spec["seeded"] or mesh_seed == ref["seed"]
    try:
        rows = parse_csv(csv_text)
    except ValueError as exc:
        rows, bad_csv = [], str(exc)
    else:
        bad_csv = None
    ops = []
    for index, n in enumerate(levels):
        op = f"level n={n}"
        if index >= len(rows):
            ops.append((op, False, bad_csv or "no output row"))
            continue
        row, problems = rows[index], []
        expected = ref["rows"].get(str(n))
        if expected is not None:
            if row["dofs"] != expected["dofs"]:
                problems.append(f"dofs {row['dofs']} != {expected['dofs']}")
            if exact_ref:
                for key in ("l2_error", "dg_error", "h"):
                    if _rel(row[key], expected[key]) > gate["rel_tol"]:
                        problems.append(f"{key} {row[key]!r} vs seed "
                                        f"baseline {expected[key]!r}")
                if row["newton_iters"] != expected["newton_iters"]:
                    problems.append(f"newton_iters {row['newton_iters']} != "
                                    f"{expected['newton_iters']}")
            else:
                for key in ("l2_error", "dg_error"):
                    if _rel(row[key], expected[key]) > gate["other_seed_band"]:
                        problems.append(f"{key} {row[key]:.4e} is off the "
                                        f"default-seed value {expected[key]:.4e}")
                if abs(row["newton_iters"] - expected["newton_iters"]) > 1:
                    problems.append(f"newton_iters {row['newton_iters']}")
        if index == len(levels) - 1 and len(levels) > 1:
            r, window = spec["degree"], gate["order_window"]
            for key, target in (("l2_order", r + 1), ("dg_order", r)):
                value = row[key]
                if value is None or not math.isfinite(value) \
                        or abs(value - target) > window:
                    problems.append(f"finest {key} {value} outside "
                                    f"{target} +- {window}")
        ops.append((op, not problems, "; ".join(problems) or "ok"))
    return ops


def check_suites(expected, stdout):
    """One (op, ok, reason) per expected property suite."""
    seen = {}
    for line in stdout.splitlines():
        status, _, rest = line.partition("  ")
        if status in ("PASS", "FAIL") and ":" in rest:
            seen[rest.split(":", 1)[0]] = (status, line)
    ops = []
    for suite in expected:
        status, line = seen.get(suite, (None, "no result line"))
        ops.append((f"suite {suite}", status == "PASS", line))
    return ops


# ---------------------------------------------------------------- passes

class Run:
    """Everything one invocation of the benchmark does and measures."""

    def __init__(self, args, baseline):
        self.args = args
        self.baseline = baseline
        self.name = args.workload
        self.spec = WORKLOADS[args.workload]
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.src_hash = source_hash()
        self.workdir = OUT / "work" / self.name
        self.history = OUT / "history" / self.src_hash
        self.mesh_seed = args.seed % 2**31 if self.spec.get("seeded") else None
        self.ops = []
        self.children_ok = True
        if self.spec["kind"] == "ladder":
            self.levels = tuple(args.levels or self.spec["levels"])
        else:
            self.suites = args.suites or baseline["workloads"][self.name]["suites"]
        # Key of this run's inputs in the history of earlier runs.
        self.variant = self.name
        if args.levels:
            self.variant += "-levels" + "_".join(map(str, args.levels))
        if args.suites:
            self.variant += "-suites" + "_".join(args.suites)
        if self.mesh_seed is not None:
            self.variant += f"-seed{self.mesh_seed}"

    def argv(self, csv_path=None):
        argv = list(self.spec["argv"])
        if self.spec["kind"] == "ladder":
            argv += ["--set", "mesh.levels=" + ",".join(map(str, self.levels)),
                     "--set", f"output.path={csv_path}"]
            if self.mesh_seed is not None:
                argv += ["--set", f"mesh.seed={self.mesh_seed}"]
        return argv

    def setup_sample(self, index):
        child = run_child(self.workdir, f"setup{index}", self.argv("-"),
                          "setup", False, self.deadline, self.args.suites)
        if child.setup_s is None:
            self.children_ok = False
            print(f"set-up child {index} failed (exit {child.exit_code}):\n"
                  + child.stderr[-2000:], file=sys.stderr)
        return child

    def one_pass(self, label, trace):
        csv_path = self.workdir / f"{label}.csv"
        csv_path.unlink(missing_ok=True)
        child = run_child(self.workdir, label, self.argv(csv_path), "pass",
                          trace, self.deadline, self.args.suites)
        if self.spec["kind"] == "ladder":
            csv_text = csv_path.read_text() if csv_path.is_file() else ""
            ops = check_ladder(self.name, self.spec, self.levels,
                               self.mesh_seed, csv_text, self.baseline)
            child.output = csv_text
        else:
            ops = check_suites(self.suites, child.stdout)
        if child.exit_code != 0 or child.report is None:
            self.children_ok = False
            why = "killed at the run deadline" if child.timed_out else \
                f"exit code {child.exit_code}"
            print(f"{label}: dgsl {why}\n" + child.stderr[-2000:], file=sys.stderr)
        self.ops += [(f"{label} {op}", ok, why) for op, ok, why in ops]
        return child

    def check_determinism(self, outputs):
        """Byte-compare this run's CSVs with each other and with the CSV
        an earlier run of the same sources and inputs left behind."""
        if self.spec["kind"] != "ladder":
            return
        stored = self.history / f"{self.variant}.csv"
        reference = stored.read_text() if stored.is_file() else None
        for index, text in enumerate(outputs):
            if not text:
                continue
            if reference is None:
                self.history.mkdir(parents=True, exist_ok=True)
                stored.write_text(text)
                reference = text
                continue
            same = text == reference
            self.ops.append((f"determinism pass{index}", same,
                             "CSV byte-identical" if same else
                             "CSV differs from an earlier pass of the same code"))

    def _walls_path(self):
        # Walls of a seeded workload are pooled over seeds: the inputs
        # differ only in vertex positions.
        variant = self.variant.split("-seed")[0]
        return self.history / f"{variant}-walls.json"

    def untraced_walls(self):
        path = self._walls_path()
        return json.loads(path.read_text()) if path.is_file() else []

    def record_walls(self, walls):
        self.history.mkdir(parents=True, exist_ok=True)
        self._walls_path().write_text(json.dumps(self.untraced_walls() + walls))


def measure_untraced(run, seconds):
    # Half the set-up samples go before the passes and half after, so
    # that one busy moment on the machine does not shift all of them.
    half = SETUP_SAMPLES // 2
    setups = [run.setup_sample(i) for i in range(half)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run.one_pass(f"pass{len(passes)}", trace=False))
        elapsed = time.monotonic() - start
        if elapsed + passes[-1].wall_s > seconds or \
                time.monotonic() + 2 * passes[-1].wall_s > run.deadline:
            break
    setups += [run.setup_sample(i) for i in range(half, SETUP_SAMPLES)]
    run.check_determinism([p.output for p in passes])
    run.record_walls([p.wall_s for p in passes])
    setup_values = [c.setup_s for c in setups + passes if c.setup_s is not None]
    ops_per_pass = len(run.levels) if run.spec["kind"] == "ladder" else len(run.suites)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup_values) if setup_values else 0.0,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "ops_total": ops_per_pass,
    }
    env = next((c.report["env"] for c in setups + passes if c.report), {})
    samples = {"passes": len(passes), "setup_samples": len(setup_values),
               "pass_walls_s": [p.wall_s for p in passes],
               "setup_values_s": setup_values}
    return metrics, env, samples


def layer_metrics(report):
    """Per-layer values from one traced child's span aggregate."""
    agg = report["trace"]
    self_s, total_s, calls = agg["self_s"], agg["total_s"], agg["calls"]
    values = dict(report["counts"])
    for span, seconds in self_s.items():
        # Levels and suites are operations: their whole wall time counts.
        if span.startswith("convergence.level."):
            values["convergence.level_s." + span.rsplit(".", 1)[1]] = total_s[span]
        elif span.startswith("properties."):
            values[f"{span}_s"] = total_s[span]
        elif span in ("newton", "convergence", "cli"):
            values[f"{span}.self_s"] = seconds
        else:
            values[f"{span}_s"] = seconds
            values[f"{span}_calls"] = calls[span]
    levels = [v for k, v in agg["uncovered_share"].items()
              if k.startswith("convergence.level.")]
    values["trace.level_uncovered_max"] = max(levels) if levels else 0.0
    return values


def measure_traced(run):
    traced = run.one_pass("traced", trace=True)
    outputs = [traced.output]
    walls = run.untraced_walls()
    reference = "earlier untraced runs of the same sources"
    if not walls:
        untraced = run.one_pass("untraced", trace=False)
        outputs.append(untraced.output)
        walls = [untraced.wall_s]
        reference = "an untraced pass in this run"
    run.check_determinism(outputs)
    values = {}
    if traced.report and "trace" in traced.report:
        values = layer_metrics(traced.report)
    values["trace.wall_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - statistics.median(walls)
    env = traced.report["env"] if traced.report else {}
    detail = {"overhead_reference": reference, "untraced_walls_s": walls}
    if traced.report and "trace" in traced.report:
        detail["uncovered_share"] = traced.report["trace"]["uncovered_share"]
        detail["bindings"] = traced.report["bindings"]
        detail["missing_bindings"] = traced.report["missing_bindings"]
        spans_path = OUT / f"{run.name}-seed{run.args.seed}-spans.json"
        spans_path.write_text(json.dumps(traced.report["spans"]))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return values, env, detail


# ---------------------------------------------------------------- report

def select(values, declared):
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in declared}


def print_report(run, metrics, env, detail):
    print(f"dgsl benchmark: workload {run.name}, seed {run.args.seed}, "
          f"trace {run.args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    shown = {k: v for k, v in detail.items() if k not in ("bindings", "spans_file")}
    print("samples: " + json.dumps(shown, sort_keys=True))
    for op, ok, why in run.ops:
        print(f"  {'ok  ' if ok else 'FAIL'} {op}: {why}")
    for name, metric in metrics.items():
        exact = "  (exact count)" if is_exact(name) else ""
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}{exact}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--levels", type=lambda s: [int(t) for t in s.split(",")],
                        help="override the ladder's levels (harness self-tests)")
    parser.add_argument("--suites", type=lambda s: s.split(","),
                        help="restrict verify_all to these suites (self-tests)")
    args = parser.parse_args(argv)

    try:
        check_checkout()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads(BASELINE.read_text())
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)

    run = Run(args, baseline)
    if args.trace:
        values, env, detail = measure_traced(run)
        metrics = select(values, bench["per_layer"])
    else:
        values, env, detail = measure_untraced(run, args.seconds)
        metrics = select(values, bench["end_to_end"])
    env.update({"nproc": os.cpu_count(), "thread_cap": thread_cap(),
                "git_commit": git_commit(), "source_hash": run.src_hash,
                "seed": args.seed, "mesh_seed": run.mesh_seed})

    failed = sum(1 for _, ok, _ in run.ops if not ok)
    result = {"correct": failed == 0 and run.children_ok,
              "attempted": max(len(run.ops), 1), "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=run.name, trace=args.trace, env=env,
                  detail=detail, ops=run.ops,
                  exact_counts=[name for name in metrics if is_exact(name)])
    (OUT / f"{run.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print_report(run, metrics, env, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
