"""One benchmark pass in a fresh interpreter: ``dgsl.cli.main`` with hooks.

Usage (spawned by ``run.py``, not meant to be run by hand)::

    python3 perfbench/child.py '<json spec>'

The spec holds ``argv`` (the dgsl command line), ``result`` (where to
write this process's JSON report), ``mode`` (``pass`` runs the command,
``setup`` stops as soon as the first level or suite would begin),
``trace`` (0 or 1) and optionally ``suites`` (restrict ``dgsl verify``
to these property suites, for the harness self-tests).

Nothing under ``src/`` is edited. Hooks replace module-level bindings
(``dgsl.newton.solve_spd`` and the like) in every ``dgsl`` module that
imported the original object, so each caller's own binding is wrapped.
"""

import functools
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Spans kept in memory: (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        return index

    def close(self, index):
        # Closing a span also closes any child left open by an exception.
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == index:
                return

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def aggregate(self):
        """Self seconds and call counts per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s, calls, total_s = {}, {}, {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        uncovered = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            if name.startswith(("convergence.level.", "properties.")):
                duration = end - start
                uncovered[name] = (duration - covered) / duration if duration > 0 else 0.0
        return {"self_s": self_s, "total_s": total_s, "calls": calls,
                "uncovered_share": uncovered}


def _replace_bindings(original, wrapper, skip_module):
    """Point every dgsl module attribute that *is* `original` at `wrapper`."""
    replaced = []
    for modname, module in list(sys.modules.items()):
        if module is None or module is skip_module or not (
                modname == "dgsl" or modname.startswith("dgsl.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced.append(f"{modname}.{attr}")
    return replaced


def _spanned(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            count(out)
        return out
    return wrapper


def install_layer_hooks(tracer):
    """Wrap every layer boundary the benchmark reports; returns the
    bindings that were replaced and the targets that no longer exist."""
    import dgsl.analysis
    import dgsl.assembly
    import dgsl.linear_solver
    import dgsl.mesh
    import dgsl.newton
    import dgsl.space
    import scipy.sparse.linalg

    add = tracer.add

    def count_mesh(mesh):
        add("mesh.edges", len(mesh.edges))

    def count_bilinear(matrix):
        add("assembly.matrix_nnz", matrix.csr.nnz)

    def count_factor(lu):
        add("linear_solver.factor_fill", lu.L.nnz + lu.U.nnz)

    def count_solve(out):
        report = out[1]
        if report.method == "direct":
            add("linear_solver.refine_steps", max(report.iterations - 1, 0))

    def count_newton(out):
        add("newton.iterations", out[1].iterations)

    targets = [
        (dgsl.mesh, "build_structured", "mesh.build", count_mesh),
        (dgsl.mesh, "build_perturbed", "mesh.build", count_mesh),
        (dgsl.mesh, "import_mesh", "mesh.build", count_mesh),
        (dgsl.assembly, "assemble_bilinear", "assembly.bilinear", count_bilinear),
        (dgsl.assembly, "assemble_weighted_mass", "assembly.mass", None),
        (dgsl.assembly, "_nonlinear_load", "assembly.residual", None),
        (dgsl.linear_solver, "solve_spd", "linear_solver.solve", count_solve),
        (scipy.sparse.linalg, "splu", "linear_solver.factor", count_factor),
        (dgsl.newton, "solve_semilinear", "newton", count_newton),
        (dgsl.analysis, "l2_error", "analysis.l2_error", None),
        (dgsl.analysis, "dg_error", "analysis.dg_norm", None),
        (dgsl.analysis, "dg_norm_discrete", "analysis.dg_norm", None),
        (dgsl.analysis, "elliptic_project", "analysis.project", None),
        (dgsl.analysis, "estimate_trace_constant", "analysis.trace", None),
        (dgsl.analysis, "edge_identity_residual", "analysis.edge_identity", None),
    ]
    replaced, missing = [], []
    for module, attr, name, count in targets:
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module.__name__}.{attr}")
            continue
        wrapper = _spanned(tracer, name, original, count)
        # Calls inside the defining module stay unwrapped: the boundary
        # is where another layer calls in.
        replaced += _replace_bindings(original, wrapper, skip_module=module)

    space_cls = dgsl.space.DGSpace
    original_init = space_cls.__init__

    @functools.wraps(original_init)
    def space_init(self, *args, **kwargs):
        span = tracer.open("space.setup")
        try:
            original_init(self, *args, **kwargs)
        finally:
            tracer.close(span)
        add("dofs", self.total_dofs)

    space_cls.__init__ = space_init
    replaced.append("dgsl.space.DGSpace.__init__")
    return replaced, missing


def install_op_hooks(state, tracer):
    """Mark when the first level or suite begins and, when tracing,
    open one span per level and per suite."""
    import dgsl.cli
    import dgsl.convergence
    import dgsl.properties

    def first_op():
        if state["first_op"] is None:
            state["first_op"] = time.monotonic()
            if state["mode"] == "setup":
                finish(state, tracer)

    run_convergence = dgsl.cli.run_convergence
    run_config = dgsl.convergence.RunConfig
    build_level_mesh = run_config.build_level_mesh

    def traced_run_convergence(cfg, progress=None):
        first_op()
        if not tracer:
            return run_convergence(cfg, progress=progress)
        span = tracer.open("convergence")
        level_spans = {}

        def traced_build(cfg_self, index):
            level_spans[index] = tracer.open(
                f"convergence.level.n{cfg_self.levels[index]}")
            return build_level_mesh(cfg_self, index)

        def on_level_done(index, row):
            tracer.close(level_spans.pop(index))
            if progress is not None:
                progress(index, row)

        run_config.build_level_mesh = traced_build
        try:
            return run_convergence(cfg, progress=on_level_done)
        finally:
            run_config.build_level_mesh = build_level_mesh
            tracer.close(span)

    dgsl.cli.run_convergence = traced_run_convergence

    run_property_suite = dgsl.cli.run_property_suite

    def marked_run_property_suite(*args, **kwargs):
        first_op()
        return run_property_suite(*args, **kwargs)

    dgsl.cli.run_property_suite = marked_run_property_suite

    suites = dgsl.properties.SUITES
    if state["suites"] is not None:
        for name in list(suites):
            if name not in state["suites"]:
                del suites[name]
    if tracer:
        for name, check in list(suites.items()):
            suites[name] = _spanned(tracer, f"properties.{name}", check)


def environment():
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def finish(state, tracer):
    report = {"first_op": state["first_op"], "env": environment()}
    if tracer:
        report["trace"] = tracer.aggregate()
        report["counts"] = tracer.counts
        report["bindings"] = state["bindings"]
        report["missing_bindings"] = state["missing"]
        report["spans"] = tracer.spans
    Path(state["result"]).write_text(json.dumps(report))
    if state["mode"] == "setup":
        sys.stdout.flush()
        os._exit(0)


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    state = {"first_op": None, "mode": spec["mode"], "result": spec["result"],
             "suites": spec.get("suites"), "bindings": [], "missing": []}
    tracer = Tracer() if spec.get("trace") else None

    import dgsl.cli

    if tracer:
        state["bindings"], state["missing"] = install_layer_hooks(tracer)
    install_op_hooks(state, tracer)

    if tracer:
        cli_span = tracer.open("cli")
    try:
        code = dgsl.cli.main(spec["argv"])
    finally:
        if tracer:
            tracer.close(cli_span)
    sys.stdout.flush()
    finish(state, tracer)
    return code


if __name__ == "__main__":
    sys.exit(main())
