"""Mesh-refinement sweeps and their tabulated reports.

A run solves the configured problem on each refinement level, measures
both error norms against the manufactured solution, and builds that
level's row (h, errors, orders against the level before, Newton
iterations, unknown counts) once, when the level is done.
Structured levels report the nominal size 1/n; perturbed and imported
levels report the maximum element diameter. Identical configurations
(including seeds) produce byte-identical CSV output.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .analysis import dg_error, l2_error, observed_orders
from .assembly import AssemblyConfig
from .basis import ReferenceBasis
from .errors import ConfigError, DgslError
from .mesh import (build_perturbed, build_structured, check_grid_args,
                   import_mesh)
from .newton import NewtonConfig, solve_semilinear
from .problems import get_problem
from .space import DGSpace

CSV_HEADER = "h,l2_error,l2_order,dg_error,dg_order,newton_iters,dofs"


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one refinement sweep; construction
    raises ConfigError for any value a run would reject."""

    problem: str = "sine"
    degree: int = 1
    penalty: float = 100.0
    mesh_kind: str = "structured"            # structured | perturbed | files
    levels: Sequence = (16, 32, 64, 128)
    amplitude: float = 0.2
    seed: int = 42
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    volume_degree: Optional[int] = None
    edge_degree: Optional[int] = None
    output_path: Optional[str] = None
    output_format: str = "csv"               # csv | markdown
    # (path, mesh) pairs of a `files` run, parsed when the config is
    # built; a config derived by dataclasses.replace reuses them
    _meshes: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.mesh_kind not in ("structured", "perturbed", "files"):
            raise ConfigError(f"unknown mesh.kind {self.mesh_kind!r}")
        if not self.levels:
            raise ConfigError("level list is empty")
        if self.output_format not in ("csv", "markdown"):
            raise ConfigError(f"unknown output.format {self.output_format!r}")
        out = self.output_path
        if out not in (None, "-") and \
                (Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise ConfigError(f"output.path {out!r} names no file in an "
                              "existing directory")
        # the basis, AssemblyConfig and the quadrature rules own the
        # degree, penalty and quadrature-degree rules
        ReferenceBasis(self.degree)
        self.assembly_config().check_exactness(self.degree)
        try:
            exact = get_problem(self.problem).exact
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        if exact is None:
            raise ConfigError(
                f"problem {self.problem!r} has no exact solution; "
                "convergence runs need a manufactured problem")
        parsed, meshes = dict(self._meshes), []
        for index, level in enumerate(self.levels):
            if self.mesh_kind == "files":
                # parsed now, so a bad file fails before any level runs
                if level not in parsed:
                    try:
                        parsed[level] = import_mesh(Path(str(level)).read_text())
                    except (OSError, DgslError) as exc:
                        raise ConfigError(f"mesh file {level}: {exc}") from exc
                meshes.append((level, parsed[level]))
            elif self.mesh_kind == "perturbed":
                check_grid_args(level, self.amplitude, self.seed + index)
            else:
                check_grid_args(level)
        object.__setattr__(self, "_meshes", tuple(meshes))
        # each level must refine the one before (a perturbed mesh's
        # measured size is checked once its level has run)
        sizes = [mesh.h_max for _, mesh in meshes] or [-n for n in self.levels]
        if any(h2 >= h1 for h1, h2 in zip(sizes, sizes[1:])):
            raise ConfigError(f"mesh.levels {list(self.levels)} do not refine")

    def assembly_config(self):
        return AssemblyConfig(penalty=self.penalty,
                              volume_degree=self.volume_degree,
                              edge_degree=self.edge_degree)

    def build_level_mesh(self, index):
        level = self.levels[index]
        if self.mesh_kind == "structured":
            return build_structured(level)
        if self.mesh_kind == "perturbed":
            return build_perturbed(level, self.amplitude, self.seed + index)
        return self._meshes[index][1]


@dataclass(frozen=True)
class ReportRow:
    h: float
    l2_error: float
    l2_order: Optional[float]
    dg_error: float
    dg_order: Optional[float]
    newton_iters: int
    dofs: int


@dataclass
class ConvergenceReport:
    """Per-level error table of one run."""

    rows: List[ReportRow]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(",".join([
                repr(row.h),
                f"{row.l2_error:.10e}",
                "" if row.l2_order is None else f"{row.l2_order:.4f}",
                f"{row.dg_error:.10e}",
                "" if row.dg_order is None else f"{row.dg_order:.4f}",
                str(row.newton_iters),
                str(row.dofs),
            ]))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        header = ["h", "l2_error", "order", "dg_error", "order"]
        body = [[
            f"{row.h:.6g}",
            f"{row.l2_error:.2e}",
            "--" if row.l2_order is None else f"{row.l2_order:.2f}",
            f"{row.dg_error:.2e}",
            "--" if row.dg_order is None else f"{row.dg_order:.2f}",
        ] for row in self.rows]
        widths = [max(len(header[c]), *(len(r[c]) for r in body))
                  for c in range(len(header))]
        def fmt(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        lines = [fmt(header),
                 "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        lines += [fmt(r) for r in body]
        return "\n".join(lines) + "\n"

    def serialize(self, output_format: str) -> str:
        return self.to_csv() if output_format == "csv" else self.to_markdown()

    def final_orders(self):
        last = self.rows[-1]
        return last.l2_order, last.dg_order


def run_convergence(cfg: RunConfig, progress=None) -> ConvergenceReport:
    """Solve on every level and tabulate errors and observed orders;
    `progress(index, row)` receives each level's ReportRow as it is done."""
    problem = get_problem(cfg.problem)
    acfg = cfg.assembly_config()

    rows = []
    for index in range(len(cfg.levels)):
        mesh = cfg.build_level_mesh(index)
        space = DGSpace(mesh, cfg.degree)
        solution, report = solve_semilinear(space, problem, acfg, cfg.newton)
        e_l2 = l2_error(solution, problem.exact)
        e_dg = dg_error(solution, problem.exact, cfg.penalty)
        l2_order = dg_order = None
        if rows:
            # ConfigError, before the row is reported, if h fails to fall
            prev = rows[-1]
            h = mesh.nominal_h
            l2_order, = observed_orders([(prev.h, prev.l2_error), (h, e_l2)])
            dg_order, = observed_orders([(prev.h, prev.dg_error), (h, e_dg)])
        rows.append(ReportRow(mesh.nominal_h, e_l2, l2_order, e_dg, dg_order,
                              report.iterations, space.total_dofs))
        # the next level's mesh is built without this one's arrays
        del mesh, space, solution
        if progress is not None:
            progress(index, rows[-1])
    return ConvergenceReport(rows)


def sweep_summary(finest_rows) -> dict:
    """Cross-penalty trends of the finest-level errors of a sweep.

    `finest_rows` holds one ReportRow per penalty, in sweep order.
    """
    dg = [row.dg_error for row in finest_rows]
    l2 = [row.l2_error for row in finest_rows]
    return {
        "dg_decreasing": all(a > b for a, b in zip(dg, dg[1:])),
        "l2_increasing": all(a < b for a, b in zip(l2, l2[1:])),
    }
