"""Interior penalty discontinuous Galerkin solver for semilinear
elliptic problems -Delta u = f(x, u) on 2D triangular meshes.

The package is organized bottom-up: meshes and quadrature, reference
bases and discontinuous spaces, operator assembly, linear and Newton
solvers, error analysis, and convergence-study drivers. See README.md
for worked examples.
"""

from . import errors
from .analysis import (apply_bilinear_to_field, dg_error, dg_norm_discrete,
                       elliptic_project, estimate_trace_constant, l2_error,
                       observed_orders)
from .assembly import AssemblyConfig, SparseSymMatrix, assemble_bilinear
from .basis import ReferenceBasis
from .convergence import (ConvergenceReport, ReportRow, RunConfig,
                          run_convergence)
from .linear_solver import LinearSolveReport, solve_spd
from .mesh import (EdgeSet, TriMesh, build_perturbed, build_structured,
                   export_mesh, import_mesh)
from .newton import NewtonConfig, NewtonReport, solve_semilinear
from .problems import ExactSolution, Problem, get_problem, verify_manufactured
from .properties import CheckResult, run_property_suite
from .quadrature import QuadRule, edge_rule, triangle_rule
from .space import DGSpace, DGVector, interpolate

__version__ = "0.1.0"
