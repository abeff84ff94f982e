"""Newton iteration for the discrete semilinear system.

Each step solves J(u^k) delta = -residual(u^k) with the exact Jacobian
(stiffness plus N'-weighted mass), then updates u^{k+1} = u^k + alpha
delta where alpha comes from residual-decrease backtracking. The
stiffness, the source at the quadrature points and the block pattern
are set up once per solve in an `assembly.NewtonKernel`; each residual
and Jacobian is then one matrix product against its tables.

This is the one linear path: the first Jacobian of a solve is factored,
and later steps run CG preconditioned by that factor (a lagged
preconditioner). The Jacobians differ only in the mass term, and under
N' >= 0 each is positive definite, so the old factor is a near-exact
SPD preconditioner: CG needs a few iterations where a new factorization
would cost far more. A Jacobian is factored afresh only when CG needs
more than REFACTOR_ITERATIONS iterations. CG keeps its curvature check
and every factor its certificate (assembly's local one, else the
pivots), so either path raises IndefiniteOperator on an indefinite one.
"""

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .assembly import (AssemblyConfig, NewtonKernel, _nonlinear_load,
                       assemble_bilinear)
from .errors import ConfigError, NewtonDiverged, NonFiniteValue, NotConverged
from .linear_solver import solve_spd
from .problems import Problem
from .space import DGSpace, DGVector, interpolate


# CG iterations on a later Jacobian, preconditioned by the factor of an
# earlier one, before that Jacobian is factored itself. The sine problem
# needs 5-6; at P3, n = 64, 25 factor solves cost about one factorization.
REFACTOR_ITERATIONS = 25
# relative residual of every Newton-step linear solve
LINEAR_TOL = 1e-12
# line search: alpha shrinks by this factor, at most this many times
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class NewtonConfig:
    """Tolerances and stepping policy for the Newton loop.

    Convergence is declared on the algebraic residual 2-norm:
    ||residual|| <= max(abs_tol, rel_tol * initial residual).
    `initial_guess` is either "zero" or a scalar field callback whose
    interpolant seeds the iteration.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-12
    max_iterations: int = 25
    damping: bool = True
    initial_guess: object = "zero"

    def __post_init__(self):
        if not (0.0 < self.abs_tol < np.inf and 0.0 < self.rel_tol < np.inf):
            raise ConfigError("tolerances must be positive and finite")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass
class NewtonReport:
    residual_norms: List[float] = field(default_factory=list)
    converged: bool = False
    linear_reports: list = field(default_factory=list)

    @property
    def iterations(self):
        return max(len(self.residual_norms) - 1, 0)


def _check_sign_assumption(kernel, u):
    worst = float(kernel.problem.d_nonlinearity(kernel.point_values(u)).min())
    if worst < -1e-13:
        warnings.warn(
            f"N'(u) dips to {worst:.3e} over the iterate range; the "
            "well-posedness assumption N' >= 0 does not hold here",
            stacklevel=3,
        )


def _lagged_factor_step(jac, rhs, factor):
    """Solve jac delta = rhs by CG preconditioned with `factor`, the
    factor of an earlier Jacobian, or directly when there is none or CG
    exceeds REFACTOR_ITERATIONS. Returns (delta, report, factor to keep).
    """
    if factor is not None:
        try:
            delta, lin = solve_spd(jac, rhs, tol=LINEAR_TOL,
                                   max_iter=REFACTOR_ITERATIONS,
                                   preconditioner=factor.solve)
            return delta, lin, factor
        except NotConverged:
            pass
    delta, lin = solve_spd(jac, rhs, tol=LINEAR_TOL)
    # the Newton report keeps the linear report but not the factor
    factor, lin.factor = lin.factor, None
    return delta, lin, factor


def solve_semilinear(space: DGSpace, problem: Problem, cfg: AssemblyConfig,
                     ncfg: Optional[NewtonConfig] = None):
    """Solve a(u_h, v) = (f(u_h), v) by damped Newton.

    Returns (DGVector, NewtonReport). Raises NewtonDiverged when
    backtracking cannot decrease the residual and NotConverged when the
    iteration budget is exhausted; linear-solver errors propagate.
    """
    ncfg = ncfg or NewtonConfig()
    stiffness = assemble_bilinear(space, cfg)
    kernel = NewtonKernel(space, problem, cfg, stiffness)

    if ncfg.initial_guess == "zero":
        u = np.zeros(space.total_dofs)
    else:
        u = interpolate(space, ncfg.initial_guess).coeffs.copy()

    # the stiffness and the load are called here, not inside the kernel,
    # so that each stays a module-level boundary a profiler can wrap
    def residual(vec):
        return stiffness @ vec - _nonlinear_load(kernel, vec)

    report = NewtonReport()
    factor = None
    res = residual(u)
    res_norm = float(np.linalg.norm(res))
    report.residual_norms.append(res_norm)
    threshold = max(ncfg.abs_tol, ncfg.rel_tol * res_norm)

    for _ in range(ncfg.max_iterations):
        if res_norm <= threshold:
            report.converged = True
            break
        delta, lin, factor = _lagged_factor_step(kernel.jacobian(u), -res,
                                                 factor)
        report.linear_reports.append(lin)

        alpha = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = u + alpha * delta
            try:
                trial_res = residual(trial)
                trial_norm = float(np.linalg.norm(trial_res))
            except NonFiniteValue:
                # an overshooting trial left the callbacks' domain
                if not ncfg.damping:
                    raise
                trial_norm = np.inf
            if trial_norm < res_norm or not ncfg.damping:
                break
            alpha *= BACKTRACK_FACTOR
        else:
            raise NewtonDiverged(
                f"residual stuck at {res_norm:.3e} after "
                f"{MAX_BACKTRACKS} backtracking steps", report=report)

        u, res, res_norm = trial, trial_res, trial_norm
        report.residual_norms.append(res_norm)
    else:
        if res_norm <= threshold:
            report.converged = True

    if not report.converged:
        raise NotConverged(
            f"newton used {ncfg.max_iterations} iterations, residual "
            f"{res_norm:.3e} > {threshold:.3e}", report=report)

    _check_sign_assumption(kernel, u)
    return DGVector(space, u), report
