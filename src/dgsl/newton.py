"""Newton iteration for the discrete semilinear system.

Each step solves J(u^k) delta = -residual(u^k) with the exact Jacobian
(stiffness plus N'-weighted mass), then updates u^{k+1} = u^k + alpha
delta where alpha comes from residual-decrease backtracking. The
stiffness, the source at the quadrature points and the block pattern
are set up once per solve in an `assembly.NewtonKernel`; `residual` adds
one matrix product against its tables to the stiffness's. Each step's
Jacobian (`NewtonKernel.jacobian`) holds the stiffness's own couplings
beside new element blocks, the stiffness's plus the mass blocks, and
lives only for the step's solve; the stiffness is never written. The
preconditioner, built from the stiffness and its space before the loop,
keeps the factored continuous P1 coarse matrix and, at r = 1, the
inverses of the stiffness's element blocks; at r >= 2 it keeps the
inverse diagonal of the stiffness and the float32 inverses of its
vertex-patch blocks on continuous P_r, with the node map that gathers
them. It reads P^T through a view of P. The coarse solve keeps the step
counts flat in h, the patches in the penalty.

The paper proves the discrete problem well posed under the sign
assumption N' >= 0, and only there is every Jacobian the stiffness plus
a positive semidefinite mass term, so one proof that the stiffness is
positive definite covers them all. `two_level_preconditioner` gives
that proof and the preconditioner, once per solve, before the loop, and
every step runs one PCG loop (`solve_spd`) with it. Each Jacobian
checks N'(u_h) >= 0 at every quadrature point and raises
SignAssumptionViolated otherwise, before its step solves anything, and
the converged iterate, which no Jacobian is built at, is swept once
more by the same check. Steps are solved only as far as
Newton needs (inexact Newton, `_forcing_term`); the stopping test reads
the true residual. A solve that stops short raises NotConverged or
NewtonDiverged, so every returned report is that of a converged solve.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .assembly import (AssemblyConfig, NewtonKernel, _nonlinear_load,
                       assemble_bilinear)
from .errors import ConfigError, NewtonDiverged, NonFiniteValue, NotConverged
from .linear_solver import solve_spd, two_level_preconditioner
from .problems import Problem
from .space import DGSpace, DGVector


# stopping test: ||residual|| <= max(abs_tol, REL_TOL * initial residual),
# within at most MAX_ITERATIONS steps
REL_TOL = 1e-12
MAX_ITERATIONS = 25
# bounds of the forcing terms
LINEAR_TOL = 1e-12
FORCING_MAX = 1e-3
FORCING_SAFETY = 0.1
# line search: alpha shrinks by this factor, at most this many times
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class NewtonConfig:
    """Absolute residual tolerance of the Newton loop."""

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.abs_tol < np.inf:
            raise ConfigError("abs_tol must be positive and finite")


@dataclass
class NewtonReport:
    residual_norms: List[float] = field(default_factory=list)
    linear_reports: list = field(default_factory=list)

    @property
    def iterations(self):
        return max(len(self.residual_norms) - 1, 0)


def _forcing_term(res_norm, first_norm, threshold):
    """Relative tolerance of the step from residual `res_norm`: quadratic
    in the residual reduction, so Newton stays quadratic, but no tighter
    than the stopping `threshold` needs (Eisenstat & Walker, SISC 1996)."""
    return max(LINEAR_TOL, min(FORCING_MAX, max(
        (res_norm / first_norm) ** 2, FORCING_SAFETY * threshold / res_norm)))


def residual(kernel: NewtonKernel, u: np.ndarray) -> np.ndarray:
    """a(u_h, phi_i) - (f(., u_h), phi_i); outside the kernel, so that a
    profiler can wrap the load it calls."""
    return kernel.stiffness @ u - _nonlinear_load(kernel, u)


def solve_semilinear(space: DGSpace, problem: Problem, cfg: AssemblyConfig,
                     ncfg: Optional[NewtonConfig] = None,
                     start: Optional[DGVector] = None):
    """Solve a(u_h, v) = (f(u_h), v) by damped Newton from the field
    `start` on `space`, or from zero when it is None.

    Returns (DGVector, NewtonReport). Raises NewtonDiverged when
    backtracking cannot decrease the residual and NotConverged when
    MAX_ITERATIONS steps do not meet the stopping test, and
    SignAssumptionViolated when a Jacobian's iterate or the converged
    one has N'(u_h) < 0 somewhere; linear-solver errors propagate.
    """
    ncfg = ncfg or NewtonConfig()
    stiffness = assemble_bilinear(space, cfg)
    precondition = two_level_preconditioner(stiffness, space)
    kernel = NewtonKernel(space, problem, cfg, stiffness)

    u = np.zeros(space.total_dofs) if start is None \
        else DGVector(space, start.coeffs).coeffs.copy()

    report = NewtonReport()
    res = residual(kernel, u)
    res_norm = first_norm = float(np.linalg.norm(res))
    report.residual_norms.append(res_norm)
    threshold = max(ncfg.abs_tol, REL_TOL * res_norm)

    for _ in range(MAX_ITERATIONS):
        if res_norm <= threshold:
            break
        delta, lin = solve_spd(
            kernel.jacobian(u), -res, precondition,
            tol=_forcing_term(res_norm, first_norm, threshold))
        report.linear_reports.append(lin)

        alpha = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = u + alpha * delta
            try:
                trial_res = residual(kernel, trial)
                trial_norm = float(np.linalg.norm(trial_res))
            except NonFiniteValue:
                # an overshooting trial left the callbacks' domain
                trial_norm = np.inf
            if trial_norm < res_norm:
                break
            alpha *= BACKTRACK_FACTOR
        else:
            raise NewtonDiverged(
                f"residual stuck at {res_norm:.3e} after "
                f"{MAX_BACKTRACKS} backtracking steps", report=report)

        u, res, res_norm = trial, trial_res, trial_norm
        report.residual_norms.append(res_norm)

    if res_norm > threshold:
        raise NotConverged(
            f"newton used {MAX_ITERATIONS} iterations, residual "
            f"{res_norm:.3e} > {threshold:.3e}", report=report)
    kernel.check_sign(u)

    return DGVector(space, u), report
