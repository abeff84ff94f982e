"""Newton iteration for the discrete semilinear system.

Each step solves J(u^k) delta = -residual(u^k) with the exact Jacobian
(stiffness plus N'-weighted mass), then updates u^{k+1} = u^k + alpha
delta where alpha comes from residual-decrease backtracking. The
stiffness, the source at the quadrature points and the block pattern
are set up once per solve in an `assembly.NewtonKernel`; each residual
is then one matrix product against its tables. Each step's Jacobian is
the stiffness itself with its mass blocks added in place: the step's
solve runs inside the kernel's `jacobian` block, which restores the
stiffness exactly, and the residuals and backtracking run after it. The
preconditioner, built from the stiffness before the loop, holds copies
of what it needs.

The paper proves the discrete problem well posed under the sign
assumption N' >= 0, and only there is every Jacobian the stiffness plus
a positive semidefinite mass term, so one proof that the stiffness is
positive definite covers them all. `two_level_preconditioner` gives
that proof and the preconditioner, once per solve, before the loop, and
every step runs one PCG loop (`solve_spd`) with it. Each Jacobian's mass
add checks N'(u_h) >= 0 at every quadrature point and raises
SignAssumptionViolated otherwise, before its step solves anything; the
converged iterate is not checked again. Steps are solved only as far as
Newton needs (inexact Newton, `_forcing_term`); the stopping test reads
the true residual.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .assembly import (AssemblyConfig, NewtonKernel, _nonlinear_load,
                       assemble_bilinear)
from .errors import ConfigError, NewtonDiverged, NonFiniteValue, NotConverged
from .linear_solver import solve_spd, two_level_preconditioner
from .problems import Problem
from .space import DGSpace, DGVector, interpolate, p1_prolongation


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
    """Absolute residual tolerance and start of the Newton loop.

    `initial_guess` is either "zero" or a scalar field callback whose
    interpolant seeds the iteration.
    """

    abs_tol: float = 1e-10
    initial_guess: object = "zero"

    def __post_init__(self):
        if not 0.0 < self.abs_tol < np.inf:
            raise ConfigError("abs_tol must be positive and finite")
        guess = self.initial_guess
        if not (callable(guess) or isinstance(guess, str) and guess == "zero"):
            raise ConfigError("initial_guess must be 'zero' or a callable")


@dataclass
class NewtonReport:
    residual_norms: List[float] = field(default_factory=list)
    converged: bool = False
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


def solve_semilinear(space: DGSpace, problem: Problem, cfg: AssemblyConfig,
                     ncfg: Optional[NewtonConfig] = None):
    """Solve a(u_h, v) = (f(u_h), v) by damped Newton.

    Returns (DGVector, NewtonReport). Raises NewtonDiverged when
    backtracking cannot decrease the residual and NotConverged when
    MAX_ITERATIONS steps do not meet the stopping test; the Jacobian's
    SignAssumptionViolated and linear-solver errors propagate.
    """
    ncfg = ncfg or NewtonConfig()
    stiffness = assemble_bilinear(space, cfg)
    precondition = two_level_preconditioner(stiffness, p1_prolongation(space))
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
    res = residual(u)
    res_norm = first_norm = float(np.linalg.norm(res))
    report.residual_norms.append(res_norm)
    threshold = max(ncfg.abs_tol, REL_TOL * res_norm)

    for _ in range(MAX_ITERATIONS):
        if res_norm <= threshold:
            break
        # J lives in the stiffness's storage until the block ends, so the
        # residuals below run after it
        with kernel.jacobian(u) as jac:
            delta, lin = solve_spd(
                jac, -res, precondition,
                tol=_forcing_term(res_norm, first_norm, threshold))
        report.linear_reports.append(lin)

        alpha = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = u + alpha * delta
            try:
                trial_res = residual(trial)
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

    report.converged = res_norm <= threshold
    if not report.converged:
        raise NotConverged(
            f"newton used {MAX_ITERATIONS} iterations, residual "
            f"{res_norm:.3e} > {threshold:.3e}", report=report)

    return DGVector(space, u), report
