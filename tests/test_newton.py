"""Newton solver behavior on linear and semilinear problems."""

import dataclasses

import numpy as np
import pytest
from scipy.sparse.linalg import SuperLU

import dgsl
import dgsl.linear_solver
import dgsl.newton
from dgsl import AssemblyConfig, NewtonConfig, solve_semilinear, solve_spd
from dgsl.analysis import l2_norm_discrete
from dgsl.assembly import NewtonKernel
from dgsl.linear_solver import FACTOR_SOLVES
from dgsl.errors import (ConfigError, IndefiniteOperator, NonFiniteValue,
                         NotConverged)
from dgsl.problems import Problem
from dgsl.properties import newton_contraction_slope

from conftest import space_on


def linear_source_problem():
    # f(x, u) = g(x): no u-dependence, so Newton is a single linear solve
    pi = np.pi
    return Problem(
        name="linear-source",
        nonlinearity=lambda u: 0.0 * u,
        d_nonlinearity=lambda u: 0.0 * u,
        source=lambda x, y: 2 * pi ** 2 * np.sin(pi * x) * np.sin(pi * y),
    )


def test_linear_problem_takes_one_step_per_forcing_solve():
    # each step solves only to its forcing term: 1e-3, then 1e-6, then
    # as far as the stopping test needs, so a linear problem takes three
    space = space_on(8, 1)
    cfg = AssemblyConfig(penalty=100.0)
    problem = linear_source_problem()
    u, report = solve_semilinear(space, problem, cfg)
    assert report.converged
    assert report.iterations == 3
    kernel = NewtonKernel(space, problem, cfg)
    exact, _ = solve_spd(kernel.stiffness,
                         -kernel.residual(np.zeros(space.total_dofs)))
    assert np.linalg.norm(u.coeffs - exact) <= 1e-10 * np.linalg.norm(exact)


def test_sine_problem_regression(sine):
    space = space_on(16, 1)
    u, report = solve_semilinear(space, sine, AssemblyConfig(penalty=100.0))
    assert report.converged
    assert report.residual_norms[-1] <= 1e-10
    assert report.iterations <= 8
    # the returned field really solves the discrete system
    res = NewtonKernel(space, sine, AssemblyConfig(penalty=100.0)).residual(
        u.coeffs)
    assert np.linalg.norm(res) <= 1e-9


@pytest.mark.parametrize("n", [8, 16])
def test_quadratic_contraction(sine, n):
    space = space_on(n, 1)
    _, report = solve_semilinear(space, sine, AssemblyConfig(penalty=100.0),
                                 NewtonConfig(abs_tol=1e-12))
    slope = newton_contraction_slope(report.residual_norms)
    assert 1.7 <= slope <= 2.3


def test_residuals_strictly_decrease(sine):
    space = space_on(8, 1)
    _, report = solve_semilinear(space, sine, AssemblyConfig(penalty=100.0))
    norms = report.residual_norms
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_zero_and_interpolant_starts_agree(sine):
    space = space_on(8, 1)
    cfg = AssemblyConfig(penalty=100.0)
    u0, _ = solve_semilinear(space, sine, cfg, NewtonConfig())
    u1, _ = solve_semilinear(space, sine, cfg,
                             NewtonConfig(initial_guess=sine.exact.value))
    gap = l2_norm_discrete(space, dgsl.DGVector(space,
                                                u0.coeffs - u1.coeffs))
    assert gap <= 1e-8


def test_budget_exhaustion_raises(sine, monkeypatch):
    monkeypatch.setattr(dgsl.newton, "MAX_ITERATIONS", 1)
    space = space_on(8, 1)
    with pytest.raises(NotConverged) as excinfo:
        solve_semilinear(space, sine, AssemblyConfig(penalty=100.0))
    assert excinfo.value.report.iterations == 1


def wrong_sign_problem():
    # N'(u) = -1 < 0 breaks the monotonicity assumption, but the
    # Jacobian stays SPD on the unit square (-1 > -2 pi^2)
    return Problem(
        name="wrong-sign",
        nonlinearity=lambda u: -u,
        d_nonlinearity=lambda u: -np.ones_like(u),
        source=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    )


def test_sign_assumption_violation_warns():
    # the solve still runs on a coarse mesh but must warn
    space = space_on(4, 1)
    with pytest.warns(UserWarning, match="N'"):
        solve_semilinear(space, wrong_sign_problem(),
                         AssemblyConfig(penalty=100.0))


def indefinite_problem():
    # N'(u) = -50 makes the Jacobian indefinite
    return Problem(
        name="indefinite",
        nonlinearity=lambda u: -50.0 * u,
        d_nonlinearity=lambda u: -50.0 * np.ones_like(u),
        source=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    )


def test_jacobian_turning_indefinite_is_caught_by_its_pivots(factor_reads):
    # N'(u) = 1 - 3 u^2 is positive at u = 0, so the first Jacobian is
    # covered by the stiffness's certificate and runs PCG; the first step
    # takes u to about 4.8, where N' < 0 and the next Jacobian is
    # indefinite. It is outside the stiffness's proof, so it is factored
    # and its own pivots must say so. (CG's curvature guard is covered by
    # test_small_penalty_operator_is_detected_indefinite.)
    softening = Problem(
        name="softening",
        nonlinearity=lambda u: u - u ** 3,
        d_nonlinearity=lambda u: 1.0 - 3.0 * u ** 2,
        source=lambda x, y: 100.0 * np.sin(np.pi * x) * np.sin(np.pi * y),
    )
    space = space_on(8, 1)
    with pytest.raises(IndefiniteOperator, match="1 negative pivots"):
        solve_semilinear(space, softening, AssemblyConfig(penalty=100.0))
    assert factor_reads == ["U"]


def test_strongly_indefinite_propagates_from_direct_solver():
    # the inertia certificate of the first factorization must say so
    space = space_on(8, 1)
    with pytest.raises(IndefiniteOperator, match="negative pivots"):
        solve_semilinear(space, indefinite_problem(),
                         AssemblyConfig(penalty=100.0))


def counting(monkeypatch, module, name):
    """Record one entry per call of module.name."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def count_factorizations(monkeypatch):
    return counting(monkeypatch, dgsl.linear_solver, "splu")


@pytest.fixture
def count_two_level(monkeypatch):
    return counting(monkeypatch, dgsl.newton, "two_level_preconditioner")


def strip_certificates(monkeypatch):
    """Drop assembly's certificate from every Newton Jacobian, so that
    each goes through the factor and its pivots."""
    monkeypatch.setattr(NewtonKernel, "certifies", lambda self, weighted: False)


def solve_sine(sine, n, r):
    kwargs = {}
    if r == 3:
        kwargs = dict(volume_degree=14, edge_degree=12)
    return solve_semilinear(space_on(n, r), sine,
                            AssemblyConfig(penalty=100.0, **kwargs),
                            NewtonConfig(abs_tol=1e-11))


def assert_close(u, u_ref):
    assert np.linalg.norm(u.coeffs - u_ref.coeffs) \
        <= 1e-10 * np.linalg.norm(u_ref.coeffs)


@pytest.mark.parametrize("n, r", [(16, 1), (8, 3)])
def test_jacobian_factored_once_per_solve(sine, monkeypatch,
                                          count_factorizations,
                                          count_two_level, n, r):
    # a certified solve sets up one two-level preconditioner, and its
    # coarse operator is the only matrix factored
    u, report = solve_sine(sine, n, r)
    assert len(count_two_level) == len(count_factorizations) == 1
    assert [lin.method for lin in report.linear_reports] \
        == ["pcg"] * report.iterations
    # the reports keep no factor alive
    assert not any(isinstance(value, SuperLU) for lin in report.linear_reports
                   for value in vars(lin).values())
    # reference: a fresh factorization of every Jacobian, each solved
    # within the budget of a direct solve; no step runs PCG, so no
    # two-level preconditioner is built
    strip_certificates(monkeypatch)
    u_ref, ref = solve_sine(sine, n, r)
    assert len(count_two_level) == 1
    assert len(count_factorizations) == 1 + ref.iterations
    assert [lin.certificate for lin in ref.linear_reports] \
        == ["pivots"] * ref.iterations
    assert all(lin.iterations <= FACTOR_SOLVES for lin in ref.linear_reports)
    assert report.iterations == ref.iterations
    assert_close(u, u_ref)


class CountingFactor:
    """A SuperLU factor that records every read of its L and U copies,
    each of which makes scipy build both."""

    def __init__(self, lu, reads):
        self._lu = lu
        self._reads = reads

    def __getattr__(self, name):
        if name in ("L", "U"):
            self._reads.append(name)
        return getattr(self._lu, name)


@pytest.fixture
def factor_reads(monkeypatch):
    reads = []
    original = dgsl.linear_solver.splu
    monkeypatch.setattr(dgsl.linear_solver, "splu",
                        lambda *a, **k: CountingFactor(original(*a, **k),
                                                       reads))
    return reads


def test_certified_newton_solve_never_reads_the_factors(sine, factor_reads):
    # the one factor of a certified solve is the two-level coarse operator
    _, report = solve_sine(sine, 4, 3)
    assert report.converged
    # every step ran PCG with the solve's one preconditioner
    assert [lin.certificate for lin in report.linear_reports] \
        == [None] * report.iterations
    assert factor_reads == []


def test_small_penalty_reads_the_pivots_once(sine, factor_reads):
    with pytest.raises(IndefiniteOperator, match="negative pivots"):
        solve_semilinear(space_on(4, 2), sine, AssemblyConfig(penalty=0.01))
    assert factor_reads == ["U"]


def test_preconditioner_built_before_the_first_jacobian(sine, monkeypatch):
    # the step's mass weights decide its certificate, so the two-level
    # set-up never overlaps a live Jacobian
    events = []
    build, jacobian = dgsl.newton.two_level_preconditioner, NewtonKernel.jacobian
    monkeypatch.setattr(dgsl.newton, "two_level_preconditioner",
                        lambda *a: events.append("build") or build(*a))
    monkeypatch.setattr(NewtonKernel, "jacobian",
                        lambda self, *a: events.append("J") or jacobian(self, *a))
    _, report = solve_sine(sine, 8, 2)
    assert events == ["build"] + ["J"] * report.iterations


def test_newton_reports_how_each_factor_was_certified(sine,
                                                    count_two_level):
    _, report = solve_sine(sine, 8, 1)
    certificates = [lin.certificate for lin in report.linear_reports]
    assert certificates == [None] * report.iterations
    assert len(count_two_level) == 1
    # with N' < 0 the stiffness's proof does not cover the Jacobian, so
    # every step is factored and only its pivots show that it is SPD;
    # no step runs PCG, so no two-level preconditioner is built
    with pytest.warns(UserWarning, match="N'"):
        _, report = solve_semilinear(space_on(4, 1), wrong_sign_problem(),
                                     AssemblyConfig(penalty=100.0))
    assert [lin.certificate for lin in report.linear_reports] \
        == ["pivots"] * report.iterations
    assert len(count_two_level) == 1


def test_band_stiffness_is_proven_once_by_its_pivots(sine, monkeypatch,
                                                     factor_reads,
                                                     count_two_level):
    # P1 at penalty 5 is SPD (smallest eigenvalue about 0.05) but not
    # locally certified: its one factor proves it, and every step then
    # runs PCG with the two-level preconditioner built from it
    space, cfg = space_on(8, 1), AssemblyConfig(penalty=5.0)
    assert not dgsl.assemble_bilinear(space, cfg).certified
    ncfg = NewtonConfig(abs_tol=1e-11)
    u, report = solve_semilinear(space, sine, cfg, ncfg)
    assert factor_reads == ["U"]
    assert len(count_two_level) == 1
    assert [(lin.method, lin.certificate) for lin in report.linear_reports] \
        == [("pcg", None)] * report.iterations
    # reference: a fresh factorization of every Jacobian
    strip_certificates(monkeypatch)
    u_ref, ref = solve_semilinear(space, sine, cfg, ncfg)
    assert [(lin.method, lin.certificate) for lin in ref.linear_reports] \
        == [("direct", "pivots")] * ref.iterations
    assert report.iterations == ref.iterations
    assert_close(u, u_ref)


def _nan_at_half(values):
    return np.where(np.asarray(values) > 0.5, np.nan, 0.0)


@pytest.mark.parametrize("callback", ["source", "nonlinearity",
                                      "d_nonlinearity"])
def test_non_finite_callback_raises_named_error(sine, callback):
    if callback == "source":
        broken = lambda x, y: np.where(x > 0.5, np.inf, sine.source(x, y))
    elif callback == "nonlinearity":
        broken = lambda u: u ** 3 + _nan_at_half(u)
    else:
        broken = lambda u: 3.0 * u ** 2 + _nan_at_half(u)
    problem = dataclasses.replace(sine, **{callback: broken})
    space = space_on(8, 1)
    # u = 1 at every quadrature point exposes the u-dependent callbacks
    with pytest.raises(NonFiniteValue):
        solve_semilinear(space, problem, AssemblyConfig(penalty=100.0),
                         NewtonConfig(initial_guess=lambda x, y: 1.0 + 0 * x))


def test_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(abs_tol=0.0)
    for bad in (dict(abs_tol=np.nan), dict(abs_tol=np.inf),
                dict(initial_guess="exact"), dict(initial_guess=1.0)):
        with pytest.raises(ConfigError):
            NewtonConfig(**bad)


def test_backtracking_steps_back_from_non_finite_trial():
    # g = 100 from u = 0: the full first step reaches about 7.3, beyond the
    # domain u <= 4.5 of the guarded N; the solution itself peaks near 4.2
    flat = Problem(name="flat", nonlinearity=lambda u: u ** 3,
                   d_nonlinearity=lambda u: 3.0 * u ** 2,
                   source=lambda x, y: 100.0 + 0.0 * x)
    guarded = dataclasses.replace(
        flat, nonlinearity=lambda u: np.where(u > 4.5, np.nan, u ** 3))
    space = space_on(8, 1)
    cfg = AssemblyConfig(penalty=100.0)
    u_ref, _ = solve_semilinear(space, flat, cfg)
    u, report = solve_semilinear(space, guarded, cfg)
    assert report.converged
    assert np.linalg.norm(u.coeffs - u_ref.coeffs) \
        <= 1e-10 * np.linalg.norm(u_ref.coeffs)
