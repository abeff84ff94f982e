"""Newton solver behavior on linear and semilinear problems."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import SuperLU, spsolve

import dgsl
import dgsl.linear_solver
import dgsl.newton
from dgsl import (AssemblyConfig, NewtonConfig, assemble_bilinear,
                  solve_semilinear)
from dgsl.analysis import l2_norm_discrete
from dgsl.assembly import NewtonKernel
from dgsl.linear_solver import LinearSolveReport
from dgsl.errors import (ConfigError, IndefiniteOperator, NewtonDiverged,
                         NonFiniteValue, NotConverged, SignAssumptionViolated)
from dgsl.problems import Problem
from dgsl.properties import newton_contraction_slope

from conftest import counting, space_on


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
    exact = spsolve(kernel.stiffness.csr.tocsc(),
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
    # N'(u) = -1 < 0 breaks the monotonicity assumption, though the
    # Jacobian stays SPD on the unit square (-1 > -2 pi^2)
    return Problem(
        name="wrong-sign",
        nonlinearity=lambda u: -u,
        d_nonlinearity=lambda u: -np.ones_like(u),
        source=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    )


def indefinite_problem():
    # N'(u) = -50 makes the Jacobian indefinite
    return Problem(
        name="indefinite",
        nonlinearity=lambda u: -50.0 * u,
        d_nonlinearity=lambda u: -50.0 * np.ones_like(u),
        source=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    )


@pytest.fixture
def count_solves(monkeypatch):
    return counting(monkeypatch, dgsl.newton, "solve_spd")


def assert_stopped_before_solving(problem, n, value, solves, factorizations):
    # the first Jacobian's mass add names element 0 and its N', before
    # the step solves anything; the one factor is the two-level coarse one
    with pytest.raises(SignAssumptionViolated,
                       match=rf"N'\(u_h\) = {value} < 0 on element 0;"):
        solve_semilinear(space_on(n, 1), problem,
                         AssemblyConfig(penalty=100.0))
    assert solves == []
    assert len(factorizations) == 1


def test_sign_assumption_violation_warns(count_solves, count_factorizations):
    # outside N' >= 0 the solve stops, even though this Jacobian is SPD
    assert_stopped_before_solving(wrong_sign_problem(), 4,
                                  r"-1\.000000e\+00", count_solves,
                                  count_factorizations)


def test_jacobian_turning_indefinite_is_caught_by_its_pivots(factor_reads,
                                                              count_solves):
    # N'(u) = 1 - 3 u^2 is positive at u = 0, so the first step runs; it
    # takes u to about 4.8, where N' < 0 and the next Jacobian would be
    # indefinite. Its mass add stops it before any pivot is read. (CG's
    # curvature guard is covered by
    # test_small_penalty_operator_is_detected_indefinite.)
    softening = Problem(
        name="softening",
        nonlinearity=lambda u: u - u ** 3,
        d_nonlinearity=lambda u: 1.0 - 3.0 * u ** 2,
        source=lambda x, y: 100.0 * np.sin(np.pi * x) * np.sin(np.pi * y),
    )
    space = space_on(8, 1)
    with pytest.raises(SignAssumptionViolated, match="< 0 on element"):
        solve_semilinear(space, softening, AssemblyConfig(penalty=100.0))
    assert len(count_solves) == 1
    assert factor_reads == []


def test_strongly_indefinite_propagates_from_direct_solver(
        count_solves, count_factorizations):
    # N' = -50 < 0 everywhere: the first Jacobian stops at its mass add
    assert_stopped_before_solving(indefinite_problem(), 8,
                                  r"-5\.000000e\+01", count_solves,
                                  count_factorizations)


@pytest.fixture
def count_factorizations(monkeypatch):
    return counting(monkeypatch, dgsl.linear_solver, "splu")


@pytest.fixture
def count_two_level(monkeypatch):
    return counting(monkeypatch, dgsl.newton, "two_level_preconditioner")


def direct_steps(monkeypatch):
    """Solve every Newton step exactly with scipy's sparse direct solver,
    as a reference for the preconditioned route."""
    monkeypatch.setattr(
        dgsl.newton, "solve_spd", lambda a, b, *args, **kwargs:
        (spsolve(a.csr.tocsc(), b), LinearSolveReport(1, 0.0, True)))


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
    # reference: every step solved exactly by a sparse direct solver
    direct_steps(monkeypatch)
    u_ref, ref = solve_sine(sine, n, r)
    assert report.iterations == ref.iterations
    assert_close(u, u_ref)


def test_certified_newton_solve_never_reads_the_factors(sine, factor_reads):
    # the one factor of a certified solve is the two-level coarse operator
    _, report = solve_sine(sine, 4, 3)
    assert report.converged
    # every step ran PCG with the solve's one preconditioner
    assert [lin.method for lin in report.linear_reports] \
        == ["pcg"] * report.iterations
    assert factor_reads == []


def test_small_penalty_reads_the_pivots_once(sine, factor_reads):
    with pytest.raises(IndefiniteOperator, match="negative pivots"):
        solve_semilinear(space_on(4, 2), sine, AssemblyConfig(penalty=0.01))
    assert factor_reads == ["U"]


def test_preconditioner_built_before_the_first_jacobian(sine, monkeypatch):
    # the solve's one preconditioner is built from the stiffness before
    # its loop: inside each step's Jacobian block the storage holds J
    events = []
    build, jacobian = dgsl.newton.two_level_preconditioner, NewtonKernel.jacobian
    monkeypatch.setattr(dgsl.newton, "two_level_preconditioner",
                        lambda *a: events.append("build") or build(*a))
    monkeypatch.setattr(NewtonKernel, "jacobian",
                        lambda self, *a: events.append("J") or jacobian(self, *a))
    _, report = solve_sine(sine, 8, 2)
    assert events == ["build"] + ["J"] * report.iterations


@pytest.fixture
def kernels(monkeypatch):
    """Every NewtonKernel the solver builds, in order."""
    built = []

    def build(*args):
        built.append(NewtonKernel(*args))
        return built[-1]

    monkeypatch.setattr(dgsl.newton, "NewtonKernel", build)
    return built


def test_stiffness_is_bit_identical_after_a_solve(sine, kernels):
    # each step adds its mass blocks into the stiffness and copies the
    # saved blocks back, also when the mass add stops at N' < 0
    space, cfg = space_on(4, 2), AssemblyConfig(penalty=100.0)
    assembled = assemble_bilinear(space, cfg).csr.data.tobytes()
    solve_semilinear(space, sine, cfg)
    with pytest.raises(SignAssumptionViolated):
        solve_semilinear(space, wrong_sign_problem(), cfg)
    assert len(kernels) == 2
    for kernel in kernels:
        assert kernel.stiffness.csr.data.tobytes() == assembled


def test_stiffness_is_restored_when_a_step_raises(sine, kernels, monkeypatch):
    space, cfg = space_on(4, 2), AssemblyConfig(penalty=100.0)
    assembled = assemble_bilinear(space, cfg).csr.data.tobytes()
    inside = []

    def failing(a, b, *args, **kwargs):
        # the step's J is the stiffness's own storage, mass added
        stiffness = kernels[0].stiffness.csr
        inside.append(a.csr is stiffness
                      and stiffness.data.tobytes() != assembled)
        raise NotConverged("patched", report=LinearSolveReport(0, 1.0, False))

    monkeypatch.setattr(dgsl.newton, "solve_spd", failing)
    with pytest.raises(NotConverged, match="patched"):
        solve_semilinear(space, sine, cfg,
                         NewtonConfig(initial_guess=sine.exact.value))
    assert inside == [True]
    assert kernels[0].stiffness.csr.data.tobytes() == assembled


def test_newton_loop_peak_stays_within_its_matrix(sine, monkeypatch):
    # the traced peak growth of the Newton loop over its built kernel, at
    # perfbench's P3 settings; a copy of the stiffness per step made it
    # 1.73x the matrix, the step in place about 0.6x, and the mass
    # weights built chunk by chunk 0.53x
    space = dgsl.DGSpace(dgsl.build_perturbed(64, 0.2, 42), 3)
    cfg = AssemblyConfig(penalty=100.0, volume_degree=14, edge_degree=12)
    built = []

    def traced(*args):
        built.append(NewtonKernel(*args))
        tracemalloc.start()
        return built[-1]

    monkeypatch.setattr(dgsl.newton, "NewtonKernel", traced)
    try:
        _, report = solve_semilinear(space, sine, cfg,
                                     NewtonConfig(abs_tol=1e-11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    a = built[0].stiffness.csr
    matrix = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert report.iterations == 4
    assert peak <= 1.0 * matrix, peak / matrix


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
    assert [lin.method for lin in report.linear_reports] \
        == ["pcg"] * report.iterations
    # reference: every step solved exactly by a sparse direct solver
    direct_steps(monkeypatch)
    u_ref, ref = solve_semilinear(space, sine, cfg, ncfg)
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


def test_newton_diverged_when_no_step_lowers_the_residual(sine, uphill_steps):
    with pytest.raises(NewtonDiverged, match="after 30 backtracking steps") \
            as info:
        solve_semilinear(space_on(4, 1), sine, AssemblyConfig(penalty=100.0))
    report = info.value.report
    assert len(report.residual_norms) == 1
    assert len(report.linear_reports) == 1
    assert not report.converged
