"""Linear solver contract: residual bound, determinism, indefiniteness
detection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.linalg import eigvalsh

import dgsl
from dgsl import (AssemblyConfig, assemble_bilinear,
                  block_jacobi_preconditioner, solve_spd)
from dgsl import linear_solver
from dgsl.linear_solver import two_level_preconditioner
from dgsl.space import p1_prolongation
from dgsl.assembly import NewtonKernel, SparseSymMatrix
from dgsl.linear_solver import FACTOR_SOLVES
from dgsl.errors import DgslError, IndefiniteOperator, NotConverged, \
    SingularOperator

from conftest import space_on


def as_matrix(dense, block_size):
    """A hand-made operator in the block form assembly produces."""
    return SparseSymMatrix(sparse.bsr_matrix(
        np.asarray(dense), blocksize=(block_size, block_size)))


def test_diagonal_system_solved_exactly(rng):
    d = rng.uniform(0.5, 4.0, 12)
    b = rng.standard_normal(12)
    a = as_matrix(np.diag(d), 3)
    for preconditioner in (None, block_jacobi_preconditioner(a)):
        x, report = solve_spd(a, b, tol=1e-14, preconditioner=preconditioner)
        assert report.converged
        assert_allclose(x, b / d, rtol=1e-14)


def test_manufactured_spd_system(rng):
    space = space_on(4, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    x_star = rng.standard_normal(a.dim)
    b = a @ x_star
    x, report = solve_spd(a, b, tol=1e-10,
                          preconditioner=block_jacobi_preconditioner(a))
    assert report.converged and report.method == "pcg"
    assert np.linalg.norm(x - x_star) <= 1e-8 * np.linalg.norm(x_star)
    assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)


def test_small_penalty_operator_is_detected_indefinite(rng):
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=0.01))
    # oracle: the operator genuinely has negative eigenvalues here
    assert eigvalsh(a.csr.toarray()).min() < 0
    # an SPD preconditioner (from the well-posed operator), so that CG's
    # own curvature check must catch it
    spd = block_jacobi_preconditioner(
        assemble_bilinear(space, AssemblyConfig(penalty=100.0)))
    with pytest.raises(IndefiniteOperator, match="non-positive curvature"):
        solve_spd(a, rng.standard_normal(a.dim), preconditioner=spd)


def test_determinism_bitwise(rng):
    space = space_on(3, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    x1, r1 = solve_spd(a, b, tol=1e-12,
                       preconditioner=block_jacobi_preconditioner(a))
    x2, r2 = solve_spd(a, b, tol=1e-12,
                       preconditioner=block_jacobi_preconditioner(a))
    assert x1.tobytes() == x2.tobytes()
    assert r1.iterations == r2.iterations
    xd1, _ = solve_spd(a, b)
    xd2, _ = solve_spd(a, b)
    assert xd1.tobytes() == xd2.tobytes()


def test_direct_and_pcg_agree(rng):
    space = space_on(3, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    x_pcg, r_pcg = solve_spd(a, b, tol=1e-13,
                             preconditioner=block_jacobi_preconditioner(a))
    x_dir, r_dir = solve_spd(a, b)
    assert (r_pcg.method, r_dir.method) == ("pcg", "direct")
    x_ref = np.linalg.solve(a.csr.toarray(), b)
    for x in (x_pcg, x_dir):
        assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


class CountingMatrix(SparseSymMatrix):
    """A SparseSymMatrix that counts its `max_abs` reads."""

    max_abs_reads = 0

    def max_abs(self):
        self.max_abs_reads += 1
        return super().max_abs()


def test_factored_solve_accepted_at_rounding_floor(sine):
    # at penalty 2000 the Newton system's residual cannot reach 1e-12 in
    # double precision; the backward-error test must accept it within
    # the factored solve's budget
    kernel = NewtonKernel(space_on(16, 1), sine, AssemblyConfig(penalty=2000.0))
    u = np.zeros(kernel.stiffness.dim)
    jac = kernel.jacobian(u)
    a = CountingMatrix(jac.csr, jac.certified)
    b = -kernel.residual(u)
    x, report = solve_spd(a, b, tol=1e-12)
    assert report.method == "direct" and report.converged
    assert report.relative_residual > 1e-12
    assert report.iterations <= FACTOR_SOLVES
    assert a.max_abs_reads == 1
    x_ref = np.linalg.solve(a.csr.toarray(), b)
    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_factored_solve_stops_after_its_factor_solve_budget(rng, monkeypatch):
    # a factor of the wrong matrix leaves CG far from converged after
    # FACTOR_SOLVES iterations, where an unbounded CG would go on
    space = space_on(4, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=1000.0))
    wrong = linear_solver.symmetric_factor(
        assemble_bilinear(space, AssemblyConfig(penalty=10.0)))
    solves = []

    class Factor:
        def solve(self, r):
            solves.append(r)
            return wrong.solve(r)

    monkeypatch.setattr(linear_solver, "symmetric_factor",
                        lambda matrix: Factor())
    with pytest.raises(NotConverged) as excinfo:
        solve_spd(a, rng.standard_normal(a.dim), tol=1e-12)
    report = excinfo.value.report
    assert (report.method, report.certificate) == ("direct", "local")
    assert report.iterations == FACTOR_SOLVES == len(solves)
    assert not report.converged and report.relative_residual > 1e-6


def test_budget_exhaustion_raises_with_report(rng):
    space = space_on(4, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    with pytest.raises(NotConverged) as excinfo:
        solve_spd(a, b, tol=1e-13, max_iter=3,
                  preconditioner=block_jacobi_preconditioner(a))
    report = excinfo.value.report
    assert report is not None and not report.converged
    assert report.iterations == 3
    assert excinfo.value.x is not None


def test_zero_rhs_short_circuits():
    space = space_on(2, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=10.0))
    x, report = solve_spd(a, np.zeros(a.dim))
    assert not x.any()
    assert report.converged and report.iterations == 0


def test_shape_mismatch_rejected():
    space = space_on(2, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=10.0))
    with pytest.raises(ValueError):
        solve_spd(a, np.zeros(a.dim + 1))


def test_singular_matrix_raises_named_error(rng):
    dense = np.diag(rng.uniform(0.5, 4.0, 6))
    dense[2, 2] = 0.0  # a zero row makes the matrix exactly singular
    with pytest.raises(SingularOperator) as excinfo:
        solve_spd(as_matrix(dense, 2), rng.standard_normal(6))
    assert isinstance(excinfo.value, DgslError)


def test_small_penalty_operator_is_detected_indefinite_by_direct_solver(rng):
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=0.01))
    negative = int((eigvalsh(a.csr.toarray()) < 0).sum())
    assert negative > 0
    with pytest.raises(IndefiniteOperator) as excinfo:
        solve_spd(a, rng.standard_normal(a.dim))
    # Sylvester's law of inertia: one negative pivot per negative eigenvalue
    assert f"met {negative} negative pivots" in str(excinfo.value)
    assert not a.certified


def test_symmetric_factor_is_certified_and_returned(rng):
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    x, report = solve_spd(a, b)
    assert report.method == "direct"
    assert a.certified and report.certificate == "local"
    lu = linear_solver.symmetric_factor(a)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert (lu.U.diagonal() > 0).all()
    # the returned factor solves the same system
    assert np.linalg.norm(lu.solve(b) - x) <= 1e-10 * np.linalg.norm(x)


def test_report_names_how_the_factor_was_certified(rng):
    a = assemble_bilinear(space_on(3, 1), AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    # the same matrix without assembly's verdict falls back to its pivots
    uncertified = SparseSymMatrix(a.csr)
    x_local, local = solve_spd(a, b)
    x_pivots, pivots = solve_spd(uncertified, b)
    assert (local.certificate, pivots.certificate) == ("local", "pivots")
    assert x_local.tobytes() == x_pivots.tobytes()
    _, cg = solve_spd(a, b, preconditioner=block_jacobi_preconditioner(a))
    assert cg.certificate is None


@pytest.mark.parametrize("r", [1, 2, 3])
def test_block_jacobi_blocks_match_dense_slices(sine, r, rng):
    mesh = dgsl.build_perturbed(4, 0.2, seed=3)
    space = dgsl.DGSpace(mesh, r)
    # a Newton Jacobian: the mass weight N'(u) = 3 u^2 varies in space
    kernel = NewtonKernel(space, sine, AssemblyConfig(penalty=100.0))
    a = kernel.jacobian(rng.standard_normal(space.total_dofs))
    d = space.dofs_per_element
    nblocks = a.dim // d
    dense = a.csr.toarray()
    blocks = np.stack([dense[b * d:(b + 1) * d, b * d:(b + 1) * d]
                       for b in range(nblocks)])
    apply = block_jacobi_preconditioner(a)
    # column j of every inverse block at once: a unit vector in each block
    columns = np.stack([apply(np.tile(np.eye(d)[j], nblocks)).reshape(nblocks, d)
                        for j in range(d)], axis=-1)
    assert_allclose(columns, np.linalg.inv(blocks), rtol=1e-13, atol=0)


def two_level(a, space):
    return two_level_preconditioner(a, p1_prolongation(space))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_two_level_preconditioner_is_spd(r):
    space = dgsl.DGSpace(dgsl.build_perturbed(3, 0.2, seed=1), r)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    dense = np.column_stack([two_level(a, space)(e) for e in np.eye(a.dim)])
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    assert eigvalsh(dense).min() > 0.0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_two_level_pcg_agrees_with_direct_solve(sine, rng, r):
    space = dgsl.DGSpace(dgsl.build_perturbed(8, 0.2, seed=2), r)
    kernel = NewtonKernel(space, sine, AssemblyConfig(penalty=100.0))
    jac = kernel.jacobian(rng.standard_normal(space.total_dofs))
    assert jac.certified
    b = rng.standard_normal(jac.dim)
    x_dir, direct = solve_spd(jac, b)
    x, report = solve_spd(jac, b, tol=1e-12,
                          preconditioner=two_level(jac, space))
    assert (direct.method, report.method) == ("direct", "pcg")
    assert np.linalg.norm(x - x_dir) <= 1e-9 * np.linalg.norm(x_dir)
