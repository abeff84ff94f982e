"""Linear solver contract: residual bound, determinism, indefiniteness
detection, and the proof that comes with the two-level preconditioner."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.linalg import eigvalsh
from scipy.sparse.linalg import spsolve

import dgsl
from dgsl import (AssemblyConfig, assemble_bilinear,
                  block_jacobi_preconditioner, solve_spd)
from dgsl import linear_solver
from dgsl.linear_solver import two_level_preconditioner
from dgsl.space import p1_prolongation
from dgsl.assembly import NewtonKernel, SparseSymMatrix
from dgsl.errors import DgslError, IndefiniteOperator, NotConverged, \
    SingularOperator

from conftest import counting, space_on


def as_matrix(dense, block_size):
    """A hand-made operator in the block form assembly produces."""
    return SparseSymMatrix(sparse.bsr_matrix(
        np.asarray(dense), blocksize=(block_size, block_size)))


def direct_reference(a, b):
    """x with a x = b from scipy's sparse direct solver."""
    return spsolve(a.csr.tocsc(), b)


def two_level(a, space):
    return two_level_preconditioner(a, p1_prolongation(space))


def test_diagonal_system_solved_exactly(rng):
    d = rng.uniform(0.5, 4.0, 12)
    b = rng.standard_normal(12)
    a = as_matrix(np.diag(d), 3)
    x, report = solve_spd(a, b, block_jacobi_preconditioner(a), tol=1e-14)
    assert report.converged and report.iterations == 1
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
    for build in (block_jacobi_preconditioner, lambda a: two_level(a, space)):
        x1, r1 = solve_spd(a, b, build(a), tol=1e-12)
        x2, r2 = solve_spd(a, b, build(a), tol=1e-12)
        assert x1.tobytes() == x2.tobytes()
        assert r1.iterations == r2.iterations


def test_direct_and_pcg_agree(rng):
    space = space_on(3, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    x_ref = direct_reference(a, b)
    assert np.linalg.norm(x_ref - np.linalg.solve(a.csr.toarray(), b)) \
        <= 1e-12 * np.linalg.norm(x_ref)
    for precondition in (block_jacobi_preconditioner(a), two_level(a, space)):
        x, report = solve_spd(a, b, precondition, tol=1e-13)
        assert report.converged and report.method == "pcg"
        assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


class CountingMatrix(SparseSymMatrix):
    """A SparseSymMatrix that counts its `max_abs` reads."""

    max_abs_reads = 0

    def max_abs(self):
        self.max_abs_reads += 1
        return super().max_abs()


def test_pcg_solve_accepted_at_rounding_floor(sine):
    # at penalty 2000 the Newton system's residual cannot reach 1e-12 in
    # double precision; the backward-error test must accept it, reading
    # max |a_ij| once
    space = space_on(16, 1)
    kernel = NewtonKernel(space, sine, AssemblyConfig(penalty=2000.0))
    u = np.zeros(kernel.stiffness.dim)
    a = CountingMatrix(kernel.jacobian(u).csr)
    b = -kernel.residual(u)
    x, report = solve_spd(a, b, two_level(kernel.stiffness, space), tol=1e-12)
    assert report.converged
    assert report.relative_residual > 1e-12
    assert a.max_abs_reads == 1
    x_ref = direct_reference(a, b)
    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_budget_exhaustion_raises_with_report(rng):
    space = space_on(4, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    with pytest.raises(NotConverged) as excinfo:
        solve_spd(a, b, block_jacobi_preconditioner(a), tol=1e-13, max_iter=3)
    report = excinfo.value.report
    assert report is not None and not report.converged
    assert report.iterations == 3
    assert excinfo.value.x is not None


def test_zero_rhs_short_circuits():
    space = space_on(2, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=10.0))
    x, report = solve_spd(a, np.zeros(a.dim), block_jacobi_preconditioner(a))
    assert not x.any()
    assert report.converged and report.iterations == 0


def test_shape_mismatch_rejected():
    space = space_on(2, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=10.0))
    with pytest.raises(ValueError):
        solve_spd(a, np.zeros(a.dim + 1), block_jacobi_preconditioner(a))


def test_singular_matrix_raises_named_error(rng):
    dense = np.diag(rng.uniform(0.5, 4.0, 6))
    dense[2, 2] = 0.0  # a zero row makes the matrix exactly singular
    with pytest.raises(SingularOperator) as excinfo:
        linear_solver.symmetric_factor(as_matrix(dense, 2))
    assert isinstance(excinfo.value, DgslError)
    # the preconditioner proves an uncertified matrix by that factor first
    with pytest.raises(SingularOperator):
        two_level_preconditioner(as_matrix(dense, 2),
                                 sparse.identity(6, format="csr"))


def test_small_penalty_operator_is_detected_indefinite_by_direct_solver():
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=0.01))
    negative = int((eigvalsh(a.csr.toarray()) < 0).sum())
    assert negative > 0 and not a.certified
    # Sylvester's law of inertia: one negative pivot per negative eigenvalue
    with pytest.raises(IndefiniteOperator,
                       match=f"met {negative} negative pivots"):
        linear_solver.symmetric_factor(a)
    # the preconditioner reads the pivots before its block-Jacobi
    # Cholesky, which would fail on a diagonal block here
    with pytest.raises(IndefiniteOperator,
                       match=f"met {negative} negative pivots"):
        two_level(a, space)
    with pytest.raises(IndefiniteOperator, match="diagonal block"):
        block_jacobi_preconditioner(a)


def test_symmetric_factor_is_certified_and_returned(rng, factor_reads):
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    assert a.certified
    lu = linear_solver.symmetric_factor(a)
    assert factor_reads == []       # a certified matrix's pivots stay unread
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert (lu.U.diagonal() > 0).all()
    # the returned factor solves the system, and so does the factor of
    # the same matrix without assembly's verdict, whose pivots are read
    x_ref = direct_reference(a, b)
    assert np.linalg.norm(lu.solve(b) - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    factor_reads.clear()
    proven = linear_solver.symmetric_factor(SparseSymMatrix(a.csr))
    assert factor_reads == ["U"]
    assert proven.solve(b).tobytes() == lu.solve(b).tobytes()


def test_two_level_preconditioner_proves_an_uncertified_matrix(
        rng, monkeypatch, factor_reads):
    # the proof is one fine factor whose pivots are read; it changes
    # nothing in the preconditioner built afterwards
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    r = rng.standard_normal(a.dim)
    factors = counting(monkeypatch, linear_solver, "splu")
    certified = two_level(a, space)(r)
    assert (len(factors), factor_reads) == (1, [])
    uncertified = two_level(SparseSymMatrix(a.csr), space)(r)
    assert (len(factors), factor_reads) == (3, ["U"])
    assert uncertified.tobytes() == certified.tobytes()


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
    b = rng.standard_normal(jac.dim)
    x_dir = direct_reference(jac, b)
    # Newton's preconditioner: built from the stiffness, applied to J
    x, report = solve_spd(jac, b, two_level(kernel.stiffness, space), tol=1e-12)
    assert report.converged and report.method == "pcg"
    assert np.linalg.norm(x - x_dir) <= 1e-9 * np.linalg.norm(x_dir)


def test_symmetric_factor_rejects_an_off_diagonal_pivot():
    # the zero diagonal of [[0, 1], [1, 0]] forces a row exchange
    swap = sparse.bsr_matrix(sparse.block_diag(
        [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]), blocksize=(2, 2))
    with pytest.raises(IndefiniteOperator, match="off-diagonal pivot"):
        linear_solver.symmetric_factor(SparseSymMatrix(swap))


def test_solve_spd_rejects_an_indefinite_preconditioner():
    a = assemble_bilinear(space_on(2, 1), AssemblyConfig(penalty=100.0))
    b = np.ones(a.dim)
    with pytest.raises(IndefiniteOperator,
                       match="preconditioned residual product"):
        linear_solver.solve_spd(a, b, lambda r: -r)
