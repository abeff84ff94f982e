"""Linear solver contract: residual bound, determinism, indefiniteness
detection, and the proof that comes with the two-level preconditioner."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.linalg import eigvalsh
from scipy.sparse.linalg import spsolve

import dgsl
from dgsl import AssemblyConfig, assemble_bilinear, solve_spd
from dgsl import linear_solver
from dgsl.linear_solver import two_level_preconditioner
from dgsl.space import conforming_nodes, p1_prolongation
from dgsl.assembly import NewtonKernel, SparseSymMatrix
from dgsl.newton import residual
from dgsl.errors import DgslError, IndefiniteOperator, NotConverged, \
    SingularOperator

from conftest import MESH_KINDS, counting, matrix_bytes, space_on


def as_matrix(dense, block_size):
    """A hand-made operator in the two-part block form assembly
    produces: its diagonal blocks, and the rest as couplings."""
    dense = np.asarray(dense)
    blocks = np.stack([dense[i:i + block_size, i:i + block_size]
                       for i in range(0, len(dense), block_size)])
    block_diagonal = dgsl.assembly._block_diagonal(blocks)
    couplings = sparse.bsr_matrix(dense - block_diagonal.toarray(),
                                  blocksize=(block_size, block_size))
    return SparseSymMatrix(couplings, block_diagonal)


def block_jacobi(a):
    """r -> B r for B the exact inverses of the element blocks of `a`,
    applied as the preconditioner applies them at r = 1."""
    inverse = np.linalg.inv(a.diagonal.data)
    return lambda r: np.einsum("bij,bj->bi", inverse,
                               r.reshape(len(inverse), -1)).ravel()


def direct_reference(a, b):
    """x with a x = b from scipy's sparse direct solver."""
    return spsolve(a.full().tocsc(), b)


def test_diagonal_system_solved_exactly(rng):
    d = rng.uniform(0.5, 4.0, 12)
    b = rng.standard_normal(12)
    a = as_matrix(np.diag(d), 3)
    x, report = solve_spd(a, b, block_jacobi(a), tol=1e-14)
    assert report.iterations == 1
    assert_allclose(x, b / d, rtol=1e-14)


def test_manufactured_spd_system(rng):
    space = space_on(4, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    x_star = rng.standard_normal(a.dim)
    b = a @ x_star
    x, report = solve_spd(a, b, tol=1e-10,
                          preconditioner=block_jacobi(a))
    assert report.method == "pcg"
    assert np.linalg.norm(x - x_star) <= 1e-8 * np.linalg.norm(x_star)
    assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)


def test_small_penalty_operator_is_detected_indefinite(rng):
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=0.01))
    # oracle: the operator genuinely has negative eigenvalues here
    assert eigvalsh(a.full().toarray()).min() < 0
    # an SPD preconditioner (from the well-posed operator), so that CG's
    # own curvature check must catch it
    spd = block_jacobi(assemble_bilinear(space, AssemblyConfig(penalty=100.0)))
    with pytest.raises(IndefiniteOperator, match="non-positive curvature"):
        solve_spd(a, rng.standard_normal(a.dim), preconditioner=spd)


def test_determinism_bitwise(rng):
    space = space_on(3, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    for build in (block_jacobi,
                  lambda a: two_level_preconditioner(a, space)):
        x1, r1 = solve_spd(a, b, build(a), tol=1e-12)
        x2, r2 = solve_spd(a, b, build(a), tol=1e-12)
        assert x1.tobytes() == x2.tobytes()
        assert r1.iterations == r2.iterations


def test_direct_and_pcg_agree(rng):
    space = space_on(3, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    x_ref = direct_reference(a, b)
    assert np.linalg.norm(x_ref - np.linalg.solve(a.full().toarray(), b)) \
        <= 1e-12 * np.linalg.norm(x_ref)
    for precondition in (block_jacobi(a),
                         two_level_preconditioner(a, space)):
        x, report = solve_spd(a, b, precondition, tol=1e-13)
        assert report.method == "pcg"
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
    b = -residual(kernel, u)
    precondition = two_level_preconditioner(kernel.stiffness, space)
    jac = kernel.jacobian(u)
    a = CountingMatrix(jac.csr, jac.diagonal)
    x, report = solve_spd(a, b, precondition, tol=1e-12)
    x_ref = direct_reference(a, b)
    assert report.relative_residual > 1e-12
    assert a.max_abs_reads == 1
    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_budget_exhaustion_raises_with_report(rng):
    space = space_on(4, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    with pytest.raises(NotConverged) as excinfo:
        solve_spd(a, b, block_jacobi(a), tol=1e-13, max_iter=3)
    report = excinfo.value.report
    assert report is not None
    assert report.iterations == 3
    assert excinfo.value.x is not None


def test_zero_rhs_short_circuits():
    space = space_on(2, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=10.0))
    x, report = solve_spd(a, np.zeros(a.dim), block_jacobi(a))
    assert not x.any()
    assert report.iterations == 0


def test_shape_mismatch_rejected():
    space = space_on(2, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=10.0))
    with pytest.raises(ValueError):
        solve_spd(a, np.zeros(a.dim + 1), block_jacobi(a))


def test_singular_matrix_raises_named_error(rng):
    dense = np.diag(rng.uniform(0.5, 4.0, 6))
    dense[2, 2] = 0.0  # a zero row makes the matrix exactly singular
    with pytest.raises(SingularOperator) as excinfo:
        linear_solver.symmetric_factor(sparse.csr_matrix(dense))
    assert isinstance(excinfo.value, DgslError)
    # the preconditioner proves an uncertified matrix by that factor
    # first: here one on the two P1 elements of the n = 1 mesh, 6 dofs in
    # two 3 x 3 blocks
    space = space_on(1, 1)
    assert space.total_dofs == 6
    with pytest.raises(SingularOperator):
        two_level_preconditioner(as_matrix(dense, 3), space)


def test_small_penalty_operator_is_detected_indefinite_by_direct_solver():
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=0.01))
    negative = int((eigvalsh(a.full().toarray()) < 0).sum())
    assert negative > 0 and not a.certified
    # Sylvester's law of inertia: one negative pivot per negative eigenvalue
    lu = linear_solver.symmetric_factor(a.full())
    assert np.count_nonzero(lu.U.diagonal() < 0) == negative
    with pytest.raises(IndefiniteOperator,
                       match=f"met {negative} negative pivots"):
        two_level_preconditioner(a, space)


def test_symmetric_factor_is_certified_and_returned(rng, factor_reads):
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    b = rng.standard_normal(a.dim)
    assert a.certified
    lu = linear_solver.symmetric_factor(a.full())
    assert factor_reads == []       # the factor reads no pivots itself
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert (lu.U.diagonal() > 0).all()
    # the returned factor solves the system
    x_ref = direct_reference(a, b)
    assert np.linalg.norm(lu.solve(b) - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_two_level_preconditioner_proves_an_uncertified_matrix(
        rng, monkeypatch, factor_reads):
    # the proof is one fine factor whose pivots are read; it changes
    # nothing in the preconditioner built afterwards
    space = space_on(4, 2)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    r = rng.standard_normal(a.dim)
    factors = counting(monkeypatch, linear_solver, "splu")
    certified = two_level_preconditioner(a, space)(r)
    assert (len(factors), factor_reads) == (1, [])
    uncertified = two_level_preconditioner(
        SparseSymMatrix(a.csr, a.diagonal), space)(r)
    assert (len(factors), factor_reads) == (3, ["U"])
    assert uncertified.tobytes() == certified.tobytes()


def test_pivot_proof_factors_the_csc_of_its_matrix_through_csr(monkeypatch):
    # the proof's CSC has the bytes of the matrix's own CSC copy, but is
    # made through CSR: scipy converts a BSR matrix to CSC through COO,
    # and the whole set-up, P included, then peaked at 11.5 times both
    # parts' bytes, where it now peaks at 8.7; SuperLU's own arrays are
    # not traced
    space = space_on(48, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=5.0))
    assert not a.certified
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        two_level_preconditioner(a, space)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * matrix_bytes(a), peak / matrix_bytes(a)
    factored = []
    splu = linear_solver.splu
    monkeypatch.setattr(linear_solver, "splu", lambda csc, **options:
                        factored.append(csc) or splu(csc, **options))
    two_level_preconditioner(a, space)
    expected = sparse.csc_matrix(a.full())
    expected.eliminate_zeros()
    proof, _ = factored             # the proof's factor, then the coarse one
    assert proof.shape == (a.dim, a.dim)
    for name in ("data", "indices", "indptr"):
        assert getattr(proof, name).tobytes() == \
            getattr(expected, name).tobytes(), name


@pytest.mark.parametrize("r", [1, 2, 3])
def test_block_jacobi_blocks_match_dense_slices(sine, r, rng):
    mesh = dgsl.build_perturbed(4, 0.2, seed=3)
    space = dgsl.DGSpace(mesh, r)
    # a Newton Jacobian: the mass weight N'(u) = 3 u^2 varies in space
    kernel = NewtonKernel(space, sine, AssemblyConfig(penalty=100.0))
    a = kernel.jacobian(rng.standard_normal(space.total_dofs))
    dense = a.full().toarray()
    apply = block_jacobi(a)
    d = space.dofs_per_element
    nblocks = a.dim // d
    blocks = np.stack([dense[b * d:(b + 1) * d, b * d:(b + 1) * d]
                       for b in range(nblocks)])
    # column j of every inverse block at once: a unit vector in each block
    columns = np.stack([apply(np.tile(np.eye(d)[j], nblocks)).reshape(nblocks, d)
                        for j in range(d)], axis=-1)
    assert_allclose(columns, np.linalg.inv(blocks), rtol=1e-13, atol=0)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_two_level_preconditioner_is_spd(r):
    space = dgsl.DGSpace(dgsl.build_perturbed(3, 0.2, seed=1), r)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    precondition = two_level_preconditioner(a, space)
    dense = np.column_stack([precondition(e) for e in np.eye(a.dim)])
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    assert eigvalsh(dense).min() > 0.0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_two_level_pcg_agrees_with_direct_solve(sine, rng, r):
    space = dgsl.DGSpace(dgsl.build_perturbed(8, 0.2, seed=2), r)
    kernel = NewtonKernel(space, sine, AssemblyConfig(penalty=100.0))
    # Newton's preconditioner: built from the stiffness, applied to J
    precondition = two_level_preconditioner(kernel.stiffness, space)
    u = rng.standard_normal(space.total_dofs)
    b = rng.standard_normal(space.total_dofs)
    jac = kernel.jacobian(u)
    x_dir = direct_reference(jac, b)
    x, report = solve_spd(jac, b, precondition, tol=1e-12)
    assert report.method == "pcg"
    assert np.linalg.norm(x - x_dir) <= 1e-9 * np.linalg.norm(x_dir)


def test_symmetric_factor_rejects_an_off_diagonal_pivot():
    # the zero diagonal of [[0, 1], [1, 0]] forces a row exchange
    swap = sparse.block_diag([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(IndefiniteOperator, match="off-diagonal pivot"):
        linear_solver.symmetric_factor(swap)


def test_solve_spd_rejects_an_indefinite_preconditioner():
    a = assemble_bilinear(space_on(2, 1), AssemblyConfig(penalty=100.0))
    b = np.ones(a.dim)
    with pytest.raises(IndefiniteOperator,
                       match="preconditioned residual product"):
        linear_solver.solve_spd(a, b, lambda r: -r)


@pytest.mark.parametrize("r", [1, 3])
def test_coarse_matrix_has_the_bytes_of_a_transposed_copy(r, monkeypatch,
                                                          factor_reads):
    # the coarse product reads P^T through views; every byte of the
    # coarse matrix, index order included, is that of P^T as a CSR copy
    space = dgsl.DGSpace(dgsl.build_perturbed(8, 0.2, seed=2), r)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    p = p1_prolongation(space)
    coarse = []
    factor = linear_solver.symmetric_factor
    monkeypatch.setattr(linear_solver, "symmetric_factor",
                        lambda m: coarse.append(m) or factor(m))
    two_level_preconditioner(a, space)
    matrix, = coarse
    assert factor_reads == []       # a certified matrix's pivots stay unread
    expected = p.T.tocsr() @ (a.csr @ p) + p.T.tocsr() @ (a.diagonal @ p)
    for name in ("data", "indices", "indptr"):
        assert getattr(matrix, name).tobytes() == \
            getattr(expected, name).tobytes(), name


@pytest.mark.parametrize("r", [1, 3])
def test_two_level_set_up_memory_over_its_matrix(r):
    # tracemalloc growth of one set-up over the stiffness's bytes, both
    # parts, without the bytes of P and, at r >= 2, the node map, which
    # the set-up builds; SuperLU's own arrays are not traced. With a
    # kept CSR copy of P^T and all blocks inverted at once it kept 0.32
    # (P3) and 0.36 (P1) and peaked at 0.74 and 1.92; reading P^T
    # through views of P and inverting in chunks, 0.25 and 0.24, and
    # 0.65 and 1.54; with the coarse product formed part by part,
    # P^T C P + P^T D P, 0.25 and 0.23, and 0.65 and 1.52
    # (P^T (C P + D P) peaked at 0.73 and 1.89); with the Jacobi term on
    # continuous P_r at P3, 0.26 and 0.64; with P and the map built
    # inside the set-up, 0.26 and 0.62 (P3) and 0.23 and 1.52 (P1);
    # with point Jacobi and float32 vertex patches at P3, built after
    # the coarse factor in chunks of 512 star corners, 0.26 and 0.37
    space = dgsl.DGSpace(dgsl.build_perturbed(64, 0.2, 42), 3) if r == 3 \
        else dgsl.DGSpace(dgsl.build_structured(128), 1)
    cfg = AssemblyConfig(penalty=100.0, volume_degree=14 if r == 3 else None,
                         edge_degree=12 if r == 3 else None)
    a = assemble_bilinear(space, cfg)
    p = p1_prolongation(space)
    own = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes
    if r >= 2:
        own += conforming_nodes(space).nbytes
    del p
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = two_level_preconditioner(a, space)
        kept, peak = (m - before - own
                      for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    matrix = matrix_bytes(a)
    assert callable(built)
    assert kept <= 0.28 * matrix, kept / matrix
    assert peak <= (0.7 if r == 3 else 1.75) * matrix, peak / matrix


@pytest.mark.parametrize("mesh", list(MESH_KINDS))
@pytest.mark.parametrize("r", [2, 3])
def test_conforming_diagonal_is_that_of_the_gathered_matrix(sine, rng, r, mesh):
    # the conforming term's diagonal blocks, one per vertex patch, are
    # the principal submatrices of Pi^T A Pi on the patches' nodes
    space = dgsl.DGSpace(MESH_KINDS[mesh](), r)
    node = conforming_nodes(space)
    # oracle: Pi as an explicit 0/1 matrix, and Pi^T A Pi from A in full
    pi = sparse.csr_matrix((np.ones(len(node)), node, np.arange(len(node) + 1)))
    kernel = NewtonKernel(space, sine, AssemblyConfig(penalty=100.0))
    used = np.unique(space.mesh.triangles)
    for a in (kernel.stiffness,
              kernel.jacobian(rng.standard_normal(space.total_dofs))):
        gathered = (pi.T @ a.full() @ pi).toarray()
        gather, groups = linear_solver._vertex_patches(a, space, node)
        # one patch per used vertex, and together they cover every node
        assert sum(len(inverse) for _, inverse in groups) == len(used)
        assert np.array_equal(np.unique(gather), np.arange(len(gathered)))
        for start, inverse in groups:
            assert inverse.dtype == np.float32
            patch = gather[start:start + inverse[..., 0].size] \
                .reshape(inverse.shape[:2])
            for g, stored in zip(patch, inverse):
                expected = np.linalg.inv(gathered[np.ix_(g, g)])
                # float32 rounding of each entry, 2^-24 relative
                assert_allclose(stored, expected, rtol=6e-8,
                                atol=1e-12 * np.abs(expected).max())


def fan(valence):
    """A fan of `valence` triangles around one vertex at the origin."""
    angle = 2 * np.pi * np.arange(valence) / valence
    vertices = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angle),
                                                       np.sin(angle)])])
    rim = np.arange(1, valence + 1)
    return dgsl.TriMesh(vertices, np.column_stack(
        [np.zeros(valence, dtype=int), rim, np.roll(rim, -1)]))


def test_patch_storage_follows_the_squared_patch_sizes():
    # one vertex of valence 48 has a patch of 145 nodes at P3, the 48
    # around it 9 each: blocks padded to the largest size would keep
    # 49 * 145^2 = 1,030,225 float32 values where 145^2 + 48 * 9^2 =
    # 24,913 are needed; the bound leaves room for the Python objects
    space = dgsl.DGSpace(fan(48), 3)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    node = conforming_nodes(space)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gather, groups = linear_solver._vertex_patches(a, space, node)
        kept = tracemalloc.get_traced_memory()[0] - before - gather.nbytes
    finally:
        tracemalloc.stop()
    widths = [inverse.shape[1] for _, inverse in groups
              for _ in range(len(inverse))]
    assert sorted(widths) == [9] * 48 + [145]
    squares = sum(w * w for w in widths)
    assert kept <= 1.1 * 4 * squares, kept / (4 * squares)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_conforming_term_is_used_exactly_at_r_of_2_and_more(r, monkeypatch):
    # at r = 1 continuous P1 is the coarse space itself, and the
    # preconditioner is B + P A_c^-1 P^T alone, built without a node map
    space = dgsl.DGSpace(dgsl.build_perturbed(4, 0.2, seed=1), r)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    built = counting(monkeypatch, linear_solver, "conforming_nodes")
    patches = counting(monkeypatch, linear_solver, "_vertex_patches")
    two_level_preconditioner(a, space)
    assert len(built) == len(patches) == (r >= 2)


@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
def test_p1_preconditioner_is_block_jacobi_plus_the_coarse_solve(rng, mesh):
    # at r = 1 the preconditioner applies B r + P A_c^-1 P^T r, in this
    # order, bit for bit
    space = dgsl.DGSpace(MESH_KINDS[mesh](), 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    r = rng.standard_normal(a.dim)
    p = p1_prolongation(space)
    coarse = p.T.tocsr() @ (a.csr @ p) + p.T.tocsr() @ (a.diagonal @ p)
    expected = block_jacobi(a)(r)
    expected += p @ linear_solver.symmetric_factor(coarse).solve(p.T @ r)
    assert two_level_preconditioner(a, space)(r).tobytes() == \
        expected.tobytes()


def test_a_certified_p1_stiffness_is_not_proven_again(monkeypatch):
    # the certificate proves the stiffness positive definite, so every
    # element block, a principal submatrix of it, is too, and B inverts
    # the blocks unchecked; assembly's certificate makes Cholesky calls
    # of its own, so they are counted from the first set-up on
    spaces = [dgsl.DGSpace(mesh, 1) for mesh in (
        dgsl.build_structured(8), dgsl.build_perturbed(8, 0.2, 3))]
    stiffnesses = [assemble_bilinear(space, AssemblyConfig(penalty=100.0))
                   for space in spaces]
    assert all(a.certified for a in stiffnesses)
    choleskys = counting(monkeypatch, np.linalg, "cholesky")
    for a, space in zip(stiffnesses, spaces):
        two_level_preconditioner(a, space)
    assert choleskys == []


@pytest.mark.parametrize("r", [2, 3])
def test_cg_count_stays_flat_in_the_penalty(sine, r):
    # one Newton Jacobian on a perturbed n = 32 mesh, preconditioned as
    # Newton does, to 1e-8. B + P A_c^-1 P^T alone took 86, 171 and 245
    # (P2) and 93, 191 and 278 (P3) iterations at penalty 100, 1000 and
    # 10000; with a Jacobi term on continuous P_r 29, 31 and 32, and 46,
    # 48 and 51; with D^-1 + P A_c^-1 P^T and the vertex patches 31, 32
    # and 33, and 31, 32 and 33
    space = dgsl.DGSpace(dgsl.build_perturbed(32, 0.2, 42), r)
    counts = []
    for penalty in (100.0, 1000.0):
        kernel = NewtonKernel(space, sine, AssemblyConfig(penalty=penalty))
        u = np.zeros(space.total_dofs)
        precondition = two_level_preconditioner(kernel.stiffness, space)
        _, report = solve_spd(kernel.jacobian(u), -residual(kernel, u),
                              precondition, tol=1e-8)
        counts.append(report.iterations)
    assert counts[1] <= 1.3 * counts[0], counts


def test_p3_cg_count_is_flat_in_h(sine):
    # one P3 Newton Jacobian on perturbed meshes, to 1e-8: with a Jacobi
    # term on continuous P_r it took 45-50 iterations at n = 16 and 32
    counts = []
    for n in (16, 32):
        space = dgsl.DGSpace(dgsl.build_perturbed(n, 0.2, 42), 3)
        kernel = NewtonKernel(space, sine, AssemblyConfig(penalty=100.0))
        u = np.zeros(space.total_dofs)
        precondition = two_level_preconditioner(kernel.stiffness, space)
        _, report = solve_spd(kernel.jacobian(u), -residual(kernel, u),
                              precondition, tol=1e-8)
        counts.append(report.iterations)
    assert max(counts) <= 36 and abs(counts[1] - counts[0]) <= 3, counts
