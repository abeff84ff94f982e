"""Operator assembly against an independent evaluation of the form.

The dual-route oracle below evaluates the bilinear form directly from
field traces (volume quadrature of gradients plus edge quadrature of
jumps and averages). It finds each side's reference points by inverting
the element map at physical edge points, so it shares neither the
(local edge, flipped) bookkeeping nor the batched contractions of the
matrix assembly.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.linalg import eigvalsh

import dgsl
from dgsl import AssemblyConfig, DGVector, assemble_bilinear, interpolate
from dgsl import linear_solver
from dgsl.analysis import apply_bilinear_to_field, l2_error
from dgsl.assembly import (NewtonKernel, _edge_blocks, _local_certificate,
                           _volume_stiffness_blocks, _volume_tables)
from dgsl.cli import build_run_config, parse_config_text
from dgsl.convergence import RunConfig
from dgsl.errors import (ConfigError, NonFiniteValue, PerturbationFoldover,
                         SignAssumptionViolated, UnsupportedDegree)
from dgsl.newton import residual
from dgsl.problems import Problem
from dgsl.properties import polynomial_field
from dgsl.quadrature import MAX_TRIANGLE_DEGREE, edge_rule, triangle_rule
from dgsl.space import edge_traces

from conftest import matrix_bytes, part_bytes, space_on, weak_form_load


def traces_by_inverse_map(space, v, params):
    """Values (m, 2, Q) and physical gradients (m, 2, Q, 2) of a field on
    both sides of every edge; zero on the missing side of boundary edges."""
    edges = space.mesh.edges
    t = np.asarray(params)[None, :, None]
    ends = space.mesh.vertices[edges.endpoints]
    x = ends[:, None, 0] * (1.0 - t) + ends[:, None, 1] * t
    m, q, d = len(edges), len(params), space.dofs_per_element
    vals, grads = np.zeros((m, 2, q)), np.zeros((m, 2, q, 2))
    for s in (0, 1):
        has = edges.tri[:, s] >= 0
        tri = edges.tri[has, s]
        inv = space.inv_jacobians[tri]
        ref = np.einsum("mab,mqb->mqa", inv,
                        x[has] - space.origins[tri][:, None]).reshape(-1, 2)
        phi = space.basis.values(ref).reshape(len(tri), q, d)
        gphi = space.basis.gradients(ref).reshape(len(tri), q, d, 2)
        c = v.by_element()[tri]
        vals[has, s] = np.einsum("mqd,md->mq", phi, c)
        grads[has, s] = np.einsum("mqda,md,mab->mqb", gphi, c, inv)
    return vals, grads


def direct_form_terms(space, w, v, volume_degree, edge_degree):
    """The three parts of a(w, v) by quadrature on traces: the volume
    term, the two flux terms, and the jump term without its penalty."""
    vrule = triangle_rule(volume_degree)
    gtab = space.basis.gradients(vrule.points)
    gw = np.einsum("ed,qda,eab->eqb", w.by_element(), gtab, space.inv_jacobians)
    gv = np.einsum("ed,qda,eab->eqb", v.by_element(), gtab, space.inv_jacobians)
    volume = float(np.einsum("e,q,eqa,eqa->", space.dets, vrule.weights, gw, gv))

    erule = edge_rule(edge_degree)
    edges = space.mesh.edges
    ds = edges.length[:, None] * erule.weights[None, :]
    half = np.where(edges.boundary, 1.0, 0.5)[:, None]
    w_vals, w_grads = traces_by_inverse_map(space, w, erule.points)
    v_vals, v_grads = traces_by_inverse_map(space, v, erule.points)
    # [f] . n = f_+ - f_-  (f_+ on the boundary), {grad f} . n
    jump_w, jump_v = w_vals[:, 0] - w_vals[:, 1], v_vals[:, 0] - v_vals[:, 1]
    avg_w = half * np.einsum("msqa,ma->mq", w_grads, edges.normal)
    avg_v = half * np.einsum("msqa,ma->mq", v_grads, edges.normal)
    flux = float((ds * (avg_w * jump_v + avg_v * jump_w)).sum())
    jumps = float((ds / edges.length[:, None] * jump_w * jump_v).sum())
    return volume, flux, jumps


def direct_form_value(space, w, v, penalty, volume_degree, edge_degree):
    """Evaluate the interior penalty form by quadrature on traces."""
    volume, flux, jumps = direct_form_terms(space, w, v, volume_degree,
                                            edge_degree)
    return volume - flux + penalty * jumps


def test_single_cell_matrix_is_spd_sized(rng):
    space = space_on(1, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    assert a.dim == 6
    assert a.max_asymmetry() <= 1e-12 * a.max_abs()
    for _ in range(100):
        v = rng.standard_normal(6)
        assert float(v @ (a @ v)) > 0.0


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 1), (2, 3)])
def test_matrix_matches_direct_form_evaluation(n, r, rng):
    space = space_on(n, r)
    cfg = AssemblyConfig(penalty=37.0)
    a = assemble_bilinear(space, cfg)
    vdeg, edeg = cfg.resolved_volume_degree(r), cfg.resolved_edge_degree(r)
    for _ in range(5):
        w = DGVector(space, rng.standard_normal(space.total_dofs))
        v = DGVector(space, rng.standard_normal(space.total_dofs))
        via_matrix = float(v.coeffs @ (a @ w.coeffs))
        direct = direct_form_value(space, w, v, 37.0, vdeg, edeg)
        assert_allclose(via_matrix, direct, rtol=1e-11, atol=1e-11)


def test_volume_term_for_linear_field(rng):
    # interpolant of a linear has constant gradient; its volume term is
    # grad(w) . sum_K |K| mean(grad v), computable in closed form
    space = space_on(3, 1)
    cfg = AssemblyConfig(penalty=50.0)
    w = interpolate(space, lambda x, y: 2.0 * x - 0.5 * y)
    v = DGVector(space, rng.standard_normal(space.total_dofs))
    vrule = triangle_rule(cfg.resolved_volume_degree(1))
    gtab = space.basis.gradients(vrule.points)
    gv = np.einsum("ed,qda,eab->eqb", v.by_element(), gtab, space.inv_jacobians)
    volume = float(np.einsum("e,q,eqa,a->", space.dets, vrule.weights, gv,
                             np.array([2.0, -0.5])))
    direct = direct_form_value(space, w, v, 50.0, 4, 4)
    a = assemble_bilinear(space, cfg)
    assert_allclose(float(v.coeffs @ (a @ w.coeffs)), direct, rtol=1e-11)
    # and the remaining (edge) part is what the full form adds
    edge_part = direct - volume
    b = assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    pen_only = dgsl.SparseSymMatrix(b.csr - a.csr, b.diagonal - a.diagonal)
    assert np.isfinite(edge_part)
    assert pen_only.max_asymmetry() <= 1e-12 * pen_only.max_abs()


def test_doubling_penalty_adds_penalty_matrix(rng):
    # a(2 lam) - a(lam) is the penalty term at lam alone
    space = space_on(2, 2)
    cfg = AssemblyConfig(penalty=80.0)
    a1 = assemble_bilinear(space, cfg)
    a2 = assemble_bilinear(space, AssemblyConfig(penalty=160.0))
    pen = a2.full() - a1.full()
    vdeg, edeg = cfg.resolved_volume_degree(2), cfg.resolved_edge_degree(2)
    for _ in range(5):
        w = DGVector(space, rng.standard_normal(space.total_dofs))
        v = DGVector(space, rng.standard_normal(space.total_dofs))
        _, _, jumps = direct_form_terms(space, w, v, vdeg, edeg)
        assert_allclose(float(v.coeffs @ (pen @ w.coeffs)), 80.0 * jumps,
                        rtol=1e-11)


@pytest.mark.parametrize("n,r,lam", [(2, 1, 100.0), (4, 1, 10.0), (2, 3, 1000.0)])
def test_symmetry(n, r, lam):
    space = space_on(n, r)
    a = assemble_bilinear(space, AssemblyConfig(penalty=lam))
    assert a.max_asymmetry() <= 1e-12 * a.max_abs()


def zero_problem():
    return Problem(name="zero",
                   nonlinearity=lambda u: 0.0 * u,
                   d_nonlinearity=lambda u: 0.0 * u,
                   source=lambda x, y: 0.0 * x)


def test_max_abs_reads_the_extremes_without_a_matrix_sized_temporary():
    a = assemble_bilinear(space_on(16, 2), AssemblyConfig(penalty=100.0))
    # the stiffness's largest entry is positive; its negation's is not
    for m in (a, dgsl.SparseSymMatrix(-a.csr, -a.diagonal)):
        tracemalloc.start()
        try:
            value = m.max_abs()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == np.abs(m.full().toarray()).max()
        assert peak <= 0.01 * (m.csr.data.nbytes + m.diagonal.data.nbytes), \
            peak
    # either part may hold the extreme, or be empty
    empty = sparse.bsr_matrix(a.csr.shape, blocksize=a.csr.blocksize)
    assert dgsl.SparseSymMatrix(a.csr, empty).max_abs() \
        == np.abs(a.csr.data).max()
    assert dgsl.SparseSymMatrix(empty, -a.diagonal).max_abs() \
        == np.abs(a.diagonal.data).max()
    for empty in (sparse.bsr_matrix((0, 0)), sparse.bsr_matrix((4, 4))):
        assert dgsl.SparseSymMatrix(empty, empty).max_abs() == 0.0


def test_zero_source_zero_state_residual_vanishes():
    space = space_on(2, 1)
    cfg = AssemblyConfig(penalty=100.0)
    res = residual(NewtonKernel(space, zero_problem(), cfg),
                   np.zeros(space.total_dofs))
    assert not res.any()


def test_residual_decreases_with_refinement(sine):
    # interpolant of the exact solution is nearly a discrete solution
    norms = []
    for n in (8, 16, 32):
        space = space_on(n, 1)
        cfg = AssemblyConfig(penalty=100.0)
        u = interpolate(space, sine.exact.value)
        norms.append(np.linalg.norm(
            residual(NewtonKernel(space, sine, cfg), u.coeffs)))
    assert norms[0] > norms[1] > norms[2]


def test_jacobian_with_unit_weight_is_stiffness_plus_mass(rng):
    # N' = 1: J - A is the L2 mass matrix, so v'(J - A)v = ||v||^2
    space = space_on(2, 2)
    cfg = AssemblyConfig(penalty=100.0)
    linear = Problem(name="linear-in-u",
                     nonlinearity=lambda u: u,
                     d_nonlinearity=lambda u: np.ones_like(u),
                     source=lambda x, y: 0.0 * x)
    kernel = NewtonKernel(space, linear, cfg)
    jac = kernel.jacobian(rng.standard_normal(space.total_dofs))
    mass = jac.full() - kernel.stiffness.full()
    for _ in range(5):
        v = DGVector(space, rng.standard_normal(space.total_dofs))
        assert_allclose(float(v.coeffs @ (mass @ v.coeffs)),
                        l2_error(v, None) ** 2, rtol=1e-12)


def test_jacobian_matches_central_differences(sine, rng):
    space = space_on(4, 1)
    cfg = AssemblyConfig(penalty=100.0)
    a = assemble_bilinear(space, cfg)
    u = interpolate(space, sine.exact.value)
    u.coeffs += 0.05 * rng.standard_normal(space.total_dofs)
    kernel = NewtonKernel(space, sine, cfg, stiffness=a)
    d = rng.standard_normal(space.total_dofs)
    eps = 1e-6
    fd = (residual(kernel, u.coeffs + eps * d)
          - residual(kernel, u.coeffs - eps * d)) / (2 * eps)
    jd = kernel.jacobian(u.coeffs) @ d
    assert np.linalg.norm(fd - jd) <= 1e-6 * np.linalg.norm(jd)


def test_cubic_nonlinearity_jacobian_dominates_stiffness(sine, rng):
    # N'(u) = 3u^2 >= 0, so v' J v >= v' A v
    space = space_on(3, 1)
    cfg = AssemblyConfig(penalty=100.0)
    a = assemble_bilinear(space, cfg)
    kernel = NewtonKernel(space, sine, cfg, stiffness=a)
    u = rng.standard_normal(space.total_dofs)
    jac = kernel.jacobian(u)
    for v in rng.standard_normal((20, space.total_dofs)):
        assert float(v @ (jac @ v)) >= float(v @ (a @ v)) - 1e-10


def test_consistency_with_strong_form(sine):
    # a(u, phi) from the weak form's volume gradients and edge traces
    # equals the consistency form (-Lap u, phi) + boundary terms, and the
    # Newton load of the linear problem with source -Lap u
    poisson = Problem(name="poisson", nonlinearity=lambda u: 0.0 * u,
                      d_nonlinearity=lambda u: 0.0 * u,
                      source=lambda x, y: -sine.exact.laplacian(x, y))
    cfg = AssemblyConfig(penalty=100.0, volume_degree=6)
    for mesh in (dgsl.build_structured(8), dgsl.build_perturbed(8, 0.2, 7)):
        space = dgsl.DGSpace(mesh, 1)
        weak = weak_form_load(space, sine.exact, cfg)
        strong = apply_bilinear_to_field(space, sine.exact, cfg)
        load = -residual(NewtonKernel(space, poisson, cfg),
                         np.zeros(space.total_dofs))
        for rhs in (strong, load):
            assert np.linalg.norm(weak - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_load_vector_integrates_constant_exactly():
    # N = 0 and g = 1: -residual(0) is the load vector int_K phi_i
    space = space_on(2, 1)
    unit_source = Problem(name="unit-source",
                          nonlinearity=lambda u: 0.0 * u,
                          d_nonlinearity=lambda u: 0.0 * u,
                          source=lambda x, y: np.ones_like(x))
    kernel = NewtonKernel(space, unit_source, AssemblyConfig(penalty=1.0))
    load = -residual(kernel, np.zeros(space.total_dofs))
    ones = interpolate(space, lambda x, y: np.ones_like(x))
    # sum_i c_i int phi_i = int 1 = |Omega|
    assert_allclose(float(ones.coeffs @ load), 1.0, rtol=1e-13)


def test_config_validation():
    with pytest.raises(ValueError):
        AssemblyConfig(penalty=0.0)
    for penalty in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            AssemblyConfig(penalty=penalty)
    with pytest.raises(UnsupportedDegree):
        AssemblyConfig(penalty=5.0, volume_degree=MAX_TRIANGLE_DEGREE + 1)
    with pytest.raises(UnsupportedDegree):
        AssemblyConfig(penalty=5.0, edge_degree=0)
    cfg = AssemblyConfig(penalty=5.0)
    assert cfg.resolved_volume_degree(2) == 7
    assert cfg.resolved_edge_degree(2) == 6
    custom = AssemblyConfig(penalty=5.0, volume_degree=12, edge_degree=10)
    assert custom.resolved_volume_degree(2) == 12
    assert custom.resolved_edge_degree(2) == 10


def test_volume_tables_are_built_once_per_degree_pair():
    assert _volume_tables(2, 7) is _volume_tables(2, 7)
    assert _volume_tables(2, 7) is not _volume_tables(3, 7)
    assert _volume_tables(2, 7) is not _volume_tables(2, 8)
    # keyed by the basis degree: every space of degree r reads one table
    assert_allclose(_volume_tables(2, 7).values,
                    space_on(1, 2).basis.values(triangle_rule(7).points),
                    rtol=0, atol=0)


def test_csr_fields_exposed():
    space = space_on(1, 1)
    a = assemble_bilinear(space, AssemblyConfig(penalty=10.0))
    # the element-block form: one block row per element in both parts,
    # one block per row in the diagonal
    for part in (a.csr, a.diagonal):
        assert part.blocksize == (3, 3)
        assert part.indptr.shape == (space.num_elements + 1,)
        assert part.data.shape == part.indices.shape + (3, 3)
    assert np.array_equal(a.diagonal.indices, np.arange(space.num_elements))
    dense = a.full().toarray()
    assert dense.shape == (6, 6)
    # block sparsity: the two elements share an edge, so all blocks exist here;
    # on a 2x2 mesh non-neighbouring blocks must be structurally zero
    space2 = space_on(2, 1)
    a2 = assemble_bilinear(space2, AssemblyConfig(penalty=10.0))
    dense2 = a2.full().toarray()
    edges = space2.mesh.edges
    inner = edges.tri[~edges.boundary]
    neighbours = set(map(tuple, np.concatenate([inner, inner[:, ::-1]]).tolist()))
    d = space2.dofs_per_element
    for i in range(space2.num_elements):
        for j in range(space2.num_elements):
            block = dense2[i * d:(i + 1) * d, j * d:(j + 1) * d]
            if i != j and (i, j) not in neighbours:
                assert not block.any()


# The per-call formulas the Newton kernel replaced, kept as an oracle:
# quadrature points mapped on every call, three-operand einsums, and
# element blocks scattered through COO.

def _oracle_tables(space, cfg):
    rule = triangle_rule(cfg.resolved_volume_degree(space.degree))
    return rule, space.basis.values(rule.points), space.physical_points(rule.points)


def _coo_blocks(space, rows, cols, blocks):
    d = space.dofs_per_element
    ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    n = space.total_dofs
    return sparse.csr_matrix(sparse.coo_matrix(
        (blocks.ravel(), ((rows[:, None, None] * d + ii).ravel(),
                          (cols[:, None, None] * d + jj).ravel())), shape=(n, n)))


def oracle_residual(space, u, problem, cfg, a):
    rule, vals, pts = _oracle_tables(space, cfg)
    uvals = np.einsum("ed,qd->eq", u.reshape(space.num_elements, -1), vals)
    f = problem.source(pts[..., 0], pts[..., 1]) - problem.nonlinearity(uvals)
    scaled = space.dets[:, None] * rule.weights[None, :] * f
    return a @ u - np.einsum("eq,qi->ei", scaled, vals).ravel()


def oracle_mass_blocks(space, u, problem, cfg):
    rule, vals, _ = _oracle_tables(space, cfg)
    uvals = np.einsum("ed,qd->eq", u.reshape(space.num_elements, -1), vals)
    scaled = space.dets[:, None] * rule.weights[None, :] \
        * problem.d_nonlinearity(uvals)
    return np.einsum("eq,qi,qj->eij", scaled, vals, vals)


def oracle_jacobian(space, u, problem, cfg, a):
    elements = np.arange(space.num_elements)
    return a.full() + _coo_blocks(space, elements, elements,
                                  oracle_mass_blocks(space, u, problem, cfg))


def oracle_bilinear(space, cfg):
    """The operator by einsum contractions and one COO scatter."""
    r = space.degree
    vrule = triangle_rule(cfg.resolved_volume_degree(r))
    gtab = space.basis.gradients(vrule.points)
    phys = np.einsum("qia,eab->eqib", gtab, space.inv_jacobians)
    volume = np.einsum("e,q,eqia,eqja->eij", space.dets, vrule.weights, phys, phys)
    rule = edge_rule(cfg.resolved_edge_degree(r))
    edges = space.mesh.edges
    values, grads = edge_traces(space, rule.points)
    jump = values * np.array([1.0, -1.0])[None, :, None, None]
    normal_grad = np.einsum("msqia,ma->msqi", grads, edges.normal)
    flux = np.einsum("q,mtqi,msqj->mtsij", rule.weights, jump, normal_grad)
    half_h = np.where(edges.boundary, 1.0, 0.5) * edges.length
    blocks = -half_h[:, None, None, None, None] * (flux + flux.transpose(0, 2, 1, 4, 3))
    blocks += cfg.penalty * np.einsum("q,mtqi,msqj->mtsij", rule.weights, jump, jump)
    present = edges.tri >= 0
    pairs = present[:, :, None] & present[:, None, :]
    tri = np.where(present, edges.tri, 0)
    rows = np.broadcast_to(tri[:, :, None], pairs.shape)[pairs]
    cols = np.broadcast_to(tri[:, None, :], pairs.shape)[pairs]
    elements = np.arange(space.num_elements)
    return _coo_blocks(space, np.concatenate([rows, elements]),
                       np.concatenate([cols, elements]),
                       np.concatenate([blocks[pairs], volume]))


def perturbed_space(r):
    return dgsl.DGSpace(dgsl.build_perturbed(6, 0.2, 3), r)


def max_rel(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return float(np.abs(x - y).max() / np.abs(y).max())


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kernel_matches_per_call_formulas(sine, r, rng):
    space = perturbed_space(r)
    cfg = AssemblyConfig(penalty=37.0)
    kernel = NewtonKernel(space, sine, cfg)
    a = kernel.stiffness
    for _ in range(3):
        u = rng.standard_normal(space.total_dofs)
        assert max_rel(residual(kernel, u),
                       oracle_residual(space, u, sine, cfg, a)) <= 1e-13
        expected = oracle_jacobian(space, u, sine, cfg, a).toarray()
        assert max_rel(kernel.jacobian(u).full().toarray(), expected) \
            <= 1e-13


def stiffness_state(kernel, u, v):
    """The bytes of a kernel's residual at u, of its stiffness applied to
    v, and of both parts of its stiffness."""
    return [residual(kernel, u).tobytes(),
            (kernel.stiffness @ v).tobytes()] + part_bytes(kernel.stiffness)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_jacobian_shares_the_stiffness_pattern(sine, r, rng):
    # J holds the stiffness's own couplings beside new element blocks,
    # the stiffness's plus the weighted mass; holding it changes nothing
    # the stiffness computes
    space, cfg = perturbed_space(r), AssemblyConfig(penalty=37.0)
    kernel = NewtonKernel(space, sine, cfg)
    a = kernel.stiffness
    u, v, w = rng.standard_normal((3, space.total_dofs))
    before = stiffness_state(kernel, u, v)
    jac = kernel.jacobian(w)
    assert jac.csr is a.csr and not jac.certified
    assert not np.shares_memory(jac.diagonal.data, a.diagonal.data)
    assert max_rel(jac.diagonal.data, a.diagonal.data
                   + oracle_mass_blocks(space, w, sine, cfg)) <= 1e-13
    assert stiffness_state(kernel, u, v) == before


def test_a_jacobian_that_raises_mid_chunk_leaves_the_stiffness_as_it_was(
        rng, monkeypatch):
    # chunks of 4 elements, and N' = 1 - 2 u < 0 only on element 9, where
    # u = 1: the first two chunks have formed their blocks when the third
    # raises, and no chunk writes the stiffness
    monkeypatch.setattr(dgsl.assembly, "ELEMENT_CHUNK", 4)
    space, cfg = perturbed_space(2), AssemblyConfig(penalty=37.0)
    x, v = rng.standard_normal((2, space.total_dofs))
    written = []

    def d_nonlinearity(u):
        written.append(stiffness_state(kernel, x, v)[2:] != before[2:])
        return 1.0 - 2.0 * u

    problem = Problem(name="sign-flip", nonlinearity=lambda u: u - u ** 2,
                      d_nonlinearity=d_nonlinearity,
                      source=lambda x, y: 0.0 * x)
    kernel = NewtonKernel(space, problem, cfg)
    before = stiffness_state(kernel, x, v)
    u = np.zeros((space.num_elements, space.dofs_per_element))
    u[9] = 1.0
    with pytest.raises(SignAssumptionViolated,
                       match=r"N'\(u_h\) = -1\.0+e\+00 < 0 on element 9;"):
        kernel.jacobian(u.ravel())
    assert written == [False, False, False]
    assert stiffness_state(kernel, x, v) == before
    # and it still gives a fresh kernel's Jacobian
    zero = np.zeros(space.total_dofs)
    fresh = NewtonKernel(space, problem, cfg).jacobian(zero)
    assert kernel.jacobian(zero).diagonal.data.tobytes() \
        == fresh.diagonal.data.tobytes()


@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_pattern_stores_diagonal_blocks_and_no_other_zeros(mesh, r,
                                                           monkeypatch):
    space = perturbed_space(r) if mesh == "perturbed" else space_on(6, r)
    cfg = AssemblyConfig(penalty=37.0)
    a = assemble_bilinear(space, cfg)
    d = space.dofs_per_element
    # exactly the E diagonal blocks, and in the couplings both blocks of
    # each interior edge, each (D, D) block in full and each block row in
    # column order
    edges = space.mesh.edges
    inner = edges.tri[~edges.boundary]
    elements = np.arange(space.num_elements)
    expected = sorted(zip(np.concatenate([inner[:, 0], inner[:, 1]]),
                          np.concatenate([inner[:, 1], inner[:, 0]])))
    for bsr, blocks in ((a.csr, expected),
                        (a.diagonal, zip(elements, elements))):
        rows = np.repeat(elements, np.diff(bsr.indptr))
        assert list(zip(rows, bsr.indices)) == list(blocks)
        assert bsr.blocksize == (d, d) and bsr.data.shape == (len(rows), d, d)
    dense = a.full().toarray()
    oracle = oracle_bilinear(space, cfg).toarray()
    assert np.abs(dense - oracle).max() <= 1e-15 * np.abs(oracle).max()
    # the factored CSC holds exactly the nonzero entries
    factored = []
    splu = linear_solver.splu

    def recording_splu(csc, **options):
        factored.append(csc)
        return splu(csc, **options)

    monkeypatch.setattr(linear_solver, "splu", recording_splu)
    linear_solver.symmetric_factor(a.full())
    csc, = factored
    assert csc.nnz == np.count_nonzero(dense)
    assert np.array_equal(csc.toarray(), dense)


@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_bilinear_matches_coo_oracle(mesh, r):
    space = perturbed_space(r) if mesh == "perturbed" else space_on(6, r)
    cfg = AssemblyConfig(penalty=37.0)
    a = assemble_bilinear(space, cfg).full().toarray()
    oracle = oracle_bilinear(space, cfg).toarray()
    assert np.abs(a - oracle).max() <= 1e-15 * np.abs(oracle).max()


def whole_array_operator(space, cfg):
    """The dense operator and its certificate from one array of every
    edge's blocks: each diagonal block is its volume block plus its
    edges' self-blocks, added in edge order, and each interior edge's two
    coupling blocks are copied."""
    r, d = space.degree, space.dofs_per_element
    volume = _volume_stiffness_blocks(
        space, _volume_tables(r, cfg.resolved_volume_degree(r)))
    blocks = _edge_blocks(space, cfg)
    edges = space.mesh.edges
    # each edge's (plus, minus) thirds; a boundary edge's minus is unread
    certified = _local_certificate(edges.tri, blocks,
                                   (volume / 3.0)[edges.tri])
    diagonal = volume.copy()
    dense = np.zeros((space.total_dofs,) * 2)
    for b, (plus, minus) in zip(blocks, edges.tri):
        diagonal[plus] += b[0, :, 0, :]
        if minus >= 0:
            diagonal[minus] += b[1, :, 1, :]
            dense[plus * d:(plus + 1) * d, minus * d:(minus + 1) * d] = b[0, :, 1, :]
            dense[minus * d:(minus + 1) * d, plus * d:(plus + 1) * d] = b[1, :, 0, :]
    for t, block in enumerate(diagonal):
        dense[t * d:(t + 1) * d, t * d:(t + 1) * d] = block
    return dense, certified


def forced_edge_chunks(monkeypatch):
    """Let `assemble_bilinear` sweep edge chunks of the length set by
    `force(chunk)`, whatever the degree, and return `force` with the list
    of the chunk lengths it swept since."""
    lengths = []
    edge_blocks = dgsl.assembly._edge_blocks

    def recording(space, cfg, select=slice(None)):
        blocks = edge_blocks(space, cfg, select)
        lengths.append(len(blocks))
        return blocks

    monkeypatch.setattr(dgsl.assembly, "_edge_blocks", recording)

    def force(chunk):
        monkeypatch.setattr(dgsl.assembly, "_assembly_edge_chunk",
                            lambda d: chunk)
        lengths.clear()

    return force, lengths


def chunk_lengths(count, chunk):
    return [min(chunk, count - lo) for lo in range(0, count, chunk)]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_assembly_edge_chunks_hold_about_a_p1_chunks_entries(r, monkeypatch):
    # 512 edges at P1, scaled by 9 / D^2: 128 at P2, 46 at P3
    space = space_on(16, r)
    m = len(space.mesh.edges)
    chunk = {1: 512, 2: 128, 3: 46}[r]
    assert dgsl.assembly._assembly_edge_chunk(space.dofs_per_element) == chunk
    lengths = forced_edge_chunks(monkeypatch)[1]
    assemble_bilinear(space, AssemblyConfig(penalty=100.0))
    assert lengths == chunk_lengths(m, chunk) and len(lengths) > 1


@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_chunked_assembly_is_byte_identical_for_every_chunk_size(
        mesh, r, monkeypatch):
    # one edge per chunk sums every diagonal block in edge order; every
    # other chunking must write the same bytes and reach the same verdict,
    # on both sides of the certificate band (P1 and P2 fail it at
    # penalty 5, P3 also at 30)
    space = perturbed_space(r) if mesh == "perturbed" else space_on(5, r)
    m = len(space.mesh.edges)
    chunks = (1, 7, m, 3 * m)
    force, lengths = forced_edge_chunks(monkeypatch)
    verdicts = []
    for penalty in (5.0, 30.0, 100.0):
        cfg = AssemblyConfig(penalty=penalty)
        runs = []
        for chunk in chunks:
            force(chunk)
            runs.append(assemble_bilinear(space, cfg))
            assert lengths == chunk_lengths(m, chunk), chunk
        first = runs[0]
        for chunk, a in zip(chunks[1:], runs[1:]):
            for part in ("csr", "diagonal"):
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(
                        getattr(getattr(a, part), name),
                        getattr(getattr(first, part), name)), (chunk, name)
            assert a.certified == first.certified
        dense, certified = whole_array_operator(space, cfg)
        assert np.array_equal(first.full().toarray(), dense)
        assert first.certified == certified
        verdicts.append(certified)
    assert verdicts == ([False, False, True] if r == 3 else [False, True, True])


def test_a_failure_in_any_chunk_fails_the_certificate(monkeypatch):
    # one vertex moved off the grid: at these penalties only a few
    # low-index edges fail, so a verdict read from one chunk misses them
    grid = dgsl.build_structured(5)
    vertices = grid.vertices.copy()
    vertices[7] += (0.12, 0.1)
    mesh = dgsl.TriMesh(vertices, grid.triangles)
    force, lengths = forced_edge_chunks(monkeypatch)
    for r, penalty in ((2, 20.0), (3, 50.0)):
        space, cfg = dgsl.DGSpace(mesh, r), AssemblyConfig(penalty=penalty)
        assert not whole_array_operator(space, cfg)[1]
        for chunk in (1, 7, len(mesh.edges)):
            force(chunk)
            assert not assemble_bilinear(space, cfg).certified, (r, chunk)
            assert lengths == chunk_lengths(len(mesh.edges), chunk)


@pytest.mark.parametrize("r", [1, 3])
def test_element_chunks_cover_every_element_once(sine, r, rng, monkeypatch):
    # the source is pointwise, so every chunking gives the same bytes; a
    # chunk's mass product may round differently from a whole-array one
    # in the last bit (BLAS picks its kernels and threads by size)
    space = perturbed_space(r)
    cfg = AssemblyConfig(penalty=37.0)
    a = assemble_bilinear(space, cfg)
    u = rng.standard_normal(space.total_dofs)
    vol = _volume_tables(r, cfg.resolved_volume_degree(r))
    pts = space.physical_points(vol.rule.points)
    source = sine.source(pts[..., 0], pts[..., 1])
    expected = oracle_jacobian(space, u, sine, cfg, a).toarray()
    for chunk in (1, 7, space.num_elements, 3 * space.num_elements):
        monkeypatch.setattr(dgsl.assembly, "ELEMENT_CHUNK", chunk)
        kernel = NewtonKernel(space, sine, cfg, stiffness=a)
        assert kernel.source.tobytes() == source.tobytes(), chunk
        assert max_rel(kernel.jacobian(u).full().toarray(), expected) \
            <= 1e-13, chunk


@pytest.mark.parametrize("r, n, perturbed", [
    pytest.param(1, 128, False, id="P1-structured-128"),
    pytest.param(3, 64, True, id="P3-perturbed-64"),
    pytest.param(2, 32, False, id="P2-structured-32"),
    pytest.param(3, 32, False, id="P3-structured-32")])
def test_assembly_peak_stays_within_one_and_a_half_times_its_matrix(
        r, n, perturbed):
    # the traced peak growth of one assembly over the matrix, both parts,
    # which it includes; an array over all edges' blocks made it 8.3x
    # (P1) and 7.8x (P3), and whole-mesh volume blocks and certificate
    # thirds 1.61x and 1.59x; a fixed 512-edge chunk read 1.27x, 1.37x,
    # 2.42x and 2.22x here, a chunk scaled by 9 / D^2 1.27x, 1.08x, 1.39x
    # and 1.29x, and the element blocks held apart from the couplings
    # read 1.20x, 1.04x, 1.37x and 1.12x
    mesh = dgsl.build_perturbed(n, 0.2, 42) if perturbed \
        else dgsl.build_structured(n)
    space = dgsl.DGSpace(mesh, r)
    cfg = AssemblyConfig(penalty=100.0, volume_degree=14 if perturbed else None,
                         edge_degree=12 if perturbed else None)
    assemble_bilinear(space, cfg)   # fills the table caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        a = assemble_bilinear(space, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    matrix = matrix_bytes(a)
    assert peak <= 1.5 * matrix, peak / matrix


@pytest.mark.parametrize("r", [1, 2, 3])
def test_bilinear_reproduces_the_form_on_polynomials(r):
    # a(p, phi_i) for p in P_r: wrong side traces (a flipped edge table)
    # break this, while symmetry still holds
    space = perturbed_space(r)
    cfg = AssemblyConfig(penalty=37.0)
    p = polynomial_field(r)
    exact = apply_bilinear_to_field(space, p, cfg)
    via_matrix = assemble_bilinear(space, cfg) @ interpolate(space, p.value).coeffs
    assert max_rel(via_matrix, exact) <= 1e-13


def test_non_finite_source_raises_when_the_kernel_is_built(sine):
    broken = Problem(name="nan-source", nonlinearity=sine.nonlinearity,
                     d_nonlinearity=sine.d_nonlinearity,
                     source=lambda x, y: np.where(x > 0.5, np.nan, 0.0))
    with pytest.raises(NonFiniteValue, match="source"):
        NewtonKernel(space_on(4, 1), broken, AssemblyConfig(penalty=100.0))


# ---------------------------------------------------------------- the local
# coercivity certificate

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def local_forms(space, cfg):
    """Every edge form Q_e as a dense (2D, 2D) block over (plus, minus)
    dofs: the edge block plus a third of each adjacent element's
    stiffness. A boundary edge's minus half is zero."""
    r = space.degree
    volume = _volume_stiffness_blocks(
        space, _volume_tables(r, cfg.resolved_volume_degree(r)))
    edges = space.mesh.edges
    forms = _edge_blocks(space, cfg).copy()
    for side in (0, 1):
        present = edges.tri[:, side] >= 0
        forms[present, side, :, side, :] += \
            volume[edges.tri[present, side]] / 3.0
    d = space.dofs_per_element
    return forms.reshape(-1, 2 * d, 2 * d)


@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_local_forms_sum_to_the_operator_and_annihilate_constants(mesh, r):
    # the two facts the certificate rests on
    space = perturbed_space(r) if mesh == "perturbed" else space_on(6, r)
    cfg = AssemblyConfig(penalty=37.0)
    forms = local_forms(space, cfg)
    d, edges = space.dofs_per_element, space.mesh.edges
    total = np.zeros((space.total_dofs, space.total_dofs))
    for form, (plus, minus) in zip(forms, edges.tri):
        dofs = np.r_[plus * d:(plus + 1) * d,
                     (minus if minus >= 0 else plus) * d + np.arange(d)]
        half = 2 * d if minus >= 0 else d
        total[np.ix_(dofs[:half], dofs[:half])] += form[:half, :half]
    a = assemble_bilinear(space, cfg).full().toarray()
    assert np.abs(total - a).max() <= 1e-13 * np.abs(a).max()
    inner = forms[~edges.boundary]
    assert np.abs(inner @ np.ones(2 * d)).max() \
        <= 1e-12 * np.abs(inner).max()


PENALTIES = [0.01, 1.0, 5.0, 10.0, 20.0, 30.0, 50.0, 100.0, 1000.0, 2000.0]


@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_certificate_never_passes_an_indefinite_operator(mesh, r):
    space = dgsl.DGSpace(dgsl.build_perturbed(4, 0.2, 5), r) \
        if mesh == "perturbed" else space_on(4, r)
    verdicts = []
    for penalty in PENALTIES:
        a = assemble_bilinear(space, AssemblyConfig(penalty=penalty))
        smallest = eigvalsh(a.full().toarray()).min()
        if a.certified:
            assert smallest > 0.0, (penalty, smallest)
        verdicts.append(a.certified)
    # every penalty at the smallest certified one and above passes, and
    # the tiny penalties never do
    first = verdicts.index(True)
    assert all(verdicts[first:]) and PENALTIES[first] <= 100.0
    assert not verdicts[0]


def config_levels(cfg):
    return [dgsl.DGSpace(cfg.build_level_mesh(i), cfg.degree)
            for i in range(len(cfg.levels))]


@pytest.mark.parametrize("name", ["table_r1.conf", "penalty_sweep.conf"])
def test_certificate_passes_the_shipped_configurations(name):
    cfg, penalties = build_run_config(
        parse_config_text((CONFIGS / name).read_text()))
    for space in config_levels(cfg):
        for penalty in penalties:
            assert assemble_bilinear(space, AssemblyConfig(penalty)).certified


def test_certificate_passes_the_p3_perturbed_ladder():
    cfg = RunConfig(degree=3, penalty=100.0, mesh_kind="perturbed",
                    levels=(16, 32, 64), seed=42, volume_degree=14,
                    edge_degree=12)
    for space in config_levels(cfg):
        assert assemble_bilinear(space, cfg.assembly_config()).certified


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), amplitude=st.floats(0.0, 0.3),
       seed=st.integers(0, 2 ** 16), r=st.integers(1, 3),
       log_penalty=st.floats(-2.0, np.log10(2000.0)))
def test_certificate_is_sound_on_random_perturbed_meshes(n, amplitude, seed,
                                                         r, log_penalty):
    try:
        mesh = dgsl.build_perturbed(n, amplitude, seed)
    except PerturbationFoldover:
        assume(False)
    a = assemble_bilinear(dgsl.DGSpace(mesh, r),
                          AssemblyConfig(penalty=10.0 ** log_penalty))
    if a.certified:
        assert eigvalsh(a.full().toarray()).min() > 0.0


@pytest.mark.parametrize("degree", range(1, MAX_TRIANGLE_DEGREE + 1))
def test_kernel_measure_is_positive_at_every_volume_degree(sine, degree):
    # with N'(u) >= 0 at every quadrature point, which the mass add
    # checks, each mass block is a sum of positive semidefinite rank-one
    # terms N'(u) x det x weight V V^T, which needs det x weight > 0
    kernel = NewtonKernel(perturbed_space(1), sine,
                          AssemblyConfig(penalty=100.0, volume_degree=degree))
    assert kernel.measure(slice(None)).min() > 0.0
