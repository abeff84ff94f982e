"""Error norms, energy projection, observed orders, trace constant."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse.linalg import spsolve

import dgsl
import dgsl.linear_solver
from dgsl import (AssemblyConfig, DGVector, assemble_bilinear, dg_error,
                  dg_norm_discrete, elliptic_project, interpolate, l2_error,
                  observed_orders)
from dgsl.analysis import (apply_bilinear_to_field, estimate_trace_constant,
                           l2_norm_discrete)
from dgsl.errors import InsufficientLevels
from dgsl.problems import ExactSolution
from dgsl.properties import polynomial_field
from dgsl.quadrature import edge_rule, triangle_rule
from dgsl.space import edge_traces, p1_prolongation

from conftest import space_on, weak_form_load


def linear_exact(a=1.5, b=-0.75, c=0.2):
    return ExactSolution(
        value=lambda x, y: a * x + b * y + c,
        gradient=lambda x, y: (a * np.ones_like(x), b * np.ones_like(y)),
        laplacian=lambda x, y: 0.0 * x,
    )


ZERO = ExactSolution(value=lambda x, y: 0.0 * x,
                     gradient=lambda x, y: (0.0 * x, 0.0 * y),
                     laplacian=lambda x, y: 0.0 * x)


def test_l2_error_definitional_cases(sine):
    space = space_on(8, 1)
    zero = DGVector(space, np.zeros(space.total_dofs))
    assert l2_error(space, zero, ZERO) == 0.0
    v = interpolate(space, sine.exact.value)
    err = l2_error(space, v, sine.exact)
    assert err > 0.0
    # the default analysis degree leaves quadrature error far below the
    # value itself; a much finer rule must agree to many digits
    assert_allclose(err, l2_error(space, v, sine.exact, quad_degree=12),
                    rtol=1e-7)


def test_exact_solution_gradient_self_consistency(sine, rng):
    x = rng.uniform(0.1, 0.9, 40)
    y = rng.uniform(0.1, 0.9, 40)
    eps = 1e-6
    gx, gy = sine.exact.gradient(x, y)
    fd_x = (sine.exact.value(x + eps, y) - sine.exact.value(x - eps, y)) / (2 * eps)
    fd_y = (sine.exact.value(x, y + eps) - sine.exact.value(x, y - eps)) / (2 * eps)
    assert np.abs(gx - fd_x).max() < 1e-6
    assert np.abs(gy - fd_y).max() < 1e-6


def test_dg_error_exact_reproduction_is_zero():
    # linear exact, r = 1: interpolant reproduces it, every term vanishes
    space = space_on(3, 1)
    v = interpolate(space, linear_exact().value)
    assert dg_error(space, v, linear_exact(), 100.0) <= 1e-11


def test_interpolant_energy_rate_is_one(sine):
    errors = []
    for n in (8, 16, 32):
        space = space_on(n, 1)
        v = interpolate(space, sine.exact.value)
        errors.append((1.0 / n, dg_error(space, v, sine.exact, 100.0)))
    for order in observed_orders(errors):
        assert abs(order - 1.0) <= 0.15


def test_dg_error_dominates_volume_part(sine):
    # edge terms are nonnegative, so dropping them cannot increase the value
    space = space_on(8, 1)
    v = interpolate(space, sine.exact.value)
    full = dg_error(space, v, sine.exact, 100.0)
    rule = triangle_rule(8)
    gtab = space.basis.gradients(rule.points)
    grads = np.einsum("ed,qda,eab->eqb", v.by_element(), gtab,
                      space.inv_jacobians)
    pts = space.physical_points(rule.points)
    gx, gy = sine.exact.gradient(pts[..., 0], pts[..., 1])
    diff = np.stack([gx, gy], axis=-1) - grads
    volume = np.sqrt(np.einsum("e,q,eqa->", space.dets, rule.weights,
                               diff ** 2))
    assert full >= volume - 1e-13


def einsum_edge_terms(space, v, exact, penalty):
    """Reference for the edge terms of the DG norm: the field's traces
    contracted term by term from the per-edge basis tables."""
    rule = edge_rule(2 * space.degree + 4)
    edges = space.mesh.edges
    values, grads = edge_traces(space, rule.points)
    coeffs = v.by_element()[np.maximum(edges.tri, 0)]
    side_v = np.einsum("msqd,msd->msq", values, coeffs)
    side_g = np.einsum("msqda,msd->msqa", grads, coeffs)
    avg = np.where(edges.boundary, 1.0, 0.5)[:, None, None] * side_g.sum(axis=1)
    jump = side_v[:, 0] - side_v[:, 1]
    if exact is not None:
        pts = dgsl.analysis._edge_points(space.mesh, rule.points)
        gx, gy = exact.gradient(pts[..., 0], pts[..., 1])
        avg = np.stack([gx, gy], axis=-1) - avg
        u = exact.value(pts[..., 0], pts[..., 1])
        jump = np.where(edges.boundary[:, None], u - jump, -jump)
    # the weights h_e / penalty and penalty / h_e times the edge measure h_e
    return (np.einsum("m,q,mqa->", edges.length ** 2 / penalty, rule.weights,
                      avg ** 2),
            penalty * np.einsum("q,mq->", rule.weights, jump ** 2))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_dg_error_matches_einsum_reference(sine, r):
    # the volume gradients are matrix products and the edge traces come
    # from the reference tables; the reference contracts both term by
    # term from per-edge basis tables, so the two agree to rounding
    space = dgsl.DGSpace(dgsl.build_perturbed(6, 0.2, 3), r)
    v = interpolate(space, lambda x, y: np.exp(x) * np.cos(3 * y))
    rule = triangle_rule(2 * r + 4)
    pts = space.physical_points(rule.points)
    for u in (sine.exact, None):
        grads = np.einsum("ed,qda,eab->eqb", v.by_element(),
                          space.basis.gradients(rule.points),
                          space.inv_jacobians)
        if u is not None:
            gx, gy = u.gradient(pts[..., 0], pts[..., 1])
            grads = np.stack([gx, gy], axis=-1) - grads
        volume = np.einsum("e,q,eqa->", space.dets, rule.weights, grads ** 2)
        avg, jump = einsum_edge_terms(space, v, u, 100.0)
        assert_allclose(dg_error(space, v, u, 100.0),
                        np.sqrt(volume + avg + jump), rtol=1e-13)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("perturbed", [False, True])
def test_apply_bilinear_matches_einsum_reference(r, perturbed):
    # on polynomials both quadratures are exact, so consistency's volume
    # and boundary terms equal the weak form's to rounding
    mesh = dgsl.build_perturbed(5, 0.2, 7) if perturbed else dgsl.build_structured(5)
    space = dgsl.DGSpace(mesh, r)
    cfg = AssemblyConfig(penalty=37.0)
    for w in (linear_exact(), linear_exact(-0.5, 2.0, 1.0),
              polynomial_field(r + 2)):
        got = apply_bilinear_to_field(space, w, cfg)
        want = weak_form_load(space, w, cfg)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_apply_bilinear_reads_traces_on_boundary_edges_only(monkeypatch):
    # the consistency form has boundary terms alone, so it has no use for
    # the traces of interior edges
    selected = []
    traces = dgsl.analysis.edge_traces

    def recording(space, params, select=slice(None)):
        selected.append(select)
        return traces(space, params, select)

    monkeypatch.setattr(dgsl.analysis, "edge_traces", recording)
    space = dgsl.DGSpace(dgsl.build_perturbed(5, 0.2, 7), 2)
    apply_bilinear_to_field(space, polynomial_field(3), AssemblyConfig(penalty=37.0))
    select, = selected
    assert np.array_equal(select, np.flatnonzero(space.mesh.edges.boundary))


def test_norms_never_build_per_edge_basis_tables(monkeypatch, rng):
    # the norms read a field's traces from the cached reference tables;
    # a per-edge basis table would bring back a per-call cost that grows
    # with the mesh
    def forbidden(*args):
        raise AssertionError("edge_traces called")

    monkeypatch.setattr(dgsl.space, "edge_traces", forbidden)
    monkeypatch.setattr(dgsl.analysis, "edge_traces", forbidden)
    space = dgsl.DGSpace(dgsl.build_perturbed(4, 0.2, 5), 2)
    v = DGVector(space, rng.standard_normal(space.total_dofs))
    tables = dgsl.space.edge_tables
    dg_norm_discrete(space, v, 10.0)
    first = tables.cache_info()
    dg_error(space, v, linear_exact(), 10.0)
    second = tables.cache_info()
    assert second.misses == first.misses
    assert second.hits > first.hits


def test_norms_reuse_the_cached_volume_tables(monkeypatch, rng):
    # after one call at a degree, the volume rule's basis values and
    # gradients come from assembly's cache, not from the basis again
    space = dgsl.DGSpace(dgsl.build_perturbed(4, 0.2, 5), 2)
    v = DGVector(space, rng.standard_normal(space.total_dofs))
    cfg = AssemblyConfig(penalty=10.0)
    calls = [lambda: l2_error(space, v, linear_exact()),
             lambda: dg_error(space, v, linear_exact(), 10.0),
             lambda: dg_norm_discrete(space, v, 10.0),
             lambda: apply_bilinear_to_field(space, linear_exact(), cfg)]
    for call in calls:
        call()
    evaluated = []
    basis = dgsl.basis.ReferenceBasis

    def recording(name):
        original = getattr(basis, name)

        def wrapper(self, points):
            evaluated.append(name)
            return original(self, points)
        return wrapper

    for name in ("values", "gradients"):
        monkeypatch.setattr(basis, name, recording(name))
    for call in calls:
        call()
    assert evaluated == []


def test_trace_constant_matches_per_edge_einsum():
    # the edge mass of each side is h_e times a reference matrix; the
    # reference builds it per edge from the basis traces
    space = dgsl.DGSpace(dgsl.build_perturbed(5, 0.25, 11), 3)
    erule = edge_rule(2 * space.degree + 2)
    values, _ = edge_traces(space, erule.points)
    edges = space.mesh.edges
    present = edges.tri >= 0
    h_e = np.broadcast_to(edges.length[:, None], present.shape)[present]
    mass = h_e[:, None, None] * np.einsum("q,kqi,kqj->kij", erule.weights,
                                          values[present], values[present])
    vol = dgsl.assembly._volume_tables(3, 8)
    mass_ref = np.einsum("q,qi,qj->ij", vol.rule.weights, vol.values, vol.values)
    tri = edges.tri[present]
    denom = space.dets[tri, None, None] * mass_ref / h_e[:, None, None] \
        + h_e[:, None, None] * dgsl.assembly._volume_stiffness_blocks(space, vol)[tri]
    want = max(float(np.max(np.linalg.eigvals(np.linalg.solve(d, m)).real))
               for d, m in zip(denom, mass))
    assert_allclose(estimate_trace_constant(space), want, rtol=1e-10)


def test_norms_of_a_field_are_its_errors_against_zero(rng):
    # exact=None measures the field itself, bit for bit as against u = 0
    space = space_on(3, 2)
    v = DGVector(space, rng.standard_normal(space.total_dofs))
    assert dg_norm_discrete(space, v, 100.0) == dg_error(space, v, ZERO, 100.0)
    assert l2_error(space, v, None) == l2_error(space, v, ZERO)
    assert l2_norm_discrete(space, v) == l2_error(space, v, ZERO, quad_degree=6)


def test_discrete_norm_axioms(rng):
    space = space_on(3, 2)
    zero = dg_norm_discrete(
        space, DGVector(space, np.zeros(space.total_dofs)), 100.0)
    assert zero == 0.0
    for _ in range(20):
        v = DGVector(space, rng.standard_normal(space.total_dofs))
        w = DGVector(space, rng.standard_normal(space.total_dofs))
        c = float(rng.uniform(-3, 3))
        nv = dg_norm_discrete(space, v, 100.0)
        nw = dg_norm_discrete(space, w, 100.0)
        scaled = dg_norm_discrete(space, DGVector(space, c * v.coeffs), 100.0)
        assert_allclose(scaled, abs(c) * nv, rtol=1e-13)
        both = dg_norm_discrete(space, DGVector(space, v.coeffs + w.coeffs),
                                100.0)
        assert both <= nv + nw + 1e-12


def test_l2_dominated_by_energy_norm_mesh_independently(sine, rng):
    # random fields are jump-dominated (tiny ratio); the smooth
    # interpolant sits near the extremal ratio, which must not grow
    ratios = {}
    for n in (8, 32):
        space = space_on(n, 1)
        worst = 0.0
        for _ in range(50):
            v = DGVector(space, rng.standard_normal(space.total_dofs))
            worst = max(worst, l2_norm_discrete(space, v)
                        / dg_norm_discrete(space, v, 100.0))
        smooth = interpolate(space, sine.exact.value)
        worst = max(worst, l2_norm_discrete(space, smooth)
                    / dg_norm_discrete(space, smooth, 100.0))
        ratios[n] = worst
    drift = abs(ratios[8] - ratios[32]) / ratios[8]
    assert drift < 0.20


@pytest.mark.parametrize("r", [1, 2])
def test_projection_reproduces_linears(r):
    space = space_on(3, r)
    proj = elliptic_project(space, linear_exact(), AssemblyConfig(penalty=100.0))
    assert l2_error(space, proj, linear_exact()) <= 1e-10


def test_projection_l2_rate(sine):
    errors = []
    for n in (8, 16, 32):
        space = space_on(n, 1)
        proj = elliptic_project(space, sine.exact, AssemblyConfig(penalty=100.0))
        errors.append((1.0 / n, l2_error(space, proj, sine.exact)))
    for order in observed_orders(errors):
        assert abs(order - 2.0) <= 0.1


def test_projection_galerkin_orthogonality(sine, rng):
    space = space_on(6, 1)
    cfg = AssemblyConfig(penalty=100.0)
    a = assemble_bilinear(space, cfg)
    proj = elliptic_project(space, sine.exact, cfg)
    rhs = apply_bilinear_to_field(space, sine.exact, cfg)
    gap = rhs - a @ proj.coeffs  # = a(w - P w, phi_i)
    scale = np.linalg.norm(rhs)
    for _ in range(20):
        v = rng.standard_normal(space.total_dofs)
        assert abs(float(v @ gap)) <= 1e-9 * scale * np.linalg.norm(v)


def test_projection_is_linear(sine):
    space = space_on(4, 1)
    cfg = AssemblyConfig(penalty=100.0)
    lin = linear_exact(0.4, 0.3, 0.0)
    combo = ExactSolution(
        value=lambda x, y: 2.0 * sine.exact.value(x, y) - 3.0 * lin.value(x, y),
        gradient=lambda x, y: tuple(
            2.0 * s - 3.0 * l for s, l in zip(sine.exact.gradient(x, y),
                                              lin.gradient(x, y))),
        laplacian=lambda x, y: 2.0 * sine.exact.laplacian(x, y),
    )
    p_sine = elliptic_project(space, sine.exact, cfg)
    p_lin = elliptic_project(space, lin, cfg)
    p_combo = elliptic_project(space, combo, cfg)
    assert_allclose(p_combo.coeffs, 2.0 * p_sine.coeffs - 3.0 * p_lin.coeffs,
                    atol=1e-9)


@pytest.mark.parametrize("r, penalty, reads", [
    (2, 100.0, []),         # certified: the coarse factor alone
    (1, 5.0, ["U"]),        # SPD, not certified: one fine factor proves it
], ids=["certified", "pivots"])
def test_projection_runs_two_level_pcg(sine, monkeypatch, factor_reads,
                                       r, penalty, reads):
    space, cfg = space_on(8, r), AssemblyConfig(penalty=penalty)
    a = assemble_bilinear(space, cfg)
    assert a.certified == (not reads)
    factored = []
    splu = dgsl.linear_solver.splu
    monkeypatch.setattr(dgsl.linear_solver, "splu", lambda csc, **options:
                        factored.append(csc.shape[0]) or splu(csc, **options))
    proj = elliptic_project(space, sine.exact, cfg)
    coarse = p1_prolongation(space).shape[1]
    assert factored == ([a.dim] if reads else []) + [coarse]
    assert factor_reads == reads
    ref = spsolve(a.csr.tocsc(), apply_bilinear_to_field(space, sine.exact, cfg))
    assert np.linalg.norm(proj.coeffs - ref) <= 1e-10 * np.linalg.norm(ref)


def test_observed_orders_power_law():
    levels = [(0.5 ** k, 3.0 * (0.5 ** k) ** 2) for k in range(5)]
    assert_allclose(observed_orders(levels), 2.0, atol=1e-12)


def test_observed_orders_matches_published_tables():
    # r=1 table, penalty 100: L2 column at h = 1/16 .. 1/128
    hs = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
    l2 = [1.03e-3, 2.61e-4, 6.56e-5, 1.65e-5]
    got = observed_orders(list(zip(hs, l2)))
    assert_allclose(np.round(got, 2), [1.98, 1.99, 1.99])
    # r=3 table, energy column: orders print as 3.00
    dg = [1.40e-4, 1.75e-5, 2.18e-6, 2.73e-7]
    got = observed_orders(list(zip(hs, dg)))
    assert_allclose(np.round(got, 2), [3.00, 3.00, 3.00])


def test_observed_orders_validation():
    with pytest.raises(InsufficientLevels):
        observed_orders([(0.5, 1.0)])
    with pytest.raises(ValueError):
        observed_orders([(0.5, 1.0), (0.5, 0.5)])


def test_trace_constant_bounds():
    space = space_on(8, 1)
    estimate = estimate_trace_constant(space)
    assert estimate > 0
    # the constant-field ratio h_e^2 / |K| is a lower bound for the max
    mesh = space.mesh
    areas = mesh.areas()
    floor = (mesh.edges.length ** 2 / areas[mesh.edges.tri[:, 0]]).max()
    assert estimate >= floor - 1e-12


def test_trace_constant_mesh_independent():
    vals = [estimate_trace_constant(space_on(n, 2)) for n in (8, 32)]
    assert abs(vals[0] - vals[1]) / vals[0] < 0.10
