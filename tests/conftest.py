import numpy as np
import pytest

import dgsl
import dgsl.linear_solver
import dgsl.newton
from dgsl.quadrature import edge_rule, triangle_rule
from dgsl.space import edge_traces


@pytest.fixture(scope="session")
def sine():
    return dgsl.get_problem("sine")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def space_on(n, r):
    return dgsl.DGSpace(dgsl.build_structured(n), r)


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
    """Reads of L or U, in order, over every factor the solver makes."""
    reads = []
    original = dgsl.linear_solver.splu
    monkeypatch.setattr(dgsl.linear_solver, "splu",
                        lambda *a, **k: CountingFactor(original(*a, **k),
                                                       reads))
    return reads


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
def uphill_steps(monkeypatch):
    """Negate every Newton step, so that no backtracking length lowers
    the residual."""
    solve = dgsl.newton.solve_spd

    def negated(*args, **kwargs):
        delta, report = solve(*args, **kwargs)
        return -delta, report

    monkeypatch.setattr(dgsl.newton, "solve_spd", negated)


@pytest.fixture
def small_space():
    return space_on(2, 1)


def weak_form_load(space, w, cfg):
    """a(w, phi_i) for a smooth field w from the weak form, as einsum
    contractions of the per-edge basis tables: volume gradients, interior
    flux terms against the jumps of phi, and on boundary edges the
    symmetry and penalty terms. A reference for the consistency form of
    `apply_bilinear_to_field`; the two agree to rounding where both
    quadratures are exact."""
    degree = 2 * space.degree + 4
    rule = triangle_rule(degree)
    gtab = space.basis.gradients(rule.points)
    pts = space.physical_points(rule.points)
    gx, gy = w.gradient(pts[..., 0], pts[..., 1])
    gw = np.stack([np.broadcast_to(gx, pts.shape[:2]),
                   np.broadcast_to(gy, pts.shape[:2])], axis=-1)
    phys_g = np.einsum("qia,eab->eqib", gtab, space.inv_jacobians)
    out = np.einsum("e,q,eqa,eqia->ei", space.dets, rule.weights, gw, phys_g)
    erule = edge_rule(degree)
    edges = space.mesh.edges
    values, grads = edge_traces(space, erule.points)
    epts = dgsl.analysis._edge_points(space.mesh, erule.points)
    shape = epts.shape[:2]
    egx, egy = w.gradient(epts[..., 0], epts[..., 1])
    gw_n = np.broadcast_to(egx, shape) * edges.normal[:, 0, None] \
        + np.broadcast_to(egy, shape) * edges.normal[:, 1, None]
    jump = values * np.array([1.0, -1.0])[None, :, None, None]
    side = -edges.length[:, None, None] * np.einsum(
        "q,mq,msqi->msi", erule.weights, gw_n, jump)
    wvals = np.broadcast_to(w.value(epts[..., 0], epts[..., 1]), shape)
    normal_grad = np.einsum("mqia,ma->mqi", grads[:, 0], edges.normal)
    wall = np.einsum("q,mq,mqi->mi", erule.weights, wvals,
                     cfg.penalty * values[:, 0]
                     - edges.length[:, None, None] * normal_grad)
    side[:, 0] += np.where(edges.boundary[:, None], wall, 0.0)
    present = edges.tri >= 0
    np.add.at(out, edges.tri[present], side[present])
    return out.ravel()
