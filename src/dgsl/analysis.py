"""Error norms, the energy projection, observed orders, and the oracles
used by the structural property tests.

The mesh-dependent norm is

    |||w|||^2 = sum_K ||grad w||_{0,K}^2
              + sum_e (h_e / penalty) ||{grad w}||_{0,e}^2
              + sum_e (penalty / h_e) ||[w]||_{0,e}^2

over all edges. For the error w = u - u_h of a smooth u the interior
jumps of u vanish, so [w] reduces to -[u_h] inside and (u - u_h) n on
the boundary. Norm quadrature runs at degree 2r+4 so its error stays
far below discretization error at every refinement level.

Volume integrals read the cached tables of `assembly._volume_tables`,
edge integrals `space.edge_fields` (a field) and `edge_traces` (basis).

`apply_bilinear_to_field` builds a(w, phi_i) for a smooth w from the
scheme's consistency, with no interior-edge term.
"""

from typing import Optional

import numpy as np

from .assembly import (AssemblyConfig, _volume_stiffness_blocks,
                       _volume_tables, assemble_bilinear)
from .errors import ConfigError, InsufficientLevels
from .linear_solver import solve_spd, two_level_preconditioner
from .problems import ExactSolution
from .quadrature import edge_rule
from .space import DGSpace, DGVector, edge_fields, edge_traces, p1_prolongation


def _analysis_degree(space):
    return 2 * space.degree + 4


def l2_error(space: DGSpace, v: DGVector, exact: Optional[ExactSolution],
             quad_degree: Optional[int] = None) -> float:
    """Broken L2 distance between a field and an exact solution, or the
    L2 norm of the field when `exact` is None."""
    degree = quad_degree if quad_degree is not None else _analysis_degree(space)
    vol = _volume_tables(space.degree, degree)
    diff = v.by_element() @ vol.values.T
    if exact is not None:
        pts = space.physical_points(vol.rule.points)
        diff = exact.value(pts[..., 0], pts[..., 1]) - diff
    total = space.dets @ (diff ** 2 @ vol.rule.weights)
    return float(np.sqrt(total))


def l2_norm_discrete(space: DGSpace, v: DGVector) -> float:
    """Broken L2 norm of a discrete field (exact at degree 2r)."""
    return l2_error(space, v, None, 2 * space.degree + 2)


def _edge_points(mesh, params, select=slice(None)):
    """Physical points (m, Q, 2) on the `select`ed edges, low to high end."""
    t = np.asarray(params, dtype=float)[None, :, None]
    ends = mesh.vertices[mesh.edges.endpoints[select]]
    return ends[:, None, 0] * (1.0 - t) + ends[:, None, 1] * t


def _edge_error_terms(space, v, exact, penalty):
    """Average-gradient and jump contributions of the error norm."""
    rule = edge_rule(_analysis_degree(space))
    edges = space.mesh.edges
    side_v, side_g = edge_fields(v, rule.points)
    weight = np.where(edges.boundary, 1.0, 0.5)
    avg = weight[:, None, None] * side_g.sum(axis=1)
    jump = side_v[:, 0] - side_v[:, 1]
    if exact is not None:
        pts = _edge_points(space.mesh, rule.points)
        gx, gy = exact.gradient(pts[..., 0], pts[..., 1])
        avg = np.stack([gx, gy], axis=-1) - avg
        # interior jumps of u vanish; on the boundary [u - v] = (u - v) n
        u = exact.value(pts[..., 0], pts[..., 1])
        jump = np.where(edges.boundary[:, None], u - jump, -jump)
    avg_term = (edges.length ** 2 / penalty) @ ((avg ** 2).sum(axis=2) @ rule.weights)
    jump_term = penalty * float(((jump ** 2) @ rule.weights).sum())
    return float(avg_term), jump_term


def dg_error(space: DGSpace, v: DGVector, exact: Optional[ExactSolution],
             penalty: float) -> float:
    """Mesh-dependent norm of u - v_h, using the analytic gradient of u,
    or of v_h when `exact` is None."""
    # edge terms first: their temporaries and the volume's never coexist
    avg, jump = _edge_error_terms(space, v, exact, penalty)
    vol = _volume_tables(space.degree, _analysis_degree(space))
    q, d = vol.gradients.shape[:2]                      # (Q, D, 2)
    # matrix products, not einsum: numpy would run the einsums as loops
    ref_g = v.by_element() @ vol.gradients.transpose(1, 0, 2).reshape(d, -1)
    diff = ref_g.reshape(-1, q, 2) @ space.inv_jacobians
    if exact is not None:
        pts = space.physical_points(vol.rule.points)
        gx, gy = exact.gradient(pts[..., 0], pts[..., 1])
        diff = np.stack([gx, gy], axis=-1) - diff
    volume = np.einsum("e,q,eqa->", space.dets, vol.rule.weights, diff ** 2)
    return float(np.sqrt(volume + avg + jump))


def dg_norm_discrete(space: DGSpace, v: DGVector, penalty: float) -> float:
    """Mesh-dependent norm of a discrete field."""
    return dg_error(space, v, None, penalty)


def apply_bilinear_to_field(space: DGSpace, w: ExactSolution,
                            cfg: AssemblyConfig) -> np.ndarray:
    """The functional a(w, phi_i) for a smooth field w, by the scheme's
    consistency (Arnold, Brezzi, Cockburn & Marini, SINUM 2002): w in H^2
    and its flux have no jumps across interior edges, so

        a(w, phi) = (-Lap w, phi)
                    + sum_{e on the boundary} int_e w (penalty / h_e phi - grad phi . n).
    """
    degree = _analysis_degree(space)
    vol = _volume_tables(space.degree, degree)
    pts = space.physical_points(vol.rule.points)
    lap = np.broadcast_to(w.laplacian(pts[..., 0], pts[..., 1]), pts.shape[:2])
    out = -(space.dets[:, None] * vol.rule.weights * lap) @ vol.values

    erule = edge_rule(degree)
    edges = space.mesh.edges
    wall_edges = np.flatnonzero(edges.boundary)
    values, grads = (t[:, 0] for t in edge_traces(space, erule.points, wall_edges))
    epts = _edge_points(space.mesh, erule.points, wall_edges)
    wvals = np.broadcast_to(
        np.asarray(w.value(epts[..., 0], epts[..., 1]), dtype=float), epts.shape[:2])
    normal_grad = (grads @ edges.normal[wall_edges, None, :, None])[..., 0]
    wall = ((erule.weights * wvals)[:, None]
            @ (cfg.penalty * values
               - edges.length[wall_edges, None, None] * normal_grad))[:, 0]
    np.add.at(out, edges.tri[wall_edges, 0], wall)
    return out.ravel()


def elliptic_project(space: DGSpace, exact: ExactSolution,
                     cfg: AssemblyConfig) -> DGVector:
    """Energy projection: the discrete field with a(P w, v) = a(w, v),
    solved by two-level PCG."""
    a = assemble_bilinear(space, cfg)
    rhs = apply_bilinear_to_field(space, exact, cfg)
    x, _ = solve_spd(a, rhs, two_level_preconditioner(a, p1_prolongation(space)))
    return DGVector(space, x)


def observed_orders(levels) -> list:
    """Orders log(e_prev/e_i) / log(h_prev/h_i) between consecutive levels.

    `levels` is a sequence of (h, error) pairs with strictly decreasing h.
    """
    pairs = list(levels)
    if len(pairs) < 2:
        raise InsufficientLevels("need at least two refinement levels")
    hs = [float(h) for h, _ in pairs]
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ConfigError("mesh sizes must be strictly decreasing, got h = "
                          + ", ".join(f"{h:.6g}" for h in hs))
    orders = []
    for (h1, e1), (h2, e2) in zip(pairs, pairs[1:]):
        orders.append(float(np.log(e1 / e2) / np.log(h1 / h2)))
    return orders


def estimate_trace_constant(space: DGSpace) -> float:
    """Sharpest constant in ||v||_{0,e}^2 <= C (h_e^{-1} ||v||_{0,K}^2
    + h_e |v|_{1,K}^2) over all (edge, adjacent element) pairs.

    Computed exactly per pair as the largest generalized eigenvalue of
    the edge mass matrix against the scaled element mass + stiffness,
    which dominates any sampled discrete field.
    """
    r = space.degree
    erule = edge_rule(2 * r + 2)
    vol = _volume_tables(r, 2 * r + 2)
    mass_ref = np.einsum("q,qi,qj->ij", vol.rule.weights, vol.values, vol.values)
    stiff = _volume_stiffness_blocks(space, vol)

    edges = space.mesh.edges
    present = edges.tri >= 0
    tri = edges.tri[present]
    h_e = np.broadcast_to(edges.length[:, None], present.shape)[present][:, None, None]
    sides = edge_traces(space, erule.points)[0][present]     # (k, Q, D)
    edge_mass = h_e * ((sides.transpose(0, 2, 1) * erule.weights) @ sides)
    denom = space.dets[tri, None, None] * mass_ref / h_e + h_e * stiff[tri]
    # the generalized eigenproblem reduces to a standard one through the
    # Cholesky factor L of denom: L^-1 edge_mass L^-T
    chol_inv = np.linalg.inv(np.linalg.cholesky(denom))
    reduced = chol_inv @ edge_mass @ chol_inv.transpose(0, 2, 1)
    return float(np.linalg.eigvalsh(reduced)[:, -1].max())
