"""Assembly of the interior penalty bilinear form, residuals and Jacobians.

The bilinear form is

    a(w, v) = sum_K (grad w, grad v)_K
            - sum_e int_e {grad w} . [v]
            - sum_e int_e {grad v} . [w]
            + sum_e int_e (penalty / h_e) [w] . [v]

summed over all edges, with boundary-edge jumps [v] = v n and averages
{grad v} = grad v. Edges are visited once each, writing the 2x2 block
pattern of their two adjacent elements, so no term is double counted.

Element integrals reduce to combinations of reference-element tensors
contracted with per-element Jacobian data. Edge integrals contract the
basis traces of `edge_traces` for all edges at once, one (D, D) block per
pair of sides.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import NonFiniteValue
from .quadrature import edge_rule, triangle_rule
from .space import DGSpace, DGVector, edge_traces


@dataclass(frozen=True)
class AssemblyConfig:
    """Penalty parameter and quadrature degrees for operator assembly.

    `volume_degree` defaults to 3r+1 (the cubic nonlinearity is
    under-integrated by design at a configurable degree) and
    `edge_degree` to 2r+2, which is exact for every polynomial edge
    integrand in the bilinear form.
    """

    penalty: float
    volume_degree: Optional[int] = None
    edge_degree: Optional[int] = None

    def __post_init__(self):
        if not self.penalty > 0.0:
            raise ValueError(f"penalty must be positive, got {self.penalty}")

    def resolved_volume_degree(self, r):
        return self.volume_degree if self.volume_degree is not None else 3 * r + 1

    def resolved_edge_degree(self, r):
        return self.edge_degree if self.edge_degree is not None else 2 * r + 2


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric sparse operator in compressed sparse row storage."""

    csr: sparse.csr_matrix

    @property
    def dim(self):
        return self.csr.shape[0]

    @property
    def row_offsets(self):
        return self.csr.indptr

    @property
    def col_indices(self):
        return self.csr.indices

    @property
    def values(self):
        return self.csr.data

    def __matmul__(self, x):
        return self.csr @ x

    def __add__(self, other):
        return SparseSymMatrix(sparse.csr_matrix(self.csr + other.csr))

    def __sub__(self, other):
        return SparseSymMatrix(sparse.csr_matrix(self.csr - other.csr))

    def toarray(self):
        return self.csr.toarray()

    def max_asymmetry(self):
        """max |A - A^T| over all entries (0 for an empty matrix)."""
        diff = (self.csr - self.csr.T).tocoo()
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0

    def max_abs(self):
        return float(np.abs(self.csr.data).max()) if self.csr.nnz else 0.0


class _VolumeTables:
    """Reference tables for element integrals at one quadrature degree."""

    def __init__(self, basis, degree):
        self.rule = triangle_rule(degree)
        self.values = basis.values(self.rule.points)          # (Q, D)
        self.gradients = basis.gradients(self.rule.points)    # (Q, D, 2)
        w = self.rule.weights
        # stiff_ref[a, b] = sum_q w_q ghat[q,:,a] ghat[q,:,b]^T
        self.stiff_ref = np.einsum("q,qia,qjb->abij", w,
                                   self.gradients, self.gradients)


_TABLE_CACHE = {}


def _volume_tables(basis, degree):
    key = (basis.degree, degree)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = _VolumeTables(basis, degree)
    return _TABLE_CACHE[key]


def _scatter_blocks(space, row_offsets, col_offsets, blocks):
    """CSR matrix from dense (D, D) blocks placed at element offsets."""
    d = space.dofs_per_element
    ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    rows = (row_offsets[:, None, None] + ii[None]).ravel()
    cols = (col_offsets[:, None, None] + jj[None]).ravel()
    n = space.total_dofs
    coo = sparse.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n))
    return SparseSymMatrix(sparse.csr_matrix(coo))


def _volume_stiffness_blocks(space, vol):
    # grad phi_i . grad phi_j contracts the reference tensor with
    # invJ invJ^T per element; det converts reference to physical measure.
    metric = np.einsum("eab,ecb->eac", space.inv_jacobians, space.inv_jacobians)
    return np.einsum("e,eab,abij->eij", space.dets, metric, vol.stiff_ref)


def _element_offsets(space):
    return np.arange(space.num_elements, dtype=np.int64) * space.dofs_per_element


def assemble_bilinear(space: DGSpace, cfg: AssemblyConfig) -> SparseSymMatrix:
    """Assemble the full interior penalty operator."""
    r = space.degree
    vol = _volume_tables(space.basis, cfg.resolved_volume_degree(r))
    rule = edge_rule(cfg.resolved_edge_degree(r))
    edges = space.mesh.edges
    values, grads = edge_traces(space, rule.points)

    # jump[m, s, q, i] = sign_s phi_i on side s; flux pairs test jumps
    # with trial normal derivatives, whose averages weigh 1/2 inside
    jump = values * np.array([1.0, -1.0])[None, :, None, None]
    normal_grad = np.einsum("msqia,ma->msqi", grads, edges.normal)
    flux = np.einsum("q,mtqi,msqj->mtsij", rule.weights, jump, normal_grad)
    half_h = np.where(edges.boundary, 1.0, 0.5) * edges.length
    blocks = -half_h[:, None, None, None, None] * (flux + flux.transpose(0, 2, 1, 4, 3))
    blocks += cfg.penalty * np.einsum("q,mtqi,msqj->mtsij", rule.weights, jump, jump)

    present = edges.tri >= 0
    pairs = present[:, :, None] & present[:, None, :]
    offs = _element_offsets(space)
    side_offs = offs[np.where(present, edges.tri, 0)]
    rows0 = np.broadcast_to(side_offs[:, :, None], pairs.shape)[pairs]
    cols0 = np.broadcast_to(side_offs[:, None, :], pairs.shape)[pairs]
    return _scatter_blocks(space, np.concatenate([rows0, offs]),
                           np.concatenate([cols0, offs]),
                           np.concatenate([blocks[pairs],
                                           _volume_stiffness_blocks(space, vol)]))


def _finite(values, what):
    """`values` as a float array; NonFiniteValue if any is NaN or inf."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"{what} is not finite at some quadrature points")
    return values


def element_point_values(space: DGSpace, v: DGVector, values_table):
    """Field values at the table's quadrature points, shape (E, Q)."""
    return np.einsum("ed,qd->eq", v.by_element(), values_table)


def assemble_weighted_mass(space: DGSpace, weight, cfg: AssemblyConfig,
                           at_field: Optional[DGVector] = None) -> SparseSymMatrix:
    """Mass matrix with pointwise weight.

    `weight` is either weight(x, y) or, when `at_field` is given,
    weight(u(x, y)) evaluated at that field's quadrature-point values.
    """
    r = space.degree
    vol = _volume_tables(space.basis, cfg.resolved_volume_degree(r))
    pts = space.physical_points(vol.rule.points)
    if at_field is not None:
        wvals = _finite(weight(element_point_values(space, at_field, vol.values)),
                        "the mass weight N'(u)")
    else:
        wvals = _finite(weight(pts[..., 0], pts[..., 1]),
                        "the mass weight w(x, y)")
    wvals = np.broadcast_to(wvals, pts.shape[:2])
    scaled = space.dets[:, None] * vol.rule.weights[None, :] * wvals
    blocks = np.einsum("eq,qi,qj->eij", scaled, vol.values, vol.values)
    offs = _element_offsets(space)
    return _scatter_blocks(space, offs, offs, blocks)


def assemble_load(space: DGSpace, f, cfg: AssemblyConfig) -> np.ndarray:
    """Load vector int_K f phi_i for a broadcastable source f(x, y)."""
    r = space.degree
    vol = _volume_tables(space.basis, cfg.resolved_volume_degree(r))
    pts = space.physical_points(vol.rule.points)
    fvals = np.broadcast_to(
        _finite(f(pts[..., 0], pts[..., 1]), "the load f(x, y)"), pts.shape[:2])
    scaled = space.dets[:, None] * vol.rule.weights[None, :] * fvals
    return np.einsum("eq,qi->ei", scaled, vol.values).ravel()


def _nonlinear_load(space, u, problem, cfg):
    """int_K (g(x) - N(u_h)) phi_i, i.e. the f(x, u_h) pairing."""
    r = space.degree
    vol = _volume_tables(space.basis, cfg.resolved_volume_degree(r))
    pts = space.physical_points(vol.rule.points)
    uvals = element_point_values(space, u, vol.values)
    fvals = np.broadcast_to(
        _finite(problem.source(pts[..., 0], pts[..., 1]), "the source g(x, y)"),
        uvals.shape,
    ) - _finite(problem.nonlinearity(uvals), "the nonlinearity N(u)")
    scaled = space.dets[:, None] * vol.rule.weights[None, :] * fvals
    return np.einsum("eq,qi->ei", scaled, vol.values).ravel()


def assemble_residual(space: DGSpace, u: DGVector, problem,
                      cfg: AssemblyConfig,
                      stiffness: Optional[SparseSymMatrix] = None) -> np.ndarray:
    """Residual a(u_h, phi_i) - (f(., u_h), phi_i); zero at the discrete
    solution up to solver tolerance."""
    a = stiffness if stiffness is not None else assemble_bilinear(space, cfg)
    return a @ u.coeffs - _nonlinear_load(space, u, problem, cfg)


def assemble_jacobian(space: DGSpace, u: DGVector, problem,
                      cfg: AssemblyConfig,
                      stiffness: Optional[SparseSymMatrix] = None) -> SparseSymMatrix:
    """Newton Jacobian: the bilinear operator plus the mass matrix
    weighted with N'(u_h) (= -f_u, nonnegative under the sign assumption)."""
    a = stiffness if stiffness is not None else assemble_bilinear(space, cfg)
    mass = assemble_weighted_mass(space, problem.d_nonlinearity, cfg, at_field=u)
    return a + mass
