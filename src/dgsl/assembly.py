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
basis traces of `edge_traces` as batched matrix products, one chunk of
`EDGE_CHUNK` edges at a time, and each chunk's (D, D) blocks go straight
into the BSR data, so assembly's peak stays within twice its matrix.

The operator is kept in its element-block form, a `bsr_matrix` with one
(D, D) block per element and two per interior edge; every block is
stored in full. The Newton Jacobian only adds element-diagonal mass
blocks to the stiffness, so `NewtonKernel.jacobian` adds them into the
stiffness's own diagonal blocks, `ELEMENT_CHUNK` elements at a time,
for the span of one `with` block, and copies the saved blocks back when
it ends: a Newton step holds no second matrix, and the stiffness is
bit-identical after every step.

Assembly also certifies coercivity edge by edge (`_local_certificate`);
the verdict travels as `SparseSymMatrix.certified`, and a stiffness
without it is proven by its pivots when it is preconditioned
(`linear_solver.two_level_preconditioner`).
"""

import contextlib
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .basis import make_basis
from .errors import ConfigError, NonFiniteValue, SignAssumptionViolated
from .quadrature import edge_rule, triangle_rule
from .space import DGSpace, edge_traces


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
        if not 0.0 < self.penalty < np.inf:
            raise ConfigError(f"penalty must be positive and finite, "
                              f"got {self.penalty}")
        # the rules own their degree ranges and raise UnsupportedDegree
        if self.volume_degree is not None:
            triangle_rule(self.volume_degree)
        if self.edge_degree is not None:
            edge_rule(self.edge_degree)

    def resolved_volume_degree(self, r):
        return self.volume_degree if self.volume_degree is not None else 3 * r + 1

    def resolved_edge_degree(self, r):
        return self.edge_degree if self.edge_degree is not None else 2 * r + 2


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric sparse operator; `csr` holds a `bsr_matrix`, with one
    (D, D) block per element when assembly built it, and `certified` is
    True only when it is proven positive definite: by assembly's local
    certificate, or for a coarse operator by its fine one."""

    csr: sparse.bsr_matrix
    certified: bool = False

    @property
    def dim(self):
        return self.csr.shape[0]

    def __matmul__(self, x):
        return self.csr @ x

    def max_asymmetry(self):
        """max |A - A^T| over all entries (0 for an empty matrix)."""
        diff = (self.csr - self.csr.T).tocoo()
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0

    def max_abs(self):
        """max |a_ij| (0 for an empty matrix), without a temporary the
        size of the matrix."""
        data = self.csr.data
        return float(max(data.max(), -data.min())) if data.size else 0.0


class _VolumeTables:
    """Reference tables for element integrals at one quadrature degree."""

    def __init__(self, r, degree):
        basis = make_basis(r)
        self.rule = triangle_rule(degree)
        self.values = basis.values(self.rule.points)          # (Q, D)
        self.gradients = basis.gradients(self.rule.points)    # (Q, D, 2)
        # value_pairs[q, i D + j] = phi_i(x_q) phi_j(x_q)
        self.value_pairs = (self.values[:, :, None]
                            * self.values[:, None, :]).reshape(len(self.rule), -1)
        w = self.rule.weights
        # stiff_ref[a, b] = sum_q w_q ghat[q,:,a] ghat[q,:,b]^T
        self.stiff_ref = np.einsum("q,qia,qjb->abij", w,
                                   self.gradients, self.gradients)


@functools.lru_cache(maxsize=None)
def _volume_tables(r, degree):
    return _VolumeTables(r, degree)


def _volume_stiffness_blocks(space, vol):
    # grad phi_i . grad phi_j contracts the reference tensor with
    # invJ invJ^T per element; det converts reference to physical measure.
    metric = np.einsum("eab,ecb->eac", space.inv_jacobians, space.inv_jacobians)
    d = space.dofs_per_element
    scaled = space.dets[:, None] * metric.reshape(-1, 4)
    return (scaled @ vol.stiff_ref.reshape(4, d * d)).reshape(-1, d, d)


# edges per assembly chunk: a chunk's arrays stay well below the matrix
EDGE_CHUNK = 512


def _edge_blocks(space, cfg, select=slice(None)):
    """Flux and penalty blocks of the `select`ed edges as (m, 2, D, 2, D):
    entry [m, t, i, s, j] couples test function i on side t with trial
    function j on side s (side 0 plus, side 1 minus)."""
    rule = edge_rule(cfg.resolved_edge_degree(space.degree))
    edges = space.mesh.edges
    values, grads = edge_traces(space, rule.points, select)
    m, _, q, d = values.shape

    # jump[m, q, (s, i)] = sign_s phi_i on side s; flux pairs jumps with
    # normal derivatives, whose averages weigh 1/2 inside
    values[:, 1] *= -1.0
    jump = values.transpose(0, 2, 1, 3).reshape(m, q, 2 * d)
    normal_grad = np.einsum("msqia,ma->msqi", grads, edges.normal[select]) \
        .transpose(0, 2, 1, 3).reshape(m, q, 2 * d)
    half_h = (np.where(edges.boundary[select], 1.0, 0.5)
              * edges.length[select])[:, None, None]
    # one product over the stacked quadrature points gives
    # J^T W (penalty J - h G) + G^T W (-h J): the penalty term and both
    # symmetric flux terms
    left = np.concatenate([jump, normal_grad], axis=1) \
        * np.tile(rule.weights, 2)[:, None]
    right = np.concatenate([cfg.penalty * jump - half_h * normal_grad,
                            -half_h * jump], axis=1)
    return (left.transpose(0, 2, 1) @ right).reshape(m, 2, d, 2, d)


# relative shift each local block must survive: far above the rounding
# of its entries, far below the smallest relative eigenvalue of a block
# that should pass (about 3e-5 at P1-P3 and penalty 2000)
CERTIFICATE_MARGIN = 1e-10


def _local_certificate(tri, blocks, third):
    """True when the edge forms Q_e of the edges with (plus, minus)
    triangles `tri` pass; passing on all edges proves a(v, v) > 0.

    Q_e is the edge block plus `third`, a third of the volume stiffness,
    of each adjacent element, so sum_e Q_e = a. A boundary Q_e must be
    positive definite. An interior Q_e maps the constant (all ones in a
    Lagrange basis) to zero and must be positive definite once that is
    lifted by a multiple of 1 1^T. Then a(v, v) = 0 makes v one constant
    on each edge-connected part of the mesh and zero at its boundary, so
    v = 0. Conservative: P1 at penalty 5, P2 at 10-20, P3 at 20-50 fail.
    """
    d = third.shape[1]
    outer = tri[:, 1] < 0
    boundary_forms = blocks[outer, 0, :, 0, :] + third[tri[outer, 0]]
    interior_forms = blocks[~outer]
    for side in (0, 1):
        interior_forms[:, side, :, side, :] += third[tri[~outer, side]]
    for forms, lift in ((boundary_forms, 0.0),
                        (interior_forms.reshape(-1, 2 * d, 2 * d), 1.0)):
        k = forms.shape[1]
        scale = np.abs(np.diagonal(forms, axis1=1, axis2=2)) \
            .max(axis=1)[:, None, None]
        # (scale / k) 1 1^T lifts the constant to the eigenvalue `scale`
        try:
            np.linalg.cholesky(forms + lift * scale / k
                               - CERTIFICATE_MARGIN * scale * np.eye(k))
        except np.linalg.LinAlgError:
            return False
    return True


def assemble_bilinear(space: DGSpace, cfg: AssemblyConfig) -> SparseSymMatrix:
    """Assemble the full interior penalty operator, certified locally,
    in BSR form: one (D, D) block per element and two per interior edge,
    each stored in full and each block row in column order."""
    r = space.degree
    vol = _volume_tables(r, cfg.resolved_volume_degree(r))
    edges, num = space.mesh.edges, space.num_elements

    # rank[e, s]: the place of edge e among its side-s element's edges in
    # edge order, the order its self-blocks add in (3 on a missing side)
    sides = np.where(edges.tri >= 0, edges.tri, num).ravel()
    rank = np.full(len(sides), 3, dtype=np.int8)
    rank[np.argsort(sides, kind="stable")[:3 * num]] = np.tile([0, 1, 2], num)
    rank = rank.reshape(-1, 2)

    # the diagonal blocks, then each interior edge's (plus, minus) and
    # (minus, plus) blocks, at their block-row positions; every index
    # array is int32, so bsr_matrix keeps them without a copy
    plus, minus = edges.tri[~edges.boundary].T
    elements = np.arange(num)
    block_rows = np.concatenate([elements, plus, minus], dtype=np.int32)
    block_cols = np.concatenate([elements, minus, plus], dtype=np.int32)
    order = np.lexsort((block_cols, block_rows))
    indptr = np.zeros(num + 1, dtype=np.int32)
    np.cumsum(np.bincount(block_rows, minlength=num), out=indptr[1:])
    indices = block_cols[order]
    diagonal, upper, lower = np.split(np.argsort(order).astype(np.int32),
                                      [num, num + len(plus)])
    del sides, block_rows, block_cols, order

    d, n = space.dofs_per_element, space.total_dofs
    data = np.empty((len(indices), d, d))
    third = _volume_stiffness_blocks(space, vol)
    data[diagonal] = third
    third /= 3.0
    certified, placed = True, 0
    for lo in range(0, len(edges), EDGE_CHUNK):
        chunk = slice(lo, lo + EDGE_CHUNK)
        blocks = _edge_blocks(space, cfg, chunk)
        tri, inner = edges.tri[chunk], ~edges.boundary[chunk]
        for k in range(3):
            e, s = np.nonzero(rank[chunk] == k)
            data[diagonal[tri[e, s]]] += blocks[e, s, :, s, :]
        # the chunk's interior edges are the next ones in edge order
        within = slice(placed, placed + np.count_nonzero(inner))
        placed = within.stop
        data[upper[within]] = blocks[inner, 0, :, 1, :]
        data[lower[within]] = blocks[inner, 1, :, 0, :]
        certified = certified and _local_certificate(tri, blocks, third)
    a = sparse.bsr_matrix((data, indices, indptr), shape=(n, n))
    return SparseSymMatrix(a, certified)


def _finite(values, what):
    """`values` as a float array; NonFiniteValue if any is NaN or inf."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"{what} is not finite at some quadrature points")
    return values


def _diagonal_block_positions(a: SparseSymMatrix):
    """Positions in `a.csr.data` of the element-diagonal blocks, in
    element order; every such block must be stored."""
    counts = np.diff(a.csr.indptr)
    positions = np.flatnonzero(
        a.csr.indices == np.repeat(np.arange(len(counts)), counts))
    if len(positions) != len(counts):
        raise ValueError("the matrix does not store every "
                         "element-diagonal block")
    return positions


# elements per chunk of the source evaluation and the mass add: a
# chunk's arrays stay far below the matrix
ELEMENT_CHUNK = 2048


class NewtonKernel:
    """Residual and Jacobian of one problem on one space, as matrix
    products against tables computed once per solve.

    Holds the volume tables V (Q, D) and V (x) V (Q, D^2), the measure
    dets x weights (E, Q), the source g at the quadrature points
    (evaluated in element chunks and checked once) and the positions of
    the element-diagonal blocks in the stiffness. A Jacobian is the
    stiffness itself with the N'(u_h)-weighted mass blocks added in
    place, for the span of one `jacobian` block.
    """

    def __init__(self, space: DGSpace, problem, cfg: AssemblyConfig,
                 stiffness: Optional[SparseSymMatrix] = None):
        self.space = space
        self.problem = problem
        self.stiffness = stiffness if stiffness is not None \
            else assemble_bilinear(space, cfg)
        vol = _volume_tables(space.degree,
                             cfg.resolved_volume_degree(space.degree))
        self.values = vol.values
        self.value_pairs = vol.value_pairs
        self.measure = space.dets[:, None] * vol.rule.weights[None, :]
        self.source = np.empty(self.measure.shape)
        for lo in range(0, space.num_elements, ELEMENT_CHUNK):
            chunk = slice(lo, lo + ELEMENT_CHUNK)
            pts = space.physical_points(vol.rule.points, chunk)
            self.source[chunk] = _finite(problem.source(
                pts[..., 0], pts[..., 1]), "the source g(x, y)")
        self.diagonal_positions = _diagonal_block_positions(self.stiffness)

    def residual(self, u: np.ndarray) -> np.ndarray:
        """a(u_h, phi_i) - (f(., u_h), phi_i); zero at the discrete
        solution up to solver tolerance. Inside a `jacobian` block the
        stiffness holds J, so call it outside one."""
        return self.stiffness @ u - _nonlinear_load(self, u)

    def add_mass(self, u: np.ndarray):
        """Add the N'(u_h)-weighted mass blocks into the stiffness's
        diagonal blocks one element chunk at a time, building no (E, Q)
        or (E, D^2) array. SignAssumptionViolated names the first element
        where N'(u_h) < 0; the chunks before it have added their mass."""
        data, positions = self.stiffness.csr.data, self.diagonal_positions
        d = self.space.dofs_per_element
        coeffs = u.reshape(self.space.num_elements, -1)
        for lo in range(0, len(positions), ELEMENT_CHUNK):
            chunk = slice(lo, lo + ELEMENT_CHUNK)
            weight = _finite(self.problem.d_nonlinearity(
                coeffs[chunk] @ self.values.T), "the mass weight N'(u)")
            low = weight.min(axis=1)
            if low.min() < 0.0:
                e = int(np.argmax(low < 0.0))
                raise SignAssumptionViolated(
                    f"N'(u_h) = {low[e]:.6e} < 0 on element {lo + e}; the "
                    "scheme is well posed only for N' >= 0")
            data[positions[chunk]] += ((self.measure[chunk] * weight)
                                       @ self.value_pairs).reshape(-1, d, d)

    @contextlib.contextmanager
    def jacobian(self, u: np.ndarray):
        """Within the block, the stiffness plus the mass matrix weighted
        with N'(u_h) = -f_u >= 0.

        Yields the stiffness's own matrix, uncertified, with the mass
        added in place (`add_mass`, which raises SignAssumptionViolated
        where N'(u_h) < 0); the diagonal blocks saved on entry are copied
        back on exit, also when the mass add or the block raises, so the
        stiffness is bit-identical afterwards. A caller that needs J past
        the block, or beside A, copies it inside.
        """
        data, positions = self.stiffness.csr.data, self.diagonal_positions
        saved = data[positions]
        try:
            self.add_mass(u)
            yield SparseSymMatrix(self.stiffness.csr)
        finally:
            data[positions] = saved


def _nonlinear_load(kernel: NewtonKernel, u: np.ndarray) -> np.ndarray:
    """int_K (g(x) - N(u_h)) phi_i, i.e. the f(x, u_h) pairing."""
    fvals = kernel.source - _finite(kernel.problem.nonlinearity(
        u.reshape(kernel.space.num_elements, -1) @ kernel.values.T),
        "the nonlinearity N(u)")
    return ((kernel.measure * fvals) @ kernel.values).ravel()
