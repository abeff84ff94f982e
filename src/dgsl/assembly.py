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
basis traces of `edge_traces` as batched matrix products, one edge chunk
at a time; the chunk is sized by the element block
(`_assembly_edge_chunk`: `EDGE_CHUNK` edges at P1, 9 / D^2 of that at
D dofs per element), so it holds about as many block entries at every
degree. The volume blocks are written into the element blocks one
`ELEMENT_CHUNK` at a time, each edge chunk's (D, D) blocks go straight
in after them, and the certificate computes the volume blocks of each
edge chunk's sides only, so assembly's peak stays within 1.5 times its
matrix, both parts, at P1-P3.

The operator is kept in two element-block parts that share no entry
(`SparseSymMatrix`): the couplings, a `bsr_matrix` with two (D, D)
blocks per interior edge, and the element blocks, a block-diagonal
`bsr_matrix` over one (E, D, D) array. The Newton Jacobian only adds
element-diagonal mass blocks to the stiffness, so
`NewtonKernel.jacobian` returns the stiffness's own couplings beside a
new diagonal, the stiffness's element blocks plus the mass blocks,
formed `ELEMENT_CHUNK` elements at a time: a Newton step holds no second
matrix of couplings, and the stiffness is never written after assembly.

Assembly also certifies coercivity edge by edge (`_local_certificate`);
the verdict travels as `SparseSymMatrix.certified`, and a stiffness
without it is proven by its pivots when it is preconditioned
(`linear_solver.two_level_preconditioner`).
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .basis import ReferenceBasis
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
    """Symmetric sparse operator csr + diagonal, in two `bsr_matrix`
    parts that share no entry: `csr` holds the couplings between
    elements, two (D, D) blocks per interior edge, and `diagonal` the
    element blocks (`_block_diagonal`). `certified` is True only when
    the operator is proven positive definite by assembly's local
    certificate."""

    csr: sparse.bsr_matrix
    diagonal: sparse.bsr_matrix
    certified: bool = False

    @property
    def dim(self):
        return self.csr.shape[0]

    def __matmul__(self, x):
        out = self.csr @ x
        out += self.diagonal @ x
        return out

    def full(self):
        """One `bsr_matrix` of both parts, exact: they share no entry."""
        return self.csr + self.diagonal

    def max_asymmetry(self):
        """max |A - A^T| over all entries (0 for an empty matrix)."""
        full = self.full()
        diff = (full - full.T).tocoo()
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0

    def max_abs(self):
        """max |a_ij| (0 for an empty matrix), without a temporary the
        size of the matrix."""
        return max((float(max(data.max(), -data.min()))
                    for data in (self.csr.data, self.diagonal.data)
                    if data.size), default=0.0)


def _block_diagonal(blocks):
    """The block-diagonal `bsr_matrix` over `blocks` (E, D, D), which it
    wraps without a copy."""
    num, d = len(blocks), blocks.shape[1]
    indptr = np.arange(num + 1, dtype=np.int32)
    return sparse.bsr_matrix((blocks, indptr[:-1], indptr),
                             shape=(num * d, num * d))


class _VolumeTables:
    """Reference tables for element integrals at one quadrature degree."""

    def __init__(self, r, degree):
        basis = ReferenceBasis(r)
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


def _volume_stiffness_blocks(space, vol, select=slice(None)):
    # grad phi_i . grad phi_j contracts the reference tensor with
    # invJ invJ^T per element; det converts reference to physical measure.
    inv = space.inv_jacobians[select]
    metric = np.einsum("eab,ecb->eac", inv, inv)
    d = space.dofs_per_element
    scaled = space.dets[select, None] * metric.reshape(-1, 4)
    return (scaled @ vol.stiff_ref.reshape(4, d * d)).reshape(-1, d, d)


# edges per chunk of the norms' edge terms, and of assembly at P1: a
# chunk's arrays stay well below the matrix
EDGE_CHUNK = 512
# elements per chunk of the source, the residual, the Jacobian's blocks
# and the norms' volume terms: a chunk's arrays stay far below the matrix
ELEMENT_CHUNK = 2048


def _edge_chunks(count, size=None):
    """Slices of at most `size` edges (default `EDGE_CHUNK`) that cover
    range(count) in order; the size is read when the sweep starts."""
    size = size or EDGE_CHUNK
    return (slice(lo, lo + size) for lo in range(0, count, size))


def _assembly_edge_chunk(d):
    """Edges per chunk of assembly at D dofs per element: `EDGE_CHUNK`
    scaled by 9 / D^2, so that a chunk holds about as many block entries
    as a P1 chunk (512, 128 and 46 edges at P1-P3), and at least one."""
    return max(1, EDGE_CHUNK * 9 // (d * d))


def _element_chunks(count):
    """Slices of at most `ELEMENT_CHUNK` elements that cover range(count)
    in order; the size is read when the sweep starts."""
    return (slice(lo, lo + ELEMENT_CHUNK)
            for lo in range(0, count, ELEMENT_CHUNK))


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

    Q_e is the edge block plus `third` (m, 2, D, D), a third of the
    volume stiffness of each adjacent element (side 0 plus, side 1
    minus; a boundary edge's side 1 is not read), so sum_e Q_e = a. A
    boundary Q_e must be positive definite. An interior Q_e maps the
    constant (all ones in a Lagrange basis) to zero and must be positive
    definite once that is lifted by a multiple of 1 1^T. Then
    a(v, v) = 0 makes v one constant on each edge-connected part of the
    mesh and zero at its boundary, so v = 0. Conservative: P1 at penalty
    5, P2 at 10-20, P3 at 20-50 fail.
    """
    d = third.shape[2]
    outer = tri[:, 1] < 0
    boundary_forms = blocks[outer, 0, :, 0, :] + third[outer, 0]
    interior_forms = blocks[~outer]
    for side in (0, 1):
        interior_forms[:, side, :, side, :] += third[~outer, side]
    for forms, lift in ((boundary_forms, 0.0),
                        (interior_forms.reshape(-1, 2 * d, 2 * d), 1.0)):
        k = forms.shape[1]
        scale = np.abs(np.diagonal(forms, axis1=1, axis2=2)).max(axis=1)
        # lifted and shifted in place: (scale / k) 1 1^T lifts the
        # constant to the eigenvalue `scale`, then the margin comes off
        # the diagonal
        if lift:
            forms += (lift * scale / k)[:, None, None]
        forms.reshape(len(forms), k * k)[:, ::k + 1] \
            -= (CERTIFICATE_MARGIN * scale)[:, None]
        try:
            np.linalg.cholesky(forms)
        except np.linalg.LinAlgError:
            return False
    return True


def assemble_bilinear(space: DGSpace, cfg: AssemblyConfig) -> SparseSymMatrix:
    """Assemble the full interior penalty operator, certified locally:
    one (D, D) block per element in `diagonal` and two per interior edge
    in `csr`, each stored in full and each block row in column order."""
    r = space.degree
    vol = _volume_tables(r, cfg.resolved_volume_degree(r))
    edges, num = space.mesh.edges, space.num_elements

    # rank[e, s]: the place of edge e among its side-s element's edges in
    # edge order, the order its self-blocks add in (3 on a missing side)
    sides = np.where(edges.tri >= 0, edges.tri, num).ravel()
    rank = np.full(len(sides), 3, dtype=np.int8)
    rank[np.argsort(sides, kind="stable")[:3 * num]] = np.tile([0, 1, 2], num)
    rank = rank.reshape(-1, 2)

    # each interior edge's (plus, minus) and (minus, plus) coupling
    # blocks at their block-row positions; every index array is int32, so
    # bsr_matrix keeps them without a copy
    plus, minus = edges.tri[~edges.boundary].T
    block_rows = np.concatenate([plus, minus], dtype=np.int32)
    block_cols = np.concatenate([minus, plus], dtype=np.int32)
    order = np.lexsort((block_cols, block_rows))
    indptr = np.zeros(num + 1, dtype=np.int32)
    np.cumsum(np.bincount(block_rows, minlength=num), out=indptr[1:])
    indices = block_cols[order]
    upper, lower = np.split(np.argsort(order).astype(np.int32), [len(plus)])
    del sides, block_rows, block_cols, order

    d, n = space.dofs_per_element, space.total_dofs
    diagonal = np.empty((num, d, d))
    for chunk in _element_chunks(num):
        diagonal[chunk] = _volume_stiffness_blocks(space, vol, chunk)
    data = np.empty((len(indices), d, d))
    certified, placed = True, 0
    for chunk in _edge_chunks(len(edges), _assembly_edge_chunk(d)):
        blocks = _edge_blocks(space, cfg, chunk)
        tri, inner = edges.tri[chunk], ~edges.boundary[chunk]
        if certified:
            # a third of each side's volume block; a missing side (-1)
            # reads the last element's, which the certificate skips
            third = _volume_stiffness_blocks(space, vol, tri.ravel())
            third /= 3.0
            certified = _local_certificate(
                tri, blocks, third.reshape(len(tri), 2, d, d))
        for k in range(3):
            e, s = np.nonzero(rank[chunk] == k)
            diagonal[tri[e, s]] += blocks[e, s, :, s, :]
        # the chunk's interior edges are the next ones in edge order
        within = slice(placed, placed + np.count_nonzero(inner))
        placed = within.stop
        data[upper[within]] = blocks[inner, 0, :, 1, :]
        data[lower[within]] = blocks[inner, 1, :, 0, :]
    couplings = sparse.bsr_matrix((data, indices, indptr), shape=(n, n))
    return SparseSymMatrix(couplings, _block_diagonal(diagonal), certified)


def _finite(values, what):
    """`values` as a float array; NonFiniteValue if any is NaN or inf."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"{what} is not finite at some quadrature points")
    return values


class NewtonKernel:
    """The stiffness and tables of one problem on one space, built once
    per solve for its residuals (`newton.residual`) and Jacobians.

    Holds the volume tables V (Q, D) and V (x) V (Q, D^2), the rule's
    weights and the source g at the quadrature points (evaluated in
    element chunks and checked once); the measure dets x weights is
    formed one element chunk at a time (`measure`). A Jacobian is the
    stiffness's couplings beside its element blocks plus the
    N'(u_h)-weighted mass blocks (`jacobian`).
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
        self.weights = vol.rule.weights
        self.source = np.empty((space.num_elements, len(self.weights)))
        for chunk in _element_chunks(space.num_elements):
            pts = space.physical_points(vol.rule.points, chunk)
            self.source[chunk] = _finite(problem.source(
                pts[..., 0], pts[..., 1]), "the source g(x, y)")

    def measure(self, chunk):
        """dets x weights (m, Q) on the elements `chunk` picks."""
        return self.space.dets[chunk, None] * self.weights[None, :]

    def _mass_weight(self, coeffs, chunk):
        """N'(u_h) (m, Q) on the elements `chunk` picks, from the
        per-element `coeffs`; SignAssumptionViolated names the first
        element where N'(u_h) < 0."""
        weight = _finite(self.problem.d_nonlinearity(
            coeffs[chunk] @ self.values.T), "the mass weight N'(u)")
        low = weight.min(axis=1)
        if low.min() < 0.0:
            e = int(np.argmax(low < 0.0))
            raise SignAssumptionViolated(
                f"N'(u_h) = {low[e]:.6e} < 0 on element "
                f"{chunk.start + e}; the scheme is well posed only "
                "for N' >= 0")
        return weight

    def check_sign(self, u: np.ndarray):
        """Raise SignAssumptionViolated, as `jacobian` does, if N'(u_h) < 0
        at some volume quadrature point; one element chunk at a time."""
        coeffs = u.reshape(self.space.num_elements, -1)
        for chunk in _element_chunks(len(coeffs)):
            self._mass_weight(coeffs, chunk)

    def jacobian(self, u: np.ndarray) -> SparseSymMatrix:
        """The stiffness plus the mass matrix weighted with
        N'(u_h) = -f_u >= 0, uncertified: the stiffness's own couplings
        beside new element blocks, the stiffness's plus the mass blocks,
        formed one element chunk at a time without an (E, Q) or (E, D^2)
        array. SignAssumptionViolated names the first element where
        N'(u_h) < 0; the stiffness is not written either way."""
        stiffness_blocks = self.stiffness.diagonal.data
        d = self.space.dofs_per_element
        coeffs = u.reshape(self.space.num_elements, -1)
        blocks = np.empty_like(stiffness_blocks)
        for chunk in _element_chunks(len(blocks)):
            weight = self._mass_weight(coeffs, chunk) * self.measure(chunk)
            blocks[chunk] = stiffness_blocks[chunk] + (
                weight @ self.value_pairs).reshape(-1, d, d)
        return SparseSymMatrix(self.stiffness.csr, _block_diagonal(blocks))


def _nonlinear_load(kernel: NewtonKernel, u: np.ndarray) -> np.ndarray:
    """int_K (g(x) - N(u_h)) phi_i, i.e. the f(x, u_h) pairing, one
    element chunk at a time."""
    coeffs = u.reshape(kernel.space.num_elements, -1)
    load = np.empty(coeffs.shape)
    for chunk in _element_chunks(len(coeffs)):
        fvals = kernel.source[chunk] - _finite(kernel.problem.nonlinearity(
            coeffs[chunk] @ kernel.values.T), "the nonlinearity N(u)")
        load[chunk] = (kernel.measure(chunk) * fvals) @ kernel.values
    return load.ravel()
