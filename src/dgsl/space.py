"""Discontinuous piecewise-polynomial spaces and their coefficient vectors.

Degrees of freedom are nodal values on each element's principal lattice,
stored in contiguous per-element blocks: element e owns coefficients
[e*dpe, (e+1)*dpe). There is no inter-element coupling in the layout;
discontinuity is structural.

Edge terms read the six (local edge, flipped) reference tables that
`edge_tables` caches per degree and edge rule: `edge_traces` gives the
basis traces on selected edges, `edge_fields` a field's traces on
selected edges, and `edge_point_sets` the point set each side reads,
which assembly's edge tables are indexed by. Each side's (local edge,
flipped) point set is decoded here, so callers sweep edge chunks
without knowing the encoding.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .basis import ReferenceBasis, edge_reference_points
from .errors import DegenerateElement
from .mesh import TriMesh


class DGSpace:
    """Piecewise P_r space over a triangulation.

    Precomputes the per-element affine maps (Jacobians, inverses,
    determinants); `physical_points` maps reference points through them.
    Immutable after construction.
    """

    def __init__(self, mesh: TriMesh, degree: int):
        self.mesh = mesh
        self.degree = degree
        self.basis = ReferenceBasis(degree)
        self.dofs_per_element = self.basis.dim
        self.num_elements = mesh.num_triangles
        self.total_dofs = self.num_elements * self.dofs_per_element

        pts = mesh.vertices[mesh.triangles]          # (E, 3, 2)
        self.origins = pts[:, 0, :].copy()
        self.jacobians = np.stack([pts[:, 1] - pts[:, 0],
                                   pts[:, 2] - pts[:, 0]], axis=2)
        jac = self.jacobians
        self.dets = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if not np.all(self.dets > 0.0):  # NaN fails too
            raise DegenerateElement(
                "mesh contains a non-CCW, flat or non-finite triangle")
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        self.inv_jacobians = inv / self.dets[:, None, None]

        for arr in (self.origins, self.jacobians, self.dets,
                    self.inv_jacobians):
            arr.setflags(write=False)

    def physical_points(self, ref_points, select=slice(None)):
        """Map reference points into the elements `select` picks (default
        all), shape (m, npts, 2); each element's points do not depend on
        the selection."""
        ref = np.atleast_2d(ref_points)
        # J x for all points as one stacked matrix product: about twice
        # as fast as two broadcast products, whose rounding differs from
        # it by an ulp on meshes whose Jacobians have no zero entry
        return ref @ self.jacobians[select].transpose(0, 2, 1) \
            + self.origins[select][:, None, :]


@dataclass
class DGVector:
    """Coefficient vector of a discontinuous piecewise-polynomial field."""

    space: DGSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.total_dofs,):
            raise ValueError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"space needs {self.space.total_dofs}"
            )

    def by_element(self):
        """View of the coefficients as an (E, dofs_per_element) array."""
        return self.coeffs.reshape(self.space.num_elements,
                                   self.space.dofs_per_element)


def interpolate(space: DGSpace, u) -> DGVector:
    """Nodal interpolant of a scalar field u(x, y).

    The callback must broadcast over numpy arrays. Polynomials of degree
    up to the space degree are reproduced exactly; interpolating a
    globally continuous function yields (up to roundoff) matching traces
    on shared edges. The nodes are mapped and `u` evaluated one element
    chunk at a time.
    """
    # imported here: assembly imports this module
    from .assembly import _element_chunks
    values = np.empty((space.num_elements, space.dofs_per_element))
    for chunk in _element_chunks(space.num_elements):
        nodes = space.physical_points(space.basis.nodes, chunk)
        values[chunk] = u(nodes[..., 0], nodes[..., 1])
    return DGVector(space, values.ravel())


def p1_prolongation(space: DGSpace):
    """Sparse (total_dofs, used vertices) matrix that maps the vertex
    values of a continuous P1 field to its DG interpolant.

    Row e D + i holds the barycentric coordinates of node i of element
    e, without exact zeros, so it has at most 3 entries, in column
    order. Columns are the vertices some triangle uses, in index order.
    Every element has the same pattern, so the CSR arrays are written
    element by element in corner order and each row is then sorted in
    place.
    """
    r, num = space.degree, space.num_elements
    bary = space.basis.lattice / r  # (D, 3)
    triangles = space.mesh.triangles
    column, columns = _vertex_columns(space.mesh)
    # indices, then indptr, then data, so that the temporaries of each
    # fit beside the arrays built before it
    corners = np.nonzero(bary)[1]   # row by row, as bary[bary != 0]
    indices = column[triangles][:, corners].ravel()
    counts = np.count_nonzero(bary, axis=1).astype(np.int32)
    indptr = np.zeros(space.total_dofs + 1, dtype=np.int32)
    np.cumsum(np.tile(counts, num), dtype=np.int32, out=indptr[1:])
    p = sparse.csr_matrix((np.tile(bary[bary != 0], num), indices, indptr),
                          shape=(space.total_dofs, columns))
    p.sort_indices()
    return p


def p1_interpolation(space: DGSpace, node):
    """Sparse (continuous P_r nodes, used vertices) matrix I that maps the
    vertex values of a continuous P1 field to its continuous P_r
    interpolant, for the node map `node` of `conforming_nodes`: the rows
    of `p1_prolongation` over the continuous nodes, so that P = I[node],
    built without P. Every DG node that `node` maps to c has the same
    row of P, so whichever one the scatter below keeps, I has the same
    bytes."""
    d = space.dofs_per_element
    bary = space.basis.lattice / space.degree  # (D, 3)
    column, columns = _vertex_columns(space.mesh)
    some = np.empty(int(node.max()) + 1, dtype=np.intp)
    some[node] = np.arange(len(node))
    element, local = np.divmod(some, d)
    weights = bary[local]
    keep = weights != 0
    indptr = np.zeros(len(some) + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), dtype=np.int32, out=indptr[1:])
    i = sparse.csr_matrix((weights[keep],
                           column[space.mesh.triangles[element]][keep],
                           indptr), shape=(len(some), columns))
    i.sort_indices()
    return i


def _vertex_columns(mesh: TriMesh):
    """(int32 vertex -> column map, number of columns): the vertices some
    triangle uses, numbered in index order; an unused vertex maps to the
    column before it, which nothing reads."""
    used = np.zeros(len(mesh.vertices), dtype=bool)
    used[mesh.triangles] = True
    return np.cumsum(used, dtype=np.int32) - 1, int(np.count_nonzero(used))


def conforming_nodes(space: DGSpace):
    """intp map node[e D + i] from each DG node to its node of continuous
    P_r on the same mesh, from connectivity alone, so that the 0/1 matrix
    Pi with Pi[e D + i, node[e D + i]] = 1 maps continuous P_r node values
    to their DG field.

    The continuous nodes are the used vertices, numbered as the columns
    of `p1_prolongation`; then r - 1 nodes on each edge, edge by edge,
    from its low-index to its high-index endpoint; then each element's
    interior nodes, element by element. At r = 1 this is P's column map,
    and Pi = P.
    """
    r, d = space.degree, space.dofs_per_element
    mesh, edges = space.mesh, space.mesh.edges
    column, num_vertices = _vertex_columns(mesh)
    lattice = space.basis.lattice
    # along[k, t]: node t of local edge k, where barycentric k is zero,
    # counted from its local vertex (k + 1) % 3 towards (k + 2) % 3
    along = np.empty((3, r + 1), dtype=np.intp)
    for k in range(3):
        on = np.flatnonzero(lattice[:, k] == 0)
        along[k, lattice[on, (k + 2) % 3]] = on
    inner = np.flatnonzero(lattice.all(axis=1))

    node = np.empty((space.num_elements, d), dtype=np.intp)
    # corner k is the node whose barycentric k is r
    node[:, lattice.argmax(axis=0)] = column[mesh.triangles]
    # every side of every edge, in edge order; a side whose local
    # direction is flipped counts the edge's nodes from its other end
    edge, side = np.nonzero(edges.tri >= 0)
    tri, local = edges.tri[edge, side], edges.local[edge, side]
    flipped = edges.flipped[edge, side]
    for t in range(1, r):
        node[tri, along[local, t]] = num_vertices + (r - 1) * edge \
            + np.where(flipped, r - 1 - t, t - 1)
    first = num_vertices + (r - 1) * len(edges)
    node[:, inner] = first + len(inner) * np.arange(space.num_elements)[:, None] \
        + np.arange(len(inner))
    return node.ravel()


@functools.lru_cache(maxsize=16)
def edge_tables(degree, t):
    """Read-only basis values (6, Q, D) and reference gradients (6, Q, D, 2)
    at the edge parameters `t` (a tuple) on the (local edge k, flipped)
    point sets, indexed 2 k + flipped, and both side by side as (6, D, 3 Q)
    (values, then gradients as (Q, 2)), so that one product with a side's
    coefficients gives its value and gradient on its set."""
    basis = ReferenceBasis(degree)
    ref = [edge_reference_points(k, t, fl) for k in range(3) for fl in (False, True)]
    values = np.stack([basis.values(p) for p in ref])
    grads = np.stack([basis.gradients(p) for p in ref])
    six, q, d = values.shape
    fused = np.concatenate([values.transpose(0, 2, 1),
                            grads.transpose(0, 2, 1, 3).reshape(six, d, 2 * q)],
                           axis=2)
    tables = (values, grads, fused)
    for table in tables:
        table.setflags(write=False)
    return tables


def edge_point_sets(space: DGSpace, select=slice(None)):
    """(m, 2) int: the point set each side of the edges `select` picks
    reads in `edge_tables`, 2 k + flipped for local edge k, and 6 on a
    missing side."""
    edges = space.mesh.edges
    return np.where(edges.tri[select] >= 0,
                    2 * edges.local[select] + edges.flipped[select], 6)


def edge_traces(space: DGSpace, params, select=slice(None), gradients=True):
    """Basis traces on both sides of the edges `select` picks (default all).

    `params` (Q,) parametrize each edge from its low-index to its
    high-index endpoint. Returns (values, gradients) with shapes
    (m, 2, Q, D) and (m, 2, Q, D, 2): side 0 is the plus triangle, side
    1 the minus triangle, and gradients are physical, or None when
    `gradients` is False. The minus side of a boundary edge is all
    zeros, so the side difference is the jump [v] . n_+ on interior
    edges and the trace v on boundary edges.
    """
    edges = space.mesh.edges
    ref_values, ref_grads, _ = edge_tables(space.degree, tuple(params))
    # a missing side (tri = local = -1) reads other entries, zeroed below
    tri = edges.tri[select]
    combo = 2 * edges.local[select] + edges.flipped[select]
    values = ref_values[combo]
    values[tri < 0] = 0.0
    if not gradients:
        return values, None
    grads = ref_grads[combo] @ space.inv_jacobians[tri][:, :, None]
    grads[tri < 0] = 0.0
    return values, grads


def edge_fields(v: DGVector, params, select=slice(None)):
    """A field's values (m, 2, Q) and physical gradients (m, 2, Q, 2) on
    both sides of the edges `select` picks (default all), laid out as
    `edge_traces`. The sides are grouped by their point set, one matrix
    product each, so no element is evaluated on a set it does not use."""
    space, edges = v.space, v.space.mesh.edges
    table = edge_tables(space.degree, tuple(params))[2]
    q = table.shape[2] // 3
    tri = edges.tri[select]
    # a missing side (tri = -1) takes set 6, which sorts last and stays
    # zero, so its gradient maps to zero too
    combo = edge_point_sets(space, select).ravel()
    order = np.argsort(combo, kind="stable")
    starts = np.searchsorted(combo[order], np.arange(7))
    present = order[:starts[6]]
    coeffs = v.by_element()[tri.ravel()[present]]
    grouped = np.empty((len(present), 3 * q))
    for k in range(6):
        rows = slice(starts[k], starts[k + 1])
        np.matmul(coeffs[rows], table[k], out=grouped[rows])
    sides = np.zeros((combo.size, 3 * q))
    sides[present] = grouped
    values = sides[:, :q].reshape(tri.shape + (q,))
    grads = sides[:, q:].reshape(tri.shape + (q, 2)) @ space.inv_jacobians[tri]
    return values, grads
