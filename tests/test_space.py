"""DG space layout, interpolation, and edge traces."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import sparse

import dgsl
from dgsl import DGVector, interpolate
from dgsl.analysis import l2_error, observed_orders
from dgsl.basis import edge_reference_points
from dgsl.errors import DegenerateElement
from dgsl.properties import bilinear_consistency
from dgsl.space import (conforming_nodes, edge_traces, p1_interpolation,
                        p1_prolongation)

from conftest import MESH_KINDS, space_on


def on_element(space, v, element, points):
    """Values (npts,) and physical gradients (npts, 2) of `v` at reference
    `points` of one element, straight from the basis and the element map."""
    coeffs = v.by_element()[element]
    ref_grads = np.einsum("pia,i->pa", space.basis.gradients(points), coeffs)
    return (space.basis.values(points) @ coeffs,
            ref_grads @ space.inv_jacobians[element])


def test_dof_layout():
    space = space_on(3, 2)
    assert space.dofs_per_element == 6
    assert space.total_dofs == space.num_elements * 6
    # element e owns the contiguous block [6 e, 6 e + 6), and the
    # per-element view writes through to the coefficients
    v = DGVector(space, np.arange(space.total_dofs, dtype=float))
    blocks = v.by_element()
    assert blocks.shape == (space.num_elements, 6)
    assert_array_equal(blocks[:, 0], 6 * np.arange(space.num_elements))
    assert_array_equal(np.diff(blocks, axis=1), 1)
    blocks[2] = -1.0
    assert_array_equal(np.flatnonzero(v.coeffs == -1.0), np.arange(12, 18))


def test_interpolate_zero_and_constant():
    space = space_on(2, 2)
    zero = interpolate(space, lambda x, y: 0.0 * x)
    assert not zero.coeffs.any()
    five = interpolate(space, lambda x, y: 5.0 + 0.0 * x)
    vals, grads = on_element(space, five, 3, np.array([[0.3, 0.3], [0.1, 0.2]]))
    assert_allclose(vals, 5.0, atol=1e-13)
    assert_allclose(grads, 0.0, atol=1e-12)


def test_interpolate_linear_reproduction(rng):
    space = space_on(3, 1)
    v = interpolate(space, lambda x, y: x + y)
    for element in rng.integers(0, space.num_elements, 5):
        pts = rng.uniform(0.05, 0.4, (4, 2))
        vals, _ = on_element(space, v, int(element), pts)
        phys = space.physical_points(pts)[int(element)]
        assert_allclose(vals, phys[:, 0] + phys[:, 1], atol=1e-12)


def test_interpolation_l2_rate_is_two(sine):
    errors = []
    for n in (8, 16, 32):
        space = space_on(n, 1)
        v = interpolate(space, sine.exact.value)
        errors.append((1.0 / n, l2_error(v, sine.exact)))
    for order in observed_orders(errors):
        assert abs(order - 2.0) <= 0.1


def test_evaluate_at_nodes_returns_coefficients(rng):
    space = space_on(2, 3)
    v = DGVector(space, rng.standard_normal(space.total_dofs))
    for element in (0, 5):
        vals, _ = on_element(space, v, element, space.basis.nodes)
        assert_allclose(vals, v.by_element()[element], atol=1e-12)


def test_overflowing_determinant_rejected():
    # finite coordinates whose determinant overflows to inf - inf = NaN;
    # TriMesh rejects them itself, so they are swapped into a valid mesh
    # to reach the space's own check
    mesh = dgsl.TriMesh([[0.0, 0.0], [1.0, 1.0], [1.0, 2.0]], [[0, 1, 2]])
    mesh.vertices = 1e200 * mesh.vertices
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateElement, match="non-finite"):
            dgsl.DGSpace(mesh, 1)


def test_vector_length_validation():
    space = space_on(1, 1)
    with pytest.raises(ValueError):
        DGVector(space, np.zeros(5))


def side_traces(space, v, params):
    """A field's values (m, 2, Q) and gradients (m, 2, Q, 2) on both
    sides of every edge."""
    values, grads = edge_traces(space, params)
    coeffs = v.by_element()[np.maximum(space.mesh.edges.tri, 0)]
    return (np.einsum("msqd,msd->msq", values, coeffs),
            np.einsum("msqda,msd->msqa", grads, coeffs))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_edge_traces_of_a_selection_are_those_rows_of_all_edges(rng, r):
    space = dgsl.DGSpace(dgsl.build_perturbed(5, 0.2, 3), r)
    params = dgsl.edge_rule(2 * r + 2).points
    every = edge_traces(space, params)
    v = DGVector(space, rng.standard_normal(space.total_dofs))
    every_field = dgsl.space.edge_fields(v, params)
    for select in (slice(3, 17), slice(40, None),
                   np.flatnonzero(space.mesh.edges.boundary), np.array([5, 0, 5])):
        for part, whole in zip(edge_traces(space, params, select), every):
            assert_array_equal(part, whole[select])
        values, _ = edge_traces(space, params, select, gradients=False)
        assert_array_equal(values, every[0][select])
        # a field's products group other rows, so they may round apart
        for part, whole in zip(dgsl.space.edge_fields(v, params, select),
                               every_field):
            assert_allclose(part, whole[select], rtol=0,
                            atol=1e-13 * np.abs(whole).max())


def test_jump_of_continuous_interpolant_vanishes(sine):
    space = space_on(4, 2)
    v = interpolate(space, sine.exact.value)
    t = np.array([0.1, 0.5, 0.9])
    vals, _ = side_traces(space, v, t)
    inner = ~space.mesh.edges.boundary
    assert np.abs(vals[inner, 0] - vals[inner, 1]).max() < 1e-12


def test_indicator_field_jump_and_average():
    space = space_on(1, 1)
    edges = space.mesh.edges
    (edge,) = np.flatnonzero(~edges.boundary)
    v = DGVector(space, np.zeros(space.total_dofs))
    v.by_element()[edges.tri[edge, 0]] = 1.0
    t = np.array([0.25, 0.75])
    vals, _ = side_traces(space, v, t)
    jump = (vals[edge, 0] - vals[edge, 1])[:, None] * edges.normal[edge]
    assert_allclose(jump, np.tile(edges.normal[edge], (2, 1)), atol=1e-14)
    assert_allclose(0.5 * vals[edge].sum(axis=0), 0.5, atol=1e-14)


def test_jump_dot_normal_matches_trace_difference(rng):
    # batched side traces must equal per-element evaluation at the same
    # reference points, so v_+ - v_- is the jump [v] . n_+ inside
    space = space_on(3, 2)
    v = DGVector(space, rng.standard_normal(space.total_dofs))
    t = np.array([0.2, 0.6, 0.9])
    vals, grads = side_traces(space, v, t)
    edges = space.mesh.edges
    for e in range(len(edges)):
        for s in (0,) if edges.boundary[e] else (0, 1):
            ref = edge_reference_points(edges.local[e, s], t, edges.flipped[e, s])
            want_v, want_g = on_element(space, v, edges.tri[e, s], ref)
            assert_allclose(vals[e, s], want_v, atol=1e-13)
            assert_allclose(grads[e, s], want_g, atol=1e-12)


def test_boundary_trace_conventions(rng):
    # boundary edges have no minus side: its traces are zero, so the side
    # difference is the plus trace v and [v] = v n
    space = space_on(2, 1)
    v = DGVector(space, rng.standard_normal(space.total_dofs))
    t = np.array([0.3, 0.7])
    values, grads = edge_traces(space, t)
    boundary = space.mesh.edges.boundary
    assert not values[boundary, 1].any()
    assert not grads[boundary, 1].any()
    vals, _ = side_traces(space, v, t)
    assert_allclose(vals[boundary, 0] - vals[boundary, 1], vals[boundary, 0],
                    atol=0)
    assert np.abs(vals[~boundary, 1]).max() > 0


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("perturbed", [False, True])
def test_edge_fields_match_edge_traces_contraction(rng, r, perturbed):
    # evaluating each side on its own reference point set gives the
    # contraction of the per-edge basis tables, and exact zeros on the
    # missing boundary sides
    mesh = dgsl.build_perturbed(4, 0.25, 9) if perturbed else dgsl.build_structured(4)
    space = dgsl.DGSpace(mesh, r)
    boundary = space.mesh.edges.boundary
    for t in (np.array([0.15, 0.5, 0.7]), dgsl.quadrature.edge_rule(2 * r + 4).points):
        for _ in range(3):
            v = DGVector(space, rng.standard_normal(space.total_dofs))
            vals, grads = dgsl.space.edge_fields(v, t)
            want_v, want_g = side_traces(space, v, t)
            assert vals.shape == want_v.shape and grads.shape == want_g.shape
            assert np.abs(vals - want_v).max() <= 1e-13 * np.abs(want_v).max()
            assert np.abs(grads - want_g).max() <= 1e-13 * np.abs(want_g).max()
            assert not vals[boundary, 1].any()
            assert not grads[boundary, 1].any()


def with_edges(mesh, **fields):
    """A copy of `mesh` whose EdgeSet has `fields` replaced."""
    out = copy.copy(mesh)
    out.edges = dataclasses.replace(mesh.edges, **fields)
    return out


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
def test_element_boundary_edge_identity(n, r):
    # the operator sums each element's boundary integrals edge by edge;
    # consistency on polynomials sees a wrong side, local edge or normal
    # in those sums. Inverting `flipped` on both sides of an interior
    # edge reverses both traces together and changes no integral, so it
    # is inverted on the minus sides alone, and on every present side,
    # which misaligns the boundary traces with the field's.
    cfg = dgsl.AssemblyConfig(penalty=37.0)
    for mesh in (dgsl.build_structured(n), dgsl.build_perturbed(n, 0.2, 3)):
        e = mesh.edges
        interior = ~e.boundary
        minus_flipped = e.flipped.copy()
        minus_flipped[interior, 1] ^= True
        local = e.local.copy()
        local[interior, 1] = (local[interior, 1] + 1) % 3
        normal = e.normal.copy()
        normal[interior] *= -1.0
        corrupted = (with_edges(mesh, flipped=e.flipped ^ (e.tri >= 0)),
                     with_edges(mesh, flipped=minus_flipped),
                     with_edges(mesh, local=local),
                     with_edges(mesh, normal=normal))
        assert bilinear_consistency(dgsl.DGSpace(mesh, r), cfg) <= 1e-13
        for bad in corrupted:
            assert bilinear_consistency(dgsl.DGSpace(bad, r), cfg) > 1e-3


@pytest.mark.parametrize("r", [1, 2, 3])
def test_p1_prolongation_reproduces_continuous_p1_fields(rng, r):
    mesh = dgsl.build_perturbed(4, 0.2, seed=3)
    space = dgsl.DGSpace(mesh, r)
    p = p1_prolongation(space)
    assert p.shape == (space.total_dofs, mesh.num_vertices)
    assert np.diff(p.indptr).max() <= 3 and (p.data != 0.0).all()
    # oracle: barycentric coordinates of each node, solved from geometry
    v = rng.standard_normal(mesh.num_vertices)
    corners = mesh.vertices[mesh.triangles]
    offsets = space.physical_points(space.basis.nodes) - corners[:, None, 0]
    local = np.linalg.solve(space.jacobians[:, None], offsets[..., None])
    bary = np.concatenate([1.0 - local.sum(axis=2), local[..., 0]], axis=-1)
    expected = np.einsum("edk,ek->ed", bary, v[mesh.triangles])
    assert_allclose(p @ v, expected.ravel(), rtol=0, atol=1e-13)
    # a global linear field is its own continuous P1 interpolant
    linear = lambda x, y: 0.5 - 2.0 * x + 3.0 * y
    assert_allclose(p @ linear(*mesh.vertices.T),
                    interpolate(space, linear).coeffs, rtol=0, atol=1e-13)
    # the nodes at the vertices take the vertex values exactly
    corner_nodes = [0, r, len(space.basis.nodes) - 1]
    assert np.array_equal((p @ v).reshape(-1, space.dofs_per_element)
                          [:, corner_nodes], v[mesh.triangles])


def test_p1_prolongation_skips_unused_vertices():
    mesh = dgsl.TriMesh([[0, 0], [9, 9], [1, 0], [0, 1]], [[0, 2, 3]])
    p = p1_prolongation(dgsl.DGSpace(mesh, 2))
    assert p.shape == (6, 3)
    assert_allclose(p @ np.array([1.0, 2.0, 3.0]),
                    interpolate(dgsl.DGSpace(mesh, 2),
                                lambda x, y: 1.0 + x + 2.0 * y).coeffs)


def coo_prolongation(space):
    """The prolongation built as COO triplets and converted to CSR, which
    sorts each row's columns: the oracle of `p1_prolongation`'s bytes."""
    r, d = space.degree, space.dofs_per_element
    lattice = np.rint(space.basis.nodes * r)
    bary = np.column_stack([r - lattice.sum(axis=1), lattice]) / r
    used, columns = np.unique(space.mesh.triangles, return_inverse=True)
    columns = np.repeat(columns.reshape(-1, 1, 3), d, axis=1)
    weights = np.broadcast_to(bary, columns.shape)
    keep = (weights != 0.0).ravel()
    rows = np.repeat(np.arange(space.total_dofs), 3)
    return sparse.csr_matrix(
        (weights.ravel()[keep], (rows[keep], columns.ravel()[keep])),
        shape=(space.total_dofs, len(used)))


@pytest.mark.parametrize("mesh", ["structured", "perturbed", "unused vertex"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_p1_prolongation_has_the_bytes_of_the_coo_build(r, mesh):
    grid = MESH_KINDS[mesh]()
    # some triangle lists its vertices out of index order, so the rows
    # need the sort
    assert (np.diff(grid.triangles, axis=1) < 0).any()
    space = dgsl.DGSpace(grid, r)
    p, expected = p1_prolongation(space), coo_prolongation(space)
    assert p.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(p, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("r", [1, 2, 3])
def test_p1_prolongation_peak_stays_within_a_quarter_above_its_bytes(r):
    # the traced peak growth of one build, P included: the COO build read
    # 6.3x, 5.5x and 5.3x here, the row-by-row direct one 1.21x, 1.12x and
    # 1.08x, and the unsorted arrays sorted in place read 1.09x, 1.02x and
    # 1.01x
    space = dgsl.DGSpace(dgsl.build_perturbed(64, 0.2, 42), r)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        p = p1_prolongation(space)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes
    assert peak <= 1.25 * size, peak / size


@pytest.mark.parametrize("mesh", list(MESH_KINDS))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_p1_interpolation_gathered_by_the_node_map_is_the_prolongation(
        r, mesh):
    # P = I[node], byte for byte: every DG node of one continuous node
    # holds one row of P
    space = dgsl.DGSpace(MESH_KINDS[mesh](), r)
    node = conforming_nodes(space)
    i, p = p1_interpolation(space, node), p1_prolongation(space)
    assert i.shape == (node.max() + 1, p.shape[1])
    gathered = i[node]
    for name in ("data", "indices", "indptr"):
        got, want = getattr(gathered, name), getattr(p, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("mesh", list(MESH_KINDS))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_conforming_nodes_partition_the_nodes_as_their_coordinates_do(r, mesh):
    space = dgsl.DGSpace(MESH_KINDS[mesh](), r)
    node = conforming_nodes(space)
    # intp, so the preconditioner's bincount and take convert nothing
    assert node.dtype == np.intp and node.shape == (space.total_dofs,)
    # oracle: DG nodes at one physical point are one continuous node
    points = space.physical_points(space.basis.nodes).reshape(-1, 2)
    _, by_point = np.unique(np.round(points, 10), axis=0, return_inverse=True)
    count = by_point.max() + 1
    assert node.max() + 1 == count
    assert len(np.unique(node * np.int64(count) + by_point.ravel())) == count
    # the used vertices first, numbered as P's columns; a corner row of P
    # holds the one entry 1 in its vertex's column
    p = p1_prolongation(space)
    first_edge_node = p.shape[1]
    corners = np.flatnonzero(np.diff(p.indptr) == 1)
    assert np.array_equal(node[corners], p.indices[p.indptr[corners]])
    assert node[corners].max() + 1 == first_edge_node
    # then r - 1 nodes per edge, from the low to the high endpoint, then
    # the element interiors
    edges = space.mesh.edges
    inner = first_edge_node + (r - 1) * len(edges)
    assert count == inner + (r - 1) * (r - 2) // 2 * space.num_elements
    on_edge = (node >= first_edge_node) & (node < inner)
    edge, t = np.divmod(node[on_edge] - first_edge_node, max(r - 1, 1))
    low, high = (space.mesh.vertices[edges.endpoints[edge, k]] for k in (0, 1))
    assert_allclose(points[on_edge], low + ((t + 1) / r)[:, None] * (high - low),
                    rtol=0, atol=1e-13)
    if r == 1:
        pi = sparse.csr_matrix((np.ones(len(node)), node,
                                np.arange(len(node) + 1)), shape=p.shape)
        assert (pi != p).nnz == 0
