"""Reference bases, the element maps of a space, and edge reference points."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dgsl
from dgsl import ReferenceBasis
from dgsl.basis import edge_reference_points
from dgsl.errors import UnsupportedDegree


def one_element_space(p0, p1, p2, r=1):
    """A space on the single triangle (p0, p1, p2), given CCW."""
    return dgsl.DGSpace(dgsl.TriMesh([p0, p1, p2], [[0, 1, 2]]), r)


def element_gradients(space, points):
    """Basis gradients in physical coordinates on element 0, (npts, dim, 2)."""
    return space.basis.gradients(points) @ space.inv_jacobians[0]


def random_ref_points(rng, m=20):
    # uniform in the reference triangle via square folding
    a = rng.uniform(0, 1, (m, 2))
    flip = a.sum(axis=1) > 1
    a[flip] = 1 - a[flip]
    return a


def test_p1_dimensions_and_centroid():
    basis = ReferenceBasis(1)
    assert basis.dim == 3
    assert_allclose(basis.values([[1 / 3, 1 / 3]]), [[1 / 3, 1 / 3, 1 / 3]],
                    atol=1e-14)


def test_p2_vertex_function_vanishes_at_opposite_edge_midpoint():
    basis = ReferenceBasis(2)
    assert basis.dim == 6
    # node 0 is the vertex (0, 0); the opposite edge is x + y = 1
    idx = int(np.flatnonzero((basis.nodes == [0.0, 0.0]).all(axis=1))[0])
    vals = basis.values([[0.5, 0.5]])
    assert abs(vals[0, idx]) < 1e-13
    # closed-form quadratic vertex function: lam (2 lam - 1), lam = 1 - x - y
    lam = 1.0 - 0.3 - 0.25
    assert_allclose(basis.values([[0.3, 0.25]])[0, idx], lam * (2 * lam - 1),
                    atol=1e-13)


def test_p3_dimension():
    assert ReferenceBasis(3).dim == 10


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kronecker_property(r):
    basis = ReferenceBasis(r)
    assert_allclose(basis.values(basis.nodes), np.eye(basis.dim), atol=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_partition_of_unity(r, rng):
    basis = ReferenceBasis(r)
    pts = random_ref_points(rng)
    assert_allclose(basis.values(pts).sum(axis=1), 1.0, atol=1e-13)
    assert_allclose(basis.gradients(pts).sum(axis=1), 0.0, atol=1e-12)


def test_unsupported_basis_degree():
    with pytest.raises(UnsupportedDegree):
        ReferenceBasis(4)


def test_affine_map_identity_and_scaling(rng):
    pts = random_ref_points(rng)
    ident = one_element_space((0, 0), (1, 0), (0, 1), r=2)
    assert_allclose(element_gradients(ident, pts),
                    ident.basis.gradients(pts), atol=1e-14)
    assert_allclose(ident.dets, [1.0], rtol=1e-15)
    s = 2.5
    scaled = one_element_space((0, 0), (s, 0), (0, s), r=2)
    assert_allclose(element_gradients(scaled, pts),
                    scaled.basis.gradients(pts) / s, atol=1e-14)
    assert_allclose(scaled.dets, [s * s], rtol=1e-15)


def test_affine_map_hits_vertices():
    space = one_element_space((0.2, 0.1), (0.9, 0.3), (0.4, 1.1))
    got = space.physical_points([[0, 0], [1, 0], [0, 1]])[0]
    assert_allclose(got, [(0.2, 0.1), (0.9, 0.3), (0.4, 1.1)], rtol=1e-15)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_linear_field_gradient_reproduction(r, rng):
    # nodal interpolation of 3x + 2y has gradient (3, 2) everywhere
    space = one_element_space((0.1, 0.2), (0.7, 0.25), (0.3, 0.9), r)
    x, y = space.physical_points(space.basis.nodes)[0].T
    nodal = 3 * x + 2 * y
    pts = random_ref_points(rng)
    grads = np.einsum("pia,i->pa", element_gradients(space, pts), nodal)
    assert_allclose(grads, np.tile([3.0, 2.0], (len(pts), 1)), atol=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_polynomial_reproduction(r, rng):
    # interpolate a degree-r polynomial, evaluate at random points
    space = one_element_space((0.0, 0.0), (0.8, 0.1), (0.2, 0.7), r)
    coef = rng.standard_normal((r + 1, r + 1))

    def poly(x, y):
        out = 0.0
        for i in range(r + 1):
            for j in range(r + 1 - i):
                out = out + coef[i, j] * x ** i * y ** j
        return out

    xn, yn = space.physical_points(space.basis.nodes)[0].T
    nodal = poly(xn, yn)
    pts = random_ref_points(rng)
    xq, yq = space.physical_points(pts)[0].T
    assert_allclose(space.basis.values(pts) @ nodal, poly(xq, yq), atol=1e-11)


def test_trace_opposite_vertex_vanishes_on_edge():
    basis = ReferenceBasis(1)
    t = np.linspace(0, 1, 7)
    for k in range(3):
        vals = basis.values(edge_reference_points(k, t))
        assert_allclose(vals[:, k], 0.0, atol=1e-14)
        assert_allclose(vals.sum(axis=1), 1.0, atol=1e-14)


def test_trace_flip_reverses_parametrization():
    basis = ReferenceBasis(2)
    t = np.array([0.2, 0.7])
    fwd = basis.values(edge_reference_points(0, t))
    bwd = basis.values(edge_reference_points(0, 1.0 - t, flipped=True))
    assert_allclose(fwd, bwd, atol=1e-14)


def test_shared_edge_sides_sample_identical_points():
    # both sides of every interior edge must land on the same physical points
    mesh = dgsl.build_perturbed(4, 0.2, seed=5)
    edges = mesh.edges
    t = np.array([0.15, 0.5, 0.85])
    for e in np.flatnonzero(~edges.boundary):
        coords = []
        for tri, local, flipped in zip(edges.tri[e], edges.local[e],
                                       edges.flipped[e]):
            ref = edge_reference_points(local, t, flipped)
            p0 = mesh.vertices[mesh.triangles[tri][0]]
            jac = np.column_stack([
                mesh.vertices[mesh.triangles[tri][1]] - p0,
                mesh.vertices[mesh.triangles[tri][2]] - p0,
            ])
            coords.append(ref @ jac.T + p0)
        assert_allclose(coords[0], coords[1], atol=1e-13)
