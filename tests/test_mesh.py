"""Mesh generators, file import/export, and edge topology.

The edge oracle enumerates unordered vertex pairs of all triangle sides
by brute force, independent of the EdgeSet construction path.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import dgsl
from dgsl import build_perturbed, build_structured, export_mesh, import_mesh
from dgsl.errors import (ConfigError, DgslError, NonConformingMesh,
                         ParseError, PerturbationFoldover)

UNIT_SQUARE_TWO_TRIANGLES = """\
# unit square, two triangles
4 2
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
0 1 2
0 2 3
"""


def brute_force_edges(mesh):
    """Map each unordered vertex pair to the triangles sharing it."""
    seen = {}
    for t, tri in enumerate(mesh.triangles):
        for k in range(3):
            a, b = int(tri[(k + 1) % 3]), int(tri[(k + 2) % 3])
            seen.setdefault((min(a, b), max(a, b)), []).append(t)
    return seen


def brute_force_edge_counts(mesh):
    """Count interior/boundary edges by enumerating triangle sides."""
    seen = brute_force_edges(mesh)
    assert {len(tris) for tris in seen.values()} <= {1, 2}
    boundary = sum(1 for tris in seen.values() if len(tris) == 1)
    return len(seen) - boundary, boundary


def edge_counts(mesh):
    boundary = int(mesh.edges.boundary.sum())
    return len(mesh.edges) - boundary, boundary


def test_structured_n1_counts():
    mesh = build_structured(1)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert len(mesh.edges) == 5
    assert edge_counts(mesh) == (1, 4)


def test_structured_n16_matches_table_setup():
    mesh = build_structured(16)
    assert mesh.num_triangles == 2 * 16 ** 2 == 512
    assert mesh.nominal_h == 1 / 16


def test_structured_n4_area_and_edges():
    mesh = build_structured(4)
    assert mesh.total_area() == 1.0
    interior, boundary = brute_force_edge_counts(mesh)
    assert (interior, boundary) == (40, 16)
    assert edge_counts(mesh) == (interior, boundary)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_structured_invariants(n):
    mesh = build_structured(n)
    assert_allclose(mesh.h_max, np.sqrt(2) / n, rtol=1e-14)
    assert mesh.nominal_h == 1 / n
    assert abs(mesh.total_area() - 1.0) <= 1e-12
    assert mesh.areas().min() > 0
    # quasi-uniformity witness: all structured elements are congruent
    assert mesh.element_sizes.max() <= mesh.element_sizes.min() * (1 + 1e-13)
    # side partition: every triangle side lands in exactly one edge record
    interior, boundary = edge_counts(mesh)
    assert 3 * mesh.num_triangles == 2 * interior + boundary
    assert boundary == 4 * n


def test_structured_determinism():
    a, b = build_structured(6), build_structured(6)
    assert_array_equal(a.vertices, b.vertices)
    assert_array_equal(a.triangles, b.triangles)


def test_perturbed_zero_amplitude_is_structured():
    base = build_structured(5)
    mesh = build_perturbed(5, 0.0, seed=99)
    assert_array_equal(mesh.vertices, base.vertices)
    assert_array_equal(mesh.triangles, base.triangles)


def test_perturbed_areas_positive_and_conserved():
    mesh = build_perturbed(10, 0.25, seed=42)
    assert mesh.areas().min() > 0
    assert abs(mesh.total_area() - 1.0) <= 1e-12


def test_perturbed_seeds_differ_and_repeat():
    m1 = build_perturbed(10, 0.25, seed=1)
    m2 = build_perturbed(10, 0.25, seed=2)
    m1b = build_perturbed(10, 0.25, seed=1)
    assert not np.array_equal(m1.vertices, m2.vertices)
    assert_array_equal(m1.vertices, m1b.vertices)


def test_perturbed_boundary_fixed():
    mesh = build_perturbed(6, 0.3, seed=7)
    base = build_structured(6)
    on_boundary = (np.isclose(base.vertices[:, 0] % 1.0, 0.0)
                   | np.isclose(base.vertices[:, 1] % 1.0, 0.0))
    assert_array_equal(mesh.vertices[on_boundary], base.vertices[on_boundary])


def test_perturbed_amplitude_validation():
    with pytest.raises(ValueError):
        build_perturbed(4, 0.5, seed=0)
    with pytest.raises(ValueError):
        build_perturbed(4, -0.1, seed=0)


def test_perturbed_foldover_detected():
    # seed 30 at n=20, amplitude 0.3 genuinely folds one triangle
    with pytest.raises(PerturbationFoldover):
        build_perturbed(20, 0.3, seed=30)


def test_import_two_triangle_square():
    mesh = import_mesh(UNIT_SQUARE_TWO_TRIANGLES)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert_allclose(mesh.h_max, np.sqrt(2.0), rtol=1e-15)
    assert edge_counts(mesh)[0] == 1


def test_import_duplicate_triangle_nonconforming():
    text = "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 1 2\n"
    with pytest.raises(NonConformingMesh):
        import_mesh(text)


def test_import_reorients_clockwise():
    text = "3 1\n0 0\n1 0\n0 1\n0 2 1\n"  # CW triangle
    mesh = import_mesh(text)
    assert mesh.areas()[0] > 0


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("2 1\n0 0\n1 0\n0 1 2\n", "at least 3"),
    ("4 1\n0 0\n1 0\n1 1\n0 1\n0 1 9\n", "out of range"),
    ("3 1\n0 0\n1 x\n0 1\n0 1 2\n", "bad coordinate"),
    ("3 1\n0 0\n1 0\n0 1\n0 1 2\n7 8 9\n", "content lines"),
    ("3 1\n0 0 5\n1 0\n0 1\n0 1 2\n", "expected 'x y'"),
    ("3\n0 0\n1 0\n0 1\n0 1 2\n", "line 1: expected 'nv nt' header"),
    ("3 one\n0 0\n1 0\n0 1\n0 1 2\n", "line 1: non-integer header"),
    ("3 1\n0 0\n1 0\n0 1\n0 1\n", "line 5: expected 'i j k'"),
    ("3 1\n0 0\n1 0\n0 1\n0 1 2.0\n", "line 5: bad vertex index"),
    # an index past int64 is range-checked before it is stored
    ("3 1\n0 0\n1 0\n0 1\n0 1 99999999999999999999\n",
     "line 5: vertex index out of range"),
])
def test_import_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        import_mesh(text)


@pytest.mark.parametrize("vertices,triangles,fragment", [
    (np.zeros((3, 3)), [[0, 1, 2]], r"vertices must be an \(nv, 2\) array"),
    ([[0, 0], [1, 0], [0, 1]], [[0, 1]], r"triangles must be an \(nt, 3\) array"),
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 5]], "triangle vertex index out of range"),
    # a float index is not truncated: 2.9 is not vertex 2
    ([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 2], [1, 3, 2.9]],
     "array of integers: got 2.9"),
    ([[0, 0], [1, 0], [0, 1]], np.array([[0.0, 1.0, np.nan]]),
     "array of integers: got nan"),
])
def test_trimesh_rejects_malformed_arrays(vertices, triangles, fragment):
    with pytest.raises(ParseError, match=fragment):
        dgsl.TriMesh(vertices, triangles)


def test_trimesh_accepts_integral_float_indices():
    mesh = dgsl.TriMesh([[0, 0], [1, 0], [0, 1], [1, 1]],
                        [[0.0, 1.0, 2.0], [1, 3, 2.0]])
    assert mesh.triangles.dtype == np.int64
    assert mesh.triangles.tolist() == [[0, 1, 2], [1, 3, 2]]


def test_non_finite_vertex_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    vertices[1, 1] = np.nan
    with pytest.raises(ParseError, match="vertex 1 has a non-finite"):
        dgsl.TriMesh(vertices, [[0, 1, 2]])


# "1e400" parses to inf
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), bad=st.sampled_from(
    ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400"]),
       data=st.data())
def test_import_rejects_non_finite_coordinates(n, bad, data):
    lines = export_mesh(build_perturbed(n, 0.1, n)).splitlines()
    nv = (n + 1) ** 2
    vertex = data.draw(st.integers(0, nv - 1))
    coords = lines[1 + vertex].split()
    coords[data.draw(st.integers(0, 1))] = bad
    lines[1 + vertex] = " ".join(coords)
    with pytest.raises(ParseError, match=f"vertex {vertex} has a non-finite"):
        import_mesh("\n".join(lines) + "\n")


HUGE = st.integers(2 ** 62, 2 ** 70)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 4), data=st.data(), token=st.one_of(
    HUGE.map(str), HUGE.map(lambda m: str(-m)),
    st.sampled_from(["x", "1.5e", "--", "0x10", "1_0_"])))
def test_import_survives_one_replaced_token(n, data, token):
    # only a DgslError may escape, and a triangle line with an index no
    # vertex has names the line
    lines = export_mesh(build_perturbed(n, 0.1, n)).splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[row].split()
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = token
    lines[row] = " ".join(tokens)
    try:
        import_mesh("\n".join(lines) + "\n")
    except DgslError as exc:
        error = exc
    else:
        error = None
    if row > (n + 1) ** 2:
        numeric = token.lstrip("-").isdigit()
        assert isinstance(error, ParseError)
        assert str(error) == f"line {row + 1}: " + (
            "vertex index out of range" if numeric else "bad vertex index")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), data=st.data(), entry=st.one_of(
    HUGE, HUGE.map(lambda m: -m),
    st.sampled_from(["x", "1.5e", None, [1, 2], ()])))
def test_trimesh_survives_one_replaced_list_entry(n, data, entry):
    # the constructor is public and takes Python lists, which may hold
    # ints past int64, strings, None or nested rows: only a DgslError may
    # escape, and a bad triangle entry is a ParseError that says which
    mesh = build_perturbed(n, 0.1, n)
    vertices, triangles = mesh.vertices.tolist(), mesh.triangles.tolist()
    rows = data.draw(st.sampled_from([vertices, triangles]))
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    row[data.draw(st.integers(0, len(row) - 1))] = entry
    try:
        dgsl.TriMesh(vertices, triangles)
    except DgslError as exc:
        error = exc
    else:
        error = None
    numeric = isinstance(entry, int)
    if rows is triangles:
        assert isinstance(error, ParseError)
        assert str(error).startswith(
            "triangle vertex index out of range" if numeric
            else "triangles must be an (nt, 3) array of integers")
    elif not numeric:
        assert isinstance(error, ParseError)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_import_rejects_coincident_vertices(n, data):
    # a copy of a vertex taken by some, not all, of its triangles cuts a
    # slit into the domain
    mesh = build_perturbed(n, 0.1, n)
    counts = np.bincount(mesh.triangles.ravel())
    vertex = data.draw(st.sampled_from(np.flatnonzero(counts > 1).tolist()))
    around = np.flatnonzero((mesh.triangles == vertex).any(axis=1))
    moved = data.draw(st.lists(st.sampled_from(around.tolist()), min_size=1,
                               max_size=len(around) - 1, unique=True))
    vertices = np.vstack([mesh.vertices, mesh.vertices[vertex]])
    triangles = mesh.triangles.copy()
    triangles[moved] = np.where(triangles[moved] == vertex, len(vertices) - 1,
                                triangles[moved])
    text = "\n".join([f"{len(vertices)} {len(triangles)}",
                      *(f"{x!r} {y!r}" for x, y in vertices.tolist()),
                      *(f"{i} {j} {k}" for i, j, k in triangles)]) + "\n"
    with pytest.raises(ParseError, match=f"vertices {vertex} and "
                                         f"{len(vertices) - 1} coincide"):
        import_mesh(text)


def test_unused_coincident_vertex_accepted():
    mesh = dgsl.TriMesh([[0, 0], [1, 0], [0, 1], [1, 0]], [[0, 1, 2]])
    assert mesh.num_vertices == 4 and mesh.num_triangles == 1


def test_overflowing_area_rejected():
    # finite coordinates whose signed area overflows to inf - inf = NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ParseError, match="triangle 0 is degenerate"):
            dgsl.TriMesh([[0, 0], [1e200, 1e200], [1e200, 2e200]], [[0, 1, 2]])


def test_needle_element_size_is_its_longest_edge():
    # edges 1e160, 1e160 and 1e-160: squaring a side would overflow
    mesh = dgsl.TriMesh([[0, 0], [1e160, 0], [1e160, 1e-160]], [[0, 1, 2]])
    assert mesh.element_sizes.tolist() == [1e160]
    assert mesh.h_max == 1e160


@pytest.mark.parametrize("call", [
    lambda: build_structured(0),
    lambda: build_perturbed(0, 0.2, seed=0),
    lambda: build_perturbed(4, float("nan"), seed=0),
    lambda: build_perturbed(4, 0.2, seed=-1),
], ids=["structured_n0", "perturbed_n0", "amplitude_nan", "negative_seed"])
def test_generator_arguments_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


def test_import_degenerate_triangle():
    text = "3 1\n0 0\n1 0\n2 0\n0 1 2\n"
    with pytest.raises(ParseError, match="degenerate"):
        import_mesh(text)


@pytest.mark.parametrize("n", [2, 5])
def test_export_import_round_trip(n):
    mesh = build_structured(n)
    again = import_mesh(export_mesh(mesh))
    assert_array_equal(again.vertices, mesh.vertices)
    assert_array_equal(again.triangles, mesh.triangles)
    assert abs(again.total_area() - 1.0) <= 1e-12


def test_perturbed_round_trip_exact():
    mesh = build_perturbed(7, 0.2, seed=3)
    again = import_mesh(export_mesh(mesh))
    assert_array_equal(again.vertices, mesh.vertices)


def test_single_interior_edge_normal_is_diagonal():
    mesh = build_structured(1)
    (edge,) = np.flatnonzero(~mesh.edges.boundary)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert_allclose(np.abs(mesh.edges.normal[edge]), np.abs(expected), rtol=1e-14)


def test_boundary_normals_point_outward():
    mesh = build_structured(3)
    edges = mesh.edges
    for e in np.flatnonzero(edges.boundary):
        lo, hi = edges.endpoints[e]
        mid = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
        normal = edges.normal[e]
        if np.isclose(mid[0], 0.0):
            assert_allclose(normal, [-1.0, 0.0], atol=1e-14)
        elif np.isclose(mid[0], 1.0):
            assert_allclose(normal, [1.0, 0.0], atol=1e-14)
        elif np.isclose(mid[1], 0.0):
            assert_allclose(normal, [0.0, -1.0], atol=1e-14)
        elif np.isclose(mid[1], 1.0):
            assert_allclose(normal, [0.0, 1.0], atol=1e-14)
        else:
            raise AssertionError("boundary edge not on the unit-square boundary")


@pytest.mark.parametrize("builder", [
    lambda: build_structured(4),
    lambda: build_perturbed(6, 0.2, seed=11),
])
def test_interior_normals_point_plus_to_minus(builder):
    mesh = builder()
    edges = mesh.edges
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    inner = ~edges.boundary
    plus_tri, minus_tri = edges.tri[inner, 0], edges.tri[inner, 1]
    assert np.all(plus_tri < minus_tri)  # lower index is the plus side
    gap = centroids[minus_tri] - centroids[plus_tri]
    assert np.all((edges.normal[inner] * gap).sum(axis=1) > 0)


def test_edge_geometry_invariants():
    mesh = build_perturbed(5, 0.25, seed=8)
    edges = mesh.edges
    assert_allclose(np.linalg.norm(edges.normal, axis=1), 1.0, atol=1e-14)
    assert np.all(edges.length > 0)
    lo, hi = edges.endpoints.T
    assert np.all(lo < hi)
    assert_allclose(edges.length,
                    np.linalg.norm(mesh.vertices[hi] - mesh.vertices[lo], axis=1),
                    rtol=1e-14)


def assert_edge_set_matches_oracle(mesh):
    """The EdgeSet against brute-force side enumeration and geometry."""
    edges = mesh.edges
    oracle = brute_force_edges(mesh)
    assert [tuple(pair) for pair in edges.endpoints.tolist()] == sorted(oracle)
    interior, boundary = brute_force_edge_counts(mesh)
    assert edge_counts(mesh) == (interior, boundary)
    assert 3 * mesh.num_triangles == 2 * interior + boundary
    for e, tris in enumerate(oracle[k] for k in sorted(oracle)):
        assert sorted(t for t in edges.tri[e] if t >= 0) == tris
    # the local edge of each side is the side between the two endpoints
    for s in (0, 1):
        has = edges.tri[:, s] >= 0
        tri = mesh.triangles[edges.tri[has, s]]
        k = edges.local[has, s]
        rows = np.arange(len(k))
        start, end = tri[rows, (k + 1) % 3], tri[rows, (k + 2) % 3]
        assert_array_equal(np.minimum(start, end), edges.endpoints[has, 0])
        assert_array_equal(np.maximum(start, end), edges.endpoints[has, 1])
        assert_array_equal(edges.flipped[has, s], start != edges.endpoints[has, 0])
    inner = ~edges.boundary
    assert np.all(edges.tri[inner, 0] < edges.tri[inner, 1])
    assert np.all(edges.tri[edges.boundary, 1] == -1)

    lo, hi = mesh.vertices[edges.endpoints[:, 0]], mesh.vertices[edges.endpoints[:, 1]]
    assert_allclose(edges.length, np.linalg.norm(hi - lo, axis=1), rtol=1e-14)
    assert_allclose(np.linalg.norm(edges.normal, axis=1), 1.0, atol=1e-14)
    assert_allclose((edges.normal * (hi - lo)).sum(axis=1), 0.0, atol=1e-14)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    mid = 0.5 * (lo + hi)
    out_of_plus = ((mid - centroids[edges.tri[:, 0]]) * edges.normal).sum(axis=1)
    assert np.all(out_of_plus > 0)
    gap = centroids[edges.tri[inner, 1]] - centroids[edges.tri[inner, 0]]
    assert np.all((edges.normal[inner] * gap).sum(axis=1) > 0)
    # on the unit square, boundary normals point out of the domain
    assert_allclose(np.abs(edges.normal[edges.boundary]).max(axis=1), 1.0,
                    atol=1e-14)
    assert np.all((edges.normal[edges.boundary] * (mid[edges.boundary] - 0.5))
                  .sum(axis=1) > 0)


def fan_vertices(count, step, radii):
    """A centre vertex and `count` + 1 outer ones, `step` radians apart,
    at the given radii (so outer vertices at one angle stay apart)."""
    theta = step * np.arange(count + 1)
    return np.vstack([[0.0, 0.0], np.column_stack(
        [radii * np.cos(theta), radii * np.sin(theta)])])


def test_double_fan_around_interior_vertex_rejected():
    # 12 triangles of 60 degrees close around the centre after two turns:
    # every spoke is shared by two triangles on opposite sides, so the
    # edge-wise overlap test passes, and the triangle areas equal the
    # boundary shoelace, but the centre's angles sum to 4 pi
    radii = np.where(np.arange(13) < 6, 1.0, 2.0)
    vertices = fan_vertices(12, np.pi / 3, radii)[:13]
    triangles = [[0, 1 + j, 1 + (j + 1) % 12] for j in range(12)]
    with pytest.raises(NonConformingMesh, match="vertex 0 turn through 720"):
        dgsl.TriMesh(vertices, triangles)
    # one turn of the same fan is a valid hexagon
    mesh = dgsl.TriMesh(vertices[:7], [[0, 1 + j, 1 + (j + 1) % 6]
                                       for j in range(6)])
    assert edge_counts(mesh) == (6, 6)


def test_open_fan_past_a_full_turn_rejected():
    # 7 triangles of 60 degrees around a boundary vertex overlap the first
    radii = np.where(np.arange(8) < 6, 1.0, 2.0)
    vertices = fan_vertices(7, np.pi / 3, radii)
    triangles = [[0, 1 + j, 2 + j] for j in range(7)]
    with pytest.raises(NonConformingMesh,
                       match="boundary vertex 0 turn through 420"):
        dgsl.TriMesh(vertices, triangles)
    # 5 of them (300 degrees) are a valid non-convex domain
    mesh = dgsl.TriMesh(vertices[:7], triangles[:5])
    assert_allclose(mesh.total_area(), 5 * np.sqrt(3) / 4, rtol=1e-14)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), amplitude=st.floats(0.0, 0.3),
       seed=st.integers(0, 2 ** 16))
def test_perturbed_meshes_pass_the_vertex_fan_check(n, amplitude, seed):
    try:
        mesh = build_perturbed(n, amplitude, seed)
    except PerturbationFoldover:
        assume(False)
    # the same mesh through import, with nothing shared with the generator
    assert import_mesh(export_mesh(mesh)).num_triangles == 2 * n * n


# amplitudes up to 0.15 cannot fold a structured triangle, so every draw
# is a valid mesh
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), amplitude=st.sampled_from([0.0, 0.1, 0.15]),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_edge_set_matches_oracle_on_shuffled_meshes(n, amplitude, seed, data):
    base = build_perturbed(n, amplitude, seed)
    nt = base.num_triangles
    perm = data.draw(st.permutations(range(nt)))
    clockwise = np.array(data.draw(st.lists(st.booleans(), min_size=nt,
                                            max_size=nt)))
    triangles = base.triangles[perm].copy()
    triangles[clockwise] = triangles[clockwise][:, [0, 2, 1]]
    mesh = dgsl.TriMesh(base.vertices, triangles)
    assert mesh.areas().min() > 0
    assert_edge_set_matches_oracle(mesh)

    doubled = np.concatenate([triangles, triangles[data.draw(
        st.integers(0, nt - 1))][None]])
    with pytest.raises(NonConformingMesh):
        dgsl.TriMesh(base.vertices, doubled)
