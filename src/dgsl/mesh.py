"""Conforming triangulations with derived edge topology.

A mesh stores vertices, CCW-oriented triangles, and an EdgeSet: one
array per edge attribute, edges sorted by their (low, high) vertex
pair. Every edge is shared by one triangle (boundary) or two
(interior); a third adjacency raises NonConformingMesh, as does a fan
of triangles that turns more than once around a vertex. The triangle
with the lower index on an interior edge is the "plus" side (column 0
of the side arrays) and the stored unit normal points out of it; on
boundary edges the normal points out of the domain and the minus
column holds -1.

Mesh file format (plain text, whitespace separated, `#` comments):

    nv nt
    x y          (nv lines)
    i j k        (nt lines, 0-based vertex indices)
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NonConformingMesh, ParseError,
                     PerturbationFoldover)


@dataclass(frozen=True)
class EdgeSet:
    """All edges of a mesh as parallel read-only arrays (m edges).

    ``endpoints`` (m, 2) is ordered (low, high) by vertex index, which
    fixes the global direction used to parametrize edge quadrature
    points. ``tri`` and ``local`` (m, 2) give the (plus, minus)
    triangles and their local edge indices, -1 on the minus side of a
    boundary edge. ``flipped`` (m, 2) records whether each side's local
    edge direction disagrees with the global one. ``normal`` (m, 2) is
    the unit normal out of the plus triangle, ``length`` (m,) the edge
    length and ``boundary`` (m,) the boundary mask.
    """

    endpoints: np.ndarray
    tri: np.ndarray
    local: np.ndarray
    flipped: np.ndarray
    normal: np.ndarray
    length: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.setflags(write=False)

    def __len__(self):
        return len(self.length)


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _build_edges(vertices, triangles):
    # local edge k is opposite local vertex k, directed (k+1)%3 -> (k+2)%3;
    # side s = 3 t + k of the flattened arrays is local edge k of triangle t
    start = triangles[:, [1, 2, 0]].ravel()
    end = triangles[:, [2, 0, 1]].ravel()
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    # stable sort: sides of one edge stay in (triangle, local edge) order
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    counts = np.diff(np.r_[first, len(order)])
    if np.any(counts > 2):
        k = np.argmax(counts > 2)
        raise NonConformingMesh(
            f"edge {(int(lo[first[k]]), int(hi[first[k]]))} is shared by "
            f"{counts[k]} triangles"
        )

    interior = counts == 2
    sides = np.stack([first, np.where(interior, first + 1, -1)], axis=1)
    present = sides >= 0
    side_ids = order[np.where(present, sides, 0)]
    tri = np.where(present, side_ids // 3, -1)
    local = np.where(present, side_ids % 3, -1)
    flipped = present & (start[side_ids] != lo[first][:, None])

    endpoints = np.stack([lo[first], hi[first]], axis=1)
    p_lo, p_hi = vertices[endpoints[:, 0]], vertices[endpoints[:, 1]]
    tangent = p_hi - p_lo
    length = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1) / length[:, None]
    centroids = vertices[triangles].mean(axis=1)
    midpoint = 0.5 * (p_lo + p_hi)
    outward = ((midpoint - centroids[tri[:, 0]]) * normal).sum(axis=1)
    normal[outward < 0.0] *= -1.0
    # boundary rows read centroid -1 here; `interior` masks them out
    gap = ((centroids[tri[:, 1]] - centroids[tri[:, 0]]) * normal).sum(axis=1)
    overlap = np.flatnonzero(interior & (gap <= 0.0))
    if len(overlap):
        e = overlap[0]
        raise NonConformingMesh(
            f"triangles {tri[e, 0]} and {tri[e, 1]} overlap across edge "
            f"{(int(endpoints[e, 0]), int(endpoints[e, 1]))}"
        )
    return EdgeSet(endpoints=endpoints, tri=tri, local=local, flipped=flipped,
                   normal=normal, length=length, boundary=~interior)


def _check_vertex_fans(vertices, triangles, edges):
    """Raise NonConformingMesh where the triangles around a vertex wrap
    more than once: the angles of a closed fan sum to 2 pi k, so an
    interior vertex must sum to 2 pi (within pi) and a boundary vertex
    to less. Overlap with no shared edge or vertex is not caught."""
    p = vertices[triangles]
    # unit sides, so that a needle's products cannot overflow
    ahead, behind = (d / np.hypot(d[..., 0], d[..., 1])[..., None]
                     for d in (np.roll(p, -1, axis=1) - p,
                               np.roll(p, 1, axis=1) - p))
    angles = np.arctan2(ahead[..., 0] * behind[..., 1]
                        - ahead[..., 1] * behind[..., 0],
                        (ahead * behind).sum(axis=2))
    total = np.bincount(triangles.ravel(), angles.ravel(), len(vertices))
    on_boundary = np.zeros(len(vertices), dtype=bool)
    on_boundary[edges.endpoints[edges.boundary]] = True
    # an unused vertex sums to 0; every used one to more
    bad = np.flatnonzero(np.where(
        on_boundary, total > 2.0 * np.pi,
        (total > 0.0) & (np.abs(total - 2.0 * np.pi) > np.pi)))
    if len(bad):
        v = bad[0]
        kind = "boundary vertex" if on_boundary[v] else "vertex"
        raise NonConformingMesh(
            f"the triangles around {kind} {v} turn through "
            f"{np.degrees(total[v]):.1f} degrees")


class TriMesh:
    """Immutable conforming triangulation of a polygonal domain.

    Parameters
    ----------
    vertices : array_like, shape (nv, 2)
    triangles : array_like, shape (nt, 3)
        Vertex index triples; re-oriented CCW if given CW.
    nominal_h : float, optional
        Mesh size used in convergence reporting. Defaults to the maximum
        element diameter; the structured generator labels meshes with 1/n
        instead.
    """

    def __init__(self, vertices, triangles, nominal_h=None):
        # Python lists may hold what numpy cannot store: ints past int64
        # (OverflowError), strings or ragged rows (ValueError, TypeError)
        try:
            self.vertices = np.array(vertices, dtype=float)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ParseError(f"vertices must be an (nv, 2) array of "
                             f"numbers: {exc}") from exc
        try:
            with np.errstate(invalid="ignore"):   # NaN, inf: caught below
                self.triangles = np.array(triangles, dtype=np.int64)
        except OverflowError as exc:
            raise ParseError("triangle vertex index out of range") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"triangles must be an (nt, 3) array of "
                             f"integers: {exc}") from exc
        # the cast truncates floats toward zero: 2.0 is 2, 2.9 is no index
        raw = np.asarray(triangles)
        if raw.dtype.kind == "f" and np.any(self.triangles != raw):
            raise ParseError("triangles must be an (nt, 3) array of "
                             f"integers: got {raw[self.triangles != raw][0]}")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ParseError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ParseError("triangles must be an (nt, 3) array")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise ParseError(f"vertex {bad[0]} has a non-finite coordinate")
        if self.triangles.min(initial=0) < 0 or \
                self.triangles.max(initial=-1) >= len(self.vertices):
            raise ParseError("triangle vertex index out of range")
        # two used vertices at one point would cut a slit into the domain
        used = np.unique(self.triangles)
        order = used[np.lexsort(self.vertices[used].T[::-1])]
        same = np.flatnonzero((np.diff(self.vertices[order], axis=0) == 0.0)
                              .all(axis=1))
        if len(same):
            i, j = sorted(order[same[0]:same[0] + 2])
            raise ParseError(f"vertices {i} and {j} coincide")

        area = _signed_areas(self.vertices, self.triangles)
        # a NaN or infinite area means the coordinates overflow it
        bad = np.flatnonzero((area == 0.0) | ~np.isfinite(area))
        if len(bad):
            raise ParseError(f"triangle {bad[0]} is degenerate "
                             f"(area {area[bad[0]]})")
        clockwise = area < 0.0
        self.triangles[clockwise] = self.triangles[clockwise][:, [0, 2, 1]]

        self.edges = _build_edges(self.vertices, self.triangles)
        _check_vertex_fans(self.vertices, self.triangles, self.edges)

        # an element's size is its longest edge; each (triangle, local
        # edge) pair is one side of exactly one edge
        e = self.edges
        present = e.tri >= 0
        side_length = np.empty(self.triangles.shape)
        side_length[e.tri[present], e.local[present]] = \
            np.broadcast_to(e.length[:, None], present.shape)[present]
        self.element_sizes = side_length.max(axis=1)
        self.h_max = float(self.element_sizes.max())
        self.nominal_h = float(nominal_h) if nominal_h is not None else self.h_max

        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self.element_sizes.setflags(write=False)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def areas(self):
        """Signed areas of all triangles (positive by construction)."""
        return _signed_areas(self.vertices, self.triangles)

    def total_area(self):
        return float(self.areas().sum())


def check_grid_args(n, amplitude=0.0, seed=0):
    """Raise ConfigError unless the generators accept these arguments."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ConfigError(f"n must be an integer >= 1, got {n!r}")
    if not 0.0 <= amplitude <= 0.3:
        raise ConfigError(f"amplitude must be in [0, 0.3], got {amplitude}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")


def _structured_grid(n):
    """Vertices and triangles of the n x n unit-square grid."""
    check_grid_args(n)
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # cell (i, j), row-major in j, has lower-left vertex j (n+1) + i
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    a = j * (n + 1) + i
    b, c, d = a + 1, a + n + 2, a + n + 1
    triangles = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return vertices, triangles


def build_structured(n: int) -> TriMesh:
    """Uniform unit-square mesh: n x n cells, each split along the
    lower-left to upper-right diagonal.

    (n+1)^2 vertices, 2*n^2 triangles, labeled with nominal size 1/n.
    """
    vertices, triangles = _structured_grid(n)
    return TriMesh(vertices, triangles, nominal_h=1.0 / n)


def build_perturbed(n: int, amplitude: float, seed: int) -> TriMesh:
    """Structured mesh with interior vertices randomly displaced.

    Each interior vertex moves by a uniform offset in
    [-amplitude/n, amplitude/n] per coordinate, drawn from a seeded
    generator; boundary vertices stay fixed and connectivity is
    unchanged. Raises PerturbationFoldover if any triangle folds.
    """
    check_grid_args(n, amplitude, seed)
    vertices, triangles = _structured_grid(n)
    inner = np.arange(1, n, dtype=np.int64)
    interior = (inner[:, None] * (n + 1) + inner[None, :]).ravel()
    rng = np.random.default_rng(seed)
    if len(interior):
        offsets = rng.uniform(-amplitude / n, amplitude / n, size=(len(interior), 2))
        vertices[interior] += offsets

    folded = np.flatnonzero(_signed_areas(vertices, triangles) <= 0.0)
    if len(folded):
        raise PerturbationFoldover(
            f"triangle {folded[0]} folded at amplitude {amplitude} (seed {seed})"
        )
    return TriMesh(vertices, triangles)


def import_mesh(text: str) -> TriMesh:
    """Parse mesh-file content into a TriMesh.

    CW triangles are re-oriented; an edge shared by more than two
    triangles raises NonConformingMesh.
    """
    tokensets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokensets.append((lineno, line.split()))

    if not tokensets:
        raise ParseError("empty mesh file")

    lineno, header = tokensets[0]
    if len(header) != 2:
        raise ParseError(f"line {lineno}: expected 'nv nt' header")
    try:
        nv, nt = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: non-integer header") from exc
    if nv < 3 or nt < 1:
        raise ParseError(f"line {lineno}: need at least 3 vertices and 1 triangle")
    if len(tokensets) != 1 + nv + nt:
        raise ParseError(
            f"expected {1 + nv + nt} content lines, found {len(tokensets)}"
        )

    vertices = np.empty((nv, 2))
    for row, (lineno, toks) in enumerate(tokensets[1:1 + nv]):
        if len(toks) != 2:
            raise ParseError(f"line {lineno}: expected 'x y'")
        try:
            vertices[row] = (float(toks[0]), float(toks[1]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad coordinate") from exc

    triangles = []
    for lineno, toks in tokensets[1 + nv:]:
        if len(toks) != 3:
            raise ParseError(f"line {lineno}: expected 'i j k'")
        try:
            indices = [int(tok) for tok in toks]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad vertex index") from exc
        # checked as Python ints, so an index past int64 cannot overflow
        if not all(0 <= i < nv for i in indices):
            raise ParseError(f"line {lineno}: vertex index out of range")
        triangles.append(indices)

    return TriMesh(vertices, triangles)


def export_mesh(mesh: TriMesh) -> str:
    """Serialize a mesh in the import format, round-trip exact."""
    lines = [f"{mesh.num_vertices} {mesh.num_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    return "\n".join(lines) + "\n"
