"""Nodal Lagrange bases on the reference triangle and edge reference points.

The reference triangle has vertices (0,0), (1,0), (0,1). Basis functions
are Lagrange polynomials on the principal lattice of degree r, built by
inverting the monomial Vandermonde matrix at the lattice nodes. Local
edge k is the edge opposite reference vertex k, directed from vertex
(k+1) % 3 to vertex (k+2) % 3.
"""

import numpy as np

from .errors import UnsupportedDegree

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

SUPPORTED_DEGREES = (1, 2, 3)


def _lattice(r):
    return np.array([(r - i - j, i, j) for j in range(r + 1)
                     for i in range(r + 1 - j)])


def _monomial_exponents(r):
    return [(a, b) for b in range(r + 1) for a in range(r + 1 - b)]


def _monomial_values(exponents, points):
    pts = np.atleast_2d(points)
    return np.column_stack([pts[:, 0] ** a * pts[:, 1] ** b for a, b in exponents])


def _monomial_gradients(exponents, points):
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    grads = np.zeros((len(pts), len(exponents), 2))
    for k, (a, b) in enumerate(exponents):
        if a > 0:
            grads[:, k, 0] = a * x ** (a - 1) * y ** b
        if b > 0:
            grads[:, k, 1] = b * x ** a * y ** (b - 1)
    return grads


class ReferenceBasis:
    """Lagrange basis of degree r on the reference triangle.

    Attributes
    ----------
    degree : int
    nodes : ndarray, shape (dim, 2)
        Principal lattice nodes; for r = 1 these are the vertices.
    lattice : int ndarray, shape (dim, 3)
        r times each node's barycentric coordinates, column k that of
        reference vertex k; the nodes are its last two columns over r.
    dim : int
        (r+1)(r+2)/2 basis functions.
    """

    def __init__(self, degree):
        if degree not in SUPPORTED_DEGREES:
            raise UnsupportedDegree(
                f"bases cover degrees {SUPPORTED_DEGREES}, got {degree}"
            )
        self.degree = degree
        self.lattice = _lattice(degree)
        self.nodes = self.lattice[:, 1:] / degree
        self.dim = len(self.nodes)
        self._exponents = _monomial_exponents(degree)
        vand = _monomial_values(self._exponents, self.nodes)
        # phi_i = sum_k coeffs[i, k] * monomial_k, with phi_i(node_j) = delta_ij
        self._coeffs = np.linalg.inv(vand).T
        self.nodes.setflags(write=False)
        self.lattice.setflags(write=False)

    def values(self, points):
        """Basis values at reference points, shape (npts, dim)."""
        return _monomial_values(self._exponents, points) @ self._coeffs.T

    def gradients(self, points):
        """Reference-frame gradients at reference points, shape (npts, dim, 2)."""
        mg = _monomial_gradients(self._exponents, points)
        return np.einsum("pka,ik->pia", mg, self._coeffs)


def edge_reference_points(local_edge: int, params, flipped: bool = False):
    """Reference coordinates of points on a local edge.

    `params` are values in [0, 1] along the edge's own direction
    (from local vertex (k+1)%3 to (k+2)%3); `flipped=True` traverses the
    edge the opposite way, which reconciles the two sides of a shared
    edge when their local directions disagree.
    """
    t = np.asarray(params, dtype=float)
    if flipped:
        t = 1.0 - t
    a = REF_VERTICES[(local_edge + 1) % 3]
    b = REF_VERTICES[(local_edge + 2) % 3]
    return a[None, :] + t[:, None] * (b - a)[None, :]
