"""Gauss quadrature rules on the reference triangle and the unit interval.

Triangle rules are conical products of Gauss-Legendre and Gauss-Jacobi
rules through the Duffy substitution x = s*(1-t), y = t, which maps the
unit square onto the reference triangle {x >= 0, y >= 0, x + y <= 1}.
An m x m conical rule integrates all polynomials of total degree
2m - 1 exactly, and all of its weights are positive. Rules are built
once per degree and shared: their arrays are read-only.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import UnsupportedDegree

MAX_TRIANGLE_DEGREE = 14
MAX_EDGE_DEGREE = 20


@dataclass(frozen=True)
class QuadRule:
    """Immutable quadrature rule.

    Parameters
    ----------
    points : ndarray
        Reference coordinates, shape (m, 2) for triangle rules and (m,)
        for interval rules.
    weights : ndarray
        Positive weights summing to the reference measure (1/2 for the
        triangle, 1 for the interval).
    exactness_degree : int
        All polynomials of total degree up to this value are integrated
        exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return len(self.weights)


def _gauss_legendre_01(m):
    """m-point Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = leggauss(m)
    return (x + 1.0) / 2.0, w / 2.0


def _gauss_jacobi_10(m):
    """m-point Gauss-Jacobi rule for the weight (1 - t) on [-1, 1], by
    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the monic Jacobi(1, 0) recurrence, and the weights are the integral
    of the weight (2) times the squared first eigenvector components."""
    k = np.arange(m)
    diagonal = -1.0 / ((2 * k + 1) * (2 * k + 3))
    j = np.arange(1, m)
    offdiagonal = np.sqrt(j * (j + 1.0)) / (2 * j + 1)
    jacobi = np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, 2.0 * vectors[0] ** 2


@functools.lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadRule:
    """Rule on the reference triangle exact for total degree <= `degree`.

    The returned rule's ``exactness_degree`` is 2*ceil((degree+1)/2) - 1,
    which is `degree` rounded up to the next odd integer.
    """
    if not 1 <= degree <= MAX_TRIANGLE_DEGREE:
        raise UnsupportedDegree(
            f"triangle rules cover degrees 1..{MAX_TRIANGLE_DEGREE}, got {degree}"
        )
    m = (degree + 2) // 2
    s, ws = _gauss_legendre_01(m)
    # Gauss-Jacobi with weight (1 - t) on [-1, 1], mapped to [0, 1].
    t, wt = _gauss_jacobi_10(m)
    t, wt = (t + 1.0) / 2.0, wt / 4.0
    # point i m + j pairs s[i] with t[j]
    pts = np.column_stack([np.outer(s, 1.0 - t).ravel(), np.tile(t, m)])
    return QuadRule(pts, np.outer(ws, wt).ravel(), 2 * m - 1)


@functools.lru_cache(maxsize=None)
def edge_rule(degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1] exact for degree <= `degree`."""
    if not 1 <= degree <= MAX_EDGE_DEGREE:
        raise UnsupportedDegree(
            f"edge rules cover degrees 1..{MAX_EDGE_DEGREE}, got {degree}"
        )
    m = (degree + 2) // 2
    x, w = _gauss_legendre_01(m)
    return QuadRule(x, w, 2 * m - 1)
