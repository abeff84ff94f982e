"""Solvers for the symmetric positive definite Newton-step systems.

One route: `two_level_preconditioner` proves a stiffness positive
definite and preconditions it, and `solve_spd` runs one preconditioned
conjugate gradient loop with it. A stiffness that assembly's local
certificate does not cover (`SparseSymMatrix.certified`) is proven by
the pivots of the `symmetric_factor` of its `full` matrix: a negative
one raises IndefiniteOperator, the practical symptom of an insufficient
penalty parameter. CG only checks: it raises the same error when it
meets a direction of non-positive curvature, which it may never meet,
so it is for a matrix already proven positive definite.

The preconditioner adds three terms, built from the operator and its
space. The exact per-element block-Jacobi inverse of
`block_jacobi_preconditioner`, read from the operator's element blocks,
damps what varies within an element; an exact solve on continuous P1
over the same mesh corrects the smooth part, so the iterations do not
grow as h -> 0. Neither reaches the continuous high-order part of the
error at r >= 2, whose count grows with the penalty, so there a Jacobi
sweep on continuous P_r, through the node map of
`space.conforming_nodes`, is added too (an auxiliary-space term). At
r = 1 continuous P_r is the P1 coarse space itself, which the exact
solve already covers, and neither the term nor its map is built: the
term only made CG slower. Each term is symmetric positive semidefinite
and the block-Jacobi term positive definite, so the sum is positive
definite whenever the operator is.

Only the proof reads pivots: the first access to `lu.U` makes scipy
build and cache CSC copies of both L and U for the factor's life (about
230 MB at P3 on a perturbed n = 64 mesh), so the proof drops its factor.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import SparseSymMatrix, _element_chunks
from .errors import IndefiniteOperator, NotConverged, SingularOperator
from .space import DGSpace, conforming_nodes, p1_prolongation


@dataclass
class LinearSolveReport:
    iterations: int
    relative_residual: float
    # always "pcg"; the benchmark's traced solve counter still reads it
    method: str = "pcg"


def symmetric_factor(matrix):
    """Sparse LU of the symmetric `matrix` with a symmetric fill-reducing
    ordering and diagonal pivots; its pivots are left unread.

    Exact zeros of the stored entries are left out of the factored
    pattern. Raises SingularOperator on an exactly singular matrix and
    IndefiniteOperator on an off-diagonal pivot.
    """
    csc = sparse.csc_matrix(matrix)
    csc.eliminate_zeros()
    try:
        lu = splu(csc, permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularOperator(f"sparse LU failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise IndefiniteOperator(
            "sparse LU needed an off-diagonal pivot, so the operator is "
            "not positive definite")
    return lu


def block_jacobi_preconditioner(a: SparseSymMatrix):
    """Exact inverse of the element blocks of `a` (`a.diagonal`).

    Blocks are small ((r+1)(r+2)/2 <= 10), so exact inverses are cheap.
    They are checked and inverted one `ELEMENT_CHUNK` at a time into one
    (E, D, D) array; LAPACK inverts each block on its own, so the chunks
    do not change a bit. Raises IndefiniteOperator if any block is not
    positive definite.
    """
    blocks = a.diagonal.data
    inv = np.empty_like(blocks)
    for chunk in _element_chunks(len(blocks)):
        dense = blocks[chunk]
        try:
            np.linalg.cholesky(dense)
        except np.linalg.LinAlgError as exc:
            raise IndefiniteOperator(
                "a diagonal block is not positive definite (penalty too "
                "small?)") from exc
        inv[chunk] = np.linalg.inv(dense)

    def apply(r):
        return np.einsum("bij,bj->bi", inv, r.reshape(len(inv), -1)).ravel()

    return apply


def _conforming_diagonal(a: SparseSymMatrix, node):
    """D_c = diag(Pi^T a Pi) for the 0/1 gather Pi of the node map `node`
    (`space.conforming_nodes`), without forming Pi: the element blocks'
    diagonals, plus the coupling entries that pair one node on both
    sides of an edge. The element diagonals are summed into their nodes
    by one `bincount`. The couplings are compared node by node one
    `ELEMENT_CHUNK` of blocks at a time, and each chunk's pairs are added
    into their nodes at once, so no temporary is the size of their data
    (collecting every chunk's pairs for one `bincount` left 18 MB more
    resident after the set-up at P3 n = 256)."""
    count = int(node.max()) + 1
    blocks = a.diagonal.data
    diag = np.bincount(node, np.diagonal(blocks, axis1=1, axis2=2).ravel(),
                       count)
    couplings = a.csr
    by_element = node.reshape(len(blocks), -1)
    rows = np.repeat(np.arange(len(blocks), dtype=np.int32),
                     np.diff(couplings.indptr))
    for chunk in _element_chunks(len(rows)):
        row_nodes = by_element[rows[chunk]]
        b, i, j = np.nonzero(row_nodes[:, :, None]
                             == by_element[couplings.indices[chunk], None, :])
        np.add.at(diag, row_nodes[b, i], couplings.data[chunk][b, i, j])
    return diag


def two_level_preconditioner(a: SparseSymMatrix, space: DGSpace):
    """Additive preconditioner B r + Pi D_c^-1 Pi^T r + P A_c^-1 P^T r
    for `a` on `space`, proven positive definite first: CG iterations do
    not grow as h -> 0 (Dobrev, Lazarov, Vassilevski & Zikatanov, NLAA
    2006), nor with the penalty at r >= 2 (Antonietti, Sarti, Verani &
    Zikatanov, J. Sci. Comput. 2017).

    An `a` without assembly's certificate is proven by the pivots of the
    `symmetric_factor` of `a.full()`, as CSR so that its CSC copy is not
    made through COO: with equal row and column permutations,
    P A P^T = L D L^T with D = diag(U), so by Sylvester's law of inertia
    `a` has as many negative eigenvalues as U has negative pivots, and
    any raises IndefiniteOperator. B is `block_jacobi_preconditioner`,
    P is `space.p1_prolongation` (continuous P1) and A_c = P^T C P + P^T D P
    for a's couplings C and element blocks D, positive definite since P
    has full column rank, and factored as such. P^T is used as
    `prolongation.T`, a CSC view of P, so no transposed copy is kept.

    At r >= 2, Pi is the 0/1 gather from continuous P_r to DG given by
    the node map of `space.conforming_nodes` and D_c = diag(Pi^T a Pi)
    (`_conforming_diagonal`): a Jacobi sweep on the conforming part of
    the error, which neither B nor the P1 coarse space reaches. At
    r = 1, Pi = P and the coarse solve covers that space: no term, no map.
    """
    if not a.certified:
        negative = np.count_nonzero(
            symmetric_factor(a.full().tocsr()).U.diagonal() < 0.0)
        if negative:
            raise IndefiniteOperator(
                f"sparse LU met {negative} negative pivots, so the operator "
                f"has {negative} negative eigenvalues (penalty too small?)")
    smoother = block_jacobi_preconditioner(a)
    prolongation = p1_prolongation(space)
    restriction = prolongation.T
    # P^T (X P) as ((X P)^T P)^T for X = C, then D, one X P at a time:
    # scipy runs the CSC view (X P)^T times P as the CSR product of P^T
    # and X P, so each has the bytes a CSR copy of P^T gives, while only
    # a transient CSC copy of P is made, not one of X P
    coarse = ((a.csr @ prolongation).tocsr().T @ prolongation).T \
        + ((a.diagonal @ prolongation).tocsr().T @ prolongation).T
    lu = symmetric_factor(coarse)

    def apply(r):
        out = smoother(r)
        out += prolongation @ lu.solve(restriction @ r)
        return out

    if space.degree < 2:
        return apply
    node = conforming_nodes(space)
    inverse = 1.0 / _conforming_diagonal(a, node)

    def apply_conforming(r):
        out = apply(r)
        correction = np.bincount(node, r, len(inverse))
        correction *= inverse
        out += np.take(correction, node)
        return out

    return apply_conforming


def solve_spd(a: SparseSymMatrix, b, preconditioner, tol: float = 1e-12,
              max_iter=None):
    """Solve a x = b to a relative residual of `tol` by conjugate
    gradients preconditioned with `preconditioner`, a symmetric positive
    definite callable.

    CG runs for at most `max_iter` iterations, 10 x dim by default. The
    answer is accepted when its true relative residual is at most `tol`
    or its normwise backward error is at roundoff level. The solve is
    deterministic: identical inputs give bit-identical results.

    Returns (x, LinearSolveReport). Raises NotConverged (with the report
    attached) when the iteration budget runs out and IndefiniteOperator
    when CG detects non-positive curvature.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (a.dim,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({a.dim},)")
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b), LinearSolveReport(0, 0.0)
    if max_iter is None:
        max_iter = 10 * a.dim
    a_max = None

    # p, x and r are updated in place, through one scratch vector;
    # p *= beta; p += z has the bits of z + beta * p
    x = np.zeros_like(b)
    r = b.copy()
    p, scratch = None, np.empty_like(b)
    rz, rel = 0.0, 1.0
    for it in range(1, max_iter + 1):
        z = preconditioner(r)
        rz, rz_old = float(r @ z), rz
        if rz <= 0.0:
            raise IndefiniteOperator("preconditioned residual product is not positive")
        if p is None:
            p = z.copy()
        else:
            p *= rz / rz_old
            p += z
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteOperator(
                f"non-positive curvature direction at iteration {it}"
            )
        alpha = rz / pap
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, ap, out=ap)
        if np.linalg.norm(r) > tol * norm_b and it < max_iter:
            continue
        # The recursive residual drifts from the true one, so x is judged
        # by the true residual. tol can sit below the double-precision
        # floor eps * ||A|| ||x|| / ||b|| when the penalty is large; a
        # backward-stable answer is accepted too, which still keeps
        # algebraic error far below discretization error.
        rel = float(np.linalg.norm(np.subtract(b, a @ x, out=scratch))) \
            / norm_b
        if rel > tol and a_max is None:
            a_max = a.max_abs()
        if rel <= tol or rel * norm_b <= 100.0 * np.finfo(float).eps * (
                a_max * float(np.linalg.norm(x)) + norm_b):
            return x, LinearSolveReport(it, rel)
    report = LinearSolveReport(max_iter, rel)
    raise NotConverged(f"pcg solve did not reach tol {tol} in {max_iter} "
                       "iterations", report=report, x=x)
