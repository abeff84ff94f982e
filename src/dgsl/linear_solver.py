"""Solvers for the symmetric positive definite Newton-step systems.

One entry point, `solve_spd`, runs one preconditioned conjugate
gradient loop. Without a preconditioner it factors the matrix and uses
the factor as an exact preconditioner, so CG takes the place of
iterative refinement. With one it preconditions with that: the exact
per-element block-Jacobi inverse of `block_jacobi_preconditioner`, or
`two_level_preconditioner`, which adds an exact solve on the continuous
P1 coarse space to it; both read the diagonal blocks, and their size,
from the matrix's BSR form. The factorization certifies definiteness: it
raises IndefiniteOperator on a negative pivot, the practical symptom of
an insufficient penalty parameter. CG only checks: it raises the same
when it meets a direction of non-positive curvature, which it may never
meet, so a preconditioned solve is for a matrix already proven positive
definite.

A matrix already proven positive definite (`SparseSymMatrix.certified`)
is factored without reading its pivots: the first access to `lu.U` makes
scipy build and cache CSC copies of both L and U for the factor's life
(about 230 MB at P3 on a perturbed n = 64 mesh).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import SparseSymMatrix, _diagonal_block_positions
from .errors import IndefiniteOperator, NotConverged, SingularOperator


# CG iterations, i.e. factor solves, of a direct solve: the first solve
# plus up to three corrections that recover digits lost to conditioning.
FACTOR_SOLVES = 4


@dataclass
class LinearSolveReport:
    iterations: int
    relative_residual: float
    converged: bool
    method: str = "pcg"
    # how a "direct" solve's factor was certified: "local" when the matrix
    # came proven (`SparseSymMatrix.certified`), "pivots" when the factor's
    # own pivots proved it; None for a "pcg" solve
    certificate: Optional[str] = None


def symmetric_factor(a: SparseSymMatrix):
    """Sparse LU of `a` with a symmetric fill-reducing ordering and
    diagonal pivots, certified positive definite.

    A matrix not already proven (`a.certified`) is proven by its pivots:
    when the row and column permutations agree, P A P^T = L D L^T with
    D = diag(U), so by Sylvester's law of inertia `a` has as many
    negative eigenvalues as U has negative pivots. Exact zeros of the
    stored blocks are left out of the factored pattern. Raises
    SingularOperator on an exactly singular matrix and IndefiniteOperator
    on an off-diagonal or negative pivot.
    """
    csc = sparse.csc_matrix(a.csr)
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
    negative = 0 if a.certified else np.count_nonzero(lu.U.diagonal() < 0.0)
    if negative:
        raise IndefiniteOperator(
            f"sparse LU met {negative} negative pivots, so the operator has "
            f"{negative} negative eigenvalues (penalty too small?)")
    return lu


def block_jacobi_preconditioner(a: SparseSymMatrix):
    """Exact inverse of the diagonal blocks of `a`, one per element.

    Blocks are small ((r+1)(r+2)/2 <= 10), so exact inverses are cheap.
    `a` must store every diagonal block, as assembly's matrices do.
    Raises IndefiniteOperator if any block is not positive definite.
    """
    dense = a.csr.data[_diagonal_block_positions(a)]
    try:
        np.linalg.cholesky(dense)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteOperator(
            "a diagonal block is not positive definite (penalty too small?)"
        ) from exc
    inv = np.linalg.inv(dense)

    def apply(r):
        return np.einsum("bij,bj->bi", inv, r.reshape(len(inv), -1)).ravel()

    return apply


def two_level_preconditioner(a: SparseSymMatrix, prolongation):
    """Additive two-level preconditioner B r + P A_c^-1 P^T r (Dobrev,
    Lazarov, Vassilevski & Zikatanov, NLAA 2006): CG iterations do not
    grow as h -> 0.

    B is `block_jacobi_preconditioner`, P the `prolongation` (continuous
    P1 on the same mesh, `space.p1_prolongation`) and A_c = P^T a P,
    factored by `symmetric_factor`. P has full column rank, so A_c is
    certified positive definite when `a` is.
    """
    smoother = block_jacobi_preconditioner(a)
    restriction = prolongation.T.tocsr()
    coarse = (restriction @ (a.csr @ prolongation)).tobsr(blocksize=(1, 1))
    lu = symmetric_factor(SparseSymMatrix(coarse, a.certified))

    def apply(r):
        return smoother(r) + prolongation @ lu.solve(restriction @ r)

    return apply


def solve_spd(a: SparseSymMatrix, b, tol: float = 1e-12, max_iter=None,
              preconditioner=None):
    """Solve a x = b to a relative residual of `tol` by preconditioned
    conjugate gradients.

    Without a `preconditioner` the solve is direct ("direct" in the
    report): the certified `symmetric_factor` of `a` is the
    preconditioner. Otherwise
    `preconditioner` is a symmetric positive definite callable ("pcg").
    CG runs for at most `max_iter` iterations, by default FACTOR_SOLVES
    on the factor and 10 x dim otherwise. The answer is accepted when
    its true relative residual is at most `tol` or its normwise
    backward error is at roundoff level. Both methods are deterministic:
    identical inputs give bit-identical results.

    Returns (x, LinearSolveReport). Raises NotConverged (with the report
    attached) when the iteration budget runs out, IndefiniteOperator
    when CG detects non-positive curvature or the factorization a
    negative pivot, and SingularOperator when the factorization meets
    an exactly singular matrix.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (a.dim,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({a.dim},)")
    method = "direct" if preconditioner is None else "pcg"
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b), LinearSolveReport(0, 0.0, True, method)
    lu = certificate = None
    if preconditioner is None:
        lu = symmetric_factor(a)
        certificate = "local" if a.certified else "pivots"
        preconditioner = lu.solve
    if max_iter is None:
        max_iter = 10 * a.dim if lu is None else FACTOR_SOLVES
    a_max = None

    x = np.zeros_like(b)
    r = b.copy()
    p, rz, rel = None, 0.0, 1.0
    for it in range(1, max_iter + 1):
        z = preconditioner(r)
        rz, rz_old = float(r @ z), rz
        if rz <= 0.0:
            raise IndefiniteOperator("preconditioned residual product is not positive")
        p = z if p is None else z + (rz / rz_old) * p
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteOperator(
                f"non-positive curvature direction at iteration {it}"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) > tol * norm_b and it < max_iter:
            continue
        # The recursive residual drifts from the true one, so x is judged
        # by the true residual. tol can sit below the double-precision
        # floor eps * ||A|| ||x|| / ||b|| when the penalty is large; a
        # backward-stable answer is accepted too, which still keeps
        # algebraic error far below discretization error.
        rel = float(np.linalg.norm(b - a @ x)) / norm_b
        if rel > tol and a_max is None:
            a_max = a.max_abs()
        if rel <= tol or rel * norm_b <= 100.0 * np.finfo(float).eps * (
                a_max * float(np.linalg.norm(x)) + norm_b):
            return x, LinearSolveReport(it, rel, True, method, certificate)
    report = LinearSolveReport(max_iter, rel, False, method, certificate)
    raise NotConverged(f"{method} solve did not reach tol {tol} in {max_iter} "
                       "iterations", report=report, x=x)
