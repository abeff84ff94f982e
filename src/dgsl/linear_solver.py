"""Solvers for the symmetric positive definite Newton-step systems.

One entry point, `solve_spd`, picks its method from its arguments: with
no preconditioner it runs a direct sparse factorization; with one (such
as the factor of a nearby matrix, or the exact per-element block-Jacobi
inverse of `block_jacobi_preconditioner`) it runs preconditioned
conjugate gradients. Both certify definiteness: CG raises
IndefiniteOperator when it meets a direction of non-positive curvature,
and the factorization when a pivot is negative. Either is the practical
symptom of an insufficient penalty parameter.

A matrix certified by assembly (`SparseSymMatrix.certified`) is
factored without reading its pivots: the first access to `lu.U` makes
scipy build and cache CSC copies of both L and U for the factor's life
(about 230 MB at P3 on a perturbed n = 64 mesh).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import SparseSymMatrix
from .errors import IndefiniteOperator, NotConverged, SingularOperator


@dataclass
class LinearSolveReport:
    iterations: int
    relative_residual: float
    converged: bool
    method: str = "pcg"
    # how a "direct" solve's factor was certified: "local" or "pivots"
    certificate: Optional[str] = None
    # the certified factor of a "direct" solve, for preconditioning
    # later nearby systems
    factor: object = field(default=None, repr=False, compare=False)


def symmetric_factor(a: SparseSymMatrix):
    """Sparse LU of `a` with a symmetric fill-reducing ordering and
    diagonal pivots, certified positive definite; returns (lu, how).

    `how` is "local" when `a.certified`, else "pivots": when the row and
    column permutations agree, P A P^T = L D L^T with D = diag(U), so by
    Sylvester's law of inertia `a` has as many negative eigenvalues as U
    has negative pivots. Raises SingularOperator on an exactly singular
    matrix and IndefiniteOperator on an off-diagonal or negative pivot.
    """
    try:
        lu = splu(sparse.csc_matrix(a.csr), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularOperator(f"sparse LU failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise IndefiniteOperator(
            "sparse LU needed an off-diagonal pivot, so the operator is "
            "not positive definite")
    if a.certified:
        return lu, "local"
    negative = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    if negative:
        raise IndefiniteOperator(
            f"sparse LU met {negative} negative pivots, so the operator has "
            f"{negative} negative eigenvalues (penalty too small?)")
    return lu, "pivots"


def block_jacobi_preconditioner(a: SparseSymMatrix, block_size: int):
    """Exact inverse of the per-element diagonal blocks of `a`.

    Blocks are small ((r+1)(r+2)/2 <= 10), so exact inverses are cheap.
    Raises IndefiniteOperator if any block is not positive definite.
    """
    n = a.dim
    if n % block_size:
        raise ValueError("matrix dimension is not a multiple of the block size")
    nblocks = n // block_size
    csr = a.csr
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    cols = csr.indices
    inside = rows // block_size == cols // block_size
    rows, cols = rows[inside], cols[inside]
    dense = np.zeros((nblocks, block_size, block_size))
    dense[rows // block_size, rows % block_size, cols % block_size] = \
        csr.data[inside]
    try:
        np.linalg.cholesky(dense)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteOperator(
            "a diagonal block is not positive definite (penalty too small?)"
        ) from exc
    inv = np.linalg.inv(dense)

    def apply(r):
        return np.einsum("bij,bj->bi", inv, r.reshape(nblocks, block_size)).ravel()

    return apply


def solve_spd(a: SparseSymMatrix, b, tol: float = 1e-12, max_iter=None,
              preconditioner=None):
    """Solve a x = b to a relative residual of `tol`.

    Without a `preconditioner` the solve is direct ("direct" in the
    report): the certified `symmetric_factor`, returned in the report's
    `factor`, plus iterative refinement. With a symmetric positive
    definite `preconditioner` callable it runs preconditioned conjugate
    gradients ("pcg") for at most `max_iter` iterations (10 x dim by
    default). Both are deterministic: identical inputs give
    bit-identical results.

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

    def acceptable(x, rel):
        # ||r|| <= tol ||b|| can sit below the double-precision floor
        # eps * ||A|| ||x|| when the penalty is large; a backward-stable
        # answer (normwise backward error at roundoff level) is accepted
        # too, which still keeps algebraic error far below
        # discretization error.
        if rel <= tol:
            return True
        scale = a.max_abs() * float(np.linalg.norm(x)) + norm_b
        return rel * norm_b <= 100.0 * np.finfo(float).eps * scale

    if preconditioner is None:
        lu, certificate = symmetric_factor(a)
        x = lu.solve(b)
        rel = float(np.linalg.norm(b - a @ x)) / norm_b
        # Iterative refinement recovers digits lost to conditioning.
        steps = 1
        for _ in range(3):
            if rel <= tol:
                break
            x_new = x + lu.solve(b - a @ x)
            new_rel = float(np.linalg.norm(b - a @ x_new)) / norm_b
            steps += 1
            if new_rel >= rel:
                break
            x, rel = x_new, new_rel
        report = LinearSolveReport(steps, rel, acceptable(x, rel), "direct",
                                   certificate, factor=lu)
        if not report.converged:
            raise NotConverged("direct solve left a large residual",
                               report=report, x=x)
        return x, report

    if max_iter is None:
        max_iter = 10 * a.dim

    x = np.zeros_like(b)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    if rz <= 0.0:
        raise IndefiniteOperator("preconditioned residual product is not positive")
    for it in range(1, max_iter + 1):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteOperator(
                f"non-positive curvature direction at iteration {it}"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * norm_b:
            # accept only if the true (not recursive) residual agrees
            true_rel = float(np.linalg.norm(b - a @ x)) / norm_b
            if acceptable(x, true_rel):
                return x, LinearSolveReport(it, true_rel, True, "pcg")
        z = preconditioner(r)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            raise IndefiniteOperator("preconditioned residual product is not positive")
        p = z + (rz_new / rz) * p
        rz = rz_new

    rel = float(np.linalg.norm(b - a @ x)) / norm_b
    if acceptable(x, rel):
        return x, LinearSolveReport(max_iter, rel, True, "pcg")
    report = LinearSolveReport(max_iter, rel, False, "pcg")
    raise NotConverged(f"pcg did not reach tol {tol} in {max_iter} iterations",
                       report=report, x=x)
