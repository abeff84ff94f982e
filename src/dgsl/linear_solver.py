"""Solvers for the symmetric positive definite Newton-step systems.

Two interchangeable methods sit behind one contract (residual bound plus
determinism): preconditioned conjugate gradients with an exact
per-element block-Jacobi preconditioner, and a direct sparse
factorization. CG raises IndefiniteOperator when it meets a direction of
non-positive curvature, which is the practical symptom of an
insufficient penalty parameter.
"""

from dataclasses import dataclass

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


def block_jacobi_preconditioner(a: SparseSymMatrix, block_size: int):
    """Exact inverse of the per-element diagonal blocks of `a`.

    Blocks are small ((r+1)(r+2)/2 <= 10), so exact inverses are cheap.
    Raises IndefiniteOperator if any block is not positive definite.
    """
    n = a.dim
    if n % block_size:
        raise ValueError("matrix dimension is not a multiple of the block size")
    nblocks = n // block_size
    dense = np.zeros((nblocks, block_size, block_size))
    indptr, indices, data = a.row_offsets, a.col_indices, a.values
    for b in range(nblocks):
        lo = b * block_size
        for i in range(block_size):
            row = lo + i
            start, stop = indptr[row], indptr[row + 1]
            cols = indices[start:stop]
            inside = (cols >= lo) & (cols < lo + block_size)
            dense[b, i, cols[inside] - lo] = data[start:stop][inside]
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
              method: str = "pcg", preconditioner=None, block_size=None):
    """Solve a x = b to a relative residual of `tol`.

    method "pcg" runs conjugate gradients with the block-Jacobi
    preconditioner (or a caller-supplied `preconditioner` callable);
    method "direct" uses a sparse LU factorization. Both are
    deterministic: identical inputs give bit-identical results.

    Returns (x, LinearSolveReport). Raises NotConverged (with the report
    attached) when the iteration budget runs out, IndefiniteOperator
    when CG detects non-positive curvature, and SingularOperator when
    the LU factorization meets an exactly singular matrix.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (a.dim,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({a.dim},)")
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

    if method == "direct":
        try:
            lu = splu(sparse.csc_matrix(a.csr))
        except RuntimeError as exc:
            raise SingularOperator(f"sparse LU failed: {exc}") from exc
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
        report = LinearSolveReport(steps, rel, acceptable(x, rel), "direct")
        if not report.converged:
            raise NotConverged("direct solve left a large residual",
                               report=report, x=x)
        return x, report
    if method != "pcg":
        raise ValueError(f"unknown method {method!r}")

    if preconditioner is None:
        if block_size is None:
            block_size = 1
        if block_size == 1:
            diag = a.csr.diagonal()
            if np.any(diag <= 0.0):
                raise IndefiniteOperator("non-positive diagonal entry")
            preconditioner = lambda r: r / diag
        else:
            preconditioner = block_jacobi_preconditioner(a, block_size)

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
