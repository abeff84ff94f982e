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

The preconditioner adds a smoother on DG to one correction on a
continuous space, built from the operator, its space and the form that
assembled it. An exact solve on continuous P1 over the same mesh, whose
matrix is summed from the mesh, corrects the smooth part, so the
iterations do not grow as h -> 0. At r = 1 the smoother B, one batched
inverse of the operator's element blocks, damps what varies within an
element, and the P1 solve is the correction. At r >= 2 neither reaches
the continuous high-order part of the error, whose count grows with
the penalty, so there the smoother is the operator's diagonal alone
(point Jacobi), and the correction acts on continuous P_r, gathered
through the node map of `space.conforming_nodes` (an auxiliary-space
term): an additive Schwarz sum over its vertex patches plus the P1
solve, reached through the interpolation I from P1 to P_r. At r = 1
continuous P_r is the P1 coarse space itself, and neither the patches
nor their map is built. Each term is symmetric positive semidefinite
and the smoother positive definite, so the sum is positive definite
whenever the operator is.

Only the proof reads pivots: the first access to `lu.U` makes scipy
build and cache CSC copies of both L and U for the factor's life (about
230 MB at P3 on a perturbed n = 64 mesh), so the proof drops its factor.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import (ELEMENT_CHUNK, AssemblyConfig, SparseSymMatrix,
                       _block_diagonal, _edge_blocks, _scaled_metric,
                       _volume_tables)
from .errors import IndefiniteOperator, NotConverged, SingularOperator
from .space import (DGSpace, _vertex_columns, conforming_nodes,
                    p1_interpolation, p1_prolongation)


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


def _spd_inverse(blocks):
    """The inverses of the symmetric positive definite `blocks` (n, s, s),
    symmetrized, through their Cholesky factors L: L^-1 by forward
    substitution one row at a time, then L^-T L^-1."""
    lower = np.linalg.cholesky(blocks)
    solved = np.zeros_like(lower)
    for i in range(blocks.shape[1]):
        solved[:, i, i] = 1.0
        solved[:, i, :i] -= (lower[:, i, None, :i] @ solved[:, :i, :i])[:, 0]
        solved[:, i, :i + 1] /= lower[:, i, i, None]
    inverse = solved.transpose(0, 2, 1) @ solved
    inverse += inverse.transpose(0, 2, 1)
    inverse *= 0.5
    return inverse


def _vertex_patches(a: SparseSymMatrix, space: DGSpace, node):
    """The inverse blocks of the additive Schwarz sum over the vertex
    patches of continuous P_r, for the 0/1 gather Pi of the node map
    `node` (`space.conforming_nodes`). Each used vertex v has one patch:
    the continuous nodes of its element star off the star's outer
    boundary, that is v, the nodes inside the edges at v and the
    interior nodes of the star's elements (19 at P3 and 7 at P2 for six
    elements around v). Seen from its corner k, a star element holds
    the patch's nodes at its local nodes off the edge opposite k.

    A patch's block is the principal submatrix of Pi^T a Pi on its
    nodes: the corner's part of each star element's block, plus the
    coupling blocks of the star's interior edges, each of which pairs
    two star elements through their corners at v (two star elements
    share no other edge). Neither Pi nor Pi^T a Pi is formed. The blocks
    are summed by `bincount`, inverted in float64 through their Cholesky
    factors (`_spd_inverse`) one chunk of star corners at a time, and
    kept in float32. A chunk holds `ELEMENT_CHUNK` corners scaled by
    9 / m^2 for m patch nodes per corner (2048 at P2, 512 at P3), so its
    entries stay far below the matrix on the small meshes too.

    Returns (gather, groups). The patches are stored by size, then by
    vertex: `gather`, int32, lists their nodes, patch after patch, and
    `groups` holds one (start, inverse) per distinct size s, ascending,
    with the (n, s, s) float32 inverses of the n patches of that size,
    whose nodes are gather[start:start + n s]. The inverses are views of
    one array of the summed squared patch sizes, so a vertex of high
    valence pads no other block.
    """
    r, d = space.degree, space.dofs_per_element
    mesh, blocks, couplings = space.mesh, a.diagonal.data, a.csr
    count = int(node.max()) + 1
    lattice = space.basis.lattice
    local = np.array([np.flatnonzero(lattice[:, k]) for k in range(3)])
    # entries[k, l]: the flat (D, D) block entries between the nodes of
    # corner k on the row element and of corner l on the column element
    entries = (local[:, None, :, None] * d + local[None, :, None, :]) \
        .reshape(3, 3, -1)
    # patch sizes from connectivity: v, r - 1 nodes per edge at v and
    # (r - 1)(r - 2) / 2 per element at v
    triangles = mesh.triangles
    corner_vertex = triangles.ravel()
    stars = np.bincount(corner_vertex, minlength=mesh.num_vertices)
    size = 1 + (r - 1) * np.bincount(mesh.edges.endpoints.ravel(),
                                     minlength=mesh.num_vertices) \
        + (r - 1) * (r - 2) // 2 * stars
    used = np.flatnonzero(stars)
    patches = used[np.argsort(size[used], kind="stable")]
    width = size[patches]
    node_start = np.concatenate([[0], np.cumsum(width)])
    block_start = np.concatenate([[0], np.cumsum(width * width)])
    gather = np.empty(node_start[-1], dtype=np.int32)
    inverse = np.empty(block_start[-1], dtype=np.float32)

    # star corners 3 e + k, patch by patch; each coupling block (e, f)
    # pairs the ranks of the corners of e and f at its edge's two ends
    patch_of = np.zeros(mesh.num_vertices, dtype=np.int32)
    patch_of[patches] = np.arange(len(patches), dtype=np.int32)
    order = np.argsort(patch_of[corner_vertex], kind="stable") \
        .astype(np.int32)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order), dtype=np.int32)
    rows = np.repeat(np.arange(len(blocks), dtype=np.int32),
                     np.diff(couplings.indptr))
    pair, k_e, k_f = np.nonzero(triangles[rows][:, :, None]
                                == triangles[couplings.indices][:, None, :])
    pair = pair.astype(np.int32)
    from_rank = rank[3 * rows[pair] + k_e]
    to_rank = rank[3 * couplings.indices[pair] + k_f]
    del rows, k_e, k_f
    by_rank = np.argsort(from_rank, kind="stable")
    pair, from_rank, to_rank = pair[by_rank], from_rank[by_rank], \
        to_rank[by_rank]
    del by_rank

    first = np.concatenate([[0], np.cumsum(stars[patches])])
    chunk = max(1, ELEMENT_CHUNK * 9 // local.shape[1] ** 2)
    bounds = np.unique(np.append(np.searchsorted(
        first, np.arange(0, len(order), chunk)), len(patches)))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        c0, c1 = first[lo], first[hi]
        corner = order[c0:c1]
        element, k = corner // 3, corner % 3
        owner = patch_of[corner_vertex[corner]] - lo
        # each patch's nodes, sorted, and each corner's places among them
        unique, place = np.unique(
            node[element[:, None] * d + local[k]]
            + owner[:, None] * np.int64(count), return_inverse=True)
        gather[node_start[lo]:node_start[hi]] = unique % count
        place = place.reshape(len(corner), -1) \
            - (node_start[lo + owner] - node_start[lo])[:, None]
        offset = block_start[lo:hi + 1] - block_start[lo]
        # where the row of each corner's node starts in the chunk's blocks
        row = offset[owner, None] + place * width[lo + owner, None]
        flat = np.zeros(offset[-1])
        lo_pair, hi_pair = np.searchsorted(from_rank, [c0, c1])
        corners = np.arange(len(corner))
        # the element blocks pair each corner with itself, the couplings
        # the two corners of a star edge's sides
        for data, block, i, j in (
                (blocks, element, corners, corners),
                (couplings.data, pair[lo_pair:hi_pair],
                 from_rank[lo_pair:hi_pair] - c0,
                 to_rank[lo_pair:hi_pair] - c0)):
            at = row[i][:, :, None] + place[j][:, None, :]
            values = np.take(data.reshape(-1), block[:, None] * (d * d)
                             + entries[k[i], k[j]])
            flat += np.bincount(at.ravel(), values.ravel(), offset[-1])
        # the chunk's patches come in runs of one size
        kept = inverse[block_start[lo]:block_start[hi]]
        for s in np.unique(width[lo:hi]):
            run = np.flatnonzero(width[lo:hi] == s)
            part = slice(offset[run[0]], offset[run[-1] + 1])
            kept[part] = _spd_inverse(flat[part].reshape(-1, s, s)).ravel()
    sizes, firsts, counts = np.unique(width, return_index=True,
                                      return_counts=True)
    return gather, [(int(node_start[f]), inverse[block_start[f]:block_start[
        f + n]].reshape(n, s, s)) for s, f, n in zip(
            sizes.tolist(), firsts.tolist(), counts.tolist())]


def _coarse_solve(space: DGSpace, cfg: AssemblyConfig, transfer):
    """x -> T A_c^-1 T^T x for the `transfer` T (P at r = 1, I at
    r >= 2) and A_c the continuous P1 form on the used vertices, numbered
    as `p1_prolongation`'s columns, summed from the mesh: the P1 volume
    stiffness of each element and the P1 blocks of each boundary edge,
    with the penalty and edge rule of `cfg`, which assembled the
    operator. A continuous P1 field has no jump on an interior edge, so
    this is P^T A P for the stiffness A whenever the edge rule integrates
    P1 x P1 (`AssemblyConfig.check_exactness`); no entry lies outside
    the vertex adjacency. Positive definite when A is, and factored as
    such. T^T is used as `transfer.T`, a CSC view, so no transposed copy
    is kept."""
    mesh = space.mesh
    column, columns = _vertex_columns(mesh)
    boundary = np.flatnonzero(mesh.edges.boundary)
    # (3, 3) blocks over element corners: each element's, then each
    # boundary edge's on its element
    corners = column[mesh.triangles]
    corners = np.concatenate([corners, corners[mesh.edges.tri[boundary, 0]]])
    blocks = np.concatenate([
        _scaled_metric(space) @ _volume_tables(1, 1).stiff_ref.reshape(4, 9),
        _edge_blocks(space, cfg, boundary, degree=1)[:, 0, :, 0, :]
        .reshape(-1, 9)])
    coarse = sparse.csr_matrix(
        (blocks.ravel(), (np.repeat(corners, 3, axis=1).ravel(),
                          np.tile(corners, 3).ravel())),
        shape=(columns, columns))
    lu = symmetric_factor(coarse)
    restriction = transfer.T
    return lambda x: transfer @ lu.solve(restriction @ x)


def two_level_preconditioner(a: SparseSymMatrix, space: DGSpace,
                             cfg: AssemblyConfig):
    """Additive preconditioner for `a`, assembled on `space` with `cfg`,
    proven positive definite first: B r + P A_c^-1 P^T r at r = 1 and
    D^-1 r + Pi (S + I A_c^-1 I^T) Pi^T r at r >= 2. CG iterations do
    not grow as h -> 0 (Dobrev, Lazarov, Vassilevski & Zikatanov, NLAA
    2006), nor with the penalty at r >= 2 (Antonietti, Sarti, Verani &
    Zikatanov, J. Sci. Comput. 2017).

    An `a` without assembly's certificate is proven by the pivots of the
    `symmetric_factor` of `a.full()`, as CSR so that its CSC copy is not
    made through COO: with equal row and column permutations,
    P A P^T = L D L^T with D = diag(U), so by Sylvester's law of inertia
    `a` has as many negative eigenvalues as U has negative pivots, and
    any raises IndefiniteOperator. A_c is the continuous P1 form that
    `_coarse_solve` sums from the mesh and `cfg`. B is the inverse of
    a's element blocks, one batched `np.linalg.inv` made before the
    coarse solve and applied as one block-diagonal matrix; each block is
    a principal submatrix of a matrix proven positive definite, so it
    needs no check of its own.

    At r >= 2, D is the diagonal of `a`, Pi is the 0/1 gather from
    continuous P_r to DG given by the node map of
    `space.conforming_nodes`, I = `space.p1_interpolation` maps
    continuous P1 to continuous P_r (P = Pi I, so no P is built), and S
    is the additive Schwarz sum of the inverses of Pi^T a Pi on the
    vertex patches (`_vertex_patches`; Pavarino, Numer. Math. 1994;
    Schoeberl, Melenk, Pechstein & Zaglmayr, IMA J. Numer. Anal. 2008):
    the patches solve the conforming part of the error, which neither a
    smoother on DG nor the P1 coarse space reaches, so the smoother need
    not invert the element blocks. Both corrections act on continuous
    P_r, through one Pi^T and one Pi. S is applied in float32, one
    batched product per patch size; its blocks are symmetric, so M
    stays symmetric. At r = 1, Pi = P and the coarse solve covers that
    space: no patches, no map.
    """
    if not a.certified:
        negative = np.count_nonzero(
            symmetric_factor(a.full().tocsr()).U.diagonal() < 0.0)
        if negative:
            raise IndefiniteOperator(
                f"sparse LU met {negative} negative pivots, so the operator "
                f"has {negative} negative eigenvalues (penalty too small?)")
    if space.degree < 2:
        smoother = _block_diagonal(np.linalg.inv(a.diagonal.data))
        coarse = _coarse_solve(space, cfg, p1_prolongation(space))

        def apply(r):
            out = smoother @ r
            out += coarse(r)
            return out

        return apply
    node = conforming_nodes(space)
    coarse = _coarse_solve(space, cfg, p1_interpolation(space, node))
    inverse_diagonal = 1.0 / np.diagonal(a.diagonal.data, axis1=1,
                                         axis2=2).ravel()
    gather, groups = _vertex_patches(a, space, node)

    def apply_patches(r):
        out = r * inverse_diagonal
        # Pi^T r, then each patch's solve and the coarse solve on it;
        # node and gather both reach every continuous node
        restricted = np.bincount(node, r)
        local = np.take(restricted, gather).astype(np.float32)
        solved = np.empty_like(local)
        for start, inverse in groups:
            shape = inverse.shape[:2] + (1,)
            part = slice(start, start + inverse[..., 0].size)
            np.matmul(inverse, local[part].reshape(shape),
                      out=solved[part].reshape(shape))
        continuous = coarse(restricted)
        continuous += np.bincount(gather, solved)
        out += np.take(continuous, node)
        return out

    return apply_patches


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
