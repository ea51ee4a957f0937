"""Nodal block-Jacobi conjugate gradients with rigid-translation deflation.

Systems are node-major (dof ``3*node + component``, see :mod:`.assembly`), so
each node owns a 3x3 diagonal block of the stiffness. On a curved membrane
that block carries the node's tangent/normal frame: it is stiff in the tangent
plane and soft along the normal. The preconditioner inverts every such block,
which makes CG invariant under a rigid rotation of the problem; scaling the
x, y and z dofs separately would not be. Each block must be symmetric
positive definite; a singular or indefinite block is reported with its node
before the first iteration. A block whose three leading minors (``a00``,
``a00 a11 - a10^2``, ``det``) are positive is positive definite (Sylvester's
criterion), so ``lmin/lmax >= det/tr^3``; such blocks with
``det > 1e-6 tr^3`` are inverted in closed form. Only the others go through
``eigh``, which decides and words any failure.

Closed-surface membrane systems are symmetric positive semidefinite with the
three global translations in the kernel (and, depending on geometry, further
low-energy modes). For a consistent right-hand side CG converges in the range
space; deflation projects the rhs and every residual against the
translations. The iterate's translation part never reaches the residual, so
it is projected out only where the iterate is read (the true-residual check
and the exit): the same iterates in exact arithmetic, and a returned solution
without translation component. Negative curvature (an indefinite matrix)
aborts with the iteration index.

An iteration costs one matvec, one preconditioner apply (a CSR copy of the
block-diagonal inverse), three dot products, one deflation and in-place
vector updates. The stop test ``r . r <= (tol ||b||)^2`` is confirmed on the
recomputed true residual, from which CG restarts if it fails.
"""

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from .assembly import LinearSystem

__all__ = [
    "SolverError",
    "NegativeCurvatureError",
    "IterationLimitError",
    "SolveReport",
    "translation_basis",
    "solve",
]


class SolverError(RuntimeError):
    """Base class for solver failures."""


class NegativeCurvatureError(SolverError):
    """CG met a direction of non-positive curvature (matrix not PSD)."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


class IterationLimitError(SolverError):
    """CG hit the iteration limit; carries the last iterate and its report."""

    def __init__(self, message: str, solution: np.ndarray, report: "SolveReport"):
        super().__init__(message)
        self.solution = solution
        self.report = report


@dataclasses.dataclass
class SolveReport:
    """Iteration count, final residual, and deflation bookkeeping.

    ``relative_residual`` is ``||K u - b|| / ||b||`` recomputed from scratch
    at exit, with ``b`` the (possibly deflated) right-hand side actually
    solved for.
    """

    iterations: int
    relative_residual: float
    deflated_dimension: int
    converged: bool


def translation_basis(system: LinearSystem) -> np.ndarray:
    """Orthonormal basis of the rigid translations restricted to free dofs.

    For a constrained system the global translations are expressed in the
    rotated nodal frames and the eliminated dofs zeroed; directions that the
    constraints remove entirely are dropped. Returns an (ndof, k) matrix with
    orthonormal columns, k <= 3.
    """
    ndof = system.ndof
    Z = np.zeros((ndof, 3))
    for c in range(3):
        Z[c::3, c] = 1.0
    if system.frame is not None:
        Z = system.frame.T @ Z
    if system.constrained is not None:
        Z[system.constrained] = 0.0
    q, rdiag = np.linalg.qr(Z)
    keep = np.abs(np.diag(rdiag)) > 1e-8 * math.sqrt(ndof)
    return q[:, keep]


def _nodal_block_inverse(A) -> sp.csr_matrix:
    """Block-diagonal inverse of the 3x3 nodal diagonal blocks of ``A`` (CSR).

    Reads the lower triangle of each block, so the inverse is exactly
    symmetric. Raises SolverError naming the first node whose block has
    smallest eigenvalue <= 1e-12 times its largest (singular or indefinite).
    """
    ndof = A.shape[0]
    d0, d1, d2 = (A.diagonal(-k) for k in range(3))
    a00, a10, a11, a20, a21, a22 = lower = (d0[::3], d1[::3], d0[1::3], d2[::3], d1[1::3], d0[2::3])
    cof = np.stack([a11 * a22 - a21 * a21, a20 * a21 - a10 * a22, a10 * a21 - a11 * a20,
                    a00 * a22 - a20 * a20, a10 * a20 - a00 * a21, a00 * a11 - a10 * a10], axis=1)
    det = a00 * cof[:, 0] + a10 * cof[:, 1] + a20 * cof[:, 2]
    closed = (a00 > 0) & (cof[:, 5] > 0) & (det > 0) & (det > 1e-6 * (a00 + a11 + a22) ** 3)
    cof /= np.where(closed, det, 1.0)[:, None]
    inv = cof[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
    rest = np.flatnonzero(~closed)
    if rest.size:
        blocks = np.stack([v[rest] for v in lower], axis=1)[:, [0, 1, 3, 1, 2, 4, 3, 4, 5]]
        lam, vec = np.linalg.eigh(blocks.reshape(-1, 3, 3))
        bad = np.flatnonzero(lam[:, 0] <= 1e-12 * lam[:, 2])
        if bad.size:
            lo, hi = lam[bad[0], 0], lam[bad[0], 2]
            ratio = lo / hi if hi > 0 else -math.inf
            raise SolverError(
                f"nodal block of node {rest[bad[0]]} is not positive definite: smallest/largest "
                f"eigenvalue ratio {ratio:.3e}; {bad.size} of {len(inv)} nodal blocks fail"
            )
        inv[rest] = (vec / lam[:, None, :]) @ vec.transpose(0, 2, 1)
    ptr = np.arange(len(inv) + 1)
    return sp.bsr_matrix((inv, ptr[:-1], ptr), shape=(ndof, ndof)).tocsr()


def solve(system: LinearSystem, tol: float = 1e-10, max_iter: int | None = None,
          deflate_translations: bool = False,
          x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve ``K u = b`` by nodal block-Jacobi preconditioned conjugate gradients.

    Parameters
    ----------
    system : LinearSystem
        Symmetric positive (semi)definite, node-major system (``ndof`` a
        multiple of 3) whose 3x3 nodal diagonal blocks are each positive
        definite.
    tol : float
        Relative residual target.
    max_iter : int, optional
        Defaults to ``ceil(50 * sqrt(ndof))``.
    deflate_translations : bool
        Project the rhs, the residuals and the solution against the rigid
        translations (use for closed surfaces, where they span the kernel).
    x0 : array, optional
        Initial guess (default zero; any translation component is removed
        when deflating).

    Returns
    -------
    (u, SolveReport)

    Raises
    ------
    SolverError
        If ``ndof`` is not a multiple of 3, or a nodal diagonal block is not
        positive definite (the message names the node).
    NegativeCurvatureError
        If a search direction has non-positive curvature.
    IterationLimitError
        If ``max_iter`` is reached before the tolerance (the exception
        carries the last iterate and its report).
    """
    A = system.matrix
    b = system.rhs.astype(float)
    ndof = system.ndof
    if ndof % 3:
        raise SolverError(f"system has {ndof} dofs; a node-major system needs a multiple of 3")
    if max_iter is None:
        max_iter = max(50, math.ceil(50.0 * math.sqrt(ndof)))

    Z = translation_basis(system) if deflate_translations else None
    kdim = 0 if Z is None else Z.shape[1]

    def deflate(v):
        if Z is not None:
            v -= Z @ (Z.T @ v)
        return v

    b = deflate(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(ndof), SolveReport(0, 0.0, kdim, True)

    M = _nodal_block_inverse(A)

    x = np.zeros(ndof) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (ndof,):
        raise SolverError(f"initial guess has wrong shape {x.shape}")
    r = b.copy() if x0 is None else deflate(b - A @ deflate(x))
    tol2 = (tol * bnorm) ** 2
    z = M @ r
    p = z
    rz = float(r @ z)
    iterations = 0
    converged = float(r @ r) <= tol2

    while not converged and iterations < max_iter:
        iterations += 1
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise NegativeCurvatureError(
                f"non-positive curvature {pAp:.3e} at iteration {iterations}",
                iteration=iterations,
            )
        alpha = rz / pAp
        x += alpha * p
        Ap *= alpha
        r -= Ap
        deflate(r)
        if restart := float(r @ r) <= tol2:
            # guard against recurrence drift: recompute the true residual
            r = deflate(b - A @ deflate(x))
            if float(r @ r) <= tol2:
                converged = True
                break
        z = M @ r
        rz_new = float(r @ z)
        if restart:
            p = z
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new

    if not converged:
        r = deflate(b - A @ deflate(x))
    report = SolveReport(
        iterations=iterations,
        relative_residual=float(np.linalg.norm(r)) / bnorm,
        deflated_dimension=kdim,
        converged=converged,
    )
    if not converged:
        raise IterationLimitError(
            f"no convergence in {max_iter} iterations "
            f"(relative residual {report.relative_residual:.3e})",
            solution=x,
            report=report,
        )
    return x, report
