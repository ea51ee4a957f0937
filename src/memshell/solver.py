"""Nodal block-Jacobi conjugate gradients with a detected rigid-body kernel.

Systems are node-major (dof ``3*node + component``, see :mod:`.assembly`), so
each node owns a 3x3 diagonal block of the stiffness. On a curved membrane
that block carries the node's tangent/normal frame: it is stiff in the tangent
plane and soft along the normal. The preconditioner inverts every such block,
which makes CG invariant under a rigid rotation of the problem; scaling the
x, y and z dofs separately would not be. Each block must be symmetric
positive definite; a singular, indefinite or ill-conditioned block is
reported with its node before the first iteration. A block whose three
leading minors (``a00``, ``a00 a11 - a10^2``, ``det``) are positive is
positive definite (Sylvester's criterion), so ``lmin/lmax >= det/tr^3``; such
blocks with ``det > 1e-6 tr^3`` are inverted in closed form. Only the others
go through ``eigh``, which decides and words any failure.

A membrane system is symmetric positive semidefinite, and its kernel is
detected, not assumed: :func:`rigid_body_basis` projects the rigid-body
modes onto the system's constraints (both in global xyz) and keeps those
whose energy is below ``1e-12`` of the mean diagonal. On the benchmark
meshes (n = 6...256) a true kernel mode measures at most 5e-17 of it, and
every other rigid mode above 8e-10 (the interpolated torus's axial rotation,
which falls like h^4). The facet torus thus deflates all six modes, the
interpolated torus the translations, the facet cylinder its axial rotation
and the interpolated cylinder none. The kernel is projected out of the rhs
(its share there is reported); the residual then stays in the range space
and is never projected. The iterate's kernel part never reaches the
residual, so it is projected out only where the iterate is read (the
true-residual check and the exit): the same iterates in exact arithmetic,
and a solution without kernel component. Negative curvature (an indefinite
matrix) aborts with the iteration index.

An iteration costs one matvec, one preconditioner apply, three dot products
and in-place vector updates. The CG loop sees the preconditioner only as that
apply, ``precondition(r, out) -> out``, built once per solve: here the CSR
product of the block-diagonal inverse. The matrix and that inverse are
:class:`~memshell.assembly.CSR` records, on whose arrays the solver calls
scipy's compiled kernels as :mod:`.assembly` loads them: ``csr_diagonal``,
``csr_matvecs`` for ``A Q`` and ``csr_matvec`` for both products of an
iteration, into work vectors allocated once per solve (:func:`_matvec`). On
small systems, the dispatch of ``A @ p`` around that kernel costs as much as
the kernel itself. The stop test ``r . r <= (tol ||b||)^2`` is confirmed on the
recomputed true residual, from which CG restarts if it fails.
"""

import dataclasses
import functools
import math

import numpy as np

from .assembly import CSR, LinearSystem, _index_dtype, _sparsetools

__all__ = [
    "SolverError",
    "NegativeCurvatureError",
    "IterationLimitError",
    "SolveReport",
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
    solved for. ``deflated_dimension`` is the dimension ``k`` of the kernel
    found by :func:`rigid_body_basis`, with basis ``Z`` among all the
    rigid-body modes ``Q``. For the right-hand side before its projection,
    ``rhs_consistency`` is ``||Z^T b|| / ||b||`` (0 for a consistent load) and
    ``rigid_load_share`` is ``||Q^T b|| / ||b||``, which also sees a load on a
    near-kernel mode (a torque on the interpolated torus). ``rigid_fraction``
    is ``||Q^T u|| / ||u||`` for the returned ``u``.
    """

    iterations: int
    relative_residual: float
    deflated_dimension: int
    converged: bool
    rhs_consistency: float
    rigid_load_share: float
    rigid_fraction: float


# the (component, k) block of the rotation e_k x x_i, linear in x_i
_ROTATION = np.cross(np.eye(3), np.eye(3)[:, None]).transpose(0, 2, 1).reshape(3, 9)


def rigid_body_basis(system: LinearSystem, diagonal: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal rigid-body modes ``Q`` (ndof, m <= 6) and the kernel dimension ``k``.

    The translations and the rotations about the centroid of the coordinates
    are projected onto the constraints (``P Z``, see
    :func:`~memshell.assembly.apply_constraints`) and the columns this makes
    dependent dropped. The columns are then rotated onto
    the eigenvectors of ``Q^T A Q``, by ascending energy; the leading ``k``,
    below ``1e-12 * mean(diag A)``, span the kernel. ``diagonal`` is
    ``diag A``, which :func:`solve` also reads for the block inverse. No
    coordinates: m = k = 0.
    """
    ndof = system.ndof
    if system.coordinates is None:
        return np.zeros((ndof, 0)), 0
    x = system.coordinates - system.coordinates.mean(axis=0)
    Z = np.concatenate([np.broadcast_to(np.eye(3), (len(x), 3, 3)),
                        (x @ _ROTATION).reshape(-1, 3, 3)], axis=2)
    if system.constraints is not None:
        nodes, d = system.constraints
        Z[nodes] = (np.eye(3) - d[:, :, None] * d[:, None, :]) @ Z[nodes]
    Z = Z.reshape(ndof, 6)
    w, V = np.linalg.eigh(Z.T @ Z)
    keep = w > 1e-12 * w[-1]  # singular values above 1e-6 of the largest
    q = Z @ (V[:, keep] / np.sqrt(w[keep]))
    del Z  # hold at most two (ndof, 6) arrays: q with A q, then q with the result
    Aq = np.zeros(q.shape)
    _sparsetools.csr_matvecs(ndof, ndof, q.shape[1], *system.csr[::-1], q.ravel(), Aq.ravel())
    energy, vec = np.linalg.eigh(q.T @ Aq)
    del Aq
    return q @ vec, int(np.sum(energy < 1e-12 * diagonal.mean()))


def _matvec(A: CSR, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A v`` by scipy's compiled CSR kernel; ``A`` (a record or a scipy
    CSR matrix), ``v`` and ``out`` float64.

    ``A @ v`` runs the same kernel (each row summed in storage order into a
    zeroed output), so the result is equal bit for bit, but its Python
    dispatch and fresh output add ~5 us a product: as much as the kernel on
    a torus at n=6 (216 dofs).
    """
    out.fill(0.0)
    _sparsetools.csr_matvec(*A.shape, A.indptr, A.indices, A.data, v, out)
    return out


def _nodal_block_inverse(d0: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> CSR:
    """Block-diagonal inverse (CSR) of the 3x3 nodal diagonal blocks of ``A``.

    ``d0``, ``d1`` and ``d2`` are ``A.diagonal(-k)`` for k = 0, 1, 2: the
    lower triangle of each block, so the inverse is exactly symmetric.
    Raises SolverError naming the first node whose block has
    smallest eigenvalue <= 1e-12 times its largest: "not positive definite"
    for a ratio <= 0 (singular or indefinite), "ill-conditioned" otherwise.
    """
    ndof = len(d0)
    a00, a10, a11, a20, a21, a22 = lower = (d0[::3], d1[::3], d0[1::3], d2[::3], d1[1::3], d0[2::3])
    cof = np.stack([a11 * a22 - a21 * a21, a20 * a21 - a10 * a22, a10 * a21 - a11 * a20,
                    a00 * a22 - a20 * a20, a10 * a20 - a00 * a21, a00 * a11 - a10 * a10], axis=1)
    det = a00 * cof[:, 0] + a10 * cof[:, 1] + a20 * cof[:, 2]
    closed = (a00 > 0) & (cof[:, 5] > 0) & (det > 0) & (det > 1e-6 * (a00 + a11 + a22) ** 3)
    cof /= np.where(closed, det, 1.0)[:, None]
    # C order, so that it is the CSR data as it stands (cof[:, idx] is column-major)
    inv = np.take(cof, [0, 1, 2, 1, 3, 4, 2, 4, 5], axis=1).reshape(-1, 3, 3)
    rest = np.flatnonzero(~closed)
    if rest.size:
        blocks = np.stack([v[rest] for v in lower], axis=1)[:, [0, 1, 3, 1, 2, 4, 3, 4, 5]]
        lam, vec = np.linalg.eigh(blocks.reshape(-1, 3, 3))
        bad = np.flatnonzero(lam[:, 0] <= 1e-12 * lam[:, 2])
        if bad.size:
            lo, hi = lam[bad[0], 0], lam[bad[0], 2]
            ratio = lo / hi if hi > 0 else -math.inf
            kind = "ill-conditioned" if ratio > 0 else "not positive definite"
            raise SolverError(
                f"nodal block of node {rest[bad[0]]} is {kind}: smallest/largest "
                f"eigenvalue ratio {ratio:.3e}; {bad.size} of {len(inv)} nodal blocks fail"
            )
        inv[rest] = (vec / lam[:, None, :]) @ vec.transpose(0, 2, 1)
    # row 3i + a of the block diagonal holds row a of block i, in columns 3i..3i+2
    itype = _index_dtype(3 * ndof)
    cols = np.arange(ndof, dtype=itype).reshape(-1, 3)
    return CSR(inv.ravel(), np.repeat(cols, 3, axis=0).ravel(),
               3 * np.arange(ndof + 1, dtype=itype))


def solve(system: LinearSystem, tol: float = 1e-10,
          max_iter: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve ``K u = b`` by nodal block-Jacobi preconditioned conjugate gradients from ``u = 0``.

    Parameters
    ----------
    system : LinearSystem
        Symmetric positive (semi)definite, node-major system (``ndof`` a
        multiple of 3) whose 3x3 nodal diagonal blocks are each positive
        definite.
    tol : float
        Relative residual target, in (0, 1).
    max_iter : int, optional
        Defaults to ``ceil(50 * sqrt(ndof))``.

    Returns
    -------
    (u, SolveReport)

    Raises
    ------
    SolverError
        If ``tol`` is not in (0, 1), ``max_iter`` is below 1, ``ndof`` is not
        a multiple of 3, the right-hand side is not finite, a stored matrix
        entry is not finite (the message names its row, column and node), or
        a nodal diagonal block is not positive definite or is ill-conditioned
        (the message names the cause).
    NegativeCurvatureError
        If a search direction has non-positive curvature.
    IterationLimitError
        If ``max_iter`` is reached before the tolerance (the exception
        carries the last iterate and its report).
    """
    if not tol > 0:  # NaN included
        raise SolverError(f"tol must be > 0, got {tol}")
    if not tol < 1:
        raise SolverError(f"tol must be < 1, got {tol}")
    if max_iter is not None and max_iter < 1:
        raise SolverError(f"max_iter must be >= 1, got {max_iter}")
    A = system.csr
    b = system.rhs.astype(float)
    ndof = system.ndof
    if ndof % 3:
        raise SolverError(f"system has {ndof} dofs; a node-major system needs a multiple of 3")
    finite = np.isfinite(b)
    if not finite.all():
        k = int(np.argmin(finite))
        raise SolverError(f"right-hand side (load) is not finite at dof {k} of node {k // 3}")
    finite = np.isfinite(A.data[:A.indptr[-1]])
    if not finite.all():
        k = int(np.argmin(finite))
        row = int(np.searchsorted(A.indptr, k, side="right")) - 1
        raise SolverError(f"system matrix is not finite at row {row}, column {A.indices[k]} "
                          f"(node {row // 3})")
    if max_iter is None:
        max_iter = max(50, math.ceil(50.0 * math.sqrt(ndof)))

    diagonals = [np.empty(max(ndof - k, 0)) for k in range(3)]
    for k, d in enumerate(diagonals):
        _sparsetools.csr_diagonal(-k, ndof, ndof, *A[::-1], d)
    modes, kdim = rigid_body_basis(system, diagonals[0])
    Z = modes[:, :kdim]

    def deflate(v):
        v -= Z @ (Z.T @ v)
        return v

    def share(basis, v):
        vnorm = float(np.linalg.norm(v))
        return float(np.linalg.norm(basis.T @ v)) / vnorm if vnorm else 0.0

    consistency, load_share = share(Z, b), share(modes, b)
    b = deflate(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(ndof), SolveReport(0, 0.0, kdim, True, consistency, load_share, 0.0)

    precondition = functools.partial(_matvec, _nodal_block_inverse(*diagonals))
    del diagonals  # not held through the iterations, where the solve peaks
    x = np.zeros(ndof)
    # the work vectors of the whole solve: the products go into Ap and z
    Ap, z, tmp = np.empty(ndof), np.empty(ndof), np.empty(ndof)

    def true_residual():  # r = b - A x, with the kernel part of x removed first
        np.subtract(b, _matvec(A, deflate(x), Ap), out=r)

    r = b.copy()  # the residual of x = 0
    tol2 = (tol * bnorm) ** 2
    p = precondition(r, z).copy()
    rz = float(r @ z)
    iterations = 0
    converged = float(r @ r) <= tol2

    while not converged and iterations < max_iter:
        iterations += 1
        _matvec(A, p, Ap)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise NegativeCurvatureError(
                f"non-positive curvature {pAp:.3e} at iteration {iterations}",
                iteration=iterations,
            )
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=tmp)
        Ap *= alpha
        r -= Ap
        if restart := float(r @ r) <= tol2:
            # guard against recurrence drift: recompute the true residual
            true_residual()
            if float(r @ r) <= tol2:
                converged = True
                break
        precondition(r, z)
        rz_new = float(r @ z)
        p *= 0.0 if restart else rz_new / rz
        p += z
        rz = rz_new

    if not converged:
        true_residual()
    report = SolveReport(
        iterations=iterations,
        relative_residual=float(np.linalg.norm(r)) / bnorm,
        deflated_dimension=kdim,
        converged=converged,
        rhs_consistency=consistency,
        rigid_load_share=load_share,
        rigid_fraction=share(modes, x),
    )
    if not converged:
        raise IterationLimitError(
            f"no convergence in {max_iter} iterations "
            f"(relative residual {report.relative_residual:.3e})",
            solution=x,
            report=report,
        )
    return x, report
