"""Stress recovery, L2 stress errors, convergence-rate fits, and field export.

The recovered stress is the in-plane tensor obtained by double projection of
the tangential strain followed by the membrane constitutive law
``sigma = 2 mu e_P + lam tr(e_P) P``; it is symmetric and annihilates the
element normal by construction. Errors are integrated over the discrete
surface with the field's own quadrature weights.
"""

import dataclasses
import math

import numpy as np

from .element import QuadraturePointData, QuadratureRule, quadrature_geometry, quadrature_rule
from .geometry import ExactSolution, MaterialModel
from .mesh import SurfaceMesh

__all__ = [
    "StressField",
    "recover_stress",
    "stress_l2_error",
    "ConvergenceRecord",
    "fit_convergence",
    "export_vtk",
    "write_convergence_csv",
]


class StressField:
    """Per-element, per-quadrature-point projected stress samples.

    Attributes
    ----------
    stresses : (m, nq, 3, 3)
        Symmetric in-plane stress tensors.
    points : (m, nq, 3)
        Evaluation positions on the discrete surface.
    weights : (m, nq)
        Surface-measure weights (quadrature weight times facet measure).
    normals : (m, nq, 3)
        Unit normals used for the projection at each sample.
    """

    def __init__(self, stresses, points, weights, normals):
        self.stresses = np.asarray(stresses, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.normals = np.asarray(normals, dtype=float)
        m, nq = self.weights.shape
        if self.stresses.shape != (m, nq, 3, 3):
            raise ValueError(f"stresses have shape {self.stresses.shape}, expected {(m, nq, 3, 3)}")
        if self.points.shape != (m, nq, 3) or self.normals.shape != (m, nq, 3):
            raise ValueError("points/normals do not match the weight layout")
        for a in (self.stresses, self.points, self.weights, self.normals):
            a.setflags(write=False)

    @property
    def n_elements(self) -> int:
        return self.weights.shape[0]

    def l2_norm(self) -> float:
        """Frobenius L2 norm of the field over the discrete surface."""
        sq = np.einsum("mqab,mqab->mq", self.stresses, self.stresses)
        return math.sqrt(float(np.sum(self.weights * sq)))

    def cell_averages(self) -> np.ndarray:
        """(m, 3, 3) area-weighted average stress per element."""
        wsum = self.weights.sum(axis=1)
        avg = np.einsum("mq,mqab->mab", self.weights, self.stresses)
        return avg / wsum[:, None, None]


def _nodal_displacements(mesh: SurfaceMesh, displacement) -> np.ndarray:
    """A flat dof vector or an (n_vertices, 3) array, as (n_vertices, 3)."""
    u = np.asarray(displacement, dtype=float)
    n = mesh.n_vertices
    if u.shape not in ((3 * n,), (n, 3)):
        raise ValueError(f"displacement shape {u.shape} does not match {n} vertices")
    return u.reshape(n, 3)


def recover_stress(mesh: SurfaceMesh, material: MaterialModel, displacement,
                   quad: QuadratureRule | None = None,
                   variant: str = "interpolated",
                   geometry: QuadraturePointData | None = None) -> StressField:
    """Project the discrete strain and apply the membrane constitutive law.

    ``displacement`` may be a flat dof vector of length ``3*n_vertices`` or an
    ``(n_vertices, 3)`` array of nodal displacements (global components).
    ``geometry`` is the mesh's :func:`~memshell.element.quadrature_geometry`
    for ``quad`` and ``variant``, if the caller already has it.
    """
    if quad is None:
        quad = quadrature_rule(2)
    u = _nodal_displacements(mesh, displacement)
    tris = mesh.triangles
    geo = (quadrature_geometry(mesh.vertices[tris], mesh.nodal_normals[tris], quad, variant)
           if geometry is None else geometry)
    ue = u[tris]

    proj = geo.projectors()
    # the basis gradients are tangential (grad n = 0), so P eps P = sym(P grad)
    grad = proj @ (ue.swapaxes(1, 2)[:, None] @ geo.gradients)
    eps_p = 0.5 * (grad + grad.swapaxes(-1, -2))
    tr = np.trace(eps_p, axis1=-2, axis2=-1)
    sigma = 2.0 * material.mu * eps_p + material.lame_effective * tr[..., None, None] * proj
    return StressField(sigma, geo.points, geo.measures, geo.normals)


def stress_l2_error(field: StressField, exact: ExactSolution) -> float:
    """Frobenius L2 norm of ``sigma_exact - sigma_h`` over the discrete surface."""
    flat = field.points.reshape(-1, 3)
    sig_exact = np.asarray(exact.stress_at(flat), dtype=float).reshape(field.stresses.shape)
    diff = sig_exact - field.stresses
    sq = np.einsum("mqab,mqab->mq", diff, diff)
    return math.sqrt(float(np.sum(field.weights * sq)))


@dataclasses.dataclass(frozen=True)
class ConvergenceRecord:
    """A refinement ladder with its fitted rate.

    ``h`` must be strictly decreasing, errors positive. ``slope`` is the
    least-squares slope of log(error) against log(h); ``fit_residual`` the
    root-mean-square log-space misfit.
    """

    h: np.ndarray
    error: np.ndarray
    slope: float
    fit_residual: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        e = np.asarray(self.error, dtype=float)
        if h.size != e.size:
            raise ValueError("h and error have different lengths")
        if np.any(h <= 0) or np.any(e <= 0):
            raise ValueError("h and error values must be positive")
        if np.any(np.diff(h) >= 0):
            raise ValueError("h must be strictly decreasing")
        h.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "error", e)


def fit_convergence(records) -> ConvergenceRecord:
    """Least-squares rate fit of a ladder of ``(h, error)`` pairs (>= 3)."""
    pairs = [(float(h), float(e)) for h, e in records]
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 records to fit a rate, got {len(pairs)}")
    h = np.array([p[0] for p in pairs])
    e = np.array([p[1] for p in pairs])
    if np.any(h <= 0) or np.any(e <= 0):
        raise ValueError("h and error values must be positive")
    lh = np.log(h)
    le = np.log(e)
    A = np.column_stack([lh, np.ones_like(lh)])
    coef, *_ = np.linalg.lstsq(A, le, rcond=None)
    misfit = le - A @ coef
    return ConvergenceRecord(
        h=h,
        error=e,
        slope=float(coef[0]),
        fit_residual=float(np.sqrt(np.mean(misfit**2))),
    )


def _fmt(x: float) -> str:
    return format(float(x), ".12e")


# ASCII words of the vectorised ``%.12e`` below, each a little-endian uint32
# so that byte 0 of the word is byte 0 of the text.
_DIGIT_WORDS = np.array([b"%04d" % k for k in range(10000)]).view("<u4")
_LEAD_WORDS = np.array([b"\0\0%d." % d for d in range(10)]).view("<u4")
_EXP_MAX = 290
_EXP_WORDS = np.array([(b"e%+03d" % k).ljust(8, b"\0") for k in range(-_EXP_MAX, _EXP_MAX + 1)]
                      ).view("<u4").reshape(-1, 2).T.copy()
# 10^(12-e) for e in [-_EXP_MAX - 1, _EXP_MAX], at index e + _EXP_MAX + 1.
_SCALES = np.array([float(f"1e{12 - e}") for e in range(-_EXP_MAX - 1, _EXP_MAX + 1)])


def _row_texts(*arrays: np.ndarray) -> list[str]:
    """Each 2-D array as lines of space-separated ``"%.12e"`` numbers.

    The text is exactly CPython's ``"%.12e" % x``, formatted for all arrays
    at once. Each number gets a 24-byte slot of six little-endian uint32
    words: ``[0, sign, d0, '.']``, three words of four digits, ``'e±dd'``
    and ``[third exponent digit or 0, 0, 0, separator]``; the zero bytes are
    stripped at the end.

    A finite ``|x|`` in [1e-290, 1e290] is scaled to ``m = |x| 10^(12-e)``
    with ``e = floor(log10 |x|)``. The power of ten is ``float("1e<k>")``,
    correctly rounded, so m differs from the exact decimal scaling m* by two
    roundings: ``|m - m*| <= 2^-52 m* < 2.3e-3``. If m lies in
    [1e12 + 1, 1e13 - 1), then 1e12 < m* < 1e13 - 0.99, so e is the printed
    exponent and rounding m* cannot carry into a 14th digit. If also
    ``|m - rint(m)| <= 0.49``, m* is on the same side of the nearest
    half-integer, so the printed digits are N = rint(m). Every other number
    (a log10 off by one near a power of ten, ties within the guard, the
    interval ends, 0, -0, subnormals, out-of-range magnitudes, inf, nan) is
    formatted by ``%`` itself, 1-2 % of a typical field.
    """
    x = np.concatenate([np.ravel(a) for a in arrays]).astype(float, copy=False)
    ax = np.abs(x)
    fast = (ax >= 1e-290) & (ax <= 1e290)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    m = ax * _SCALES[e + _EXP_MAX + 1]
    n = np.rint(m)
    fast &= (m >= 1e12 + 1) & (m < 1e13 - 1) & (np.abs(m - n) <= 0.49)

    q, w3 = np.divmod(np.where(fast, n, 1e12).astype(np.int64), 10000)
    q, w2 = np.divmod(q, 10000)
    d0, w1 = np.divmod(q, 10000)
    e = np.where(fast, e, 0) + _EXP_MAX
    words = np.empty((x.size, 6), dtype="<u4")
    words[:, 0] = _LEAD_WORDS[d0] | np.signbit(x).astype("<u4") * (ord("-") << 8)
    words[:, 1] = _DIGIT_WORDS[w1]
    words[:, 2] = _DIGIT_WORDS[w2]
    words[:, 3] = _DIGIT_WORDS[w3]
    words[:, 4] = _EXP_WORDS[0, e]
    words[:, 5] = _EXP_WORDS[1, e]
    text = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        pad = ("%-23.12e" * slow.size) % tuple(x[slow].tolist())
        text[slow, :23] = np.frombuffer(pad.encode().replace(b" ", b"\0"),
                                        dtype=np.uint8).reshape(-1, 23)
    seps = [np.full(np.shape(a), ord(" "), dtype=np.uint8) for a in arrays]
    for sep in seps:
        sep[:, -1] = ord("\n")
    text[:, 23] = np.concatenate([sep.ravel() for sep in seps])

    ends = np.cumsum([0] + [np.size(a) for a in arrays])
    return [text[i:j].tobytes().translate(None, b"\0").decode("ascii")
            for i, j in zip(ends[:-1], ends[1:])]


def export_vtk(mesh: SurfaceMesh, displacement, field: StressField, path,
               title: str = "membrane shell solution") -> None:
    """Write a legacy ASCII VTK unstructured grid.

    Points and triangle cells, point-data displacement vectors, cell-data
    stress components (xx, yy, zz, xy, yz, xz of the element-average tensor)
    and that tensor's von Mises scalar.
    """
    u = _nodal_displacements(mesh, displacement)
    n, m = mesh.n_vertices, mesh.n_triangles
    if field.n_elements != m:
        raise ValueError("stress field does not match the mesh")

    avg = field.cell_averages()
    comps = np.column_stack([
        avg[:, 0, 0], avg[:, 1, 1], avg[:, 2, 2],
        avg[:, 0, 1], avg[:, 1, 2], avg[:, 0, 2],
    ])
    dev = avg - (np.trace(avg, axis1=1, axis2=2) / 3.0)[:, None, None] * np.eye(3)
    vm = np.sqrt(1.5 * np.einsum("mab,mab->m", dev, dev))

    points, disp, stress, mises = _row_texts(mesh.vertices, u, comps, vm[:, None])
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} double\n" + points)
        fh.write(f"CELLS {m} {4 * m}\n")
        fh.write(("3 %d %d %d\n" * m) % tuple(mesh.triangles.ravel().tolist()))
        fh.write(f"CELL_TYPES {m}\n" + "5\n" * m)
        fh.write(f"POINT_DATA {n}\nVECTORS displacement double\n" + disp)
        fh.write(f"CELL_DATA {m}\nFIELD stress_data 2\nstress 6 {m} double\n" + stress)
        fh.write(f"von_mises 1 {m} double\n" + mises)


def write_convergence_csv(path, hs, errors) -> None:
    """Write a ``h,error,rate`` table; rate is between consecutive rows."""
    hs = [float(h) for h in hs]
    errors = [float(e) for e in errors]
    with open(path, "w") as fh:
        fh.write("h,error,rate\n")
        for k, (h, e) in enumerate(zip(hs, errors)):
            if k == 0:
                fh.write(f"{_fmt(h)},{_fmt(e)},\n")
            else:
                rate = math.log(errors[k - 1] / e) / math.log(hs[k - 1] / h)
                fh.write(f"{_fmt(h)},{_fmt(e)},{rate:.6f}\n")
