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

from .element import QuadratureRule, quadrature_geometry, quadrature_rule
from .geometry import ExactSolution, MaterialModel
from .mesh import SurfaceMesh

__all__ = [
    "StressField",
    "recover_stress",
    "stress_l2_error",
    "ConvergenceRecord",
    "fit_convergence",
    "convergence_rate",
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

    def total_area(self) -> float:
        return float(self.weights.sum())

    def l2_norm(self) -> float:
        """Frobenius L2 norm of the field over the discrete surface."""
        sq = np.einsum("mqab,mqab->mq", self.stresses, self.stresses)
        return math.sqrt(float(np.sum(self.weights * sq)))

    def cell_averages(self) -> np.ndarray:
        """(m, 3, 3) area-weighted average stress per element."""
        wsum = self.weights.sum(axis=1)
        avg = np.einsum("mq,mqab->mab", self.weights, self.stresses)
        return avg / wsum[:, None, None]

    def von_mises_cells(self) -> np.ndarray:
        """(m,) von Mises equivalent stress of the element averages."""
        s = self.cell_averages()
        dev = s - (np.trace(s, axis1=1, axis2=2) / 3.0)[:, None, None] * np.eye(3)
        return np.sqrt(1.5 * np.einsum("mab,mab->m", dev, dev))


def recover_stress(mesh: SurfaceMesh, material: MaterialModel, displacement,
                   quad: QuadratureRule | None = None,
                   variant: str = "interpolated") -> StressField:
    """Project the discrete strain and apply the membrane constitutive law.

    ``displacement`` may be a flat dof vector of length ``3*n_vertices`` or an
    ``(n_vertices, 3)`` array of nodal displacements (global components).
    """
    if quad is None:
        quad = quadrature_rule(2)
    u = np.asarray(displacement, dtype=float)
    n = mesh.n_vertices
    if u.shape == (3 * n,):
        u = u.reshape(n, 3)
    elif u.shape != (n, 3):
        raise ValueError(f"displacement shape {u.shape} does not match {n} vertices")

    tris = mesh.triangles
    geo = quadrature_geometry(mesh.vertices[tris], mesh.nodal_normals[tris], quad, variant)
    ue = u[tris]

    grad = np.einsum("mia,mqib->mqab", ue, geo.gradients)
    eps = 0.5 * (grad + grad.swapaxes(-1, -2))
    nh = geo.normals
    proj = np.eye(3) - nh[..., :, None] * nh[..., None, :]
    eps_p = proj @ eps @ proj
    tr = np.trace(eps_p, axis1=-2, axis2=-1)
    sigma = 2.0 * material.mu * eps_p + material.lame_effective * tr[..., None, None] * proj
    return StressField(sigma, geo.points, geo.measures, nh)


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


def convergence_rate(records) -> float:
    """Fitted slope of log(error) versus log(h) for >= 3 ``(h, error)`` pairs."""
    return fit_convergence(records).slope


def _fmt(x: float) -> str:
    return format(float(x), ".12e")


def _rows(a: np.ndarray) -> str:
    """Rows of ``a`` as lines of space-separated ``_fmt`` numbers."""
    rows, k = a.shape
    return ((" ".join(["%.12e"] * k) + "\n") * rows) % tuple(a.ravel().tolist())


def export_vtk(mesh: SurfaceMesh, displacement, field: StressField, path,
               title: str = "membrane shell solution") -> None:
    """Write a legacy ASCII VTK unstructured grid.

    Points and triangle cells, point-data displacement vectors, cell-data
    stress components (xx, yy, zz, xy, yz, xz of the element-average tensor)
    and the von Mises scalar.
    """
    u = np.asarray(displacement, dtype=float)
    n = mesh.n_vertices
    if u.shape == (3 * n,):
        u = u.reshape(n, 3)
    elif u.shape != (n, 3):
        raise ValueError(f"displacement shape {u.shape} does not match {n} vertices")
    m = mesh.n_triangles
    if field.n_elements != m:
        raise ValueError("stress field does not match the mesh")

    avg = field.cell_averages()
    comps = np.column_stack([
        avg[:, 0, 0], avg[:, 1, 1], avg[:, 2, 2],
        avg[:, 0, 1], avg[:, 1, 2], avg[:, 0, 2],
    ])
    vm = field.von_mises_cells()

    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} double\n" + _rows(mesh.vertices))
        fh.write(f"CELLS {m} {4 * m}\n")
        fh.write(("3 %d %d %d\n" * m) % tuple(mesh.triangles.ravel().tolist()))
        fh.write(f"CELL_TYPES {m}\n" + "5\n" * m)
        fh.write(f"POINT_DATA {n}\nVECTORS displacement double\n" + _rows(u))
        fh.write(f"CELL_DATA {m}\nFIELD stress_data 2\nstress 6 {m} double\n" + _rows(comps))
        fh.write(f"von_mises 1 {m} double\n" + _rows(vm[:, None]))


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
