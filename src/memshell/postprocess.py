"""Stress recovery, L2 stress errors, convergence-rate fits, and field export.

The recovered stress is the in-plane tensor obtained by double projection of
the tangential strain followed by the membrane constitutive law
``sigma = 2 mu e_P + lam tr(e_P) P``; it is symmetric and annihilates the
element normal by construction. It is a read-only ``(m, nq, 3, 3)`` array
sampled at ``geo.points`` of the case's
:class:`~memshell.element.QuadraturePointData`; the facet variant's stress is
computed once per element and broadcast over the points. Errors are
integrated with ``geo.measures`` and the export's cell averages are weighted
by them. The recovery writes each block of elements of
:meth:`~memshell.element.QuadraturePointData.blocks` into the one result
array, and the error is summed block by block.
"""

import dataclasses
import math

import numpy as np

from .element import QuadraturePointData
from .geometry import ExactSolution, MaterialModel
from .mesh import SurfaceMesh

__all__ = [
    "recover_stress",
    "stress_l2_error",
    "ConvergenceRecord",
    "export_vtk",
    "write_convergence_csv",
]


def _nodal_displacements(mesh: SurfaceMesh, displacement) -> np.ndarray:
    """The flat dof vector (``3 n_vertices``, node-major) as (n_vertices, 3)."""
    u = np.asarray(displacement, dtype=float)
    n = mesh.n_vertices
    if u.shape != (3 * n,):
        raise ValueError(f"displacement shape {u.shape} does not match {n} vertices")
    return u.reshape(n, 3)


def _require_stress_on(stress, geo: QuadraturePointData) -> None:
    """Raise ValueError unless ``stress`` is sampled at ``geo``'s points."""
    expected = geo.measures.shape + (3, 3)
    if np.shape(stress) != expected:
        raise ValueError(f"stress shape {np.shape(stress)} does not match the "
                         f"(m, nq, 3, 3) = {expected} of its quadrature geometry")


def recover_stress(mesh: SurfaceMesh, material: MaterialModel, displacement,
                   geo: QuadraturePointData) -> np.ndarray:
    """The read-only (m, nq, 3, 3) stress at ``geo.points``, from the projected strain.

    ``displacement`` is the flat dof vector that :func:`~memshell.solver.solve`
    returns: length ``3*n_vertices``, node-major, global components; any other
    shape is a ValueError that names it. ``geo`` is the mesh's
    :func:`~memshell.element.quadrature_geometry`; its normals give the
    projectors.
    """
    u = _nodal_displacements(mesh, displacement)
    geo.require_elements(mesh.n_triangles)
    stress = np.empty(geo.gradients.shape[:2] + (3, 3))
    for s, sub in geo.blocks():
        ue = u[mesh.triangles[s]]
        proj = sub.projectors()
        # the basis gradients are tangential (grad n = 0), so P eps P = sym(P grad)
        grad = proj @ (ue.swapaxes(1, 2)[:, None] @ sub.gradients)
        eps_p = 0.5 * (grad + grad.swapaxes(-1, -2))
        tr = np.trace(eps_p, axis1=-2, axis2=-1)
        np.multiply(2.0 * material.mu, eps_p, out=stress[s])
        stress[s] += material.lam0 * tr[..., None, None] * proj
    return np.broadcast_to(stress, geo.measures.shape + (3, 3))


def stress_l2_error(stress, geo: QuadraturePointData, exact: ExactSolution) -> float:
    """Frobenius L2 norm of ``sigma_exact - stress`` over the discrete surface.

    ``stress`` holds the samples at ``geo.points``; ``geo.measures`` weighs them.
    """
    _require_stress_on(stress, geo)
    total = 0.0
    for s, sub in geo.blocks():
        sig_exact = np.asarray(exact.stress_at(sub.points.reshape(-1, 3)), dtype=float)
        diff = sig_exact.reshape(stress[s].shape) - stress[s]
        total += float(np.sum(sub.measures * np.einsum("mqab,mqab->mq", diff, diff)))
    return math.sqrt(total)


@dataclasses.dataclass(frozen=True, eq=False)
class ConvergenceRecord:
    """A refinement ladder that fits its own rate.

    ``h`` and ``error`` are at least 3 positive values each, ``h`` strictly
    decreasing; the record keeps read-only copies. It computes ``slope``, the
    least-squares slope of log(error) against log(h), and ``fit_residual``,
    the root-mean-square log-space misfit; neither can be given.
    """

    h: np.ndarray
    error: np.ndarray
    slope: float = dataclasses.field(init=False)
    fit_residual: float = dataclasses.field(init=False)

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        e = np.array(self.error, dtype=float)
        if h.size != e.size:
            raise ValueError("h and error have different lengths")
        if h.size < 3:
            raise ValueError(f"need at least 3 levels to fit a rate, got {h.size}")
        if np.any(h <= 0) or np.any(e <= 0):
            raise ValueError("h and error values must be positive")
        if np.any(np.diff(h) >= 0):
            raise ValueError("h must be strictly decreasing")
        h.setflags(write=False)
        e.setflags(write=False)
        lh, le = np.log(h), np.log(e)
        A = np.column_stack([lh, np.ones_like(lh)])
        coef, *_ = np.linalg.lstsq(A, le, rcond=None)
        misfit = le - A @ coef
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "error", e)
        object.__setattr__(self, "slope", float(coef[0]))
        object.__setattr__(self, "fit_residual", float(np.sqrt(np.mean(misfit**2))))


def _fmt(x: float) -> str:
    return format(float(x), ".12e")


def export_vtk(mesh: SurfaceMesh, displacement, stress, geo: QuadraturePointData, path) -> None:
    """Write a legacy VTK unstructured grid in ``BINARY`` form.

    An ASCII header (version 3.0, title ``membrane shell solution``), then in
    order ``POINTS n double`` (the vertices), ``CELLS m 4m`` (``3 i j k`` per
    triangle), ``CELL_TYPES m`` (5, a triangle), ``POINT_DATA n`` / ``VECTORS
    displacement double`` and ``CELL_DATA m`` / ``FIELD stress_data 2`` with
    ``stress 6 m double`` (xx, yy, zz, xy, yz, xz of the element-average tensor,
    weighted by ``geo.measures``) and ``von_mises 1 m double`` (that tensor's
    von Mises scalar). Each ASCII section line is followed by its data, as
    big-endian float64 or (cells and cell types) int32, and a newline.
    """
    u = _nodal_displacements(mesh, displacement)
    n, m = mesh.n_vertices, mesh.n_triangles
    geo.require_elements(m)
    _require_stress_on(stress, geo)

    # einsum's sum order follows the strides: a broadcast stress is read as its copy
    avg = np.einsum("mq,mqab->mab", geo.measures, np.ascontiguousarray(stress))
    avg /= geo.measures.sum(axis=1)[:, None, None]
    comps = np.column_stack([
        avg[:, 0, 0], avg[:, 1, 1], avg[:, 2, 2],
        avg[:, 0, 1], avg[:, 1, 2], avg[:, 0, 2],
    ])
    avg.reshape(-1, 9)[:, ::4] -= (np.trace(avg, axis1=1, axis2=2) / 3.0)[:, None]  # deviator
    vm = np.sqrt(1.5 * np.einsum("mab,mab->m", avg, avg))

    sections = [
        (f"POINTS {n} double", mesh.vertices, ">f8"),
        (f"CELLS {m} {4 * m}", np.column_stack([np.full(m, 3), mesh.triangles]), ">i4"),
        (f"CELL_TYPES {m}", np.full(m, 5), ">i4"),
        (f"POINT_DATA {n}\nVECTORS displacement double", u, ">f8"),
        (f"CELL_DATA {m}\nFIELD stress_data 2\nstress 6 {m} double", comps, ">f8"),
        (f"von_mises 1 {m} double", vm, ">f8"),
    ]
    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 3.0\nmembrane shell solution\nBINARY\n"
                 b"DATASET UNSTRUCTURED_GRID\n")
        for header, data, dtype in sections:
            # one section's big-endian copy at a time, written from its own buffer
            fh.write(f"{header}\n".encode("ascii"))
            fh.write(data.astype(dtype))
            fh.write(b"\n")


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
