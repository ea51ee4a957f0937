"""Independent oracles used by the test suite.

Everything here is implemented from standard textbook formulas, deliberately
avoiding the code paths under test: the exact benchmark surfaces (signed
distance, outward normal and closest point of the cylinder and the torus),
facet normals and areas and the stress-field L2 norm from their definitions,
the classical 2D constant-strain-triangle stiffness via the B-matrix,
single-element kernels that solve each element Jacobian with
``np.linalg.solve``, dense assembly by explicit Python scatter loops,
double-projection strain algebra via plain matrix products, a higher-order
triangle quadrature rule, a minimal binary legacy-VTK reader and
per-number writer, nodal constraint projection by dense products with an
admissible basis built node by node, seeded jittered cylinder and torus meshes,
boundary-loop extraction by set queries and a successor dictionary, and the
traced memory peak of one call.
"""

import math
import struct
import tracemalloc

import numpy as np
import scipy.sparse as sp

from memshell.assembly import ConstraintError, LinearSystem
from memshell.element import (QUADRATURE_RULE, QuadraturePointData, QuadratureRule,
                              SingularJacobianError, quadrature_geometry)
from memshell.geometry import Cylinder, GeometryError
from memshell.mesh import MeshError, SurfaceMesh, build_cylinder_mesh, build_torus_mesh

# ---------------------------------------------------------------------------
# exact surfaces: each is the set of points at distance r from its core, the
# x-axis for a Cylinder and the tube centre circle (radius R, plane z=0) for
# a Torus
# ---------------------------------------------------------------------------

#: A point lies on a surface if its unsigned distance is below this tolerance
#: (the benchmark geometries have O(1) dimensions).
ON_SURFACE_TOL = 1e-8


def _core_offset(surface, x) -> tuple[np.ndarray, np.ndarray]:
    """(d, |d|): offset of ``x`` from its closest point on the surface's core."""
    x = np.asarray(x, dtype=float)
    core = np.zeros_like(x)
    if isinstance(surface, Cylinder):
        core[..., 0] = x[..., 0]
    else:
        rho = np.hypot(x[..., 0], x[..., 1])
        if np.any(rho <= 1e-12 * surface.R):
            raise GeometryError("closest point undefined on the torus symmetry axis")
        core[..., :2] = surface.R * x[..., :2] / rho[..., None]
    d = x - core
    return d, np.linalg.norm(d, axis=-1)


def _radial_direction(surface, x) -> tuple[np.ndarray, np.ndarray]:
    """(core point, unit offset direction); undefined on the core itself."""
    d, q = _core_offset(surface, x)
    if np.any(q <= 1e-12 * surface.r):
        raise GeometryError("closest point undefined on the surface's core")
    return np.asarray(x, dtype=float) - d, d / q[..., None]


def signed_distance(surface, x) -> np.ndarray:
    """Signed distance to the exact surface, positive outside."""
    return _core_offset(surface, x)[1] - surface.r


def closest_point(surface, x) -> np.ndarray:
    """Closest point on the exact surface."""
    core, direction = _radial_direction(surface, x)
    return core + surface.r * direction


def surface_normal(surface, x) -> np.ndarray:
    """Outward unit normal at point(s) ``x`` on the exact surface.

    Raises :class:`GeometryError` if a point is farther than
    ``ON_SURFACE_TOL`` from the surface.
    """
    dist = np.abs(signed_distance(surface, x))
    if np.any(dist > ON_SURFACE_TOL):
        raise GeometryError(f"point off surface: max |distance| = {float(np.max(dist)):.3e}")
    return _radial_direction(surface, x)[1]


# ---------------------------------------------------------------------------
# mesh and field quantities from their definitions
# ---------------------------------------------------------------------------

def _facet_cross(mesh) -> np.ndarray:
    v = mesh.vertices[mesh.triangles]
    return np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])


def facet_areas(mesh) -> np.ndarray:
    """(m,) facet areas, half the edge cross product's length."""
    return 0.5 * np.linalg.norm(_facet_cross(mesh), axis=1)


def facet_normals(mesh) -> np.ndarray:
    """(m, 3) unit facet normals, oriented by the vertex order."""
    cross = _facet_cross(mesh)
    return cross / np.linalg.norm(cross, axis=1)[:, None]


def field_l2_norm(weights, stresses) -> float:
    """Frobenius L2 norm of (m, nq, 3, 3) stress samples under (m, nq) weights."""
    sq = np.einsum("mqab,mqab->mq", stresses, stresses)
    return math.sqrt(float(np.sum(weights * sq)))


def cst_plane_stress_stiffness(xy: np.ndarray, E: float, nu: float, t: float) -> np.ndarray:
    """Classical constant-strain-triangle plane-stress stiffness (6x6).

    ``xy`` holds the three node positions in local 2D coordinates (rows).
    Dof order is node-major (u1x, u1y, u2x, u2y, u3x, u3y). Standard
    B-matrix formula: K = t * A * B^T D B.
    """
    x = xy[:, 0]
    y = xy[:, 1]
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    area = 0.5 * abs(area2)
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    if area2 < 0:  # keep the B-matrix consistent with the orientation
        b, c = -b, -c
    B = np.zeros((3, 6))
    for i in range(3):
        B[0, 2 * i] = b[i]
        B[1, 2 * i + 1] = c[i]
        B[2, 2 * i] = c[i]
        B[2, 2 * i + 1] = b[i]
    B /= 2.0 * area
    D = (E / (1.0 - nu**2)) * np.array([
        [1.0, nu, 0.0],
        [nu, 1.0, 0.0],
        [0.0, 0.0, (1.0 - nu) / 2.0],
    ])
    return t * area * B.T @ D @ B


def cst_stiffness_embedded(coords: np.ndarray, e1: np.ndarray, e2: np.ndarray,
                           E: float, nu: float, t: float) -> np.ndarray:
    """CST stiffness of a plane triangle embedded in 3D (9x9).

    ``e1``, ``e2`` is an orthonormal in-plane basis; displacement components
    normal to the plane carry no stiffness.
    """
    xy = np.column_stack([coords @ e1, coords @ e2])
    k6 = cst_plane_stress_stiffness(xy, E, nu, t)
    T = np.column_stack([e1, e2])  # global (3) -> local (2)
    K = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            K[3 * i:3 * i + 3, 3 * j:3 * j + 3] = T @ k6[2 * i:2 * i + 2, 2 * j:2 * j + 2] @ T.T
    return K


# ---------------------------------------------------------------------------
# single-element kernels: per-point Jacobian solves, the reference for the
# batched dual-basis kernels in memshell.element
# ---------------------------------------------------------------------------

#: Reference gradients of the linear nodal basis (1-xi-eta, xi, eta).
REFERENCE_GRADIENTS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
REFERENCE_GRADIENTS.setflags(write=False)

# Right-hand sides of J g_i = (dphi_i/dxi, dphi_i/deta, 0), one column per node.
_GRAD_RHS = np.zeros((3, 3))
_GRAD_RHS[:2, :] = REFERENCE_GRADIENTS.T
_GRAD_RHS.setflags(write=False)


def shape_values_and_ref_gradients(xi: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear shape function values and reference gradients at ``(xi, eta)``.

    Returns ``(values, gradients)`` with ``values = (1-xi-eta, xi, eta)`` and
    the constant gradients ``((-1,-1), (1,0), (0,1))``. The point must lie in
    the closed reference triangle.
    """
    if xi < -1e-12 or eta < -1e-12 or xi + eta > 1.0 + 1e-12:
        raise ValueError(f"({xi}, {eta}) outside the reference triangle")
    return np.array([1.0 - xi - eta, xi, eta]), REFERENCE_GRADIENTS.copy()


def element_jacobian(coords, normals, xi: float, eta: float,
                     variant: str = "interpolated") -> np.ndarray:
    """Jacobian of the normal-extended element map at ``(xi, eta)``.

    Rows are the two constant facet tangents and the unit normal: the
    renormalized linear interpolation of the nodal normals for
    ``variant="interpolated"``, or the facet normal for ``variant="facet"``
    (constant over the element).

    Parameters
    ----------
    coords : (3, 3) array_like
        Node positions, one row per node.
    normals : (3, 3) array_like
        Unit nodal normals, one row per node.

    Raises
    ------
    SingularJacobianError
        If the (interpolated) normal lies in the facet plane.
    """
    coords = np.asarray(coords, dtype=float)
    normals = np.asarray(normals, dtype=float)
    t_xi = coords[1] - coords[0]
    t_eta = coords[2] - coords[0]
    cross = np.cross(t_xi, t_eta)
    cn = np.linalg.norm(cross)
    if cn <= 1e-14 * np.linalg.norm(t_xi) * np.linalg.norm(t_eta):
        raise SingularJacobianError("degenerate facet (zero area)")
    if variant == "interpolated":
        values, _ = shape_values_and_ref_gradients(xi, eta)
        n0 = values @ normals
        nn = np.linalg.norm(n0)
        if nn <= 1e-12:
            raise SingularJacobianError("interpolated normal vanishes")
        nhat = n0 / nn
    elif variant == "facet":
        nhat = cross / cn
    else:
        raise ValueError(f"unknown geometry variant {variant!r}")
    det = nhat @ cross
    if abs(det) <= 1e-12 * cn:
        raise SingularJacobianError(
            f"normal lies in the facet plane (normal {nhat}, facet area {0.5 * cn:.3e})"
        )
    return np.vstack([t_xi, t_eta, nhat])


def basis_surface_gradients(jacobian, ref_gradients=None) -> np.ndarray:
    """Physical (surface) gradients of the three nodal basis functions.

    Solves ``J g_i = (dphi_i/dxi, dphi_i/deta, 0)``; because the third row of
    ``J`` is the unit normal, each gradient is exactly tangential and the
    three gradients sum to zero.

    Returns a (3, 3) array with ``g_i`` in row ``i``.
    """
    if ref_gradients is None:
        rhs = _GRAD_RHS
    else:
        rhs = np.zeros((3, 3))
        rhs[:2, :] = np.asarray(ref_gradients, dtype=float).T
    try:
        sol = np.linalg.solve(np.asarray(jacobian, dtype=float), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(f"singular Jacobian: {exc}") from exc
    return sol.T


def strain_displacement(gradients, normal) -> np.ndarray:
    """Per-dof tangential strain operators.

    For dof ``k = 3*i + a`` (node ``i``, displacement component ``a``) the
    returned ``(9, 3, 3)`` array holds the symmetrized tangential gradient
    ``(e_a (x) g_i + g_i (x) e_a) / 2`` produced by a unit nodal displacement.
    The gradients must be tangential to ``normal``.
    """
    g = np.asarray(gradients, dtype=float)
    n = np.asarray(normal, dtype=float)
    scale = np.abs(g).max()
    if scale > 0 and np.abs(g @ n).max() > 1e-10 * scale:
        raise ValueError("gradients are not tangential to the supplied normal")
    B = np.zeros((9, 3, 3))
    for i in range(3):
        for a in range(3):
            k = 3 * i + a
            B[k, a, :] += 0.5 * g[i]
            B[k, :, a] += 0.5 * g[i]
    return B


def element_stiffness(coords, normals, material, quad: QuadratureRule = QUADRATURE_RULE,
                      variant: str = "interpolated") -> np.ndarray:
    """9x9 membrane stiffness of one element (dof order: node-major x,y,z).

    Integrates ``t * [2 mu e:e - 4 mu (e n).(e n) + lam (div u)(div v)]`` over
    the facet with the given rule. The matrix is symmetric positive
    semidefinite with the three translations in its kernel.
    """
    coords = np.asarray(coords, dtype=float)
    normals = np.asarray(normals, dtype=float)
    mu = material.mu
    lam = material.lam0
    measure = np.linalg.norm(np.cross(coords[1] - coords[0], coords[2] - coords[0]))

    K = np.zeros((9, 9))
    for (xi, eta), w in zip(quad.points, quad.weights):
        J = element_jacobian(coords, normals, xi, eta, variant)
        g = basis_surface_gradients(J)
        n = J[2]
        B = strain_displacement(g, n)
        Bn = np.einsum("kab,b->ka", B, n)
        div = g.reshape(9)
        dS = w * measure
        K += dS * (
            2.0 * mu * np.einsum("kab,lab->kl", B, B)
            - 4.0 * mu * Bn @ Bn.T
            + lam * np.outer(div, div)
        )
    return material.t * K


def element_load(coords, normals, load_at, quad: QuadratureRule = QUADRATURE_RULE) -> np.ndarray:
    """Consistent nodal load 9-vector ``int f . phi_i`` over the facet.

    ``load_at`` maps points of shape ``(..., 3)`` to load vectors of the same
    shape (force per unit midsurface area); it is evaluated at the mapped
    quadrature points. No thickness factor is applied.
    """
    coords = np.asarray(coords, dtype=float)
    measure = np.linalg.norm(np.cross(coords[1] - coords[0], coords[2] - coords[0]))
    phi = quad.shape_values()
    points = phi @ coords
    f = np.asarray(load_at(points), dtype=float).reshape(len(quad), 3)
    return np.einsum("q,qi,qa->ia", quad.weights * measure, phi, f).reshape(9)


def geometry_of(mesh, quad: QuadratureRule = QUADRATURE_RULE,
                variant: str = "interpolated") -> QuadraturePointData:
    """The mesh's quadrature geometry, by default for the three-point rule.

    A convenience for the tests, not an oracle: it calls the kernel under
    test, :func:`memshell.element.quadrature_geometry`, on every element.
    """
    tris = mesh.triangles
    return quadrature_geometry(mesh.vertices[tris], mesh.nodal_normals[tris], quad, variant)


def per_point_geometry(geo: QuadraturePointData) -> QuadraturePointData:
    """``geo`` with its gradients and normals copied to every point of the rule:
    a facet geometry's one point, written out per point as an interpolated one is."""
    m, nq = geo.measures.shape
    return QuadraturePointData(np.broadcast_to(geo.gradients, (m, nq, 3, 3)).copy(),
                               np.broadcast_to(geo.normals, (m, nq, 3)).copy(),
                               geo.measures, geo.points, geo.shape_values)


def dense_assembly(mesh, material, load_at, quad, variant="interpolated"):
    """Brute-force dense assembly by Python scatter loops over elements."""
    ndof = 3 * mesh.n_vertices
    K = np.zeros((ndof, ndof))
    rhs = np.zeros(ndof)
    for tri in mesh.triangles:
        coords = mesh.vertices[tri]
        normals = mesh.nodal_normals[tri]
        ke = element_stiffness(coords, normals, material, quad, variant)
        fe = (element_load(coords, normals, load_at, quad)
              if load_at is not None else np.zeros(9))
        dofs = [3 * int(n) + c for n in tri for c in range(3)]
        for a, da in enumerate(dofs):
            rhs[da] += fe[a]
            for b, db in enumerate(dofs):
                K[da, db] += ke[a, b]
    return K, rhs


def tangential_strain(nodal_u: np.ndarray, gradients: np.ndarray) -> np.ndarray:
    """Symmetrized tangential displacement gradient from nodal data."""
    grad = np.zeros((3, 3))
    for i in range(3):
        grad += np.outer(nodal_u[i], gradients[i])
    return 0.5 * (grad + grad.T)


def double_projection(eps: np.ndarray, n: np.ndarray) -> np.ndarray:
    """In-plane strain by explicit double projection P eps P."""
    P = np.eye(3) - np.outer(n, n)
    return P @ eps @ P


#: Six-point symmetric triangle rule, exact for degree-4 polynomials
#: (weights scaled to the reference-triangle area 1/2).
_D4A = 0.445948490915965
_D4B = 0.091576213509771
_D4WA = 0.223381589678011 / 2.0
_D4WB = 0.109951743655322 / 2.0
DEGREE4_RULE = QuadratureRule(
    points=np.array([
        [_D4A, _D4A], [1.0 - 2.0 * _D4A, _D4A], [_D4A, 1.0 - 2.0 * _D4A],
        [_D4B, _D4B], [1.0 - 2.0 * _D4B, _D4B], [_D4B, 1.0 - 2.0 * _D4B],
    ]),
    weights=np.array([_D4WA, _D4WA, _D4WA, _D4WB, _D4WB, _D4WB]),
)


def random_valid_element(rng, curved=True):
    """Random non-degenerate element with unit nodal normals.

    Normals are the facet normal plus a bounded perturbation, so the
    interpolated normal never falls into the facet plane.
    """
    while True:
        coords = rng.uniform(-1.0, 1.0, size=(3, 3))
        cross = np.cross(coords[1] - coords[0], coords[2] - coords[0])
        cn = np.linalg.norm(cross)
        if cn > 0.3:
            break
    nf = cross / cn
    normals = np.empty((3, 3))
    for i in range(3):
        n = nf + (0.3 * rng.uniform(-1.0, 1.0, size=3) if curved else 0.0)
        normals[i] = n / np.linalg.norm(n)
    return coords, normals


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random proper rotation matrix."""
    A = rng.standard_normal((3, 3))
    Q, R = np.linalg.qr(A)
    Q *= np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def flat_grid_mesh(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0,
                   origin=(0.0, 0.0, 0.0), e1=(1.0, 0.0, 0.0), e2=(0.0, 1.0, 0.0)):
    """Structured planar grid mesh spanned by orthonormal e1, e2 (uniform normals)."""
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    nrm = np.cross(e1, e2)
    verts = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            verts.append(np.asarray(origin) + (lx * i / nx) * e1 + (ly * j / ny) * e2)
    tris = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + nx + 2
            d = a + nx + 1
            tris.append((a, b, c))
            tris.append((a, c, d))
    normals = np.tile(nrm, (len(verts), 1))
    return SurfaceMesh(np.asarray(verts), np.asarray(tris), nodal_normals=normals)


def jittered_cylinder_mesh(r: float, L: float, n: int, a: float, seed: int):
    """The structured n x n cylinder mesh with its vertices moved along the surface.

    Each vertex's (x, angle) moves by a seeded uniform +-a of the mesh
    spacing (L/n, 2 pi/n), except that the end rings keep their x. The
    vertices stay on the exact surface, the nodal normals are the exact
    ones and the connectivity is unchanged, so for a < 1/2 the orientation
    is too.
    """
    base = build_cylinder_mesh(r, L, n, n)
    x = base.vertices[:, 0]
    angle = np.arctan2(base.vertices[:, 2], base.vertices[:, 1])
    shift = np.random.default_rng(seed).uniform(-a, a, size=(len(x), 2)) * [L / n, 2 * np.pi / n]
    x = np.where((x == 0.0) | (x == L), x, x + shift[:, 0])
    angle += shift[:, 1]
    normals = np.column_stack([np.zeros_like(x), np.cos(angle), np.sin(angle)])
    return SurfaceMesh(np.column_stack([x, r * normals[:, 1:]]), base.triangles,
                       nodal_normals=normals)


def jittered_torus_mesh(R: float, r: float, n: int, a: float, seed: int):
    """The structured 2n x n torus mesh with its vertices moved along the surface.

    Vertex ``i n + j`` of ``build_torus_mesh(R, r, 2n, n)`` sits at phi =
    2 pi i / (2n) and theta = 2 pi j / n; each vertex's (phi, theta) moves
    by a seeded uniform +-a of that spacing. The vertices stay on the exact
    surface, the nodal normals are the exact ones and the connectivity is
    unchanged, so for a < 1/2 the orientation is too.
    """
    base = build_torus_mesh(R, r, 2 * n, n)
    i, j = np.divmod(np.arange(base.n_vertices), n)
    shift = np.random.default_rng(seed).uniform(-a, a, size=(len(i), 2))
    shift *= [np.pi / n, 2 * np.pi / n]
    phi = np.pi * i / n + shift[:, 0]
    theta = 2 * np.pi * j / n + shift[:, 1]
    rho = R + r * np.sin(theta)
    vertices = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), r * np.cos(theta)])
    normals = np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                               np.cos(theta)])
    return SurfaceMesh(vertices, base.triangles, nodal_normals=normals)


def read_legacy_vtk(path):
    """Minimal reader for the legacy BINARY VTK files written by the package.

    Each section is an ASCII line, then the number of values its header
    line gives, as big-endian float64 (``double``) or int32 (``CELLS`` and
    ``CELL_TYPES``), decoded one value at a time with ``struct.unpack``, then a
    newline. The sections are ``POINTS``, ``CELLS``, ``CELL_TYPES``,
    ``POINT_DATA`` / ``VECTORS``, and ``CELL_DATA`` / ``FIELD`` with its arrays.
    Returns a dict with points, cells, cell types, point vector data, and cell
    field arrays. Only the constructs used by the writer are supported.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    out = {"points": None, "cells": None, "cell_types": None,
           "point_vectors": {}, "cell_fields": {}}
    k = 0

    def line():
        nonlocal k
        end = data.index(b"\n", k)
        words = data[k:end].decode("ascii").split()
        k = end + 1
        return words

    def values(count, fmt):
        nonlocal k
        size = struct.calcsize(fmt)
        vals = [struct.unpack(fmt, data[k + i * size:k + (i + 1) * size])[0]
                for i in range(count)]
        k += count * size
        assert data[k:k + 1] == b"\n", "binary block must end with a newline"
        k += 1
        return vals

    assert line() == ["#", "vtk", "DataFile", "Version", "3.0"]
    line()  # title
    assert line() == ["BINARY"]
    assert line() == ["DATASET", "UNSTRUCTURED_GRID"]
    n = None
    while k < len(data):
        words = line()
        if words[0] == "POINTS":
            n = int(words[1])
            assert words[2] == "double"
            out["points"] = np.array(values(3 * n, ">d")).reshape(n, 3)
        elif words[0] == "CELLS":
            m, total = int(words[1]), int(words[2])
            vals = values(total, ">i")
            cells = []
            i = 0
            while i < len(vals):
                cnt = vals[i]
                cells.append(vals[i + 1:i + 1 + cnt])
                i += cnt + 1
            assert len(cells) == m
            out["cells"] = np.array(cells)
        elif words[0] == "CELL_TYPES":
            out["cell_types"] = np.array(values(int(words[1]), ">i"))
        elif words[0] == "VECTORS":
            assert words[2] == "double"
            out["point_vectors"][words[1]] = np.array(values(3 * n, ">d")).reshape(n, 3)
        elif words[0] == "FIELD":
            for _ in range(int(words[2])):
                name, ncomp, ntup, kind = line()
                assert kind == "double"
                ncomp, ntup = int(ncomp), int(ntup)
                out["cell_fields"][name] = np.array(values(ncomp * ntup, ">d")).reshape(ntup, ncomp)
        else:
            assert words[0] in ("POINT_DATA", "CELL_DATA"), words
    return out


def von_mises_reference(tensors):
    """Von Mises equivalent stress of symmetric 3x3 tensors, in components."""
    out = []
    for s in tensors:
        normal = (s[0, 0] - s[1, 1]) ** 2 + (s[1, 1] - s[2, 2]) ** 2 + (s[2, 2] - s[0, 0]) ** 2
        shear = s[0, 1] ** 2 + s[1, 2] ** 2 + s[0, 2] ** 2
        out.append(np.sqrt(0.5 * normal + 3.0 * shear))
    return np.array(out)


def write_legacy_vtk_reference(mesh, displacement, stress, weights, path):
    """Legacy BINARY VTK writer that packs one number per ``struct.pack`` call.

    The bytes ``memshell.postprocess.export_vtk`` must reproduce exactly:
    ASCII header and section lines, each section's numbers as big-endian
    float64 (``">d"``) or int32 (``">i"``, the cells and cell types), one
    newline after each section's numbers. ``stress`` (m, nq, 3, 3) is averaged
    per element under ``weights`` (m, nq).
    """
    def doubles(rows):
        return b"".join(struct.pack(">d", float(x)) for row in rows for x in row) + b"\n"

    def ints(rows):
        return b"".join(struct.pack(">i", int(x)) for row in rows for x in row) + b"\n"

    u = np.asarray(displacement, dtype=float).reshape(mesh.n_vertices, 3)
    n, m = mesh.n_vertices, mesh.n_triangles
    # the weighted averages and von Mises by export_vtk's arithmetic, as the
    # bytes agree only if the numbers agree to the last bit;
    # test_export_vtk_roundtrip checks both against per-element references
    avg = np.einsum("mq,mqab->mab", weights, np.ascontiguousarray(stress))
    avg /= weights.sum(axis=1)[:, None, None]
    comps = [avg[:, 0, 0], avg[:, 1, 1], avg[:, 2, 2],
             avg[:, 0, 1], avg[:, 1, 2], avg[:, 0, 2]]
    dev = avg - (np.trace(avg, axis1=1, axis2=2) / 3.0)[:, None, None] * np.eye(3)
    mises = np.sqrt(1.5 * np.einsum("mab,mab->m", dev, dev))
    parts = [b"# vtk DataFile Version 3.0\nmembrane shell solution\nBINARY\n",
             b"DATASET UNSTRUCTURED_GRID\n",
             f"POINTS {n} double\n".encode(), doubles(mesh.vertices),
             f"CELLS {m} {4 * m}\n".encode(), ints([3, *t] for t in mesh.triangles),
             f"CELL_TYPES {m}\n".encode(), ints([5] for _ in range(m)),
             f"POINT_DATA {n}\nVECTORS displacement double\n".encode(), doubles(u),
             f"CELL_DATA {m}\nFIELD stress_data 2\nstress 6 {m} double\n".encode(),
             doubles([c[e] for c in comps] for e in range(m)),
             f"von_mises 1 {m} double\n".encode(), doubles([v] for v in mises)]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def apply_constraints_reference(system, nodes, directions):
    """Nodal projection, dense and node by node: ``P K P + q q^T`` and ``P b``.

    Validates the data in a loop per check, in the order shape, node range,
    unit length, repeated node. ``P`` starts as the dense identity; a loop
    over the constrained nodes subtracts ``q q^T`` from each one's diagonal
    block of ``P`` and puts ``q q^T`` into the same block of a second matrix,
    which is added to ``P K P``.
    """
    shape = np.shape(nodes)
    directions = np.asarray(directions, dtype=float)
    if len(shape) != 1 or directions.shape != (shape[0], 3):
        raise ConstraintError(f"constraints need nodes (k,) and directions (k, 3), "
                              f"got {shape} and {directions.shape}")
    nodes = [int(n) for n in nodes]
    if not nodes:
        return system
    ndof = system.ndof
    n_nodes = ndof // 3
    for node in nodes:
        if not 0 <= node < n_nodes:
            raise ConstraintError(f"constraint node {node} out of range")
    for node, d in zip(nodes, directions):
        norm = np.linalg.norm(d)
        if not abs(norm - 1.0) <= 1e-12:
            raise ConstraintError(f"constraint direction at node {node} must be unit length, "
                                  f"|q|={norm}")
    seen = set()
    for node in nodes:
        if node in seen:
            raise ConstraintError(f"node {node} is constrained more than once")
        seen.add(node)

    P = np.eye(ndof)
    fixed = np.zeros((ndof, ndof))
    units = []
    for node, d in zip(nodes, directions):
        q = d / np.linalg.norm(d)
        block = slice(3 * node, 3 * node + 3)
        P[block, block] -= np.outer(q, q)
        fixed[block, block] = np.outer(q, q)
        units.append(q)
    matrix = P @ system.matrix.toarray() @ P + fixed
    return LinearSystem(sp.csr_matrix(matrix), P @ system.rhs,
                        constraints=(np.array(nodes), np.array(units)),
                        coordinates=system.coordinates)


def apply_constraints_scipy_reference(system, nodes, directions):
    """Nodal projection ``K - (K Q + Q K - Q K Q - Q)``, ``b - Q b`` by scipy's sparse operators.

    ``apply_constraints`` calls the compiled kernels behind these operators
    on plain arrays and must reproduce them bit for bit. The data are taken
    as valid: distinct nodes (k,) and unit directions (k, 3).
    """
    nodes = np.asarray(nodes)
    directions = np.asarray(directions, dtype=float)
    order = np.argsort(nodes, kind="stable")
    q = directions / np.linalg.norm(directions, axis=1)[:, None]
    K = system.matrix
    dof = 3 * nodes[order, None] + np.arange(3)  # the constrained rows, ascending
    Q = sp.csr_matrix(((q[order, :, None] * q[order, None, :]).ravel(),
                       np.repeat(dof, 3, axis=0).ravel(),
                       3 * np.searchsorted(dof.ravel(), np.arange(K.shape[0] + 1))), shape=K.shape)
    KQ = K @ Q
    change = KQ + Q @ K - Q @ KQ - Q
    change.sort_indices()
    return LinearSystem(K - change, system.rhs - Q @ system.rhs, constraints=(nodes, q),
                        coordinates=system.coordinates)


def admissible_basis(ndof: int, nodes, directions) -> np.ndarray:
    """Orthonormal basis (ndof, ndof - k) of the node-major ``u`` with ``q . u(node) = 0``.

    A free node contributes its three coordinate axes, a constrained node the
    two eigenvectors of ``I - q q^T`` with eigenvalue 1, each as a column
    built in a loop over the nodes.
    """
    constrained = {int(node): np.asarray(q, dtype=float) for node, q in zip(nodes, directions)}
    columns = []
    for node in range(ndof // 3):
        axes = np.eye(3)
        if node in constrained:
            q = constrained[node]
            w, vec = np.linalg.eigh(np.eye(3) - np.outer(q, q))
            axes = vec[:, w > 0.5].T
        for axis in axes:
            column = np.zeros(ndof)
            column[3 * node:3 * node + 3] = axis
            columns.append(column)
    return np.stack(columns, axis=1)


def extract_boundary_loops_reference(triangles, n_vertices):
    """Boundary loops by ``np.unique`` / ``np.isin`` and a successor dict.

    Raises ``MeshError`` for a non-manifold edge, then for an inconsistent
    orientation, then for boundary loops touching in a vertex.
    """
    n = int(n_vertices)
    ea = triangles[:, [0, 1, 2]].ravel()
    eb = triangles[:, [1, 2, 0]].ravel()
    lo = np.minimum(ea, eb).astype(np.int64)
    hi = np.maximum(ea, eb).astype(np.int64)
    _, counts = np.unique(lo * n + hi, return_counts=True)
    if counts.size and counts.max() > 2:
        raise MeshError("non-manifold edge: more than two incident triangles")
    key = ea.astype(np.int64) * n + eb
    skey = np.sort(key)
    if skey.size > 1 and np.any(np.diff(skey) == 0):
        raise MeshError("inconsistent orientation: a directed edge is used by two triangles")

    has_reverse = np.isin(eb.astype(np.int64) * n + ea, skey)
    ba = ea[~has_reverse]
    bb = eb[~has_reverse]
    successor = {}
    for a, b in zip(ba.tolist(), bb.tolist()):
        if a in successor:
            raise MeshError(f"boundary loops touch at vertex {a}")
        successor[a] = b

    loops = []
    visited = set()
    for start in sorted(successor):
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        cur = successor[start]
        while cur != start:
            if cur in visited:
                raise MeshError(f"boundary loops touch at vertex {cur}")
            loop.append(cur)
            visited.add(cur)
            cur = successor[cur]
        loops.append(np.asarray(loop, dtype=np.int64))
    return loops


def traced_peak(call, *args, **kwargs):
    """``(result, peak)``: what ``call(*args, **kwargs)`` returns and the peak
    bytes that ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def csr_bytes(matrix) -> int:
    """Bytes of a CSR matrix's data, indices and row pointer."""
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
