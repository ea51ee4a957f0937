"""Independent oracles used by the test suite.

Everything here is implemented from standard textbook formulas, deliberately
avoiding the code paths under test: the classical 2D constant-strain-triangle
stiffness via the B-matrix, dense assembly by explicit Python scatter loops,
double-projection strain algebra via plain matrix products, a higher-order
triangle quadrature rule, and a minimal legacy-VTK reader and per-number
writer.
"""

import numpy as np

from memshell.element import QuadratureRule, element_load, element_stiffness


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
    from memshell.mesh import SurfaceMesh

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


def read_legacy_vtk(path):
    """Minimal reader for the legacy ASCII VTK files written by the package.

    Returns a dict with points, cells, point vector data, and cell field
    arrays. Only the constructs used by the writer are supported.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    out = {"points": None, "cells": None, "point_vectors": {}, "cell_fields": {}}
    k = 0

    def take(n):
        nonlocal k
        vals = tokens[k:k + n]
        k += n
        return vals

    while k < len(tokens):
        tok = tokens[k]
        if tok == "POINTS":
            n = int(tokens[k + 1])
            k += 3
            vals = [float(v) for v in take(3 * n)]
            out["points"] = np.array(vals).reshape(n, 3)
        elif tok == "CELLS":
            m = int(tokens[k + 1])
            total = int(tokens[k + 2])
            k += 3
            vals = [int(v) for v in take(total)]
            cells = []
            i = 0
            while i < len(vals):
                cnt = vals[i]
                cells.append(vals[i + 1:i + 1 + cnt])
                i += cnt + 1
            assert len(cells) == m
            out["cells"] = np.array(cells)
        elif tok == "CELL_TYPES":
            m = int(tokens[k + 1])
            k += 2
            take(m)
        elif tok == "VECTORS":
            name = tokens[k + 1]
            k += 3
            n = out["points"].shape[0]
            vals = [float(v) for v in take(3 * n)]
            out["point_vectors"][name] = np.array(vals).reshape(n, 3)
        elif tok == "FIELD":
            narr = int(tokens[k + 2])
            k += 3
            for _ in range(narr):
                name = tokens[k]
                ncomp = int(tokens[k + 1])
                ntup = int(tokens[k + 2])
                k += 4
                vals = [float(v) for v in take(ncomp * ntup)]
                out["cell_fields"][name] = np.array(vals).reshape(ntup, ncomp)
        else:
            k += 1
    return out


def write_legacy_vtk_reference(mesh, displacement, field, path,
                               title="membrane shell solution"):
    """Legacy ASCII VTK writer that formats one number per Python call.

    The text ``memshell.postprocess.export_vtk`` must reproduce byte for byte:
    every float as ``format(x, ".12e")``, one row per line.
    """
    def fmt(x):
        return format(float(x), ".12e")

    u = np.asarray(displacement, dtype=float).reshape(mesh.n_vertices, 3)
    n, m = mesh.n_vertices, mesh.n_triangles
    avg = field.cell_averages()
    comps = [avg[:, 0, 0], avg[:, 1, 1], avg[:, 2, 2],
             avg[:, 0, 1], avg[:, 1, 2], avg[:, 0, 2]]
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
    lines += [" ".join(fmt(c) for c in row) for row in mesh.vertices]
    lines.append(f"CELLS {m} {4 * m}")
    lines += [f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles]
    lines.append(f"CELL_TYPES {m}")
    lines += ["5"] * m
    lines += [f"POINT_DATA {n}", "VECTORS displacement double"]
    lines += [" ".join(fmt(c) for c in row) for row in u]
    lines += [f"CELL_DATA {m}", "FIELD stress_data 2", f"stress 6 {m} double"]
    lines += [" ".join(fmt(c[e]) for c in comps) for e in range(m)]
    lines.append(f"von_mises 1 {m} double")
    lines += [fmt(v) for v in field.von_mises_cells()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
