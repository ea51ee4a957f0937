"""Triangulated surfaces: validated containers, generators, topology, OFF import.

A :class:`SurfaceMesh` couples an oriented triangle mesh with a unit normal
field in the nodes. Construction validates manifoldness, consistent
orientation, and non-degeneracy; the resulting object is immutable and safe to
share between threads. Structured generators produce the cylinder and torus
benchmark surfaces with exact nodal normals and deterministic connectivity.
"""

import dataclasses
from pathlib import Path

import numpy as np

__all__ = [
    "MeshError",
    "BoundaryComponent",
    "SurfaceMesh",
    "build_cylinder_mesh",
    "build_torus_mesh",
    "import_mesh",
    "mesh_size",
]


class MeshError(ValueError):
    """Invalid, degenerate, non-manifold, or inconsistently oriented mesh data."""


@dataclasses.dataclass(frozen=True)
class BoundaryComponent:
    """One closed boundary loop.

    Attributes
    ----------
    vertices : (k,) int array
        Vertex indices in traversal order along the boundary; the loop is
        closed, the first vertex is not repeated at the end.
    label : str
        Identifier of the component (generators assign geometric labels such
        as ``"x=0"``; extraction defaults to ``"boundary_<k>"``).
    """

    vertices: np.ndarray
    label: str

    def __len__(self) -> int:
        return int(self.vertices.size)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _indices(values, error: type[Exception], name: str) -> np.ndarray:
    """``values`` as int64; ``error`` names the first entry that is not an integer."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and inf are non-integral, caught below
        indices = values.astype(np.int64)
    if (bad := indices != values).any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise error(f"{name} entry {list(map(int, at))} is not an integer: {values[at]}")
    return indices


def _extract_boundary_loops(triangles: np.ndarray, n_vertices: int) -> tuple[list, np.ndarray]:
    """Validate edge topology; return the boundary loops in deterministic order and
    the sorted unique undirected edge keys ``a * n_vertices + b`` (a < b).

    Raises
    ------
    MeshError
        If a directed edge is used twice (inconsistent orientation), an edge
        has more than two incident triangles (non-manifold), or boundary
        curves touch in a vertex.
    """
    n = int(n_vertices)
    ea = triangles.ravel()
    eb = triangles[:, [1, 2, 0]].ravel()
    # one sort of the undirected edge keys puts all uses of an edge side by side
    key = np.minimum(ea, eb) * n + np.maximum(ea, eb)
    order = np.argsort(key)
    key = key[order]
    same = key[1:] == key[:-1]  # the i-th and (i+1)-th sorted uses share their edge
    if (same[1:] & same[:-1]).any():
        raise MeshError("non-manifold edge: more than two incident triangles")
    start = ea[order]
    if (same & (start[1:] == start[:-1])).any():
        raise MeshError("inconsistent orientation: a directed edge is used by two triangles")
    paired = np.append(same, False)
    paired[1:] |= same
    boundary = np.sort(order[~paired])  # the edges used once, in triangle order
    ba = ea[boundary]
    bb = eb[boundary]
    order = np.argsort(ba, kind="stable")
    second = order[1:][ba[order[1:]] == ba[order[:-1]]]
    if second.size:
        raise MeshError(f"boundary loops touch at vertex {ba[second.min()]}")
    successor = dict(zip(ba.tolist(), bb.tolist()))

    loops: list[np.ndarray] = []
    visited: set[int] = set()
    for start in sorted(successor):
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        cur = successor[start]
        # each vertex has one outgoing boundary edge (checked above) and as many
        # incoming, so the successors are a permutation and every walk closes
        while cur != start:
            loop.append(cur)
            visited.add(cur)
            cur = successor[cur]
        loops.append(np.asarray(loop, dtype=np.int64))
    # the first use of each edge; compress takes a third of a boolean index's time
    return loops, key.compress(np.append(True, ~same))


def _averaged_normals(vertices: np.ndarray, triangles: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Area-weighted average of incident facet normals, renormalized."""
    acc = np.bincount((3 * triangles.T[:, :, None] + np.arange(3)).ravel(),
                      np.broadcast_to(cross, (3,) + cross.shape).ravel(),
                      minlength=vertices.size).reshape(vertices.shape)
    norms = np.linalg.norm(acc, axis=1)
    scale = np.linalg.norm(cross, axis=1).max()
    if np.any(norms <= 1e-12 * scale):
        bad = np.nonzero(norms <= 1e-12 * scale)[0]
        raise MeshError(f"averaged normal vanishes at vertex {bad[0]} (folded surface)")
    return acc / norms[:, None]


class SurfaceMesh:
    """Immutable, consistently oriented triangle mesh with unit nodal normals.

    Parameters
    ----------
    vertices : (n, 3) array_like
        Vertex coordinates.
    triangles : (m, 3) array_like
        Vertex index triples. All triangles must be oriented consistently
        (counter-clockwise seen from the outward-normal side); every interior
        edge is then shared by exactly two triangles running it in opposite
        directions, boundary edges by exactly one.
    nodal_normals : (n, 3) array_like, optional
        Unit normals in the nodes. When omitted, area-weighted averages of
        the incident facet normals are used.
    boundary_labels : sequence of str, optional
        Labels for the boundary components in extraction order.

    Raises
    ------
    MeshError
        On non-finite coordinates, index errors, degenerate triangles,
        unreferenced vertices, non-manifold or inconsistently oriented
        connectivity, or non-unit normals.
    """

    def __init__(self, vertices, triangles, nodal_normals=None, boundary_labels=None):
        v = np.array(vertices, dtype=float)
        t = _indices(triangles, MeshError, "triangles")
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError(f"vertices must have shape (n, 3), got {v.shape}")
        if not np.isfinite(v).all():
            k = int(np.argmin(np.isfinite(v).all(axis=1)))
            raise MeshError(f"vertex {k} has a non-finite coordinate {v[k].tolist()}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError(f"triangles must have shape (m, 3), got {t.shape}")
        if t.size == 0:
            raise MeshError("mesh has no triangles")
        if t.min() < 0 or t.max() >= len(v):
            k = int(np.argmax(((t < 0) | (t >= len(v))).any(axis=1)))
            raise MeshError(f"triangle vertex index out of range: triangle {k} is "
                            f"{t[k].tolist()}, the mesh has {len(v)} vertices")
        referenced = np.zeros(len(v), dtype=bool)
        referenced[t.ravel()] = True
        if not referenced.all():
            raise MeshError(f"unreferenced vertex {int(np.nonzero(~referenced)[0][0])}")

        # edge k of a facet runs from its corner k to corner k+1 (mod 3); the
        # cross product of edges 2 and 0 is the unnormalized facet normal
        corners = v[t]
        edges = corners.take([1, 2, 0], axis=1) - corners
        cross = np.cross(edges[:, 2], edges[:, 0])
        twice_area = np.linalg.norm(cross, axis=1)
        lengths = np.linalg.norm(edges, axis=2)
        del corners, edges  # not held through the topology checks below
        degenerate = twice_area <= 1e-13 * lengths[:, 0] * lengths[:, 2]
        if np.any(degenerate):
            raise MeshError(f"degenerate triangle {int(np.nonzero(degenerate)[0][0])}")

        loops, edge_keys = _extract_boundary_loops(t, len(v))
        if boundary_labels is None:
            boundary_labels = [f"boundary_{k}" for k in range(len(loops))]
        if len(boundary_labels) != len(loops):
            raise MeshError(
                f"{len(boundary_labels)} boundary labels for {len(loops)} components"
            )

        if nodal_normals is None:
            nn = _averaged_normals(v, t, cross)
        else:
            nn = np.array(nodal_normals, dtype=float)
            if nn.shape != v.shape:
                raise MeshError(f"nodal_normals must have shape {v.shape}, got {nn.shape}")
            if not np.all(np.abs(np.linalg.norm(nn, axis=1) - 1.0) <= 1e-12):  # NaN included
                raise MeshError("nodal normals must have unit length (tolerance 1e-12)")

        self._vertices = _readonly(v)
        self._triangles = _readonly(t)
        self._normals = _readonly(nn)
        self._area = float((0.5 * twice_area).sum())
        self._longest_edge = float(lengths.max())
        self._edge_keys = _readonly(edge_keys)
        self._boundary = tuple(
            BoundaryComponent(_readonly(loop), label)
            for loop, label in zip(loops, boundary_labels)
        )

    @property
    def vertices(self) -> np.ndarray:
        """(n, 3) vertex coordinates."""
        return self._vertices

    @property
    def triangles(self) -> np.ndarray:
        """(m, 3) vertex index triples."""
        return self._triangles

    @property
    def nodal_normals(self) -> np.ndarray:
        """(n, 3) unit normals in the nodes."""
        return self._normals

    @property
    def boundary_components(self) -> tuple[BoundaryComponent, ...]:
        return self._boundary

    @property
    def n_vertices(self) -> int:
        return self._vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self._triangles.shape[0]

    @property
    def edge_keys(self) -> np.ndarray:
        """(ne,) sorted int64 keys ``a * n + b`` of the unique undirected edges, a < b."""
        return self._edge_keys

    def edges(self) -> np.ndarray:
        """Unique undirected edges (a, b), a < b, as a (ne, 2) int64 array sorted by row; the
        stiffness's 3x3 block pattern is the diagonal plus both directions of each edge."""
        return np.stack(np.divmod(self._edge_keys, self.n_vertices), axis=1)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self._edge_keys.size + self.n_triangles

    def area(self) -> float:
        """Total facet area."""
        return self._area


def build_cylinder_mesh(r: float, L: float, n_circ: int, n_axial: int) -> SurfaceMesh:
    """Structured triangulation of an open cylinder of radius ``r``, length ``L``.

    The axis is the x-axis with end rings at x=0 and x=L. Each parametric quad
    is split along the fixed diagonal from its (x, angle) corner to the
    (x+dx, angle+da) corner, so refinement sequences are deterministic. Nodal
    normals are the exact radial directions.

    Parameters
    ----------
    r, L : float
        Radius and length, both positive.
    n_circ : int
        Segments around the circumference, at least 3.
    n_axial : int
        Segments along the axis, at least 1.

    Returns
    -------
    SurfaceMesh
        ``n_circ * (n_axial + 1)`` vertices, ``2 * n_circ * n_axial``
        triangles, two boundary components labelled ``"x=0"`` and ``"x=L"``.
    """
    if n_circ < 3:
        raise MeshError(f"n_circ must be >= 3, got {n_circ}")
    if n_axial < 1:
        raise MeshError(f"n_axial must be >= 1, got {n_axial}")
    if r <= 0 or L <= 0:
        raise MeshError(f"cylinder dimensions must be positive, got r={r}, L={L}")

    alpha = 2.0 * np.pi * np.arange(n_circ) / n_circ
    xs = np.linspace(0.0, L, n_axial + 1)
    ca, sa = np.cos(alpha), np.sin(alpha)

    rings = n_axial + 1
    verts = np.column_stack([np.repeat(xs, n_circ), np.tile(r * ca, rings), np.tile(r * sa, rings)])
    normals = np.column_stack([np.zeros(len(verts)), np.tile(ca, rings), np.tile(sa, rings)])

    i = np.arange(n_axial)[:, None] * n_circ
    j = np.arange(n_circ)
    j1 = np.roll(j, -1)
    a, b, c, d = i + j, i + n_circ + j, i + n_circ + j1, i + j1
    tris = np.stack([a, c, b, a, d, c], axis=-1).reshape(-1, 3)

    return SurfaceMesh(verts, tris, nodal_normals=normals,
                       boundary_labels=["x=0", "x=L"])


def build_torus_mesh(R: float, r: float, n_tor: int, n_pol: int) -> SurfaceMesh:
    """Structured triangulation of a torus with major radius ``R``, minor ``r``.

    Convention: the symmetry axis is the z-axis; ``phi`` is the toroidal angle
    around it and ``theta`` the poloidal angle around the tube, measured so
    that the distance from the axis is ``R + r*sin(theta)``. Hence
    ``sin(theta) = +1`` on the outer equator, ``-1`` on the inner equator, and
    ``theta = 0`` at the top of the tube (z = +r):

        x = (R + r sin(theta)) cos(phi)
        y = (R + r sin(theta)) sin(phi)
        z = r cos(theta)

    Nodal normals are the exact outward normals
    ``(sin(theta) cos(phi), sin(theta) sin(phi), cos(theta))``.

    Parameters
    ----------
    R, r : float
        Major and minor radius with ``R > r > 0``.
    n_tor, n_pol : int
        Toroidal and poloidal segment counts, both at least 3.

    Returns
    -------
    SurfaceMesh
        ``n_tor * n_pol`` vertices, ``2 * n_tor * n_pol`` triangles, closed
        (no boundary components).
    """
    if r <= 0:
        raise MeshError(f"minor radius must be positive, got r={r}")
    if R <= r:
        raise MeshError(f"torus requires R > r, got R={R}, r={r}")
    if n_tor < 3 or n_pol < 3:
        raise MeshError(f"n_tor and n_pol must be >= 3, got {n_tor}, {n_pol}")

    phi = 2.0 * np.pi * np.arange(n_tor) / n_tor
    theta = 2.0 * np.pi * np.arange(n_pol) / n_pol
    cp, sp = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)

    rho = R + r * st
    verts = np.column_stack([np.outer(cp, rho).ravel(), np.outer(sp, rho).ravel(),
                             np.tile(r * ct, n_tor)])
    normals = np.column_stack([np.outer(cp, st).ravel(), np.outer(sp, st).ravel(),
                               np.tile(ct, n_tor)])

    i = np.arange(n_tor)[:, None] * n_pol
    i1 = np.roll(i, -1)
    j = np.arange(n_pol)
    j1 = np.roll(j, -1)
    a, b, c, d = i + j, i1 + j, i1 + j1, i + j1
    tris = np.stack([a, d, c, a, c, b], axis=-1).reshape(-1, 3)

    return SurfaceMesh(verts, tris, nodal_normals=normals)


def mesh_size(mesh: SurfaceMesh) -> float:
    """Maximum edge length of the mesh."""
    return mesh._longest_edge


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_off(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    rows = [r for r in (_strip_comment(s).split() for s in lines) if r]
    if not rows:
        raise MeshError("empty OFF file")
    header = rows.pop(0)
    if header[0].upper() != "OFF":
        raise MeshError("missing OFF header")
    counts = header[1:] if len(header) > 1 else (rows.pop(0) if rows else [])
    if len(counts) < 2:
        raise MeshError("missing OFF vertex/face counts")
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except ValueError as exc:
        raise MeshError(f"invalid OFF counts: {counts}") from exc
    if nv < 0 or nf < 0:
        raise MeshError(f"invalid OFF counts: {counts}")
    if len(rows) < nv + nf:
        raise MeshError(f"OFF file truncated: expected {nv} vertices and {nf} faces")
    verts = []
    for i, row in enumerate(rows[:nv]):
        try:
            x, y, z = (float(s) for s in row[:3])
        except ValueError as exc:
            raise MeshError(f"invalid OFF vertex {i}: {' '.join(row)}") from exc
        verts.append((x, y, z))
    faces = []
    for i, row in enumerate(rows[nv:nv + nf]):
        try:
            k, a, b, c = (int(s) for s in row[:4])
        except ValueError as exc:
            raise MeshError(f"invalid OFF face {i}: {' '.join(row)}") from exc
        if k != 3:
            raise MeshError(f"only triangular faces are supported, got a {k}-gon")
        faces.append((a, b, c))
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)


def import_mesh(path) -> SurfaceMesh:
    """Read an ASCII OFF triangle mesh.

    The file suffix must be ``.off``, in any case; any other is rejected
    before the file is read. Faces must be triangles and consistently
    oriented; nodal normals are set to the area-weighted facet-normal
    averages. Vertex coordinates must be plain numbers, as Python's
    ``float()`` reads them.
    """
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt != "off":
        raise MeshError(f"unsupported mesh format {fmt!r} (expected 'off')")
    try:
        text = path.read_text()
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    verts, faces = _parse_off(text.splitlines())
    return SurfaceMesh(verts, faces)
