"""Global sparse assembly and rotated-frame Dirichlet constraints.

The stiffness and load vector are assembled from the mesh's
:class:`~memshell.element.QuadraturePointData`, which fixes the quadrature
rule and the variant; nothing here reads either.

Degrees of freedom are node-major: dof ``3*node + component`` with components
0..2 the global x, y, z displacements. Dirichlet data are two arrays: the
constrained nodes (k,) and one unit direction per node (k, 3), each imposing
the homogeneous constraint ``q . u(node) = 0``. Each constrained node's 3-dof
block is rotated into an orthonormal frame whose first axis is ``q``, and that
rotated dof is eliminated (unit diagonal, zero row/column and right-hand
side). This keeps the system symmetric and needs no penalty parameter.
"""

import numpy as np
import scipy.sparse as sp

from .element import QuadraturePointData, batch_element_loads, batch_element_stiffness
from .mesh import SurfaceMesh

__all__ = [
    "ConstraintError",
    "LinearSystem",
    "assemble",
    "pressure_rhs",
    "cylinder_constraints",
    "apply_constraints",
]


class ConstraintError(ValueError):
    """Invalid or inconsistent Dirichlet constraint data."""


class LinearSystem:
    """Sparse symmetric system ``K u = b`` with node coordinates and constraint bookkeeping.

    ``coordinates`` (ndof/3, 3) are the node positions, from which the solver
    builds the rigid-body modes; a system without them has no kernel basis.
    After :func:`apply_constraints`, the matrix and right-hand side live in
    the rotated nodal frames: ``frame`` is the block-diagonal rotation and
    ``constrained`` masks the eliminated dofs, the first rotated dof of each
    constrained node. :meth:`recover` maps a solution back to global xyz
    components (the eliminated direction contributes zero, honoring the
    constraints exactly).
    """

    def __init__(self, matrix, rhs, frame=None, constrained=None, coordinates=None):
        self.matrix = sp.csr_matrix(matrix)
        self.rhs = np.asarray(rhs, dtype=float)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("system matrix must be square")
        if self.rhs.shape != (self.matrix.shape[0],):
            raise ValueError("right-hand side does not match the matrix dimension")
        self.frame = frame if frame is None else sp.csr_matrix(frame)
        self.constrained = None if constrained is None else np.asarray(constrained, dtype=bool)
        self.coordinates = None if coordinates is None else np.asarray(coordinates, dtype=float)
        if self.coordinates is not None and self.coordinates.shape != (self.ndof // 3, 3):
            raise ValueError(f"node coordinates have shape {self.coordinates.shape}, "
                             f"a system of {self.ndof} dofs needs ({self.ndof // 3}, 3)")

    @property
    def ndof(self) -> int:
        return self.matrix.shape[0]

    def recover(self, u: np.ndarray) -> np.ndarray:
        """Map a solution of this (possibly rotated) system to global dofs."""
        u = np.asarray(u, dtype=float)
        return u if self.frame is None else self.frame @ u


def _element_dofs(triangles: np.ndarray) -> np.ndarray:
    """(m, 9) global dof indices per element, node-major."""
    return (3 * triangles[:, :, None] + np.arange(3)[None, None, :]).reshape(-1, 9)


def assemble(mesh: SurfaceMesh, material, geo: QuadraturePointData, load_at=None) -> LinearSystem:
    """Assemble the global stiffness and consistent load vector.

    ``geo`` is the mesh's :func:`~memshell.element.quadrature_geometry`; it
    fixes the quadrature rule and the variant. ``load_at`` maps positions
    (k, 3) to load vectors (k, 3) (force per unit midsurface area); ``None``
    gives a zero right-hand side.
    """
    geo.require_elements(mesh.n_triangles)
    ke = batch_element_stiffness(geo, material)
    dofs = _element_dofs(mesh.triangles).astype(np.int32)  # scipy's index type below 2^31 dofs
    rows = np.repeat(dofs, 9, axis=1).ravel()
    cols = np.tile(dofs, (1, 9)).ravel()
    ndof = 3 * mesh.n_vertices
    matrix = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()

    rhs = np.zeros(ndof)
    if load_at is not None:
        fe = batch_element_loads(geo, load_at)
        np.add.at(rhs, dofs.ravel(), fe.ravel())
    return LinearSystem(matrix, rhs, coordinates=mesh.vertices)


def pressure_rhs(mesh: SurfaceMesh, p: float, geo: QuadraturePointData) -> np.ndarray:
    """Consistent load vector of the discrete pressure load ``p * n_h``.

    Uses the normal of ``geo``, the mesh's interpolated or facet normal at
    each quadrature point, for surfaces without a closed-form normal field.
    """
    geo.require_elements(mesh.n_triangles)
    fe = p * np.einsum("mq,qi,mqa->mia", geo.measures, geo.shape_values,
                       geo.normals).reshape(-1, 9)
    rhs = np.zeros(3 * mesh.n_vertices)
    np.add.at(rhs, _element_dofs(mesh.triangles).ravel(), fe.ravel())
    return rhs


def cylinder_constraints(mesh: SurfaceMesh) -> tuple[np.ndarray, np.ndarray]:
    """Benchmark constraints for the open cylinder: axial at x=0, radial at x=L.

    The mesh must have exactly two boundary components; the ring with the
    smaller mean x gets ``q = (1, 0, 0)``, the other the radial direction
    ``(0, y, z)/rho`` per node. Returns the nodes (k,) and directions (k, 3)
    for :func:`apply_constraints`.
    """
    comps = mesh.boundary_components
    if len(comps) != 2:
        raise ConstraintError(
            f"cylinder constraints require exactly 2 boundary components, found {len(comps)}"
        )
    mean_x = [float(mesh.vertices[c.vertices, 0].mean()) for c in comps]
    low = comps[int(np.argmin(mean_x))]
    high = comps[int(np.argmax(mean_x))]
    if low is high:
        raise ConstraintError("boundary rings coincide along the axis")

    radial = mesh.vertices[high.vertices] * [0.0, 1.0, 1.0]
    rho = np.linalg.norm(radial, axis=1)
    if np.any(rho <= 0):
        node = high.vertices[np.argmax(rho <= 0)]
        raise ConstraintError(f"node {node} lies on the axis, radial direction undefined")
    radial /= rho[:, None]
    axial = np.broadcast_to([1.0, 0.0, 0.0], (len(low.vertices), 3))
    return np.concatenate([low.vertices, high.vertices]), np.concatenate([axial, radial])


def _node_frames(q: np.ndarray) -> np.ndarray:
    """Orthonormal frames (k, 3, 3) completing one unit direction per node.

    Column 0 is ``q``. Column 1 is the coordinate axis ``e_a`` with the
    smallest ``|q_a|`` (ties to the smaller index), minus ``(q . e_a) q``,
    normalised. Column 2 is ``q x v`` for that column ``v``.
    """
    a = np.argmin(np.abs(q), axis=1)
    v = np.eye(3)[a] - q[np.arange(len(q)), a][:, None] * q
    v /= np.linalg.norm(v, axis=1)[:, None]
    return np.stack([q, v, np.cross(q, v)], axis=2)


def apply_constraints(system: LinearSystem, nodes, directions) -> LinearSystem:
    """Impose ``directions[i] . u(nodes[i]) = 0`` on an assembled system.

    ``nodes`` (k,) lists each constrained node once; ``directions`` (k, 3)
    holds its unit direction. Each constrained node's dof block is rotated
    into an orthonormal frame whose first axis is its direction; that rotated
    dof is eliminated (unit diagonal, zero row/column/rhs). The two other
    rotated directions remain natural (traction-free). Returns a new system
    carrying the rotation for :meth:`LinearSystem.recover`; with no
    constraints the input system is returned unchanged.

    Only the 3x3 blocks in rows or columns of constrained nodes change:
    ``K_ab`` becomes ``Q_a^T K_ab Q_b`` with ``Q = I`` at a free node.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    directions = np.asarray(directions, dtype=float)
    if nodes.ndim != 1 or directions.shape != (nodes.size, 3):
        raise ConstraintError(f"constraints need nodes (k,) and directions (k, 3), "
                              f"got {nodes.shape} and {directions.shape}")
    if not nodes.size:
        return system
    if system.frame is not None:
        raise ConstraintError("constraints have already been applied to this system")
    n_nodes = system.ndof // 3
    outside = (nodes < 0) | (nodes >= n_nodes)
    if outside.any():
        raise ConstraintError(f"constraint node {nodes[np.argmax(outside)]} out of range")
    norm = np.linalg.norm(directions, axis=1)
    bad = ~(np.abs(norm - 1.0) <= 1e-12)
    if bad.any():
        k = np.argmax(bad)
        raise ConstraintError(f"constraint direction at node {nodes[k]} must be unit length, "
                              f"|q|={norm[k]}")
    order = np.argsort(nodes, kind="stable")
    repeat = order[1:][nodes[order[1:]] == nodes[order[:-1]]]
    if repeat.size:
        raise ConstraintError(f"node {nodes[repeat.min()]} is constrained more than once")
    frames = _node_frames(directions / norm[:, None])

    Q = np.tile(np.eye(3), (n_nodes, 1, 1))
    Q[nodes] = frames
    fixed = np.zeros((n_nodes, 3), dtype=bool)
    fixed[nodes, 0] = True
    is_con = fixed[:, 0]

    K = system.matrix.tobsr((3, 3))
    row = np.repeat(np.arange(n_nodes), np.diff(K.indptr))
    col = K.indices
    touched = np.flatnonzero(is_con[row] | is_con[col])
    r, c = row[touched], col[touched]
    blocks = Q[r].transpose(0, 2, 1) @ K.data[touched] @ Q[c]
    blocks *= ~fixed[r][:, :, None] & ~fixed[c][:, None, :]
    diag = r == c
    blocks[diag] += fixed[r[diag]][:, :, None] * np.eye(3)
    K.data[touched] = blocks
    matrix = K.tocsr()
    matrix.eliminate_zeros()
    missing = fixed.copy()
    missing[r[diag]] = False
    if missing.any():  # a constrained node without a stored diagonal block
        matrix = (matrix + sp.diags(missing.ravel().astype(float))).tocsr()

    rhs = system.rhs.reshape(n_nodes, 3).copy()
    rhs[nodes] = np.einsum("kab,ka->kb", frames, rhs[nodes])
    rhs[fixed] = 0.0
    frame = sp.bsr_matrix((Q, np.arange(n_nodes), np.arange(n_nodes + 1)),
                          shape=(system.ndof, system.ndof)).tocsr()
    frame.eliminate_zeros()
    return LinearSystem(matrix, rhs.ravel(), frame=frame, constrained=fixed.ravel(),
                        coordinates=system.coordinates)
