"""Global sparse assembly and Dirichlet constraints by nodal projection.

The stiffness and load vector are assembled from the mesh's
:class:`~memshell.element.QuadraturePointData`, which fixes the quadrature
rule and the variant; nothing here reads either.

Degrees of freedom are node-major: dof ``3*node + component`` with components
0..2 the global x, y, z displacements. Dirichlet data are two arrays: the
constrained nodes (k,) and one unit direction per node (k, 3), each imposing
the homogeneous constraint ``q . u(node) = 0``. With the projection
``P = I - q q^T`` at each constrained node and ``I`` elsewhere, the
constrained system is ``P K P + (I - P)`` with right-hand side ``P b``: the
direction ``q`` decouples with a unit diagonal and a zero load, and every
vector stays in global xyz. This keeps the system symmetric and needs no
penalty parameter.
"""

import numpy as np
import scipy.sparse as sp

from .element import QuadraturePointData, batch_element_loads, batch_element_stiffness
from .mesh import SurfaceMesh

__all__ = [
    "ConstraintError",
    "LinearSystem",
    "assemble",
    "cylinder_constraints",
    "apply_constraints",
]


class ConstraintError(ValueError):
    """Invalid or inconsistent Dirichlet constraint data."""


class LinearSystem:
    """Sparse symmetric system ``K u = b`` with node coordinates and its constraints.

    ``coordinates`` (ndof/3, 3) are the node positions, from which the solver
    builds the rigid-body modes; a system without them has no kernel basis.
    ``constraints`` is the ``(nodes, directions)`` pair that
    :func:`apply_constraints` projected out, or ``None``; the matrix, the
    right-hand side and the solution are in global xyz either way.
    """

    def __init__(self, matrix, rhs, constraints=None, coordinates=None):
        self.matrix = sp.csr_matrix(matrix)
        self.rhs = np.asarray(rhs, dtype=float)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("system matrix must be square")
        if self.rhs.shape != (self.matrix.shape[0],):
            raise ValueError("right-hand side does not match the matrix dimension")
        self.constraints = constraints
        self.coordinates = None if coordinates is None else np.asarray(coordinates, dtype=float)
        if self.coordinates is not None and self.coordinates.shape != (self.ndof // 3, 3):
            raise ValueError(f"node coordinates have shape {self.coordinates.shape}, "
                             f"a system of {self.ndof} dofs needs ({self.ndof // 3}, 3)")

    @property
    def ndof(self) -> int:
        return self.matrix.shape[0]


def _element_dofs(triangles: np.ndarray) -> np.ndarray:
    """(m, 9) global dof indices per element, node-major."""
    return (3 * triangles[:, :, None] + np.arange(3)[None, None, :]).reshape(-1, 9)


def assemble(mesh: SurfaceMesh, material, geo: QuadraturePointData, traction=None) -> LinearSystem:
    """Assemble the global stiffness and consistent load vector.

    ``geo`` is the mesh's :func:`~memshell.element.quadrature_geometry`; it
    fixes the quadrature rule and the variant. ``traction`` (m, nq, 3) holds
    the load (force per unit midsurface area) at ``geo.points``; ``None``
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
    if traction is not None:
        fe = batch_element_loads(geo, traction)
        np.add.at(rhs, dofs.ravel(), fe.ravel())
    return LinearSystem(matrix, rhs, coordinates=mesh.vertices)


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


def apply_constraints(system: LinearSystem, nodes, directions) -> LinearSystem:
    """Impose ``directions[i] . u(nodes[i]) = 0`` on an assembled system.

    ``nodes`` (k,) lists each constrained node once; ``directions`` (k, 3)
    holds its unit direction ``q``. With ``P = I - q q^T`` at each constrained
    node and ``I`` elsewhere, returns the system ``P K P + (I - P)``,
    ``P b``, carrying the constraints; the two directions orthogonal to
    ``q`` remain natural (traction-free). With no constraints the input
    system is returned unchanged.

    Only the 3x3 blocks in rows or columns of constrained nodes change:
    ``K_ab`` becomes ``P_a K_ab P_b``, plus ``q q^T`` on a constrained
    node's diagonal block (stored there if it was absent).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    directions = np.asarray(directions, dtype=float)
    if nodes.ndim != 1 or directions.shape != (nodes.size, 3):
        raise ConstraintError(f"constraints need nodes (k,) and directions (k, 3), "
                              f"got {nodes.shape} and {directions.shape}")
    if not nodes.size:
        return system
    if system.constraints is not None:
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
    q = directions / norm[:, None]

    qq = np.zeros((n_nodes, 3, 3))
    qq[nodes] = q[:, :, None] * q[:, None, :]
    P = np.eye(3) - qq
    is_con = np.zeros(n_nodes, dtype=bool)
    is_con[nodes] = True

    K = system.matrix.tobsr((3, 3))
    row = np.repeat(np.arange(n_nodes), np.diff(K.indptr))
    col = K.indices
    touched = np.flatnonzero(is_con[row] | is_con[col])
    r, c = row[touched], col[touched]
    blocks = P[r] @ K.data[touched] @ P[c]
    diag = r == c
    blocks[diag] += qq[r[diag]]
    K.data[touched] = blocks
    matrix = K.tocsr()
    matrix.eliminate_zeros()
    stored = np.zeros(n_nodes, dtype=bool)
    stored[r[diag]] = True
    if not stored[nodes].all():  # a constrained node without a stored diagonal block
        qq[stored] = 0.0
        ptr = np.arange(n_nodes + 1)
        matrix = matrix + sp.bsr_matrix((qq, ptr[:-1], ptr), shape=matrix.shape).tocsr()

    rhs = system.rhs.reshape(n_nodes, 3).copy()
    rhs[nodes] = np.einsum("kab,kb->ka", P[nodes], rhs[nodes])
    return LinearSystem(matrix, rhs.ravel(), constraints=(nodes, q),
                        coordinates=system.coordinates)
