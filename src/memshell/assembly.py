"""Global sparse assembly and rotated-frame Dirichlet constraints.

The stiffness and load vector are assembled from the mesh's
:class:`~memshell.element.QuadraturePointData`, which fixes the quadrature
rule and the variant; nothing here reads either.

Degrees of freedom are node-major: dof ``3*node + component`` with components
0..2 the global x, y, z displacements. Homogeneous directional constraints
``q . u = 0`` are imposed by rotating each constrained node's 3-dof block into
an orthonormal frame whose leading axes are the constraint directions and
eliminating those rotated dofs (unit diagonal, zero row/column and right-hand
side). This keeps the system symmetric and needs no penalty parameter.
"""

import dataclasses

import numpy as np
import scipy.sparse as sp

from .element import QuadraturePointData, batch_element_loads, batch_element_stiffness
from .mesh import SurfaceMesh

__all__ = [
    "ConstraintError",
    "Constraint",
    "LinearSystem",
    "assemble",
    "pressure_rhs",
    "cylinder_constraints",
    "apply_constraints",
]


class ConstraintError(ValueError):
    """Invalid or inconsistent Dirichlet constraint data."""


@dataclasses.dataclass(frozen=True)
class Constraint:
    """Homogeneous directional constraint ``direction . u(node) = 0``."""

    node: int
    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,):
            raise ConstraintError(f"constraint direction must be a 3-vector, got {d.shape}")
        norm = float(np.sqrt(d @ d))
        if abs(norm - 1.0) > 1e-12:
            raise ConstraintError(f"constraint direction must be unit length, |q|={norm}")
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)


class LinearSystem:
    """Sparse symmetric system ``K u = b`` with optional constraint bookkeeping.

    After :func:`apply_constraints`, the matrix and right-hand side live in
    the rotated nodal frames; :meth:`recover` maps a solution back to global
    xyz components (eliminated directions contribute zero, honoring the
    constraints exactly).
    """

    def __init__(self, matrix, rhs, constraints=(), frame=None, constrained=None):
        self.matrix = sp.csr_matrix(matrix)
        self.rhs = np.asarray(rhs, dtype=float)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("system matrix must be square")
        if self.rhs.shape != (self.matrix.shape[0],):
            raise ValueError("right-hand side does not match the matrix dimension")
        self.constraints = tuple(constraints)
        self.frame = frame if frame is None else sp.csr_matrix(frame)
        self.constrained = None if constrained is None else np.asarray(constrained, dtype=bool)

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
    return LinearSystem(matrix, rhs)


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


def cylinder_constraints(mesh: SurfaceMesh) -> list[Constraint]:
    """Benchmark constraints for the open cylinder: axial at x=0, radial at x=L.

    The mesh must have exactly two boundary components; the ring with the
    smaller mean x gets ``q = (1, 0, 0)``, the other the radial direction
    ``(0, y, z)/rho`` per node.
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
    axial = np.array([1.0, 0.0, 0.0])
    return ([Constraint(node, axial) for node in low.vertices.tolist()]
            + [Constraint(node, q) for node, q in zip(high.vertices.tolist(), radial)])


def _node_frames(nodes: np.ndarray, directions: np.ndarray):
    """Orthonormal frames of the constrained nodes, batched over nodes.

    Returns the distinct nodes (ascending), their (k, 3, 3) frames and the
    number of directions at each. Column j of a frame is the node's j-th
    direction, in the given order, orthonormalised against the earlier ones
    (modified Gram-Schmidt). A single direction is completed by the
    coordinate axis with the smallest component of ``|q|`` (ties to the
    smaller index), then by ``q0 x q1``; two directions by their cross
    product. A direction within 1e-10 of the span of the earlier ones, a
    fourth one included, is an error naming the node that comes first in
    the constraint order.
    """
    uniq, first, counts = np.unique(nodes, return_index=True, return_counts=True)
    order = np.argsort(nodes, kind="stable")
    group = np.repeat(np.arange(uniq.size), counts)
    rank = np.arange(nodes.size) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = rank < 3
    frames = np.zeros((uniq.size, 3, 3))
    frames[group[keep], :, rank[keep]] = directions[order[keep]]
    dependent = counts > 3

    def orthonormalize(j, rows):
        v = frames[rows, :, j]
        for i in range(j):
            q = frames[rows, :, i]
            v -= np.einsum("ka,ka->k", q, v)[:, None] * q
        norm = np.linalg.norm(v, axis=1)
        dependent[rows] |= norm < 1e-10
        frames[rows, :, j] = v / np.maximum(norm, 1e-10)[:, None]

    every = np.arange(uniq.size)
    orthonormalize(0, every)
    one = np.flatnonzero(counts == 1)
    frames[one, np.argmin(np.abs(frames[one, :, 0]), axis=1), 1] = 1.0
    orthonormalize(1, every)
    orthonormalize(2, np.flatnonzero(counts > 2))
    if dependent.any():
        node = uniq[dependent][np.argmin(first[dependent])]
        raise ConstraintError(f"dependent constraint directions at node {node}")
    two = counts < 3
    frames[two, :, 2] = np.cross(frames[two, :, 0], frames[two, :, 1])
    return uniq, frames, counts


def apply_constraints(system: LinearSystem, constraints) -> LinearSystem:
    """Impose homogeneous directional constraints on an assembled system.

    Each constrained node's dof block is rotated into an orthonormal frame
    whose first axes are its constraint directions; those rotated dofs are
    eliminated (unit diagonal, zero row/column/rhs). Unconstrained rotated
    directions remain natural (traction-free). Returns a new system carrying
    the rotation for :meth:`LinearSystem.recover`; with no constraints the
    input system is returned unchanged.

    Only the 3x3 blocks in rows or columns of constrained nodes change:
    ``K_ab`` becomes ``Q_a^T K_ab Q_b`` with ``Q = I`` at a free node.
    """
    constraints = tuple(constraints)
    if not constraints:
        return system
    if system.frame is not None:
        raise ConstraintError("constraints have already been applied to this system")
    n_nodes = system.ndof // 3
    nodes = np.array([c.node for c in constraints], dtype=np.int64)
    outside = (nodes < 0) | (nodes >= n_nodes)
    if outside.any():
        raise ConstraintError(f"constraint node {constraints[np.argmax(outside)].node} out of range")
    cnodes, frames, counts = _node_frames(nodes, np.array([c.direction for c in constraints]))

    Q = np.tile(np.eye(3), (n_nodes, 1, 1))
    Q[cnodes] = frames
    fixed = np.zeros((n_nodes, 3), dtype=bool)
    fixed[cnodes] = np.arange(3) < counts[:, None]
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
    rhs[cnodes] = np.einsum("kab,ka->kb", frames, rhs[cnodes])
    rhs[fixed] = 0.0
    frame = sp.bsr_matrix((Q, np.arange(n_nodes), np.arange(n_nodes + 1)),
                          shape=(system.ndof, system.ndof)).tocsr()
    frame.eliminate_zeros()
    return LinearSystem(matrix, rhs.ravel(), constraints=constraints, frame=frame,
                        constrained=fixed.ravel())
