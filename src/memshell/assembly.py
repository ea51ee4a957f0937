"""Global sparse assembly, dof management, and rotated-frame Dirichlet constraints.

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

from .element import QuadratureRule, batch_element_loads, batch_element_stiffness, quadrature_geometry, quadrature_rule
from .mesh import SurfaceMesh

__all__ = [
    "ConstraintError",
    "DofMap",
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
class DofMap:
    """Node-major dof numbering: dof = 3*node + component."""

    n_nodes: int

    @property
    def ndof(self) -> int:
        return 3 * self.n_nodes

    def index(self, node: int, component: int) -> int:
        if not 0 <= component < 3:
            raise IndexError(f"component {component} out of range")
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range")
        return 3 * node + component


@dataclasses.dataclass(frozen=True)
class Constraint:
    """Homogeneous directional constraint ``direction . u(node) = 0``."""

    node: int
    direction: np.ndarray
    value: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,):
            raise ConstraintError(f"constraint direction must be a 3-vector, got {d.shape}")
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise ConstraintError(f"constraint direction must be unit length, |q|={np.linalg.norm(d)}")
        if self.value != 0.0:
            raise ConstraintError("only homogeneous constraints are supported")
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


def assemble(mesh: SurfaceMesh, material, load_at=None,
             quad: QuadratureRule | None = None,
             variant: str = "interpolated") -> LinearSystem:
    """Assemble the global stiffness and consistent load vector.

    ``load_at`` maps positions (k, 3) to load vectors (k, 3) (force per unit
    midsurface area); ``None`` gives a zero right-hand side. Element failures
    carry the offending element index.
    """
    if quad is None:
        quad = quadrature_rule(2)
    tris = mesh.triangles
    coords = mesh.vertices[tris]
    normals = mesh.nodal_normals[tris]

    ke = batch_element_stiffness(coords, normals, material, quad, variant)
    dofs = _element_dofs(tris)
    rows = np.repeat(dofs, 9, axis=1).ravel()
    cols = np.tile(dofs, (1, 9)).ravel()
    ndof = 3 * mesh.n_vertices
    matrix = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()

    rhs = np.zeros(ndof)
    if load_at is not None:
        fe = batch_element_loads(coords, normals, load_at, quad)
        np.add.at(rhs, dofs.ravel(), fe.ravel())
    return LinearSystem(matrix, rhs)


def pressure_rhs(mesh: SurfaceMesh, p: float,
                 quad: QuadratureRule | None = None,
                 variant: str = "interpolated") -> np.ndarray:
    """Consistent load vector of the discrete pressure load ``p * n_h``.

    Uses the mesh's own (interpolated or facet) normal at each quadrature
    point, for surfaces without a closed-form normal field.
    """
    if quad is None:
        quad = quadrature_rule(2)
    tris = mesh.triangles
    geo = quadrature_geometry(mesh.vertices[tris], mesh.nodal_normals[tris], quad, variant)
    phi = quad.shape_values()
    fe = p * np.einsum("mq,qi,mqa->mia", geo.measures, phi, geo.normals).reshape(-1, 9)
    rhs = np.zeros(3 * mesh.n_vertices)
    np.add.at(rhs, _element_dofs(tris).ravel(), fe.ravel())
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

    constraints = [Constraint(int(node), np.array([1.0, 0.0, 0.0])) for node in low.vertices]
    for node in high.vertices:
        yz = mesh.vertices[node, 1:]
        rho = np.linalg.norm(yz)
        if rho <= 0:
            raise ConstraintError(f"node {node} lies on the axis, radial direction undefined")
        constraints.append(Constraint(int(node), np.array([0.0, yz[0] / rho, yz[1] / rho])))
    return constraints


def _complete_frame(directions: list[np.ndarray]) -> np.ndarray:
    """Orthonormal 3x3 frame whose leading columns are the given directions.

    Completion picks the coordinate axis most orthogonal to the constrained
    subspace (ties broken by smallest axis index) and orthonormalizes.
    """
    q = list(directions)
    if len(q) == 1:
        overlap = np.abs(q[0])
        k = int(np.argmin(overlap))
        v = np.zeros(3)
        v[k] = 1.0
        v -= (q[0] @ v) * q[0]
        q.append(v / np.linalg.norm(v))
    if len(q) == 2:
        q.append(np.cross(q[0], q[1]))
    return np.column_stack(q)


def _node_frames(constraints) -> dict[int, tuple[np.ndarray, int]]:
    """Group constraints by node; return (frame, n_constrained) per node."""
    grouped: dict[int, list[np.ndarray]] = {}
    for c in constraints:
        grouped.setdefault(int(c.node), []).append(np.asarray(c.direction, dtype=float))
    frames: dict[int, tuple[np.ndarray, int]] = {}
    for node, dirs in grouped.items():
        ortho: list[np.ndarray] = []
        for d in dirs:
            v = d.copy()
            for u in ortho:
                v -= (u @ v) * u
            nv = np.linalg.norm(v)
            if nv < 1e-10:
                raise ConstraintError(f"dependent constraint directions at node {node}")
            ortho.append(v / nv)
        if len(ortho) > 3:
            raise ConstraintError(f"more than 3 constraint directions at node {node}")
        frames[node] = (_complete_frame(ortho), len(ortho))
    return frames


def apply_constraints(system: LinearSystem, constraints) -> LinearSystem:
    """Impose homogeneous directional constraints on an assembled system.

    Each constrained node's dof block is rotated into an orthonormal frame
    whose first axes are its constraint directions; those rotated dofs are
    eliminated (unit diagonal, zero row/column/rhs). Unconstrained rotated
    directions remain natural (traction-free). Returns a new system carrying
    the rotation for :meth:`LinearSystem.recover`; with no constraints the
    input system is returned unchanged.
    """
    constraints = tuple(constraints)
    if not constraints:
        return system
    if system.frame is not None:
        raise ConstraintError("constraints have already been applied to this system")
    ndof = system.ndof
    n_nodes = ndof // 3
    for c in constraints:
        if not 0 <= c.node < n_nodes:
            raise ConstraintError(f"constraint node {c.node} out of range")

    frames = _node_frames(constraints)

    rows = []
    cols = []
    vals = []
    constrained = np.zeros(ndof, dtype=bool)
    for node in range(n_nodes):
        base = 3 * node
        if node in frames:
            Q, d = frames[node]
            for a in range(3):
                for j in range(3):
                    rows.append(base + a)
                    cols.append(base + j)
                    vals.append(Q[a, j])
            constrained[base:base + d] = True
        else:
            for a in range(3):
                rows.append(base + a)
                cols.append(base + a)
                vals.append(1.0)
    frame = sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()

    rotated = (frame.T @ system.matrix @ frame).tocsr()
    rhs = frame.T @ system.rhs
    free = sp.diags((~constrained).astype(float))
    fixed = sp.diags(constrained.astype(float))
    matrix = (free @ rotated @ free + fixed).tocsr()
    rhs = np.where(constrained, 0.0, rhs)
    return LinearSystem(matrix, rhs, constraints=constraints, frame=frame,
                        constrained=constrained)
