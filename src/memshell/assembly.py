"""Global sparse assembly and Dirichlet constraints by nodal projection.

The stiffness and load vector are assembled from the mesh's
:class:`~memshell.element.QuadraturePointData`, which fixes the quadrature
rule and the variant; nothing here reads either.

Degrees of freedom are node-major: dof ``3*node + component`` with components
0..2 the global x, y, z displacements. The stiffness is assembled on its
node-block pattern: each sorted (node, node) pair of the mesh's elements owns
one 3x3 block, laid out in the rows of a CSR matrix with sorted indices. The
elements add their nine blocks straight into that matrix's data, one block of
elements (:meth:`~memshell.element.QuadraturePointData.blocks`) at a time,
through a map from each (element, node pair) to the pair's first CSR entry.
Besides the matrix, only that int32 map and one block's element matrices are
held at a time. The map and the CSR column indices add the column offsets
(0, 1, 2) to the first entry of each block row by one long add per offset, as
numpy runs an add along a length-3 axis several times slower. The loads go to
the flat right-hand side in one scatter.

Dirichlet data are two arrays: the constrained nodes (k,) and one unit
direction per node (k, 3), each imposing the homogeneous constraint
``q . u(node) = 0``. With ``Q`` holding ``q q^T`` in the diagonal block of each
constrained node and ``P = I - Q``, the constrained system ``P K P + Q =
K - (K Q + Q K - Q K Q - Q)``, ``P b = b - Q b`` is formed from sparse
products; it differs from ``K`` only in the rows and columns of constrained
nodes. ``q`` decouples with a unit diagonal and a zero load, every vector stays
in global xyz, and the system stays symmetric without a penalty parameter.
"""

import numpy as np
import scipy.sparse as sp

from .element import QuadraturePointData, batch_element_loads, batch_element_stiffness
from .mesh import SurfaceMesh, _indices

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
    right-hand side and the solution are in global xyz either way. The
    matrix is held as float64 CSR, whatever its input's type.
    """

    def __init__(self, matrix, rhs, constraints=None, coordinates=None):
        self.matrix = sp.csr_matrix(matrix, dtype=float)
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


def _plus_012(first: np.ndarray) -> np.ndarray:
    """``first[..., None] + (0, 1, 2)`` in ``first``'s dtype, by one long add per offset."""
    out = np.empty(first.shape + (3,), dtype=first.dtype)
    for b in range(3):
        np.add(first, b, out=out[..., b])
    return out


def assemble(mesh: SurfaceMesh, material, geo: QuadraturePointData, traction=None) -> LinearSystem:
    """Assemble the global stiffness and consistent load vector.

    ``geo`` is the mesh's :func:`~memshell.element.quadrature_geometry`; it
    fixes the quadrature rule and the variant. ``traction`` (m, nq, 3) holds
    the load (force per unit midsurface area) at ``geo.points``; ``None``
    gives a zero right-hand side.
    """
    geo.require_elements(mesh.n_triangles)
    n, tri = mesh.n_vertices, mesh.triangles
    # block keys row * n + col of the element's node pairs (i, j), sorted once
    # (np.unique's inverse would take several int64 copies of them); slot[e, 3i + j]
    # numbers the distinct keys (blocks) in ascending order
    keys = (tri[:, :, None] * n + tri[:, None, :]).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    itype = sp.get_index_dtype(maxval=9 * keys.size)
    slot = np.empty(keys.size, dtype=itype)
    slot[order] = np.cumsum(first, dtype=itype) - 1
    row, col = np.divmod(keys[first], n)
    del keys, order, first
    # CSR row 3i + a holds row a of node i's blocks in column order, so entry
    # (a, b) of block k of node row i sits at base[k] + a width[i] + b
    width = 3 * np.bincount(row, minlength=n).astype(itype)
    start = np.zeros(n + 1, dtype=itype)
    np.cumsum(width, out=start[1:])
    base = 2 * start[row] + 3 * np.arange(row.size, dtype=itype)
    abc = np.arange(3, dtype=itype)
    indptr = np.append(3 * start[:-1, None] + width[:, None] * abc, 3 * start[-1])
    rows = base + width[row] * abc[:, None]
    indices = np.empty(indptr[-1], dtype=itype)
    for b in range(3):
        indices[rows + b] = 3 * col + b
    slot = base[slot].reshape(-1, 3, 3)  # entry (0, 0) of each (e, i, j) block
    del row, col, base, rows
    data = np.zeros(indices.size)
    for s, sub in geo.blocks():
        # K[e, (i, a), (j, b)] goes to entry (a, b) of its block: slot + a width[i] + b
        rows = np.empty(slot[s].shape[:2] + (3, 3), dtype=itype)  # [e, i, a, j]
        rows[:, :, 0] = slot[s]
        for a in (1, 2):
            np.add(rows[:, :, a - 1], width[tri[s]][:, :, None], out=rows[:, :, a])
        np.add.at(data, _plus_012(rows).ravel(), batch_element_stiffness(sub, material).ravel())
    rhs = np.zeros(3 * n) if traction is None else np.bincount(
        _plus_012(3 * tri.astype(itype)).ravel(), batch_element_loads(geo, traction).ravel(),
        minlength=3 * n)
    matrix = sp.csr_matrix((data, indices, indptr), shape=(3 * n, 3 * n))
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
    holds its unit direction ``q``. With ``Q`` holding ``q q^T`` in each
    constrained node's diagonal block and ``P = I - Q``, returns the system
    ``P K P + Q = K - (K Q + Q K - Q K Q - Q)``, ``P b = b - Q b``, carrying
    the constraints; the two directions orthogonal to ``q`` remain natural
    (traction-free). The result differs from ``K`` only in the rows and
    columns of constrained nodes, and has ``q q^T`` on each one's diagonal
    whether or not ``K`` stored that block. With no constraints the input
    system is returned unchanged.
    """
    nodes = _indices(nodes, ConstraintError, "constraint nodes")
    directions = np.asarray(directions, dtype=float)
    if nodes.ndim != 1 or directions.shape != (nodes.size, 3):
        raise ConstraintError(f"constraints need nodes (k,) and directions (k, 3), "
                              f"got {nodes.shape} and {directions.shape}")
    if not nodes.size:
        return system
    if system.constraints is not None:
        raise ConstraintError("constraints have already been applied to this system")
    outside = (nodes < 0) | (nodes >= system.ndof // 3)
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

    K = system.matrix
    dof = 3 * nodes[order, None] + np.arange(3)  # the constrained rows, ascending
    Q = sp.csr_matrix(((q[order, :, None] * q[order, None, :]).ravel(),
                       np.repeat(dof, 3, axis=0).ravel(),
                       3 * np.searchsorted(dof.ravel(), np.arange(K.shape[0] + 1))), shape=K.shape)
    KQ = K @ Q
    change = KQ + Q @ K - Q @ KQ - Q
    change.sort_indices()  # a sorted operand keeps the difference sorted, and is faster
    return LinearSystem(K - change, system.rhs - Q @ system.rhs, constraints=(nodes, q),
                        coordinates=system.coordinates)
