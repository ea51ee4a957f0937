"""Global sparse assembly and Dirichlet constraints by nodal projection.

The stiffness and load vector are assembled from the mesh's
:class:`~memshell.element.QuadraturePointData`, which fixes the quadrature
rule and the variant; nothing here reads either.

Degrees of freedom are node-major: dof ``3*node + component`` with components
0..2 the global x, y, z displacements. The stiffness's node-block pattern
is the mesh's edge graph: each node's diagonal block and the blocks (a, b),
(b, a) of each edge, laid out in the rows of a CSR matrix with sorted
indices. The elements add their nine blocks straight into that matrix's data,
one block of elements (:meth:`~memshell.element.QuadraturePointData.blocks`)
at a time, finding each block by a binary search of the sorted block keys.
The block rows and the CSR column indices add the column offsets (0, 1, 2)
by one long add per offset, as numpy runs an add along a length-3 axis
several times slower. The loads of the whole mesh go to the flat right-hand
side in one scatter, before the pattern is built.

A system's matrix is a :class:`CSR` record of three plain arrays, and the
sparse algebra calls scipy's compiled CSR kernels, loaded from their file: the
``scipy.sparse`` package import would double a run's start-up time.
``LinearSystem.matrix`` imports it on first access, for callers that ask.

Dirichlet data are two arrays: the constrained nodes (k,) and one unit
direction per node (k, 3), each imposing the homogeneous constraint
``q . u(node) = 0``. With ``Q`` holding ``q q^T`` in the diagonal block of each
constrained node and ``P = I - Q``, the constrained system ``P K P + Q =
K - (K Q + Q K - Q K Q - Q)``, ``P b = b - Q b`` is formed from sparse
products by the kernels that scipy's operators call, so it is the same bit for
bit; it differs from ``K`` only in the rows and columns of constrained nodes.
``q`` decouples with a unit diagonal and a zero load, every vector stays in
global xyz, and the system stays symmetric without a penalty parameter.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np

from .element import QuadraturePointData, batch_element_loads, batch_element_stiffness
from .mesh import SurfaceMesh, _indices

__all__ = [
    "ConstraintError",
    "LinearSystem",
    "assemble",
    "cylinder_constraints",
    "apply_constraints",
]


def _load_kernels():
    """``scipy.sparse._sparsetools``, loaded from its file without running a package ``__init__``.

    Registered under its name, so that a later ``import scipy.sparse`` uses
    the same module; one imported before is returned as it is. Where the file
    is not found (another install layout), the package import provides it.
    """
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "sparse"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        ).find_spec(name)
        if spec is None:
            importlib.import_module(name)
        else:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
    return sys.modules[name]


_sparsetools = _load_kernels()


def _index_dtype(maxval: int) -> type:
    """int32 for index arrays whose values stay at most ``maxval``, where that fits."""
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


class CSR(NamedTuple):
    """A square CSR matrix's arrays, named as scipy's; entries past ``indptr[-1]`` are unused."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.indptr) - 1,) * 2


def _product(A: CSR, B: CSR) -> CSR:
    """``A B`` by the two kernels of scipy's CSR product; its rows come out unsorted."""
    n = A.shape[0]
    return _combine(_sparsetools.csr_matmat, A, B,
                    _sparsetools.csr_matmat_maxnnz(n, n, A.indptr, A.indices, B.indptr, B.indices))


def _combine(kernel, A: CSR, B: CSR, nnz: int | None = None) -> CSR:
    """``kernel`` on ``A`` and ``B`` as scipy calls it: into room for ``nnz`` entries, by default
    both operands' (``csr_plus_csr``, ``csr_minus_csr``), cut to those kept (zeros drop out)."""
    nnz = int(A.indptr[-1]) + int(B.indptr[-1]) if nnz is None else nnz
    itype = np.result_type(A.indices, B.indices, _index_dtype(nnz))  # no narrower than the input
    C = CSR(np.empty(nnz), np.empty(nnz, itype), np.empty(len(A.indptr), itype))
    kernel(*A.shape, *A[::-1], *B[::-1], *C[::-1])  # each as (indptr, indices, data)
    end = C.indptr[-1]
    return CSR(C.data[:end], C.indices[:end], C.indptr)


class ConstraintError(ValueError):
    """Invalid or inconsistent Dirichlet constraint data."""


class LinearSystem:
    """Sparse symmetric system ``K u = b`` with node coordinates and its constraints.

    ``csr`` is the float64 matrix as the :class:`CSR` record given, the only
    input kind; ``matrix`` is a scipy CSR matrix on the same arrays, built on
    first access. ``coordinates`` (ndof/3, 3) are the node positions,
    from which the solver builds the rigid-body modes; a system without them
    has no kernel basis. ``constraints`` is the ``(nodes, directions)`` pair
    that :func:`apply_constraints` projected out, or ``None``; the matrix, the
    right-hand side and the solution are in global xyz either way.
    """

    def __init__(self, csr: CSR, rhs, constraints=None, coordinates=None):
        if not isinstance(csr, CSR):
            raise TypeError(f"system matrix must be a CSR record, not {type(csr).__name__}")
        self.csr = csr
        self.rhs = np.asarray(rhs, dtype=float)
        if self.rhs.shape != (self.ndof,):
            raise ValueError("right-hand side does not match the matrix dimension")
        self.constraints = constraints
        self.coordinates = None if coordinates is None else np.asarray(coordinates, dtype=float)
        if self.coordinates is not None and self.coordinates.shape != (self.ndof // 3, 3):
            raise ValueError(f"node coordinates have shape {self.coordinates.shape}, "
                             f"a system of {self.ndof} dofs needs ({self.ndof // 3}, 3)")

    @property
    def ndof(self) -> int:
        return self.csr.shape[0]

    @functools.cached_property
    def matrix(self):
        import scipy.sparse
        return scipy.sparse.csr_matrix(self.csr, shape=self.csr.shape)


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
    n, tri, edge_keys = mesh.n_vertices, mesh.triangles, mesh.edge_keys
    itype = _index_dtype(9 * (n + 2 * edge_keys.size))  # up to the number of stored entries
    rhs = np.zeros(3 * n) if traction is None else np.bincount(
        _plus_012(3 * tri.astype(itype)).ravel(), batch_element_loads(geo, traction).ravel(),
        minlength=3 * n)
    # block keys row * n + col: each node's diagonal block and both directions of each edge
    lo, hi = np.divmod(edge_keys, n)
    keys = np.sort(np.concatenate([np.arange(n) * (n + 1), edge_keys, hi * n + lo]))
    row, col = np.divmod(keys, n)
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
    del lo, hi, row, col, rows
    data = np.zeros(indices.size)
    for s, sub in geo.blocks():
        t = tri[s]
        # K[e, (i, a), (j, b)] goes to entry (a, b) of block (t[e, i], t[e, j]):
        # base[block] + a width[t[e, i]] + b
        rows = np.empty(t.shape + (3, 3), dtype=itype)  # [e, i, a, j]
        rows[:, :, 0] = base[np.searchsorted(keys, t[:, :, None] * n + t[:, None, :])]
        for a in (1, 2):
            np.add(rows[:, :, a - 1], width[t][:, :, None], out=rows[:, :, a])
        np.add.at(data, _plus_012(rows).ravel(), batch_element_stiffness(sub, material).ravel())
    return LinearSystem(CSR(data, indices, indptr), rhs, coordinates=mesh.vertices)


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

    K, n = system.csr, system.ndof
    itype = _index_dtype(3 * n)
    dof = 3 * nodes[order, None].astype(itype) + np.arange(3, dtype=itype)  # ascending rows
    Q = CSR((q[order, :, None] * q[order, None, :]).ravel(), np.repeat(dof, 3, axis=0).ravel(),
            3 * np.searchsorted(dof.ravel(), np.arange(n + 1)).astype(itype))
    KQ = _product(K, Q)
    change = _combine(_sparsetools.csr_plus_csr, KQ, _product(Q, K))
    change = _combine(_sparsetools.csr_minus_csr, change, _product(Q, KQ))
    change = _combine(_sparsetools.csr_minus_csr, change, Q)
    # a sorted operand keeps the difference sorted, and is faster
    _sparsetools.csr_sort_indices(n, change.indptr, change.indices, change.data)
    Qb = np.zeros(n)
    _sparsetools.csr_matvec(n, n, *Q[::-1], system.rhs, Qb)
    # the subtraction also drops K's exact zeros (16 % of the cylinder's entries), which
    # the cylinder solve relies on: a rewrite that keeps K's pattern must drop them too
    return LinearSystem(_combine(_sparsetools.csr_minus_csr, K, change), system.rhs - Qb,
                        constraints=(nodes, q), coordinates=system.coordinates)
