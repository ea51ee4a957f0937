"""The quadrature rule, batched surface Jacobians, element matrices.

Linear triangles are extended into 3D through a nodal normal field: the
element Jacobian stacks the two (constant) facet tangents with the unit
normal, either interpolated from the nodes and renormalized per quadrature
point ("interpolated" variant) or taken as the facet normal ("facet"
variant), constant on the element, so that its normals and gradients carry
one point. Physical basis gradients solve ``J g = (d/dxi, d/deta, 0)``; the
batched kernels use the closed-form inverse, the dual basis
``d_xi = (t_eta x n)/det``, ``d_eta = (n x t_xi)/det`` with
``det = n . (t_xi x t_eta)``. The gradients are therefore exactly tangential
to the variant's normal, which makes the membrane energy expressible through
plain tangential strains:

    energy density = 2 mu e:e - 4 mu (e n).(e n) + lam (div u)(div v)

with ``e`` the symmetrized tangential displacement gradient. This equals the
double-projected in-plane strain energy because the normal-normal strain
component vanishes for tangential gradients.

Every kernel works on a batch of elements at once. The assembly, the stress
recovery and the error each loop over :meth:`QuadraturePointData.blocks`,
consecutive blocks of :data:`BLOCK_ELEMENTS` elements, so that no (m, 9, 9)
array of the whole mesh is ever held. Every case is integrated with one
symmetric three-point rule, held in module-private read-only arrays.
:func:`quadrature_geometry` is the one place that reads it and a variant, on
a validated :class:`~memshell.mesh.SurfaceMesh`; the kernels, the assembly and
the stress recovery all take its :class:`QuadraturePointData`. The
per-element ``np.linalg.solve`` reference that the tests compare them with
lives in ``tests/oracles.py``.
"""

import dataclasses

import numpy as np

from .mesh import SurfaceMesh

__all__ = [
    "SingularJacobianError",
    "quadrature_geometry",
    "QuadraturePointData",
    "batch_element_stiffness",
    "batch_element_loads",
]


class SingularJacobianError(ValueError):
    """The element Jacobian is singular (normal lies in the facet plane)."""

    def __init__(self, message: str, element: int | None = None):
        super().__init__(message if element is None else f"element {element}: {message}")
        self.element = element


#: The symmetric three-point interior rule, weights 1/6: exact for
#: polynomials of degree 2. Every case is integrated with it.
_POINTS = np.array([[1.0 / 6.0, 1.0 / 6.0], [2.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 2.0 / 3.0]])
_WEIGHTS = np.full(3, 1.0 / 6.0)
#: (3, 3) linear shape values ``(1 - xi - eta, xi, eta)`` at the points.
_SHAPE_VALUES = np.stack([1.0 - _POINTS[:, 0] - _POINTS[:, 1], _POINTS[:, 0], _POINTS[:, 1]], 1)
for _a in (_POINTS, _WEIGHTS, _SHAPE_VALUES):
    _a.setflags(write=False)
del _a


#: Elements per block of the element layer: a block's (c, 9, 9) stiffness is
#: 0.33 MB and its int32 scatter map 0.17 MB, small beside the assembled
#: matrix. Sweep and ladder times at 1 024, 512 and 256 agreed within the
#: host's noise; 512 halves the per-block transient of 1 024.
BLOCK_ELEMENTS = 512


@dataclasses.dataclass(frozen=True, eq=False)
class QuadraturePointData:
    """Per-element, per-quadrature-point geometry of a batch of elements.

    Built by :func:`quadrature_geometry` from a mesh and a variant, it is the
    only geometry argument of the element kernels, the assembly and the
    stress recovery. Its points are the three-point rule's, mapped.

    Attributes
    ----------
    gradients : (m, nq, 3, 3)
        Tangential basis gradients, ``[e, q, node, xyz]``.
    normals : (m, nq, 3)
        Unit variant normal at each quadrature point. The facet variant's
        normals and gradients are constant: one point, (m, 1, ...), for all.
    measures : (m, nq)
        Quadrature weight times facet surface measure (so that summing
        ``measures * integrand`` integrates over the discrete surface).
    points : (m, nq, 3)
        Mapped quadrature point positions.
    """

    gradients: np.ndarray
    normals: np.ndarray
    measures: np.ndarray
    points: np.ndarray

    def require_elements(self, m: int) -> None:
        """Raise ValueError unless the geometry covers exactly ``m`` elements."""
        if self.measures.shape[0] != m:
            raise ValueError(f"quadrature geometry covers {self.measures.shape[0]} elements, "
                             f"the mesh has {m}")

    def blocks(self):
        """Yield ``(slice, sub-geometry)`` over consecutive blocks of
        :data:`BLOCK_ELEMENTS` elements; the sub-geometries are views."""
        for start in range(0, self.measures.shape[0], BLOCK_ELEMENTS):
            s = slice(start, start + BLOCK_ELEMENTS)
            yield s, QuadraturePointData(self.gradients[s], self.normals[s], self.measures[s],
                                         self.points[s])

    def projectors(self) -> np.ndarray:
        """Tangent-plane projectors ``P = I - n n^T``, one per normal."""
        proj = self.normals[..., :, None] @ -self.normals[..., None, :]
        proj.reshape(-1, 9)[:, ::4] += 1.0
        return proj


def quadrature_geometry(mesh: SurfaceMesh, variant: str) -> QuadraturePointData:
    """The mesh's element geometry at the three-point rule's points.

    The gradients come from the closed-form inverse of the Jacobian with rows
    ``(t_xi, t_eta, n)``: its columns ``d_xi = (t_eta x n)/det`` and
    ``d_eta = (n x t_xi)/det``, ``det = n . (t_xi x t_eta)``, are the dual
    basis, so ``g_0 = -d_xi - d_eta``, ``g_1 = d_xi`` and ``g_2 = d_eta``.

    Two element checks are left to the mesh. A zero-area facet cannot reach
    here: ``SurfaceMesh`` rejects every triangle with ``|t_xi x t_eta| <=
    1e-13 |t_xi| |t_eta|``, from the same corner differences up to sign.
    Nor can a vanishing interpolated normal: each point's shape values are a
    permutation of (2/3, 1/6, 1/6), so unit nodal normals interpolate to a
    length of at least 1/3. A normal in the facet plane raises
    :class:`SingularJacobianError`, an unknown variant ValueError.
    """
    tris = mesh.triangles
    coords = mesh.vertices[tris]
    normals = mesh.nodal_normals[tris]
    t_xi = coords[:, 1] - coords[:, 0]
    t_eta = coords[:, 2] - coords[:, 0]
    cross = np.cross(t_xi, t_eta)
    cn = np.linalg.norm(cross, axis=1)

    if variant == "interpolated":
        n0 = _SHAPE_VALUES @ normals
        nhat = n0 / np.linalg.norm(n0, axis=2)[..., None]
    elif variant == "facet":
        nhat = (cross / cn[:, None])[:, None, :]  # constant on the facet: one point
    else:
        raise ValueError(f"unknown geometry variant {variant!r}")

    dets = np.einsum("mqa,ma->mq", nhat, cross)
    bad = np.abs(dets) <= 1e-12 * cn[:, None]
    if np.any(bad):
        e = int(np.nonzero(bad.any(axis=1))[0][0])
        raise SingularJacobianError("normal lies in the facet plane", element=e)

    gradients = np.empty(nhat.shape[:2] + (3, 3))
    gradients[:, :, 1] = np.cross(t_eta[:, None, :], nhat) / dets[..., None]
    gradients[:, :, 2] = np.cross(nhat, t_xi[:, None, :]) / dets[..., None]
    np.negative(gradients[:, :, 1], out=gradients[:, :, 0])
    gradients[:, :, 0] -= gradients[:, :, 2]

    measures = _WEIGHTS[None, :] * cn[:, None]
    return QuadraturePointData(gradients=gradients, normals=nhat, measures=measures,
                               points=_SHAPE_VALUES @ coords)


#: Row ``3i + j`` gives ``G_ij`` from ``(g_1.g_1, g_1.g_2, g_2.g_2)`` when ``g_0 = -g_1 - g_2``.
_GRAM_FROM_DOTS = np.array([[1, 2, 1], [-1, -1, 0], [0, -1, -1], [-1, -1, 0], [1, 0, 0],
                            [0, 1, 0], [0, -1, -1], [0, 1, 0], [0, 0, 1]], dtype=float)
#: The flat positions ``K[i,a,j,b]`` reads from ``H[j,a,i,b]`` and ``GP[i,j,a,b]``:
#: a gather by them is faster than an add of a transposed view.
_FROM_H = np.arange(81).reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).ravel()
_FROM_GP = np.arange(81).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).ravel()


def batch_element_stiffness(geo: QuadraturePointData, material) -> np.ndarray:
    """Stiffness matrices of the batch ``geo`` describes, shape (m, 9, 9).

    Uses the contracted form of the energy density: with ``g_i`` the
    tangential basis gradients, ``G_ij = g_i . g_j`` and ``P = I - n n^T``,

        K[(i,a),(j,b)] = t * sum_q w [ mu G_ij P_ab + mu g_j[a] g_i[b]
                                       + lam g_i[a] g_j[b] ]

    Both quadrature sums are batched matrix products over the quadrature
    axis: ``H[(i,a),(j,b)] = sum_q w g_i[a] g_j[b]`` and the ``G (x) P`` term
    ``GP[(i,j),(a,b)] = sum_q w G_ij P_ab``. Then, with the index moves
    written out, ``K[i,a,j,b] = t (mu GP[i,j,a,b] + mu H[j,a,i,b] + lam H[i,a,j,b])``.

    The gradients sum to zero, ``g_0 = -g_1 - g_2`` (:func:`quadrature_geometry`
    builds them so), so ``G = C d`` with ``d = (g_1.g_1, g_1.g_2, g_2.g_2)``
    and the constant ``C`` of ``_GRAM_FROM_DOTS``; then ``GP = C sum_q w d P``.
    A facet geometry's one point carries the summed weights (a constant integrand).
    """
    m, nq = geo.gradients.shape[:2]
    w = geo.measures.reshape(m, nq, -1).sum(axis=2)
    g = geo.gradients.reshape(m, nq, 9)
    mu_t = material.t * material.mu

    buf = np.empty((m, 81))
    np.matmul(w[:, None, :] * g.swapaxes(1, 2), g, out=buf.reshape(m, 9, 9))  # H
    K = (material.t * material.lam0) * buf
    buf *= mu_t
    K += np.take(buf, _FROM_H, axis=1)

    g1, g2 = g[..., 3:6], g[..., 6:]
    dots = np.stack([np.einsum("mqa,mqa->mq", x, y) for x, y in ((g1, g1), (g1, g2), (g2, g2))], 1)
    dots *= mu_t * w[:, None, :]
    np.matmul(_GRAM_FROM_DOTS, dots @ geo.projectors().reshape(m, nq, 9), out=buf.reshape(m, 9, 9))
    K += np.take(buf, _FROM_GP, axis=1)
    return K.reshape(m, 9, 9)


def batch_element_loads(geo: QuadraturePointData, traction) -> np.ndarray:
    """Consistent nodal loads of the batch ``geo`` describes, shape (m, 9).

    ``traction`` (m, nq, 3) holds the load vectors at ``geo.points``. Only
    the measures of ``geo`` and the rule's shape values are read, so the
    variant does not matter.
    """
    m, nq = geo.measures.shape
    f = np.asarray(traction, dtype=float).reshape(m, nq, 3)
    return (_SHAPE_VALUES.T @ (geo.measures[..., None] * f)).reshape(m, 9)
