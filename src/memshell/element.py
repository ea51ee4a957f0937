"""Quadrature, batched surface Jacobians, element matrices.

Linear triangles are extended into 3D through a nodal normal field: the
element Jacobian stacks the two (constant) facet tangents with the unit
normal, either interpolated from the nodes and renormalized per quadrature
point ("interpolated" variant) or taken as the facet normal ("facet"
variant). Physical basis gradients solve ``J g = (d/dxi, d/deta, 0)``; the
batched kernels use the closed-form inverse, the dual basis
``d_xi = (t_eta x n)/det``, ``d_eta = (n x t_xi)/det`` with
``det = n . (t_xi x t_eta)``. The gradients are therefore exactly tangential
to the variant's normal, which makes the membrane energy expressible through
plain tangential strains:

    energy density = 2 mu e:e - 4 mu (e n).(e n) + lam (div u)(div v)

with ``e`` the symmetrized tangential displacement gradient. This equals the
double-projected in-plane strain energy because the normal-normal strain
component vanishes for tangential gradients.

Every kernel works on all elements at once and backs the global assembly and
the stress recovery. The stiffness and load kernels share the batch's
:func:`quadrature_geometry`; the load kernel reads its points and measures.
The per-element ``np.linalg.solve`` reference that the tests compare them
with lives in ``tests/oracles.py``.
"""

import dataclasses

import numpy as np

__all__ = [
    "SingularJacobianError",
    "QuadratureRule",
    "quadrature_rule",
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


@dataclasses.dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights on the reference triangle.

    Weights sum to 1/2 (the reference area); points must lie in the closed
    reference triangle.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape != (w.size, 2):
            raise ValueError(f"points {pts.shape} do not match {w.size} weights")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(w.sum() - 0.5) > 1e-12:
            raise ValueError(f"quadrature weights must sum to 1/2, got {w.sum()}")
        if np.any(pts < -1e-12) or np.any(pts.sum(axis=1) > 1.0 + 1e-12):
            raise ValueError("quadrature points outside the reference triangle")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    def shape_values(self) -> np.ndarray:
        """(nq, 3) linear shape function values at the quadrature points."""
        xi, eta = self.points[:, 0], self.points[:, 1]
        return np.stack([1.0 - xi - eta, xi, eta], axis=1)


def quadrature_rule(order: int) -> QuadratureRule:
    """Symmetric triangle rule exact for polynomials of the given degree.

    ``order=1`` is the one-point centroid rule; ``order=2`` the three-point
    interior rule with weights 1/6.
    """
    if order == 1:
        return QuadratureRule(np.array([[1.0 / 3.0, 1.0 / 3.0]]), np.array([0.5]))
    if order == 2:
        pts = np.array([
            [1.0 / 6.0, 1.0 / 6.0],
            [2.0 / 3.0, 1.0 / 6.0],
            [1.0 / 6.0, 2.0 / 3.0],
        ])
        return QuadratureRule(pts, np.full(3, 1.0 / 6.0))
    raise ValueError(f"unsupported quadrature order {order} (supported: 1, 2)")


@dataclasses.dataclass(frozen=True)
class QuadraturePointData:
    """Per-element, per-quadrature-point geometry of a batch of elements.

    Attributes
    ----------
    gradients : (m, nq, 3, 3)
        Tangential basis gradients, ``[e, q, node, xyz]``.
    normals : (m, nq, 3)
        Unit variant normal at each quadrature point.
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

    def projectors(self) -> np.ndarray:
        """(m, nq, 3, 3) tangent-plane projectors ``P = I - n n^T``."""
        proj = self.normals[..., :, None] @ -self.normals[..., None, :]
        proj.reshape(-1, 9)[:, ::4] += 1.0
        return proj


def quadrature_geometry(coords, normals, quad: QuadratureRule | None = None,
                        variant: str = "interpolated") -> QuadraturePointData:
    """Batched element geometry at the quadrature points.

    ``coords`` and ``normals`` have shape (m, 3, 3): element, node, xyz.
    The gradients come from the closed-form inverse of the Jacobian with rows
    ``(t_xi, t_eta, n)``: its columns ``d_xi = (t_eta x n)/det`` and
    ``d_eta = (n x t_xi)/det``, ``det = n . (t_xi x t_eta)``, are the dual
    basis, so ``g_0 = -d_xi - d_eta``, ``g_1 = d_xi`` and ``g_2 = d_eta``.
    """
    if quad is None:
        quad = quadrature_rule(2)
    coords = np.asarray(coords, dtype=float)
    normals = np.asarray(normals, dtype=float)
    m = coords.shape[0]
    nq = len(quad)

    t_xi = coords[:, 1] - coords[:, 0]
    t_eta = coords[:, 2] - coords[:, 0]
    cross = np.cross(t_xi, t_eta)
    cn = np.linalg.norm(cross, axis=1)
    e1n = np.linalg.norm(t_xi, axis=1)
    e2n = np.linalg.norm(t_eta, axis=1)
    bad = cn <= 1e-14 * e1n * e2n
    if np.any(bad):
        raise SingularJacobianError("degenerate facet (zero area)",
                                    element=int(np.nonzero(bad)[0][0]))

    phi = quad.shape_values()
    if variant == "interpolated":
        n0 = phi @ normals
        nn = np.linalg.norm(n0, axis=2)
        if np.any(nn <= 1e-12):
            e = int(np.nonzero(nn <= 1e-12)[0][0])
            raise SingularJacobianError("interpolated normal vanishes", element=e)
        nhat = n0 / nn[..., None]
    elif variant == "facet":
        nhat = np.broadcast_to((cross / cn[:, None])[:, None, :], (m, nq, 3)).copy()
    else:
        raise ValueError(f"unknown geometry variant {variant!r}")

    dets = np.einsum("mqa,ma->mq", nhat, cross)
    bad = np.abs(dets) <= 1e-12 * cn[:, None]
    if np.any(bad):
        e = int(np.nonzero(bad.any(axis=1))[0][0])
        raise SingularJacobianError("normal lies in the facet plane", element=e)

    gradients = np.empty((m, nq, 3, 3))
    gradients[:, :, 1] = np.cross(t_eta[:, None, :], nhat) / dets[..., None]
    gradients[:, :, 2] = np.cross(nhat, t_xi[:, None, :]) / dets[..., None]
    np.negative(gradients[:, :, 1], out=gradients[:, :, 0])
    gradients[:, :, 0] -= gradients[:, :, 2]

    measures = quad.weights[None, :] * cn[:, None]
    points = phi @ coords
    return QuadraturePointData(gradients=gradients, normals=nhat,
                               measures=measures, points=points)


def batch_element_stiffness(coords, normals, material,
                            quad: QuadratureRule | None = None,
                            variant: str = "interpolated",
                            geometry: QuadraturePointData | None = None) -> np.ndarray:
    """Stiffness matrices of a batch of elements, shape (m, 9, 9).

    ``geometry`` is the batch's :func:`quadrature_geometry`, if the caller
    already has it (it then stands for ``quad`` and ``variant``).

    Uses the contracted form of the energy density: with ``g_i`` the
    tangential basis gradients, ``G_ij = g_i . g_j`` and ``P = I - n n^T``,

        K[(i,a),(j,b)] = t * sum_q w [ mu G_ij P_ab + mu g_j[a] g_i[b]
                                       + lam g_i[a] g_j[b] ]

    Both quadrature sums are batched matrix products over the quadrature
    axis: ``H[(i,a),(j,b)] = sum_q w g_i[a] g_j[b]`` and the ``G (x) P`` term
    ``GP[(i,j),(a,b)] = sum_q w G_ij P_ab``. Then, with the index moves
    written out, ``K[i,a,j,b] = t (mu GP[i,j,a,b] + mu H[j,a,i,b] + lam H[i,a,j,b])``.
    """
    geo = quadrature_geometry(coords, normals, quad, variant) if geometry is None else geometry
    m, nq = geo.measures.shape
    g = geo.gradients.reshape(m, nq, 9)
    w = geo.measures[:, None, :]
    mu_t = material.t * material.mu
    lam_t = material.t * material.lame_effective

    buf = np.empty((m, 9, 9))
    buf5 = buf.reshape(m, 3, 3, 3, 3)
    np.matmul(w * g.swapaxes(1, 2), g, out=buf)  # H
    K = lam_t * buf
    K5 = K.reshape(m, 3, 3, 3, 3)
    buf *= mu_t
    K5 += buf5.transpose(0, 3, 2, 1, 4)

    gram = geo.gradients @ geo.gradients.swapaxes(-1, -2)
    proj = geo.projectors()
    np.matmul(w * gram.reshape(m, nq, 9).swapaxes(1, 2), proj.reshape(m, nq, 9), out=buf)  # GP
    buf *= mu_t
    K5 += buf5.transpose(0, 1, 3, 2, 4)
    return K


def batch_element_loads(coords, normals, load_at,
                        quad: QuadratureRule | None = None,
                        geometry: QuadraturePointData | None = None) -> np.ndarray:
    """Consistent nodal loads of a batch of elements, shape (m, 9).

    Only the points and measures of ``geometry``, the batch's
    :func:`quadrature_geometry` for ``quad``, are read. If it is None the
    full interpolated geometry is computed, which raises
    :class:`SingularJacobianError` on a zero-area facet or a nodal normal
    in the facet plane.
    """
    if quad is None:
        quad = quadrature_rule(2)
    geo = quadrature_geometry(coords, normals, quad) if geometry is None else geometry
    m, nq = geo.measures.shape
    f = np.asarray(load_at(geo.points.reshape(-1, 3)), dtype=float).reshape(m, nq, 3)
    return (quad.shape_values().T @ (geo.measures[..., None] * f)).reshape(m, 9)
