"""Reference-element basis, surface Jacobians, quadrature, element matrices.

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

Batched (all elements at once) versions of the kernels back the global
assembly and the stress recovery; the single-element functions are the
reference implementations.
"""

import dataclasses

import numpy as np

__all__ = [
    "SingularJacobianError",
    "QuadratureRule",
    "quadrature_rule",
    "shape_values_and_ref_gradients",
    "element_jacobian",
    "basis_surface_gradients",
    "strain_displacement",
    "element_stiffness",
    "element_load",
    "ElementMatrices",
    "element_matrices",
    "quadrature_geometry",
    "QuadraturePointData",
    "batch_element_stiffness",
    "batch_element_loads",
]

#: Reference gradients of the linear nodal basis (1-xi-eta, xi, eta).
REFERENCE_GRADIENTS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
REFERENCE_GRADIENTS.setflags(write=False)

# Right-hand sides of J g_i = (dphi_i/dxi, dphi_i/deta, 0), one column per node.
_GRAD_RHS = np.zeros((3, 3))
_GRAD_RHS[:2, :] = REFERENCE_GRADIENTS.T
_GRAD_RHS.setflags(write=False)

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


class SingularJacobianError(ValueError):
    """The element Jacobian is singular (normal lies in the facet plane)."""

    def __init__(self, message: str, element: int | None = None):
        super().__init__(message if element is None else f"element {element}: {message}")
        self.element = element


def shape_values_and_ref_gradients(xi: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear shape function values and reference gradients at ``(xi, eta)``.

    Returns ``(values, gradients)`` with ``values = (1-xi-eta, xi, eta)`` and
    the constant gradients ``((-1,-1), (1,0), (0,1))``. The point must lie in
    the closed reference triangle.
    """
    if xi < -1e-12 or eta < -1e-12 or xi + eta > 1.0 + 1e-12:
        raise ValueError(f"({xi}, {eta}) outside the reference triangle")
    return np.array([1.0 - xi - eta, xi, eta]), REFERENCE_GRADIENTS.copy()


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


def element_jacobian(coords, normals, xi: float, eta: float,
                     variant: str = "interpolated") -> np.ndarray:
    """Jacobian of the normal-extended element map at ``(xi, eta)``.

    Rows are the two constant facet tangents and the unit normal: the
    renormalized linear interpolation of the nodal normals for
    ``variant="interpolated"``, or the facet normal for ``variant="facet"``
    (constant over the element).

    Parameters
    ----------
    coords : (3, 3) array_like
        Node positions, one row per node.
    normals : (3, 3) array_like
        Unit nodal normals, one row per node.

    Raises
    ------
    SingularJacobianError
        If the (interpolated) normal lies in the facet plane.
    """
    coords = np.asarray(coords, dtype=float)
    normals = np.asarray(normals, dtype=float)
    t_xi = coords[1] - coords[0]
    t_eta = coords[2] - coords[0]
    cross = np.cross(t_xi, t_eta)
    cn = np.linalg.norm(cross)
    if cn <= 1e-14 * np.linalg.norm(t_xi) * np.linalg.norm(t_eta):
        raise SingularJacobianError("degenerate facet (zero area)")
    if variant == "interpolated":
        values, _ = shape_values_and_ref_gradients(xi, eta)
        n0 = values @ normals
        nn = np.linalg.norm(n0)
        if nn <= 1e-12:
            raise SingularJacobianError("interpolated normal vanishes")
        nhat = n0 / nn
    elif variant == "facet":
        nhat = cross / cn
    else:
        raise ValueError(f"unknown geometry variant {variant!r}")
    det = nhat @ cross
    if abs(det) <= 1e-12 * cn:
        raise SingularJacobianError(
            f"normal lies in the facet plane (normal {nhat}, facet area {0.5 * cn:.3e})"
        )
    return np.vstack([t_xi, t_eta, nhat])


def basis_surface_gradients(jacobian, ref_gradients=None) -> np.ndarray:
    """Physical (surface) gradients of the three nodal basis functions.

    Solves ``J g_i = (dphi_i/dxi, dphi_i/deta, 0)``; because the third row of
    ``J`` is the unit normal, each gradient is exactly tangential and the
    three gradients sum to zero.

    Returns a (3, 3) array with ``g_i`` in row ``i``.
    """
    if ref_gradients is None:
        rhs = _GRAD_RHS
    else:
        rhs = np.zeros((3, 3))
        rhs[:2, :] = np.asarray(ref_gradients, dtype=float).T
    try:
        sol = np.linalg.solve(np.asarray(jacobian, dtype=float), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(f"singular Jacobian: {exc}") from exc
    return sol.T


def strain_displacement(gradients, normal) -> np.ndarray:
    """Per-dof tangential strain operators.

    For dof ``k = 3*i + a`` (node ``i``, displacement component ``a``) the
    returned ``(9, 3, 3)`` array holds the symmetrized tangential gradient
    ``(e_a (x) g_i + g_i (x) e_a) / 2`` produced by a unit nodal displacement.
    The gradients must be tangential to ``normal``.
    """
    g = np.asarray(gradients, dtype=float)
    n = np.asarray(normal, dtype=float)
    scale = np.abs(g).max()
    if scale > 0 and np.abs(g @ n).max() > 1e-10 * scale:
        raise ValueError("gradients are not tangential to the supplied normal")
    B = np.zeros((9, 3, 3))
    for i in range(3):
        for a in range(3):
            k = 3 * i + a
            B[k, a, :] += 0.5 * g[i]
            B[k, :, a] += 0.5 * g[i]
    return B


def element_stiffness(coords, normals, material, quad: QuadratureRule | None = None,
                      variant: str = "interpolated") -> np.ndarray:
    """9x9 membrane stiffness of one element (dof order: node-major x,y,z).

    Integrates ``t * [2 mu e:e - 4 mu (e n).(e n) + lam (div u)(div v)]`` over
    the facet with the given rule. The matrix is symmetric positive
    semidefinite with the three translations in its kernel.
    """
    if quad is None:
        quad = quadrature_rule(2)
    coords = np.asarray(coords, dtype=float)
    normals = np.asarray(normals, dtype=float)
    mu = material.mu
    lam = material.lame_effective
    measure = np.linalg.norm(np.cross(coords[1] - coords[0], coords[2] - coords[0]))

    K = np.zeros((9, 9))
    for (xi, eta), w in zip(quad.points, quad.weights):
        J = element_jacobian(coords, normals, xi, eta, variant)
        g = basis_surface_gradients(J)
        n = J[2]
        B = strain_displacement(g, n)
        Bn = np.einsum("kab,b->ka", B, n)
        div = g.reshape(9)
        dS = w * measure
        K += dS * (
            2.0 * mu * np.einsum("kab,lab->kl", B, B)
            - 4.0 * mu * Bn @ Bn.T
            + lam * np.outer(div, div)
        )
    return material.t * K


def element_load(coords, normals, load_at, quad: QuadratureRule | None = None) -> np.ndarray:
    """Consistent nodal load 9-vector ``int f . phi_i`` over the facet.

    ``load_at`` maps points of shape ``(..., 3)`` to load vectors of the same
    shape (force per unit midsurface area); it is evaluated at the mapped
    quadrature points. No thickness factor is applied.
    """
    if quad is None:
        quad = quadrature_rule(2)
    coords = np.asarray(coords, dtype=float)
    measure = np.linalg.norm(np.cross(coords[1] - coords[0], coords[2] - coords[0]))
    phi = quad.shape_values()
    points = phi @ coords
    f = np.asarray(load_at(points), dtype=float).reshape(len(quad), 3)
    return np.einsum("q,qi,qa->ia", quad.weights * measure, phi, f).reshape(9)


@dataclasses.dataclass(frozen=True)
class ElementMatrices:
    """Stiffness (9x9) and consistent load (9,) of one element."""

    stiffness: np.ndarray
    load: np.ndarray


def element_matrices(coords, normals, material, load_at,
                     quad: QuadratureRule | None = None,
                     variant: str = "interpolated") -> ElementMatrices:
    return ElementMatrices(
        stiffness=element_stiffness(coords, normals, material, quad, variant),
        load=element_load(coords, normals, load_at, quad),
    )


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
        n0 = np.einsum("qi,mia->mqa", phi, normals)
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
    points = np.einsum("qi,mia->mqa", phi, coords)
    return QuadraturePointData(gradients=gradients, normals=nhat,
                               measures=measures, points=points)


def batch_element_stiffness(coords, normals, material,
                            quad: QuadratureRule | None = None,
                            variant: str = "interpolated") -> np.ndarray:
    """Stiffness matrices of a batch of elements, shape (m, 9, 9).

    Uses the contracted form of the energy density: with ``g_i`` the
    tangential basis gradients, ``G_ij = g_i . g_j`` and ``P = I - n n^T``,

        K[(i,a),(j,b)] = t * sum_q w [ mu G_ij P_ab + mu g_j[a] g_i[b]
                                       + lam g_i[a] g_j[b] ]

    Both quadrature sums are batched matrix products over the quadrature
    axis: ``H[(i,a),(j,b)] = sum_q w g_i[a] g_j[b]`` and the ``G (x) P`` term
    ``GP[(i,j),(a,b)] = sum_q w G_ij P_ab``. Then, with the index moves
    written out, ``K[i,a,j,b] = t (mu GP[i,j,a,b] + mu H[j,a,i,b] + lam H[i,a,j,b])``.
    """
    geo = quadrature_geometry(coords, normals, quad, variant)
    m, nq = geo.measures.shape
    g = geo.gradients.reshape(m, nq, 9)
    n = geo.normals
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
    proj = _EYE3 - n[..., :, None] * n[..., None, :]
    np.matmul(w * gram.reshape(m, nq, 9).swapaxes(1, 2), proj.reshape(m, nq, 9), out=buf)  # GP
    buf *= mu_t
    K5 += buf5.transpose(0, 1, 3, 2, 4)
    return K


def batch_element_loads(coords, normals, load_at,
                        quad: QuadratureRule | None = None) -> np.ndarray:
    """Consistent nodal loads of a batch of elements, shape (m, 9)."""
    if quad is None:
        quad = quadrature_rule(2)
    coords = np.asarray(coords, dtype=float)
    m = coords.shape[0]
    cross = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    cn = np.linalg.norm(cross, axis=1)
    phi = quad.shape_values()
    points = np.einsum("qi,mia->mqa", phi, coords)
    f = np.asarray(load_at(points.reshape(-1, 3)), dtype=float).reshape(m, len(quad), 3)
    measures = quad.weights[None, :] * cn[:, None]
    return np.einsum("mq,qi,mqa->mia", measures, phi, f).reshape(m, 9)
