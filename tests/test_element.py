"""Reference element, Jacobians, strain operators, element matrices."""

import numpy as np
import pytest
import sympy

from memshell.element import (
    SingularJacobianError,
    batch_element_loads,
    batch_element_stiffness,
    quadrature_geometry,
)
from memshell.geometry import MaterialModel
from memshell.mesh import build_cylinder_mesh, build_torus_mesh

from oracles import (
    THREE_POINT_RULE,
    basis_surface_gradients,
    cst_stiffness_embedded,
    disjoint_triangles,
    double_projection,
    element_jacobian,
    element_load,
    element_stiffness,
    geometry_of,
    per_point_geometry,
    random_rotation,
    random_valid_element,
    shape_values_and_ref_gradients,
    strain_displacement,
    tangential_strain,
)

MAT = MaterialModel(E=100.0, nu=0.5, t=1e-2)

FLAT_COORDS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
FLAT_NORMALS = np.tile(np.array([0.0, 0.0, 1.0]), (3, 1))
# on the unit right triangle (|t_xi x t_eta| = 1) the measures are the rule's
# weights and the points its reference coordinates (xi, eta, 0)
FLAT_GEOMETRY = quadrature_geometry(disjoint_triangles(FLAT_COORDS[None], FLAT_NORMALS[None]),
                                    "interpolated")


# ---------------------------------------------------------------------------
# shape functions and quadrature
# ---------------------------------------------------------------------------

def test_shape_values_at_nodes():
    values, grads = shape_values_and_ref_gradients(0.0, 0.0)
    assert np.allclose(values, [1.0, 0.0, 0.0])
    assert np.allclose(grads, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def test_shape_partition_of_unity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        xi = rng.uniform(0, 1)
        eta = rng.uniform(0, 1 - xi)
        values, grads = shape_values_and_ref_gradients(xi, eta)
        assert abs(values.sum() - 1.0) < 1e-15
        assert np.abs(grads.sum(axis=0)).max() < 1e-15


def test_shape_centroid():
    values, _ = shape_values_and_ref_gradients(1.0 / 3.0, 1.0 / 3.0)
    assert np.allclose(values, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])


def test_shape_outside_reference_triangle():
    with pytest.raises(ValueError):
        shape_values_and_ref_gradients(0.7, 0.7)


def test_quadrature_weight_sums():
    assert abs(FLAT_GEOMETRY.measures.sum() - 0.5) < 1e-15


def test_quadrature_order2_integrates_xi_eta():
    w = FLAT_GEOMETRY.measures[0]
    xi, eta, zero = FLAT_GEOMETRY.points[0].T
    assert np.array_equal(zero, np.zeros(3))
    assert abs(np.sum(w * xi * eta) - 1.0 / 24.0) < 1e-15
    assert abs(np.sum(w * xi * xi) - 1.0 / 12.0) < 1e-15


# ---------------------------------------------------------------------------
# element Jacobian and basis gradients
# ---------------------------------------------------------------------------

def test_jacobian_identity_for_flat_unit_triangle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        xi = rng.uniform(0, 1)
        eta = rng.uniform(0, 1 - xi)
        J = element_jacobian(FLAT_COORDS, FLAT_NORMALS, xi, eta)
        assert np.abs(J - np.eye(3)).max() < 1e-15


def test_jacobian_facet_variant_constant():
    rng = np.random.default_rng(8)
    coords, normals = random_valid_element(rng)
    J0 = element_jacobian(coords, normals, 0.2, 0.1, variant="facet")
    J1 = element_jacobian(coords, normals, 0.6, 0.3, variant="facet")
    assert np.abs(J0 - J1).max() == 0.0
    # interpolated variant varies unless the nodal normals coincide
    Ji0 = element_jacobian(coords, normals, 0.2, 0.1)
    Ji1 = element_jacobian(coords, normals, 0.6, 0.3)
    assert np.abs(Ji0[2] - Ji1[2]).max() > 0.0


def test_jacobian_determinant_is_twice_area_for_facet_normal():
    rng = np.random.default_rng(12)
    for _ in range(10):
        coords, _ = random_valid_element(rng, curved=False)
        facet_n = np.cross(coords[1] - coords[0], coords[2] - coords[0])
        area = 0.5 * np.linalg.norm(facet_n)  # brute-force area
        normals = np.tile(facet_n / np.linalg.norm(facet_n), (3, 1))
        J = element_jacobian(coords, normals, 1.0 / 3.0, 1.0 / 3.0)
        assert abs(abs(np.linalg.det(J)) - 2.0 * area) < 1e-12 * max(1.0, area)


def test_jacobian_singular_when_normal_in_facet_plane():
    coords = FLAT_COORDS
    normals = np.tile(np.array([1.0, 0.0, 0.0]), (3, 1))  # in-plane normal
    with pytest.raises(SingularJacobianError):
        element_jacobian(coords, normals, 0.25, 0.25)


@pytest.mark.parametrize("normals, variant, message", [
    (np.tile([1.0, 0.0, 0.0], (3, 1)), "interpolated", "element 1: normal lies in the facet plane"),
    (FLAT_NORMALS, "nodal", "unknown geometry variant 'nodal'"),
], ids=["in-plane-normal", "unknown-variant"])
def test_quadrature_geometry_rejects_bad_elements(normals, variant, message):
    # the second of two elements carries the normals
    mesh = disjoint_triangles(np.stack([FLAT_COORDS, FLAT_COORDS + 2.0]),
                              np.stack([FLAT_NORMALS, normals]))
    with pytest.raises(ValueError) as err:
        quadrature_geometry(mesh, variant)
    assert str(err.value) == message
    assert type(err.value) is (ValueError if variant == "nodal" else SingularJacobianError)


def test_opposed_nodal_normals_interpolate_to_unit_normals():
    # the second and third nodal normals oppose the first: at each point the
    # shape values (2/3, 1/6, 1/6) leave an interpolated normal of length >= 1/3
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, -1.0]])
    geo = quadrature_geometry(disjoint_triangles(FLAT_COORDS[None], normals[None]),
                              "interpolated")
    assert np.isfinite(geo.gradients).all()
    assert np.abs(np.linalg.norm(geo.normals, axis=2) - 1.0).max() <= 1e-15
    assert np.array_equal(geo.normals[0, :, 2], [1.0, -1.0, -1.0])


def test_basis_gradients_flat_case():
    J = element_jacobian(FLAT_COORDS, FLAT_NORMALS, 0.25, 0.25)
    g = basis_surface_gradients(J)
    expected = np.array([[-1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.abs(g - expected).max() < 1e-14


def test_basis_gradients_tangential_and_partition():
    rng = np.random.default_rng(21)
    for _ in range(100):
        coords, normals = random_valid_element(rng)
        for (xi, eta) in THREE_POINT_RULE.points:
            J = element_jacobian(coords, normals, xi, eta)
            g = basis_surface_gradients(J)
            scale = np.abs(g).max()
            assert np.abs(g @ J[2]).max() <= 1e-13 * max(1.0, scale)
            assert np.abs(g.sum(axis=0)).max() <= 1e-13 * max(1.0, scale)


# ---------------------------------------------------------------------------
# strain operators and the tensor identities
# ---------------------------------------------------------------------------

def test_flat_linear_field_strain_matrix():
    # tangent plane x1-x2: the tangential strain keeps the halved normal
    # gradients in the off-diagonal slots and the double projection drops them
    rng = np.random.default_rng(31)
    A = rng.standard_normal((3, 3))  # u(x) = A @ x
    nodal_u = FLAT_COORDS @ A.T
    J = element_jacobian(FLAT_COORDS, FLAT_NORMALS, 0.25, 0.5)
    g = basis_surface_gradients(J)
    eps = tangential_strain(nodal_u, g)
    expected = np.array([
        [A[0, 0], 0.5 * (A[0, 1] + A[1, 0]), 0.5 * A[2, 0]],
        [0.5 * (A[0, 1] + A[1, 0]), A[1, 1], 0.5 * A[2, 1]],
        [0.5 * A[2, 0], 0.5 * A[2, 1], 0.0],
    ])
    assert np.abs(eps - expected).max() < 1e-13
    eps_p = double_projection(eps, np.array([0.0, 0.0, 1.0]))
    expected_p = expected.copy()
    expected_p[2, :] = 0.0
    expected_p[:, 2] = 0.0
    assert np.abs(eps_p - expected_p).max() < 1e-13


def test_rigid_translation_zero_strain():
    rng = np.random.default_rng(41)
    coords, normals = random_valid_element(rng)
    c = rng.standard_normal(3)
    nodal_u = np.tile(c, (3, 1))
    J = element_jacobian(coords, normals, 0.3, 0.3)
    g = basis_surface_gradients(J)
    eps = tangential_strain(nodal_u, g)
    assert np.abs(eps).max() < 1e-13 * max(1.0, np.abs(g).max()) * np.abs(c).max()


def test_strain_displacement_operator_shape_and_symmetry():
    J = element_jacobian(FLAT_COORDS, FLAT_NORMALS, 0.25, 0.25)
    g = basis_surface_gradients(J)
    B = strain_displacement(g, J[2])
    assert B.shape == (9, 3, 3)
    assert np.abs(B - B.swapaxes(1, 2)).max() < 1e-15
    # contraction with nodal displacements must reproduce the direct strain
    rng = np.random.default_rng(51)
    nodal_u = rng.standard_normal((3, 3))
    eps_direct = tangential_strain(nodal_u, g)
    eps_B = np.einsum("kab,k->ab", B, nodal_u.reshape(9))
    assert np.abs(eps_direct - eps_B).max() < 1e-14


def test_strain_displacement_rejects_non_tangential():
    g = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])
    with pytest.raises(ValueError, match="tangential"):
        strain_displacement(g, np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_quadrature_projectors_properties_random_elements(variant):
    # P = I - n n^T: symmetric, idempotent, annihilates n, trace 2
    rng = np.random.default_rng(7)
    coords, normals = zip(*(random_valid_element(rng) for _ in range(300)))
    geo = quadrature_geometry(disjoint_triangles(coords, normals), variant)
    P = geo.projectors()
    n = geo.normals
    assert P.shape == n.shape + (3,)
    assert np.abs(P - P.swapaxes(-1, -2)).max() < 1e-15
    assert np.abs(P @ P - P).max() < 1e-14
    assert np.abs(np.einsum("mqab,mqb->mqa", P, n)).max() < 1e-14
    assert np.abs(np.trace(P, axis1=-2, axis2=-1) - 2.0).max() < 1e-13


def test_double_contraction_identity_many_random_elements():
    # in-plane double contraction == full contraction minus twice the
    # normal-slice term, per quadrature point
    rng = np.random.default_rng(61)
    for _ in range(1000):
        coords, normals = random_valid_element(rng)
        u = rng.standard_normal((3, 3))
        v = rng.standard_normal((3, 3))
        xi, eta = THREE_POINT_RULE.points[rng.integers(0, 3)]
        J = element_jacobian(coords, normals, xi, eta)
        g = basis_surface_gradients(J)
        n = J[2]
        eps_u = tangential_strain(u, g)
        eps_v = tangential_strain(v, g)
        direct = np.tensordot(double_projection(eps_u, n), double_projection(eps_v, n))
        contracted = np.tensordot(eps_u, eps_v) - 2.0 * (eps_u @ n) @ (eps_v @ n)
        scale = max(1.0, abs(np.tensordot(eps_u, eps_v)))
        assert abs(direct - contracted) <= 1e-12 * scale


def test_trace_identity_many_random_elements():
    # tr(P eps P) equals the tangential divergence for tangential gradients
    rng = np.random.default_rng(71)
    for _ in range(1000):
        coords, normals = random_valid_element(rng)
        u = rng.standard_normal((3, 3))
        xi, eta = THREE_POINT_RULE.points[rng.integers(0, 3)]
        J = element_jacobian(coords, normals, xi, eta)
        g = basis_surface_gradients(J)
        n = J[2]
        eps = tangential_strain(u, g)
        div = float(np.einsum("ia,ia->", u, g))
        scale = max(1.0, np.abs(eps).max())
        assert abs(n @ eps @ n) <= 1e-13 * scale
        assert abs(np.trace(double_projection(eps, n)) - div) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# element stiffness
# ---------------------------------------------------------------------------

def test_stiffness_flat_matches_cst_oracle():
    rng = np.random.default_rng(81)
    for _ in range(20):
        # random triangle in the x1-x2 plane
        coords = np.zeros((3, 3))
        coords[:, :2] = rng.uniform(-1, 1, size=(3, 2))
        area2 = np.cross(coords[1] - coords[0], coords[2] - coords[0])[2]
        if abs(area2) < 0.2:
            continue
        if area2 < 0:
            coords[[1, 2]] = coords[[2, 1]]
        normals = FLAT_NORMALS
        K = element_stiffness(coords, normals, MAT)
        K_oracle = cst_stiffness_embedded(
            coords, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
            MAT.E, MAT.nu, MAT.t,
        )
        assert np.abs(K - K_oracle).max() <= 1e-10 * np.abs(K_oracle).max()


def test_stiffness_flat_matches_cst_oracle_rotated_plane():
    rng = np.random.default_rng(91)
    for _ in range(10):
        Q = random_rotation(rng)
        e1, e2, n = Q[:, 0], Q[:, 1], Q[:, 2]
        xy = rng.uniform(-1, 1, size=(3, 2))
        u, v = xy[1] - xy[0], xy[2] - xy[0]
        if u[0] * v[1] - u[1] * v[0] < 0.2:
            continue
        coords = xy @ np.stack([e1, e2]) + rng.standard_normal(3)
        normals = np.tile(n, (3, 1))
        K = element_stiffness(coords, normals, MAT)
        K_oracle = cst_stiffness_embedded(coords, e1, e2, MAT.E, MAT.nu, MAT.t)
        assert np.abs(K - K_oracle).max() <= 1e-10 * np.abs(K_oracle).max()


def test_stiffness_translation_kernel():
    rng = np.random.default_rng(101)
    for _ in range(30):
        coords, normals = random_valid_element(rng)
        K = element_stiffness(coords, normals, MAT)
        for c in range(3):
            u = np.tile(np.eye(3)[c], 3)
            assert np.abs(K @ u).max() <= 1e-12 * np.abs(K).max()


def test_stiffness_flat_inplane_rotation_zero_energy():
    center = FLAT_COORDS.mean(axis=0)
    u = np.cross(np.array([0.0, 0.0, 1.0]), FLAT_COORDS - center).reshape(9)
    K = element_stiffness(FLAT_COORDS, FLAT_NORMALS, MAT)
    energy = u @ K @ u
    assert abs(energy) <= 1e-12 * np.abs(K).max() * (u @ u)


def test_stiffness_symmetric_psd_random_elements():
    rng = np.random.default_rng(111)
    for _ in range(50):
        coords, normals = random_valid_element(rng)
        K = element_stiffness(coords, normals, MAT)
        assert np.abs(K - K.T).max() <= 1e-13 * np.abs(K).max()
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-10 * w.max()


def test_stiffness_facet_equals_interpolated_on_flat_elements():
    rng = np.random.default_rng(121)
    for _ in range(10):
        coords = np.zeros((3, 3))
        coords[:, :2] = rng.uniform(-1, 1, size=(3, 2))
        if np.cross(coords[1] - coords[0], coords[2] - coords[0])[2] < 0.2:
            continue
        Ki = element_stiffness(coords, FLAT_NORMALS, MAT, variant="interpolated")
        Kf = element_stiffness(coords, FLAT_NORMALS, MAT, variant="facet")
        assert np.abs(Ki - Kf).max() <= 1e-14 * np.abs(Ki).max()


def _random_batch(rng, m):
    """m random elements: their corners, nodal normals and mesh of disjoint triangles."""
    coords = np.empty((m, 3, 3))
    normals = np.empty((m, 3, 3))
    for e in range(m):
        coords[e], normals[e] = random_valid_element(rng)
    return coords, normals, disjoint_triangles(coords, normals)


@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_batch_stiffness_matches_single_elements(variant):
    # the batched closed-form kernel against the per-element reference path
    coords, normals, mesh = _random_batch(np.random.default_rng(131), 40)
    batch = batch_element_stiffness(quadrature_geometry(mesh, variant), MAT)
    for e in range(40):
        single = element_stiffness(coords[e], normals[e], MAT, variant=variant)
        assert np.abs(batch[e] - single).max() <= 1e-12 * np.abs(single).max()


@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_batch_stiffness_gram_from_dual_basis_matches_full_gram(variant):
    # the kernel builds G from three dot products through g_0 = -g_1 - g_2;
    # the same contraction with the full product G = g g^T
    geo = quadrature_geometry(_random_batch(np.random.default_rng(139), 200)[2], variant)
    g, w = geo.gradients, geo.measures
    gram = g @ g.swapaxes(-1, -2)
    ref = MAT.t * (MAT.mu * np.einsum("eq,eqij,eqab->eiajb", w, gram, geo.projectors())
                   + MAT.mu * np.einsum("eq,eqja,eqib->eiajb", w, g, g)
                   + MAT.lam0 * np.einsum("eq,eqia,eqjb->eiajb", w, g, g)).reshape(-1, 9, 9)
    K = batch_element_stiffness(geo, MAT)
    assert np.all(np.abs(K - ref).max(axis=(1, 2)) <= 1e-14 * np.abs(ref).max(axis=(1, 2)))


@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_dual_basis_gradients_match_jacobian_solve(variant):
    # closed-form dual basis against np.linalg.solve on each element Jacobian
    coords, normals, mesh = _random_batch(np.random.default_rng(137), 40)
    geo = quadrature_geometry(mesh, variant)
    for e in range(40):
        for q, (xi, eta) in enumerate(THREE_POINT_RULE.points):
            k = 0 if variant == "facet" else q  # a facet's one point stands for every point
            J = element_jacobian(coords[e], normals[e], xi, eta, variant)
            g = basis_surface_gradients(J)
            assert np.abs(geo.gradients[e, k] - g).max() <= 1e-13 * np.abs(g).max()
            assert np.abs(geo.normals[e, k] - J[2]).max() <= 1e-15


def test_facet_stiffness_equals_per_point_integration():
    # the facet integrand is constant, so its one point with the summed
    # weights integrates what the rule's points integrate one by one
    geo = quadrature_geometry(_random_batch(np.random.default_rng(143), 200)[2], "facet")
    assert geo.gradients.shape == (200, 1, 3, 3) and geo.normals.shape == (200, 1, 3)
    K = batch_element_stiffness(geo, MAT)
    ref = batch_element_stiffness(per_point_geometry(geo), MAT)
    assert np.all(np.abs(K - ref).max(axis=(1, 2)) <= 1e-14 * np.abs(ref).max(axis=(1, 2)))


def test_batch_stiffness_reports_singular_element():
    coords = np.stack([FLAT_COORDS, FLAT_COORDS + np.array([5.0, 0.0, 0.0])])
    normals = np.stack([FLAT_NORMALS, np.tile([1.0, 0.0, 0.0], (3, 1))])
    with pytest.raises(SingularJacobianError, match="element 1"):
        batch_element_stiffness(
            quadrature_geometry(disjoint_triangles(coords, normals), "interpolated"), MAT)


# ---------------------------------------------------------------------------
# element load
# ---------------------------------------------------------------------------

def test_load_constant_force_splits_evenly():
    fe = element_load(FLAT_COORDS, FLAT_NORMALS, lambda x: np.broadcast_to([0.0, 0.0, 1.0], x.shape))
    expected = np.zeros(9)
    expected[2::3] = 0.5 / 3.0  # area 1/2 shared by three nodes
    assert np.abs(fe - expected).max() < 1e-15


def test_load_zero_force():
    fe = element_load(FLAT_COORDS, FLAT_NORMALS, lambda x: np.zeros_like(x))
    assert np.abs(fe).max() == 0.0


def test_load_linear_force_matches_symbolic_integral():
    # symbolic oracle: integrate phi_i * f_a over the reference triangle
    x, y = sympy.symbols("x y", real=True)
    a = np.array([0.3, -1.2, 0.7])
    b = np.array([0.9, 0.4, -0.5])
    c = np.array([-0.2, 1.1, 0.6])

    def f(pts):
        return a + pts[..., 0:1] * b + pts[..., 1:2] * c

    phis = [1 - x - y, x, y]
    expected = np.empty(9)
    for i, phi in enumerate(phis):
        for comp in range(3):
            integrand = phi * (a[comp] + x * b[comp] + y * c[comp])
            val = sympy.integrate(
                sympy.integrate(integrand, (y, 0, 1 - x)), (x, 0, 1)
            )
            expected[3 * i + comp] = float(val)
    fe = element_load(FLAT_COORDS, FLAT_NORMALS, f)
    assert np.abs(fe - expected).max() < 1e-14


def test_batch_loads_match_single():
    coords, normals, mesh = _random_batch(np.random.default_rng(141), 10)

    def f(pts):
        return np.stack([pts[..., 0], pts[..., 1] ** 0, pts[..., 2]], axis=-1)

    geo = quadrature_geometry(mesh, "interpolated")
    batch = batch_element_loads(geo, f(geo.points))
    for e in range(10):
        single = element_load(coords[e], normals[e], f)
        assert np.abs(batch[e] - single).max() < 1e-13



@pytest.mark.parametrize("mesh", [build_cylinder_mesh(1.0, 4.0, 7, 5),
                                  build_torus_mesh(1.0, 0.5, 10, 6)], ids=["cylinder", "torus"])
def test_batch_loads_agree_across_variants(mesh):
    # the load kernel reads only the measures and the rule's shape values, and the
    # traction is taken at the points: none of them depends on the variant
    def f(pts):
        return np.stack([pts[..., 0] ** 2, np.sin(pts[..., 1]), pts[..., 2] - 0.5], axis=-1)

    geos = [geometry_of(mesh, variant=v) for v in ("interpolated", "facet")]
    interpolated, facet = (batch_element_loads(geo, f(geo.points)) for geo in geos)
    assert np.abs(interpolated).max() > 0
    assert np.array_equal(interpolated, facet)
