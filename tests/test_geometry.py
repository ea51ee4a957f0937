"""Surface parameters, the exact-surface oracle, material model, exact benchmark fields."""

import dataclasses
import math

import numpy as np
import pytest

from memshell.geometry import (
    Cylinder,
    GeometryError,
    MaterialModel,
    Torus,
    cylinder_exact,
    torus_exact,
)

from oracles import closest_point, signed_distance, surface_normal

MAT = MaterialModel(E=100.0, nu=0.5, t=1e-2)


# ---------------------------------------------------------------------------
# exact-surface oracle: signed distance, normals, closest point
# ---------------------------------------------------------------------------

def test_cylinder_signed_distance():
    cyl = Cylinder(1.0, 4.0)
    assert abs(signed_distance(cyl, np.array([0.0, 2.0, 0.0])) - 1.0) < 1e-14
    assert abs(signed_distance(cyl, np.array([3.0, 0.0, 1.0]))) < 1e-12
    assert signed_distance(cyl, np.array([0.0, 0.3, 0.0])) < 0


def test_torus_signed_distance():
    tor = Torus(1.0, 0.5)
    assert abs(signed_distance(tor, np.array([1.0, 0.0, 0.0])) + 0.5) < 1e-14
    assert abs(signed_distance(tor, np.array([1.5, 0.0, 0.0]))) < 1e-14
    assert abs(signed_distance(tor, np.array([0.0, 1.0, 0.5]))) < 1e-14


def test_torus_axis_locus_error():
    tor = Torus(1.0, 0.5)
    with pytest.raises(GeometryError, match="axis"):
        signed_distance(tor, np.array([0.0, 0.0, 1.0]))


def test_closest_point_undefined_on_the_core():
    # the cylinder axis and the tube centre circle are equidistant from the surface
    with pytest.raises(GeometryError, match="core"):
        closest_point(Cylinder(1.0, 4.0), np.array([2.0, 0.0, 0.0]))
    with pytest.raises(GeometryError, match="core"):
        closest_point(Torus(1.0, 0.5), np.array([0.0, -1.0, 0.0]))


def test_normal_at_examples():
    cyl = Cylinder(1.0, 4.0)
    assert np.allclose(surface_normal(cyl, np.array([2.0, 1.0, 0.0])), [0.0, 1.0, 0.0],
                       atol=1e-14)
    tor = Torus(1.0, 0.5)
    assert np.allclose(surface_normal(tor, np.array([1.5, 0.0, 0.0])), [1.0, 0.0, 0.0],
                       atol=1e-14)


def test_normal_at_unit_and_off_surface_error():
    rng = np.random.default_rng(3)
    tor = Torus(1.0, 0.5)
    theta = rng.uniform(0, 2 * np.pi, size=50)
    phi = rng.uniform(0, 2 * np.pi, size=50)
    pts = np.stack([
        (1.0 + 0.5 * np.sin(theta)) * np.cos(phi),
        (1.0 + 0.5 * np.sin(theta)) * np.sin(phi),
        0.5 * np.cos(theta),
    ], axis=1)
    n = surface_normal(tor, pts)
    assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() < 1e-12
    with pytest.raises(GeometryError, match="off surface"):
        surface_normal(tor, np.array([1.7, 0.0, 0.0]))


def test_finite_difference_gradient_matches_normal():
    # central differences of the signed distance approximate the normal field
    rng = np.random.default_rng(11)
    for surface, char in ((Cylinder(1.0, 4.0), 1.0), (Torus(1.0, 0.5), 1.0)):
        if isinstance(surface, Cylinder):
            alpha = rng.uniform(0, 2 * np.pi, size=20)
            x = rng.uniform(0, 4.0, size=20)
            pts = np.stack([x, np.cos(alpha), np.sin(alpha)], axis=1)
        else:
            theta = rng.uniform(0, 2 * np.pi, size=20)
            phi = rng.uniform(0, 2 * np.pi, size=20)
            pts = np.stack([
                (1.0 + 0.5 * np.sin(theta)) * np.cos(phi),
                (1.0 + 0.5 * np.sin(theta)) * np.sin(phi),
                0.5 * np.cos(theta),
            ], axis=1)
        step = 1e-6 * char
        grad = np.empty_like(pts)
        for c in range(3):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, c] += step
            dm[:, c] -= step
            grad[:, c] = (signed_distance(surface, dp) - signed_distance(surface, dm)) / (2 * step)
        assert np.abs(grad - surface_normal(surface, pts)).max() < 1e-5


def _off_surface_points(surface, rng):
    pts = rng.uniform(-1.6, 1.6, size=(40, 3))
    if isinstance(surface, Cylinder):
        pts[:, 1:] += 0.2 * np.sign(pts[:, 1:])  # keep away from the axis
    return pts


def test_projection_lands_on_surface():
    rng = np.random.default_rng(23)
    for surface in (Cylinder(1.0, 4.0), Torus(1.0, 0.5)):
        pts = _off_surface_points(surface, rng)
        proj = closest_point(surface, pts)
        assert np.abs(signed_distance(surface, proj)).max() < 1e-12
        # |d| equals the Euclidean distance to the projected point
        d = signed_distance(surface, pts)
        assert np.abs(np.abs(d) - np.linalg.norm(pts - proj, axis=1)).max() < 1e-12


@pytest.mark.parametrize("surface, exact", [
    (Cylinder(1.0, 4.0), cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0))),
    (Torus(1.0, 0.5), torus_exact(1.0, MAT, Torus(1.0, 0.5))),
], ids=["cylinder", "torus"])
def test_exact_fields_off_surface_are_those_of_the_closest_point(surface, exact):
    # the L2 error samples the exact fields on the facets, off the surface
    pts = _off_surface_points(surface, np.random.default_rng(37))
    proj = closest_point(surface, pts)
    scale = np.abs(exact.stress_at(proj)).max()
    assert np.abs(exact.stress_at(pts) - exact.stress_at(proj)).max() < 1e-13 * scale
    assert np.abs(exact.load_at(pts) - exact.load_at(proj)).max() < 1e-13


# ---------------------------------------------------------------------------
# material model
# ---------------------------------------------------------------------------

def test_material_derived_parameters():
    assert abs(MAT.mu - 100.0 / 3.0) < 1e-12
    assert abs(MAT.lam0 - 100.0 * 0.5 / 0.75) < 1e-12
    # plane stress is the only law: no mode, no three-dimensional lam
    assert [f.name for f in dataclasses.fields(MaterialModel)] == ["E", "nu", "t"]
    assert not hasattr(MAT, "lam")


def test_material_validation():
    MaterialModel(E=1.0, nu=0.5, t=1.0)  # incompressible is fine in plane stress
    with pytest.raises(GeometryError):
        MaterialModel(E=1.0, nu=1.0, t=1.0)
    with pytest.raises(GeometryError):
        MaterialModel(E=1.0, nu=-1.0, t=1.0)
    with pytest.raises(GeometryError):
        MaterialModel(E=-1.0, nu=0.3, t=1.0)
    with pytest.raises(GeometryError):
        MaterialModel(E=1.0, nu=0.3, t=0.0)


def test_geometry_validation():
    with pytest.raises(GeometryError, match=r"^cylinder requires r, L > 0, got r=0.0, L=4.0$"):
        Cylinder(0.0, 4.0)
    with pytest.raises(GeometryError, match=r"^cylinder requires r, L > 0, got r=1.0, L=-2.0$"):
        Cylinder(1.0, -2.0)
    with pytest.raises(GeometryError, match=r"^torus requires r > 0, got r=0.0$"):
        Torus(1.0, 0.0)
    with pytest.raises(GeometryError, match=r"^torus requires R > r \(non self-intersecting\), "
                                            r"got R=0.5, r=0.5$"):
        Torus(0.5, 0.5)


@pytest.mark.parametrize("make, message", [
    (lambda: MaterialModel(math.nan, 0.3, 0.01), "material requires a finite E, got E=nan"),
    (lambda: MaterialModel(math.inf, 0.3, 0.01), "material requires a finite E, got E=inf"),
    (lambda: MaterialModel(1.0, 0.3, math.nan), "material requires a finite t, got t=nan"),
    (lambda: Cylinder(math.nan, 4.0), "cylinder requires a finite r, got r=nan"),
    (lambda: Cylinder(1.0, math.inf), "cylinder requires a finite L, got L=inf"),
    (lambda: Torus(math.inf, 0.5), "torus requires a finite R, got R=inf"),
    (lambda: Torus(1.0, -math.inf), "torus requires a finite r, got r=-inf"),
], ids=["E-nan", "E-inf", "t-nan", "cylinder-r-nan", "cylinder-L-inf", "torus-R-inf",
        "torus-r-minus-inf"])
def test_non_finite_parameters_rejected_by_name(make, message):
    with pytest.raises(GeometryError) as err:
        make()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# cylinder exact solution
# ---------------------------------------------------------------------------

def test_cylinder_exact_stress_values():
    surf = Cylinder(1.0, 4.0)
    exact = cylinder_exact(1.0, MAT, surf)
    sig0 = exact.stress_at(np.array([0.0, 1.0, 0.0]))
    assert abs(sig0[0, 0] - 7.957747154594767) < 1e-12  # 1 / (4 pi r t)
    assert np.abs(sig0 - np.diag([sig0[0, 0], 0.0, 0.0])).max() < 1e-15
    sigL = exact.stress_at(np.array([4.0, 1.0, 0.0]))
    assert np.abs(sigL).max() < 1e-15


def test_cylinder_exact_load_total_force():
    # independent quadrature oracle: trapezoid over the exact parametrized
    # surface, integrand f_x * r dalpha dx (exact for the linear-in-x load)
    F, r, L = 1.0, 1.0, 4.0
    surf = Cylinder(r, L)
    exact = cylinder_exact(F, MAT, surf)
    nx, na = 400, 64
    xs = np.linspace(0.0, L, nx + 1)
    alphas = np.linspace(0.0, 2 * np.pi, na + 1)[:-1]
    total = 0.0
    wx = np.full(nx + 1, L / nx)
    wx[0] *= 0.5
    wx[-1] *= 0.5
    for x, w in zip(xs, wx):
        pts = np.stack([np.full(na, x), r * np.cos(alphas), r * np.sin(alphas)], axis=1)
        fx = exact.load_at(pts)[:, 0]
        total += w * np.sum(fx) * (2 * np.pi * r / na)
    assert abs(total - F / 2.0) < 1e-12


def test_cylinder_exact_inplane():
    surf = Cylinder(1.0, 4.0)
    exact = cylinder_exact(1.0, MAT, surf)
    rng = np.random.default_rng(5)
    alpha = rng.uniform(0, 2 * np.pi, size=30)
    pts = np.stack([rng.uniform(0, 4.0, size=30), np.cos(alpha), np.sin(alpha)], axis=1)
    sig = exact.stress_at(pts)
    n = surface_normal(surf, pts)
    assert np.abs(np.einsum("iab,ib->ia", sig, n)).max() < 1e-12
    assert np.abs(sig - sig.swapaxes(1, 2)).max() < 1e-15


# ---------------------------------------------------------------------------
# torus exact solution
# ---------------------------------------------------------------------------

def _torus_point(R, r, theta, phi):
    rho = R + r * np.sin(theta)
    return np.array([rho * np.cos(phi), rho * np.sin(phi), r * np.cos(theta)])


def test_torus_exact_stress_values():
    R, r = 1.0, 0.5
    surf = Torus(R, r)
    exact = torus_exact(1.0, MAT, surf)
    rng = np.random.default_rng(9)

    # toroidal principal stress p r / (2 t) = 25 everywhere
    for _ in range(10):
        pt = _torus_point(R, r, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        sig = exact.stress_at(pt)
        e1 = np.array([-pt[1], pt[0], 0.0])
        e1 /= np.linalg.norm(e1)
        assert abs(e1 @ sig @ e1 - 25.0) < 1e-12

    # hoop values on the outer and inner equators
    outer = _torus_point(R, r, math.pi / 2.0, 0.3)
    sig = exact.stress_at(outer)
    e2 = np.array([0.0, 0.0, -1.0])  # poloidal tangent at sin(theta)=1
    hoop_outer = 50.0 * (1.0 - 0.5 / (2.0 * 1.5))
    assert abs(e2 @ sig @ e2 - hoop_outer) < 1e-12
    assert abs(hoop_outer - 125.0 / 3.0) < 1e-12

    inner = _torus_point(R, r, -math.pi / 2.0, 1.1)
    sig = exact.stress_at(inner)
    assert abs(e2 @ sig @ e2 - 75.0) < 1e-12


def test_torus_exact_inplane_and_symmetric():
    R, r = 1.0, 0.5
    surf = Torus(R, r)
    exact = torus_exact(1.0, MAT, surf)
    rng = np.random.default_rng(13)
    theta = rng.uniform(0, 2 * np.pi, size=40)
    phi = rng.uniform(0, 2 * np.pi, size=40)
    pts = np.stack([
        (R + r * np.sin(theta)) * np.cos(phi),
        (R + r * np.sin(theta)) * np.sin(phi),
        r * np.cos(theta),
    ], axis=1)
    sig = exact.stress_at(pts)
    n = surface_normal(surf, pts)
    assert np.abs(np.einsum("iab,ib->ia", sig, n)).max() < 1e-12
    assert np.abs(sig - sig.swapaxes(1, 2)).max() < 1e-12


def test_torus_exact_load_is_pressure_times_normal():
    surf = Torus(1.0, 0.5)
    p = 2.5
    exact = torus_exact(p, MAT, surf)
    pt = _torus_point(1.0, 0.5, 0.7, 1.9)
    assert np.allclose(exact.load_at(pt), p * surface_normal(surf, pt), atol=1e-13)


def test_exact_solution_type_guards():
    with pytest.raises(GeometryError):
        cylinder_exact(1.0, MAT, Torus(1.0, 0.5))
    with pytest.raises(GeometryError):
        torus_exact(1.0, MAT, Cylinder(1.0, 4.0))
