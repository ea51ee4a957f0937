"""Benchmark surface parameters, material law, exact fields.

The two benchmark geometries (axis-aligned cylinder, z-axis torus) are
validated parameter records; the solver itself only sees the faceted mesh and
its nodal normals. Their closed-form loads and statically determinate stress
fields are used for error measurement.
"""

import dataclasses
from typing import Callable

import numpy as np

__all__ = [
    "GeometryError",
    "Cylinder",
    "Torus",
    "MaterialModel",
    "ExactSolution",
    "cylinder_exact",
    "torus_exact",
]


class GeometryError(ValueError):
    """Invalid geometric or material parameters."""


def _require_finite(owner: str, **values: float) -> None:
    """Raise GeometryError naming the first parameter that is NaN or infinite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise GeometryError(f"{owner} requires a finite {name}, got {name}={value}")


@dataclasses.dataclass(frozen=True)
class Cylinder:
    """Open cylinder of radius ``r`` about the x-axis, ends at x=0 and x=L."""

    r: float
    L: float

    def __post_init__(self):
        _require_finite("cylinder", r=self.r, L=self.L)
        if self.r <= 0 or self.L <= 0:
            raise GeometryError(f"cylinder requires r, L > 0, got r={self.r}, L={self.L}")


@dataclasses.dataclass(frozen=True)
class Torus:
    """Torus around the z-axis with major radius ``R``, minor (tube) radius ``r``.

    Angle convention (shared with :func:`memshell.mesh.build_torus_mesh`):
    ``phi`` is the toroidal angle about the z-axis; the poloidal angle
    ``theta`` is measured so that the distance from the axis is
    ``R + r*sin(theta)`` and ``z = r*cos(theta)``. Thus ``sin(theta) = +1`` on
    the outer equator and ``-1`` on the inner equator.
    """

    R: float
    r: float

    def __post_init__(self):
        _require_finite("torus", R=self.R, r=self.r)
        if self.r <= 0:
            raise GeometryError(f"torus requires r > 0, got r={self.r}")
        if self.R <= self.r:
            raise GeometryError(
                f"torus requires R > r (non self-intersecting), got R={self.R}, r={self.r}"
            )


@dataclasses.dataclass(frozen=True)
class MaterialModel:
    """Linear isotropic plane-stress material for a thin membrane.

    Parameters
    ----------
    E : float
        Young's modulus, positive and finite.
    nu : float
        Poisson's ratio in ``(-1, 1)``; the incompressible value 1/2 is
        allowed.
    t : float
        Thickness, positive and finite.
    """

    E: float
    nu: float
    t: float

    def __post_init__(self):
        _require_finite("material", E=self.E, t=self.t)
        if self.E <= 0:
            raise GeometryError(f"Young's modulus must be positive, got {self.E}")
        if self.t <= 0:
            raise GeometryError(f"thickness must be positive, got {self.t}")
        if not -1.0 < self.nu < 1.0:
            raise GeometryError(f"plane stress requires -1 < nu < 1, got nu={self.nu}")

    @property
    def mu(self) -> float:
        """Shear modulus E / (2 (1 + nu))."""
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def lam0(self) -> float:
        """Plane-stress effective Lame parameter 2 lam mu / (lam + 2 mu) = E nu / (1 - nu^2)."""
        return self.E * self.nu / (1.0 - self.nu**2)


@dataclasses.dataclass(frozen=True)
class ExactSolution:
    """Closed-form load and stress fields of a benchmark problem.

    Both callables are vectorized: they accept points of shape ``(..., 3)``
    and return ``(..., 3)`` (force per unit midsurface area) respectively
    ``(..., 3, 3)`` (symmetric in-plane stress tensors).
    """

    load_at: Callable[[np.ndarray], np.ndarray]
    stress_at: Callable[[np.ndarray], np.ndarray]


def cylinder_exact(F: float, material: MaterialModel, surface: Cylinder) -> ExactSolution:
    """Exact fields for the axially loaded open cylinder.

    The load is the axial surface traction ``f(x) = F/(2 pi r) * x/L^2`` in
    the +x direction (force per unit midsurface area, ``F`` a total-force
    scale). The resulting membrane stress is uniaxial along the axis,
    ``sigma(x) = F (1 - (x/L)^2) / (4 pi r t)``.
    """
    if not isinstance(surface, Cylinder):
        raise GeometryError("cylinder_exact requires a Cylinder surface")
    r, L, t = surface.r, surface.L, material.t

    def load_at(x):
        x = np.asarray(x, dtype=float)
        f = np.zeros_like(x)
        f[..., 0] = F / (2.0 * np.pi * r) * x[..., 0] / L**2
        return f

    def stress_at(x):
        x = np.asarray(x, dtype=float)
        s = F * (1.0 - (x[..., 0] / L) ** 2) / (4.0 * np.pi * r * t)
        sig = np.zeros(x.shape[:-1] + (3, 3))
        sig[..., 0, 0] = s
        return sig

    return ExactSolution(load_at=load_at, stress_at=stress_at)


def torus_exact(p: float, material: MaterialModel, surface: Torus) -> ExactSolution:
    """Exact fields for the torus under internal gauge pressure ``p``.

    The load is ``p n`` (outward). The membrane stresses are statically
    determinate: along the tube centerline (toroidal direction)
    ``sigma_1 = p r / (2 t)``; around the tube cross section (poloidal
    direction, the hoop stress of the straight-pipe limit)
    ``sigma_2 = (p r / t) (1 - r sin(theta) / (2 (R + r sin(theta))))``.
    Evaluation at a point slightly off the surface uses the angles of its
    closest-point projection.
    """
    if not isinstance(surface, Torus):
        raise GeometryError("torus_exact requires a Torus surface")
    R, r, t = surface.R, surface.r, material.t

    def _angles(x):
        x = np.asarray(x, dtype=float)
        rho = np.hypot(x[..., 0], x[..., 1])
        q = np.hypot(rho - R, x[..., 2])
        st = (rho - R) / q
        ct = x[..., 2] / q
        cp = x[..., 0] / rho
        sp = x[..., 1] / rho
        return st, ct, cp, sp

    def load_at(x):
        st, ct, cp, sp = _angles(x)
        f = np.empty(st.shape + (3,))
        f[..., 0] = p * st * cp
        f[..., 1] = p * st * sp
        f[..., 2] = p * ct
        return f

    def stress_at(x):
        st, ct, cp, sp = _angles(x)
        sig1 = p * r / (2.0 * t)
        sig2 = (p * r / t) * (1.0 - r * st / (2.0 * (R + r * st)))
        e1 = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        e2 = np.stack([ct * cp, ct * sp, -st], axis=-1)
        sig = sig1 * e1[..., :, None] * e1[..., None, :]
        sig += sig2[..., None, None] * e2[..., :, None] * e2[..., None, :]
        return sig

    return ExactSolution(load_at=load_at, stress_at=stress_at)
