"""Stress recovery, error norms, rate fitting, and export tests."""

import math

import numpy as np
import pytest

from memshell.assembly import apply_constraints, assemble, cylinder_constraints
from memshell.cli import RunConfig, solve_case
from memshell.element import quadrature_geometry, quadrature_rule
from memshell.geometry import (
    Cylinder,
    ExactSolution,
    MaterialModel,
    cylinder_exact,
)
from memshell.mesh import SurfaceMesh, build_cylinder_mesh, build_torus_mesh
from memshell.postprocess import (
    ConvergenceRecord,
    _row_texts,
    export_vtk,
    fit_convergence,
    recover_stress,
    stress_l2_error,
    write_convergence_csv,
)
from memshell.solver import solve

from oracles import (
    DEGREE4_RULE,
    double_projection,
    flat_grid_mesh,
    random_rotation,
    read_legacy_vtk,
    tangential_strain,
    von_mises_reference,
    write_legacy_vtk_reference,
)

MAT = MaterialModel(E=100.0, nu=0.5, t=1e-2)
QUAD = quadrature_rule(2)


def test_rigid_translation_zero_stress():
    mesh = flat_grid_mesh(2, 2)
    u = np.tile([0.3, -0.7, 1.1], mesh.n_vertices)
    field = recover_stress(mesh, MAT, u, QUAD)
    assert np.abs(field.stresses).max() < 1e-13 * MAT.E


def test_uniaxial_stretch_matches_plane_stress_constitutive():
    # u = (alpha x, 0, 0): sigma_11 = (2 mu + lam) alpha, sigma_22 = lam alpha
    mesh = flat_grid_mesh(3, 2)
    alpha = 1e-3
    u = np.zeros((mesh.n_vertices, 3))
    u[:, 0] = alpha * mesh.vertices[:, 0]
    field = recover_stress(mesh, MAT, u, QUAD)
    s11 = (2.0 * MAT.mu + MAT.lam0) * alpha
    s22 = MAT.lam0 * alpha
    expected = np.diag([s11, s22, 0.0])
    assert np.abs(field.stresses - expected).max() <= 1e-12 * s11


def test_flat_tangent_plane_strain_projection():
    # normal-gradient shear terms drop out of the projected strain: a pure
    # out-of-plane linear displacement produces no stress on a flat mesh
    mesh = flat_grid_mesh(2, 2)
    u = np.zeros((mesh.n_vertices, 3))
    u[:, 2] = 0.25 * mesh.vertices[:, 0] - 0.1 * mesh.vertices[:, 1]
    field = recover_stress(mesh, MAT, u, QUAD)
    assert np.abs(field.stresses).max() <= 1e-13 * MAT.E


def test_stress_field_invariants_on_benchmark_solve():
    mesh = build_cylinder_mesh(1.0, 4.0, 12, 12)
    exact = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0))
    system = assemble(mesh, MAT, exact.load_at, QUAD)
    fixed = apply_constraints(system, cylinder_constraints(mesh))
    u, _ = solve(fixed, tol=1e-10)
    field = recover_stress(mesh, MAT, fixed.recover(u), QUAD)
    # symmetric and in-plane at every quadrature point
    assert np.abs(field.stresses - field.stresses.swapaxes(2, 3)).max() <= 1e-12 * np.abs(field.stresses).max()
    sn = np.einsum("mqab,mqb->mqa", field.stresses, field.normals)
    fro = np.sqrt(np.einsum("mqab,mqab->mq", field.stresses, field.stresses))
    assert (np.linalg.norm(sn, axis=2) / np.maximum(fro, 1e-300)).max() <= 1e-10


def test_constitutive_trace_identity():
    # tr sigma = (2 mu + 2 lam) tr eps_P because the projector has trace 2;
    # eps_P recomputed per point through the explicit oracle path
    from oracles import (basis_surface_gradients, double_projection, element_jacobian,
                         tangential_strain)

    rng = np.random.default_rng(5)
    mesh = flat_grid_mesh(2, 2, e1=(1.0, 0.0, 0.0),
                          e2=(0.0, 1.0 / math.sqrt(2), 1.0 / math.sqrt(2)))
    u = rng.standard_normal((mesh.n_vertices, 3)) * 1e-2
    field = recover_stress(mesh, MAT, u, QUAD)
    factor = 2.0 * MAT.mu + 2.0 * MAT.lam0
    scale = np.abs(field.stresses).max()
    for e, tri in enumerate(mesh.triangles):
        coords = mesh.vertices[tri]
        normals = mesh.nodal_normals[tri]
        for q, (xi, eta) in enumerate(QUAD.points):
            J = element_jacobian(coords, normals, xi, eta)
            g = basis_surface_gradients(J)
            eps_p = double_projection(tangential_strain(u[tri], g), J[2])
            tr_sigma = float(np.trace(field.stresses[e, q]))
            assert abs(tr_sigma - factor * float(np.trace(eps_p))) <= 1e-12 * max(scale, 1.0)


def test_stress_objectivity_under_rotation():
    rng = np.random.default_rng(7)
    mesh = flat_grid_mesh(3, 2)
    u = rng.standard_normal((mesh.n_vertices, 3)) * 1e-2
    field = recover_stress(mesh, MAT, u, QUAD)
    for _ in range(5):
        Q = random_rotation(rng)
        rotated = SurfaceMesh(mesh.vertices @ Q.T, mesh.triangles,
                              nodal_normals=mesh.nodal_normals @ Q.T)
        field_rot = recover_stress(rotated, MAT, u @ Q.T, QUAD)
        expected = np.einsum("ab,mqbc,dc->mqad", Q, field.stresses, Q)
        assert np.abs(field_rot.stresses - expected).max() <= 1e-10 * np.abs(field.stresses).max()


def test_stress_l2_error_exact_match_is_zero():
    mesh = flat_grid_mesh(2, 2)
    u = np.zeros(3 * mesh.n_vertices)
    field = recover_stress(mesh, MAT, u, QUAD)
    zero = ExactSolution(load_at=lambda x: np.zeros_like(x),
                         stress_at=lambda x: np.zeros(np.asarray(x).shape[:-1] + (3, 3)))
    assert stress_l2_error(field, zero) == 0.0


def test_stress_l2_error_constant_mismatch():
    # |Delta|_F * sqrt(area) for a constant tensor mismatch
    mesh = flat_grid_mesh(4, 4, lx=2.0, ly=1.5)
    u = np.zeros(3 * mesh.n_vertices)
    field = recover_stress(mesh, MAT, u, QUAD)
    delta = np.array([[2.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 0.3]])

    def stress_at(x):
        return np.broadcast_to(delta, np.asarray(x).shape[:-1] + (3, 3))

    exact = ExactSolution(load_at=lambda x: np.zeros_like(x), stress_at=stress_at)
    expected = np.linalg.norm(delta) * math.sqrt(2.0 * 1.5)
    assert abs(stress_l2_error(field, exact) - expected) < 1e-12 * expected


def test_stress_l2_error_matches_bruteforce_recomputation():
    mesh = build_cylinder_mesh(1.0, 4.0, 16, 16)
    exact = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0))
    system = assemble(mesh, MAT, exact.load_at, QUAD)
    fixed = apply_constraints(system, cylinder_constraints(mesh))
    u, _ = solve(fixed, tol=1e-10)
    field = recover_stress(mesh, MAT, fixed.recover(u), QUAD)
    err = stress_l2_error(field, exact)

    # brute force: plain Python loops over elements and points
    total = 0.0
    for e in range(field.n_elements):
        for q in range(field.weights.shape[1]):
            sig_e = exact.stress_at(field.points[e, q])
            diff = sig_e - field.stresses[e, q]
            total += field.weights[e, q] * float(np.sum(diff * diff))
    assert abs(err - math.sqrt(total)) <= 1e-10 * err


def test_stress_l2_error_stable_under_refined_quadrature():
    # recomputing stress and error with a degree-4 rule moves the value only
    # by the quadrature remainder, not by orders of magnitude
    mesh = build_cylinder_mesh(1.0, 4.0, 12, 12)
    exact = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0))
    system = assemble(mesh, MAT, exact.load_at, QUAD)
    fixed = apply_constraints(system, cylinder_constraints(mesh))
    u, _ = solve(fixed, tol=1e-10)
    err2 = stress_l2_error(recover_stress(mesh, MAT, fixed.recover(u), QUAD), exact)
    err4 = stress_l2_error(recover_stress(mesh, MAT, fixed.recover(u), DEGREE4_RULE), exact)
    assert abs(err4 - err2) < 0.05 * err2


def test_convergence_rate_exact_slopes():
    hs = [0.4, 0.2, 0.1, 0.05]
    assert abs(fit_convergence([(h, 3.0 * h) for h in hs]).slope - 1.0) < 1e-12
    assert abs(fit_convergence([(h, 2.0 * h**0.75) for h in hs]).slope - 0.75) < 1e-12
    assert abs(fit_convergence([(h, 5.0) for h in hs]).slope) < 1e-12


def test_convergence_rate_validation():
    with pytest.raises(ValueError):
        fit_convergence([(0.1, 1.0), (0.05, 0.5)]).slope
    with pytest.raises(ValueError):
        fit_convergence([(0.1, 1.0), (0.05, 0.5), (0.025, -0.25)]).slope
    with pytest.raises(ValueError):
        ConvergenceRecord(h=np.array([0.1, 0.2, 0.05]),
                          error=np.array([1.0, 0.5, 0.2]),
                          slope=1.0, fit_residual=0.0)


def test_fit_convergence_reports_residual():
    hs = np.array([0.4, 0.2, 0.1])
    errors = 2.0 * hs**1.0
    errors[1] *= 1.1  # perturb one level
    record = fit_convergence(list(zip(hs, errors)))
    assert record.fit_residual > 0.0
    assert 0.8 < record.slope < 1.2


def test_export_vtk_roundtrip(tmp_path):
    mesh = build_cylinder_mesh(1.0, 4.0, 6, 3)
    rng = np.random.default_rng(23)
    u = rng.standard_normal((mesh.n_vertices, 3)) * 1e-3
    field = recover_stress(mesh, MAT, u, QUAD)
    path = tmp_path / "solution.vtk"
    export_vtk(mesh, u, field, path)

    data = read_legacy_vtk(path)
    assert data["points"].shape == (mesh.n_vertices, 3)
    assert np.abs(data["points"] - mesh.vertices).max() < 1e-9
    assert data["cells"].shape == (mesh.n_triangles, 3)
    assert np.array_equal(data["cells"], mesh.triangles)
    disp = data["point_vectors"]["displacement"]
    assert disp.shape == (mesh.n_vertices, 3)
    assert np.abs(disp - u).max() < 1e-12
    stress = data["cell_fields"]["stress"]
    assert stress.shape == (mesh.n_triangles, 6)
    avg = field.cell_averages()
    assert np.abs(stress[:, 0] - avg[:, 0, 0]).max() < 1e-9
    assert np.abs(stress[:, 3] - avg[:, 0, 1]).max() < 1e-9
    vm = data["cell_fields"]["von_mises"]
    assert vm.shape == (mesh.n_triangles, 1)
    assert np.abs(vm[:, 0] - von_mises_reference(avg)).max() < 1e-9


def test_export_vtk_single_triangle(tmp_path):
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    u = np.zeros((3, 3))
    field = recover_stress(mesh, MAT, u, QUAD)
    path = tmp_path / "tri.vtk"
    export_vtk(mesh, u, field, path)
    data = read_legacy_vtk(path)
    assert data["points"].shape == (3, 3)
    assert data["cells"].shape == (1, 3)


def _vtk_cylinder():
    mesh = build_cylinder_mesh(1.0, 4.0, 6, 3)
    u = np.random.default_rng(29).standard_normal((mesh.n_vertices, 3)) * 1e-3
    return mesh, u, "interpolated"


def _vtk_facet_torus():
    mesh = build_torus_mesh(2.0, 1.0, 5, 5)
    u = np.random.default_rng(31).standard_normal((mesh.n_vertices, 3))
    return mesh, u, "facet"


def _vtk_single_triangle():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SurfaceMesh(verts, np.array([[0, 1, 2]])), np.zeros((3, 3)), "interpolated"


@pytest.mark.parametrize("make", [_vtk_cylinder, _vtk_facet_torus, _vtk_single_triangle],
                         ids=["cylinder", "facet_torus", "single_triangle"])
def test_export_vtk_bytes_match_reference_writer(tmp_path, make):
    # the block writer must produce the per-number reference text exactly
    mesh, u, variant = make()
    field = recover_stress(mesh, MAT, u, QUAD, variant=variant)
    export_vtk(mesh, u, field, tmp_path / "block.vtk")
    write_legacy_vtk_reference(mesh, u, field, tmp_path / "reference.vtk")
    assert (tmp_path / "block.vtk").read_bytes() == (tmp_path / "reference.vtk").read_bytes()


def _percent_rows(a):
    """The text ``_row_texts`` must produce: one ``"%.12e" % x`` per number."""
    return "".join(" ".join("%.12e" % x for x in row) + "\n" for row in a.tolist())


def test_rows_match_percent_format_on_random_bit_patterns():
    # every sign, exponent and mantissa, nans and infinities included
    bits = np.random.default_rng(41).integers(0, 2**64, size=150_000, dtype=np.uint64)
    a = bits.view(np.float64).reshape(-1, 3)
    assert _row_texts(a) == [_percent_rows(a)]


def test_rows_match_percent_format_on_scaled_normals():
    rng = np.random.default_rng(43)
    scale = np.array([float(f"1e{k}") for k in rng.integers(-40, 40, size=60_000)])
    a = (rng.standard_normal(60_000) * scale).reshape(-1, 6)
    assert _row_texts(a) == [_percent_rows(a)]


def test_rows_match_percent_format_on_edge_cases():
    tiny = np.nextafter(0.0, 1.0)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    three_digit = np.array([1.2345678901234 * float(f"1e{k}")
                            for k in (*range(-308, -99, 7), *range(100, 308, 7))])
    n13 = np.random.default_rng(47).integers(10**12, 10**13, size=2000)
    values = np.concatenate([
        [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, np.inf, -np.inf, np.nan, -np.nan],
        [123456789012.5, 1234567890123.5, 12345678901235.0, 0.5, 2.5, 1e-290, 1e290],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        three_digit, -three_digit,
        n13 + 0.5,  # ties in the 13th digit
        10 * n13 + 5.0,  # 14-digit integers ending in 5, also ties
        np.arange(-80_000, 80_000, 7) / 8.0,  # k/8
    ])
    a = np.concatenate([values, np.zeros(-values.size % 3)]).reshape(-1, 3)
    assert _row_texts(a) == [_percent_rows(a)]
    # several arrays in one call, split at their ends
    parts = [values[:, None], a[:5], values[:12].reshape(2, 6), a]
    assert _row_texts(*parts) == [_percent_rows(p) for p in parts]


def test_write_convergence_csv(tmp_path):
    path = tmp_path / "convergence.csv"
    write_convergence_csv(path, [0.4, 0.2, 0.1], [1.0, 0.5, 0.25])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h,error,rate"
    assert len(lines) == 4
    assert lines[1].endswith(",")
    assert lines[2].split(",")[2] == "1.000000"


def test_recover_stress_dimension_mismatch():
    mesh = flat_grid_mesh(1, 1)
    with pytest.raises(ValueError, match="displacement"):
        recover_stress(mesh, MAT, np.zeros(7), QUAD)


@pytest.mark.parametrize("case", ["cylinder", "torus"])
@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_recover_stress_matches_double_projection_reference(case, variant):
    config = RunConfig(case=case, variant=variant)
    result = solve_case(config, 6)
    mesh, field = result.mesh, result.field
    tris = mesh.triangles
    geo = quadrature_geometry(mesh.vertices[tris], mesh.nodal_normals[tris], QUAD, variant)
    ue = result.displacement.reshape(-1, 3)[tris]
    mat = MaterialModel(config.E, config.nu, config.t, config.mode)
    ref = np.empty_like(field.stresses)
    for e in range(len(tris)):
        for q in range(len(QUAD)):
            n = geo.normals[e, q]
            eps_p = double_projection(tangential_strain(ue[e], geo.gradients[e, q]), n)
            proj = np.eye(3) - np.outer(n, n)
            ref[e, q] = 2.0 * mat.mu * eps_p + mat.lame_effective * np.trace(eps_p) * proj
    assert np.abs(field.stresses - ref).max() <= 1e-13 * np.abs(ref).max()

