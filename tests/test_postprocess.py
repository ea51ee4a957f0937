"""Stress recovery, error norms, rate fitting, and export tests."""

import dataclasses
import math
import re

import numpy as np
import pytest

from memshell import element
from memshell.assembly import apply_constraints, assemble, cylinder_constraints
from memshell.cli import RunConfig, solve_case
from memshell.geometry import (
    Cylinder,
    ExactSolution,
    MaterialModel,
    Torus,
    cylinder_exact,
    torus_exact,
)
from memshell.mesh import SurfaceMesh, build_cylinder_mesh, build_torus_mesh, mesh_size
from memshell.postprocess import (
    ConvergenceRecord,
    export_vtk,
    recover_stress,
    stress_l2_error,
    write_convergence_csv,
)
from memshell.solver import solve

from oracles import (
    DEGREE4_RULE,
    THREE_POINT_RULE,
    double_projection,
    flat_grid_mesh,
    geometry_of,
    jittered_cylinder_mesh,
    jittered_torus_mesh,
    per_point_geometry,
    random_rotation,
    read_legacy_vtk,
    rule_geometry,
    tangential_strain,
    von_mises_reference,
    write_legacy_vtk_reference,
)

MAT = MaterialModel(E=100.0, nu=0.5, t=1e-2)


def test_rigid_translation_zero_stress():
    mesh = flat_grid_mesh(2, 2)
    u = np.tile([0.3, -0.7, 1.1], mesh.n_vertices)
    stress = recover_stress(mesh, MAT, u, geometry_of(mesh))
    assert np.abs(stress).max() < 1e-13 * MAT.E


def test_uniaxial_stretch_matches_plane_stress_constitutive():
    # u = (alpha x, 0, 0): sigma_11 = (2 mu + lam) alpha, sigma_22 = lam alpha
    mesh = flat_grid_mesh(3, 2)
    alpha = 1e-3
    u = np.zeros((mesh.n_vertices, 3))
    u[:, 0] = alpha * mesh.vertices[:, 0]
    stress = recover_stress(mesh, MAT, u.ravel(), geometry_of(mesh))
    s11 = (2.0 * MAT.mu + MAT.lam0) * alpha
    s22 = MAT.lam0 * alpha
    expected = np.diag([s11, s22, 0.0])
    assert np.abs(stress - expected).max() <= 1e-12 * s11


def test_flat_tangent_plane_strain_projection():
    # normal-gradient shear terms drop out of the projected strain: a pure
    # out-of-plane linear displacement produces no stress on a flat mesh
    mesh = flat_grid_mesh(2, 2)
    u = np.zeros((mesh.n_vertices, 3))
    u[:, 2] = 0.25 * mesh.vertices[:, 0] - 0.1 * mesh.vertices[:, 1]
    stress = recover_stress(mesh, MAT, u.ravel(), geometry_of(mesh))
    assert np.abs(stress).max() <= 1e-13 * MAT.E


def test_stress_field_invariants_on_benchmark_solve():
    mesh = build_cylinder_mesh(1.0, 4.0, 12, 12)
    exact = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0))
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, exact.load_at(geo.points))
    fixed = apply_constraints(system, *cylinder_constraints(mesh))
    u, _ = solve(fixed, tol=1e-10)
    stress = recover_stress(mesh, MAT, u, geo)
    # symmetric and in-plane at every quadrature point
    assert np.abs(stress - stress.swapaxes(2, 3)).max() <= 1e-12 * np.abs(stress).max()
    sn = np.einsum("mqab,mqb->mqa", stress, geo.normals)
    fro = np.sqrt(np.einsum("mqab,mqab->mq", stress, stress))
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
    stress = recover_stress(mesh, MAT, u.ravel(), geometry_of(mesh))
    factor = 2.0 * MAT.mu + 2.0 * MAT.lam0
    scale = np.abs(stress).max()
    for e, tri in enumerate(mesh.triangles):
        coords = mesh.vertices[tri]
        normals = mesh.nodal_normals[tri]
        for q, (xi, eta) in enumerate(THREE_POINT_RULE.points):
            J = element_jacobian(coords, normals, xi, eta)
            g = basis_surface_gradients(J)
            eps_p = double_projection(tangential_strain(u[tri], g), J[2])
            tr_sigma = float(np.trace(stress[e, q]))
            assert abs(tr_sigma - factor * float(np.trace(eps_p))) <= 1e-12 * max(scale, 1.0)


def test_stress_objectivity_under_rotation():
    rng = np.random.default_rng(7)
    mesh = flat_grid_mesh(3, 2)
    u = rng.standard_normal((mesh.n_vertices, 3)) * 1e-2
    stress = recover_stress(mesh, MAT, u.ravel(), geometry_of(mesh))
    for _ in range(5):
        Q = random_rotation(rng)
        rotated = SurfaceMesh(mesh.vertices @ Q.T, mesh.triangles,
                              nodal_normals=mesh.nodal_normals @ Q.T)
        stress_rot = recover_stress(rotated, MAT, (u @ Q.T).ravel(), geometry_of(rotated))
        expected = np.einsum("ab,mqbc,dc->mqad", Q, stress, Q)
        assert np.abs(stress_rot - expected).max() <= 1e-10 * np.abs(stress).max()


def test_stress_l2_error_exact_match_is_zero():
    mesh = flat_grid_mesh(2, 2)
    u = np.zeros(3 * mesh.n_vertices)
    geo = geometry_of(mesh)
    stress = recover_stress(mesh, MAT, u, geo)
    zero = ExactSolution(load_at=lambda x: np.zeros_like(x),
                         stress_at=lambda x: np.zeros(np.asarray(x).shape[:-1] + (3, 3)))
    assert stress_l2_error(stress, geo, zero) == 0.0


def test_stress_l2_error_constant_mismatch():
    # |Delta|_F * sqrt(area) for a constant tensor mismatch
    mesh = flat_grid_mesh(4, 4, lx=2.0, ly=1.5)
    u = np.zeros(3 * mesh.n_vertices)
    geo = geometry_of(mesh)
    stress = recover_stress(mesh, MAT, u, geo)
    delta = np.array([[2.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 0.3]])

    def stress_at(x):
        return np.broadcast_to(delta, np.asarray(x).shape[:-1] + (3, 3))

    exact = ExactSolution(load_at=lambda x: np.zeros_like(x), stress_at=stress_at)
    expected = np.linalg.norm(delta) * math.sqrt(2.0 * 1.5)
    assert abs(stress_l2_error(stress, geo, exact) - expected) < 1e-12 * expected


def test_stress_l2_error_matches_bruteforce_recomputation():
    mesh = build_cylinder_mesh(1.0, 4.0, 16, 16)
    exact = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0))
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, exact.load_at(geo.points))
    fixed = apply_constraints(system, *cylinder_constraints(mesh))
    u, _ = solve(fixed, tol=1e-10)
    stress = recover_stress(mesh, MAT, u, geo)
    err = stress_l2_error(stress, geo, exact)

    # brute force: plain Python loops over elements and points
    total = 0.0
    for e in range(mesh.n_triangles):
        for q in range(geo.measures.shape[1]):
            sig_e = exact.stress_at(geo.points[e, q])
            diff = sig_e - stress[e, q]
            total += geo.measures[e, q] * float(np.sum(diff * diff))
    assert abs(err - math.sqrt(total)) <= 1e-10 * err


@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_recovery_and_error_over_several_element_blocks(monkeypatch, variant):
    # blocks of 7 elements (several full ones and a partial last one) give the
    # one-block stress bit for bit and its error up to the summation order
    mesh = build_torus_mesh(1.0, 0.5, 10, 5)
    assert mesh.n_triangles > 7 and mesh.n_triangles % 7
    geo = geometry_of(mesh, variant=variant)
    u = np.random.default_rng(5).standard_normal(3 * mesh.n_vertices)
    exact = torus_exact(1.0, MAT, Torus(1.0, 0.5))
    stress = recover_stress(mesh, MAT, u, geo)
    err = stress_l2_error(stress, geo, exact)
    monkeypatch.setattr(element, "BLOCK_ELEMENTS", 7)
    blocked = recover_stress(mesh, MAT, u, geo)
    assert np.array_equal(blocked, stress)
    assert abs(stress_l2_error(blocked, geo, exact) - err) <= 1e-13 * err


def test_stress_l2_error_stable_under_refined_quadrature():
    # recomputing stress and error with a degree-4 rule, its geometry built
    # per element by the oracles' Jacobian solves, moves the value only by the
    # quadrature remainder, not by orders of magnitude
    mesh = build_cylinder_mesh(1.0, 4.0, 12, 12)
    exact = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0))
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, exact.load_at(geo.points))
    fixed = apply_constraints(system, *cylinder_constraints(mesh))
    u = solve(fixed, tol=1e-10)[0]
    geo4 = rule_geometry(mesh, DEGREE4_RULE)
    err2 = stress_l2_error(recover_stress(mesh, MAT, u, geo), geo, exact)
    err4 = stress_l2_error(recover_stress(mesh, MAT, u, geo4), geo4, exact)
    assert abs(err4 - err2) < 0.05 * err2


def test_convergence_rate_exact_slopes():
    hs = [0.4, 0.2, 0.1, 0.05]
    assert abs(ConvergenceRecord(hs, [3.0 * h for h in hs]).slope - 1.0) < 1e-12
    assert abs(ConvergenceRecord(hs, [2.0 * h**0.75 for h in hs]).slope - 0.75) < 1e-12
    assert abs(ConvergenceRecord(hs, [5.0 for h in hs]).slope) < 1e-12


def test_convergence_rate_validation():
    with pytest.raises(ValueError, match="^need at least 3 levels to fit a rate, got 2$"):
        ConvergenceRecord([0.1, 0.05], [1.0, 0.5])
    with pytest.raises(ValueError, match="^h must be strictly decreasing$"):
        ConvergenceRecord(h=np.array([0.1, 0.2, 0.05]), error=np.array([1.0, 0.5, 0.2]))
    with pytest.raises(ValueError, match="^h and error have different lengths$"):
        ConvergenceRecord(h=np.array([0.2, 0.1, 0.05]), error=np.array([1.0, 0.5]))
    for h, error in (([0.2, 0.0, -0.1], [1.0, 0.5, 0.2]), ([0.2, 0.1, 0.05], [1.0, 0.0, 0.2]),
                     ([0.1, 0.05, 0.025], [1.0, 0.5, -0.25])):
        with pytest.raises(ValueError, match="^h and error values must be positive$"):
            ConvergenceRecord(h=np.array(h), error=np.array(error))


def test_fit_convergence_reports_residual():
    hs = np.array([0.4, 0.2, 0.1])
    errors = 2.0 * hs**1.0
    errors[1] *= 1.1  # perturb one level
    record = ConvergenceRecord(hs, errors)
    assert record.fit_residual > 0.0
    assert 0.8 < record.slope < 1.2


def test_convergence_record_fits_its_own_copy_of_the_ladder():
    # the record copies its inputs read-only, leaving the caller's arrays
    # writable, and its rate is its data's: a slope cannot be given
    h = np.array([0.4, 0.2, 0.1, 0.05])
    error = np.array([1.1, 0.5, 0.27, 0.12])
    record = ConvergenceRecord(h=h, error=error)
    assert h.flags.writeable and error.flags.writeable
    for kept, given in ((record.h, h), (record.error, error)):
        assert not kept.flags.writeable and not np.shares_memory(kept, given)
        assert np.array_equal(kept, given)
    A = np.column_stack([np.log(h), np.ones(h.size)])
    coef, *_ = np.linalg.lstsq(A, np.log(error), rcond=None)
    assert record.slope == float(coef[0])
    assert record.fit_residual == float(np.sqrt(np.mean((np.log(error) - A @ coef) ** 2)))
    assert record.fit_residual > 0.0
    with pytest.raises(TypeError, match="slope"):
        ConvergenceRecord(h, error, slope=-7.0, fit_residual=3.0)


@pytest.mark.parametrize("a", [0.1, 0.25])
@pytest.mark.parametrize("seed", [1, 3])
def test_stress_error_rate_on_jittered_cylinder_ladders(a, seed):
    """First-order stress convergence of the interpolated variant on jittered
    cylinders, n = 8, 16, 32.

    Over seeds 0-29 the slopes measured 0.991-1.046 at a = 0.1 and
    1.000-1.120 at a = 0.25; seed 1 gives the lowest at both amplitudes.
    The facet variant is not gated here.
    """
    exact = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0))
    hs, errors = [], []
    for n in (8, 16, 32):
        mesh = jittered_cylinder_mesh(1.0, 4.0, n, a, seed)
        geo = geometry_of(mesh)
        system = assemble(mesh, MAT, geo, exact.load_at(geo.points))
        u, _ = solve(apply_constraints(system, *cylinder_constraints(mesh)), tol=1e-10)
        hs.append(mesh_size(mesh))
        errors.append(stress_l2_error(recover_stress(mesh, MAT, u, geo), geo, exact))
    assert ConvergenceRecord(hs, errors).slope >= 0.95


@pytest.mark.parametrize("a", [0.1, 0.25])
def test_stress_error_rate_on_jittered_torus_ladders(a):
    """Stress convergence of the interpolated variant on jittered tori,
    n = 8, 16, 32, seed 1.

    Over seeds 0-29 the slopes measured 0.808-0.852 at a = 0.1 and
    0.838-0.941 at a = 0.25; seed 1 gives 0.825 and 0.870, and the
    structured ladder 0.799 (the deficit at the crown circles). The facet
    variant is not gated here: it does not converge on jittered meshes.
    """
    exact = torus_exact(1.0, MAT, Torus(1.0, 0.5))
    hs, errors = [], []
    for n in (8, 16, 32):
        mesh = jittered_torus_mesh(1.0, 0.5, n, a, 1)
        geo = geometry_of(mesh)
        u, report = solve(assemble(mesh, MAT, geo, exact.load_at(geo.points)), tol=1e-10)
        assert report.converged
        hs.append(mesh_size(mesh))
        errors.append(stress_l2_error(recover_stress(mesh, MAT, u, geo), geo, exact))
    assert ConvergenceRecord(hs, errors).slope >= 0.78


def test_export_vtk_roundtrip(tmp_path):
    mesh = build_cylinder_mesh(1.0, 4.0, 6, 3)
    rng = np.random.default_rng(23)
    u = rng.standard_normal((mesh.n_vertices, 3)) * 1e-3
    # unequal weights tell a weighted cell average from a plain mean
    equal = geometry_of(mesh)
    for geo in (equal, dataclasses.replace(equal, measures=equal.measures * [0.5, 1.0, 1.5])):
        stress = recover_stress(mesh, MAT, u.ravel(), geo)
        path = tmp_path / "solution.vtk"
        export_vtk(mesh, u.ravel(), stress, geo, path)

        data = read_legacy_vtk(path)
        # float64 is stored bit for bit
        assert np.array_equal(data["points"], mesh.vertices)
        assert np.array_equal(data["cells"], mesh.triangles)
        assert np.array_equal(data["cell_types"], np.full(mesh.n_triangles, 5))
        assert np.array_equal(data["point_vectors"]["displacement"], u)
        # area-weighted element averages, one element at a time
        avg = np.array([sum(w * s for w, s in zip(geo.measures[e], stress[e]))
                        / geo.measures[e].sum() for e in range(mesh.n_triangles)])
        cells = data["cell_fields"]["stress"]
        assert cells.shape == (mesh.n_triangles, 6)
        for k, (a, b) in enumerate([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]):
            assert np.abs(cells[:, k] - avg[:, a, b]).max() < 1e-9
        vm = data["cell_fields"]["von_mises"]
        assert vm.shape == (mesh.n_triangles, 1)
        assert np.abs(vm[:, 0] - von_mises_reference(avg)).max() < 1e-9


def test_export_vtk_single_triangle(tmp_path):
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    u = np.zeros(9)
    geo = geometry_of(mesh)
    path = tmp_path / "tri.vtk"
    export_vtk(mesh, u, recover_stress(mesh, MAT, u, geo), geo, path)
    data = read_legacy_vtk(path)
    assert data["points"].shape == (3, 3)
    assert data["cells"].shape == (1, 3)


def _vtk_cylinder():
    mesh = build_cylinder_mesh(1.0, 4.0, 6, 3)
    u = np.random.default_rng(29).standard_normal(3 * mesh.n_vertices) * 1e-3
    return mesh, u, "interpolated"


def _vtk_facet_torus():
    mesh = build_torus_mesh(2.0, 1.0, 5, 5)
    u = np.random.default_rng(31).standard_normal(3 * mesh.n_vertices)
    return mesh, u, "facet"


def _vtk_single_triangle():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SurfaceMesh(verts, np.array([[0, 1, 2]])), np.zeros(9), "interpolated"


@pytest.mark.parametrize("make", [_vtk_cylinder, _vtk_facet_torus, _vtk_single_triangle],
                         ids=["cylinder", "facet_torus", "single_triangle"])
def test_export_vtk_bytes_match_reference_writer(tmp_path, make):
    # the block writer must produce the per-number reference bytes exactly
    mesh, u, variant = make()
    geo = geometry_of(mesh, variant=variant)
    stress = recover_stress(mesh, MAT, u, geo)
    export_vtk(mesh, u, stress, geo, tmp_path / "block.vtk")
    write_legacy_vtk_reference(mesh, u, stress, geo.measures, tmp_path / "reference.vtk")
    assert (tmp_path / "block.vtk").read_bytes() == (tmp_path / "reference.vtk").read_bytes()


@pytest.mark.parametrize("shape", [(192, 3, 3), (64, 1, 3, 3)])
def test_stress_of_another_shape_rejected(tmp_path, shape):
    # torus 8x4: 64 elements, three quadrature points each
    mesh = build_torus_mesh(2.0, 1.0, 8, 4)
    geo = geometry_of(mesh)
    exact = torus_exact(1.0, MAT, Torus(2.0, 1.0))
    message = re.escape(f"stress shape {shape} does not match the (m, nq, 3, 3) = (64, 3, 3, 3)")
    with pytest.raises(ValueError, match=message):
        stress_l2_error(np.zeros(shape), geo, exact)
    with pytest.raises(ValueError, match=message):
        export_vtk(mesh, np.zeros(3 * mesh.n_vertices), np.zeros(shape), geo, tmp_path / "x.vtk")
    assert not (tmp_path / "x.vtk").exists()


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
        recover_stress(mesh, MAT, np.zeros(7), geometry_of(mesh))


@pytest.mark.parametrize("case", ["cylinder", "torus"])
@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_recover_stress_matches_double_projection_reference(case, variant):
    config = RunConfig(case=case, variant=variant)
    result = solve_case(config, 6)
    mesh = result.mesh
    tris = mesh.triangles
    geo = geometry_of(mesh, variant=variant)
    ue = result.displacement.reshape(-1, 3)[tris]
    mat = MaterialModel(config.E, config.nu, config.t)
    ref = np.empty_like(result.stress)
    for e in range(len(tris)):
        for q in range(geo.measures.shape[1]):
            k = 0 if variant == "facet" else q  # a facet's one point stands for every point
            n = geo.normals[e, k]
            eps_p = double_projection(tangential_strain(ue[e], geo.gradients[e, k]), n)
            proj = np.eye(3) - np.outer(n, n)
            ref[e, q] = 2.0 * mat.mu * eps_p + mat.lam0 * np.trace(eps_p) * proj
    assert np.abs(result.stress - ref).max() <= 1e-13 * np.abs(ref).max()



def _facet_torus_stress():
    # three blocks of elements, a displacement with every strain component
    mesh = build_torus_mesh(1.0, 0.5, 34, 17)
    geo = geometry_of(mesh, variant="facet")
    u = np.random.default_rng(151).standard_normal(3 * mesh.n_vertices)
    return mesh, geo, u, recover_stress(mesh, MAT, u, geo)


def test_facet_stress_is_one_read_only_value_per_element():
    mesh, geo, u, stress = _facet_torus_stress()
    assert stress.shape == geo.measures.shape + (3, 3)
    assert not stress.flags.writeable
    assert np.array_equal(stress, recover_stress(mesh, MAT, u, per_point_geometry(geo)))


def test_error_and_export_read_the_facet_stress_as_its_copy(tmp_path):
    mesh, geo, u, stress = _facet_torus_stress()
    exact = torus_exact(1.0, MAT, Torus(1.0, 0.5))
    assert stress_l2_error(stress, geo, exact) == stress_l2_error(np.array(stress), geo, exact)
    export_vtk(mesh, u, stress, geo, tmp_path / "view.vtk")
    export_vtk(mesh, u, np.array(stress), geo, tmp_path / "copy.vtk")
    assert (tmp_path / "view.vtk").read_bytes() == (tmp_path / "copy.vtk").read_bytes()
