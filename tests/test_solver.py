"""Deflated nodal block-Jacobi CG solver tests."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from memshell.assembly import LinearSystem, apply_constraints, assemble, cylinder_constraints
from memshell.cli import RunConfig, solve_case
from memshell.geometry import Cylinder, MaterialModel, Torus, cylinder_exact, torus_exact
from memshell.mesh import SurfaceMesh, build_cylinder_mesh, build_torus_mesh
from memshell.postprocess import recover_stress
from memshell.solver import (
    IterationLimitError,
    NegativeCurvatureError,
    SolverError,
    _matvec,
    _nodal_block_inverse,
    rigid_body_basis,
    solve,
)
from oracles import (
    csr_record,
    field_l2_norm,
    flat_grid_mesh,
    geometry_of,
    jittered_cylinder_mesh,
    jittered_torus_mesh,
    random_rotation,
    traced_peak,
)

MAT = MaterialModel(E=100.0, nu=0.5, t=1e-2)


def _system(matrix, rhs):
    return LinearSystem(csr_record(matrix), np.asarray(rhs, dtype=float))


def _nodal(matrix):
    """Node-major system matrix: each scalar entry becomes that multiple of I3."""
    return np.kron(np.asarray(matrix, dtype=float), np.eye(3))


def _relative_stress_difference(weights, reference, stress):
    return field_l2_norm(weights, reference - stress) / field_l2_norm(weights, reference)


def test_diagonal_system_converges_fast():
    d = [2.0, 4.0, 8.0, 1.0, 3.0, 5.0]
    u, report = solve(_system(np.diag(d), d), tol=1e-12)
    assert np.abs(u - 1.0).max() < 1e-12
    assert report.iterations <= 2
    assert report.converged


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_matvec_helper_matches_scipy_bit_for_bit(index_dtype):
    # rows 0, 5 and the last hold no entries, so the helper must zero its output
    rng = np.random.default_rng(3)
    A = sp.random(40, 40, density=0.2, random_state=rng, format="lil")
    A[[0, 5, 39]] = 0.0
    A = A.tocsr()
    A.indices, A.indptr = A.indices.astype(index_dtype), A.indptr.astype(index_dtype)
    assert A.indices.dtype == A.indptr.dtype == index_dtype
    assert np.diff(A.indptr)[[0, 5, 39]].tolist() == [0, 0, 0]
    x = rng.standard_normal(40)
    out = np.full(40, np.nan)
    assert _matvec(A, x, out) is out
    assert np.array_equal(out, A @ x)


def test_small_spd_system():
    u, report = solve(_system(_nodal([[2.0, 1.0], [1.0, 2.0]]), np.full(6, 3.0)), tol=1e-12)
    assert np.abs(u - 1.0).max() < 1e-10
    assert report.relative_residual <= 1e-12


def test_zero_rhs_returns_zero():
    u, report = solve(_system(_nodal(np.diag([1.0, 2.0])), np.zeros(6)))
    assert np.abs(u).max() == 0.0
    assert report.iterations == 0
    assert report.converged


def test_negative_curvature_detected():
    # indefinite (eigenvalues 3 and -1, each thrice) with SPD nodal blocks I,
    # so the nodal block check passes and CG meets the negative curvature
    e = np.array([1.0, 2.0, 3.0])
    with pytest.raises(NegativeCurvatureError) as err:
        solve(_system(_nodal([[1.0, 2.0], [2.0, 1.0]]), np.concatenate([e, -e])))
    assert err.value.iteration >= 1


def test_rejects_dof_count_not_a_multiple_of_three():
    with pytest.raises(SolverError, match="2 dofs"):
        solve(_system([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0]))


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": -1.0}, "tol must be > 0, got -1.0"),
    ({"tol": 0.0}, "tol must be > 0, got 0.0"),
    ({"tol": math.nan}, "tol must be > 0, got nan"),
    ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
    ({"max_iter": -3}, "max_iter must be >= 1, got -3"),
    ({"tol": 1.0}, "tol must be < 1, got 1.0"),
    ({"tol": 1.5}, "tol must be < 1, got 1.5"),
    ({"tol": math.inf}, "tol must be < 1, got inf"),
    ({"rhs": [2.0, 4.0, 8.0, 1.0, math.nan, 5.0]},
     "right-hand side (load) is not finite at dof 4 of node 1"),
    ({"rhs": [math.inf, 4.0, 8.0, 1.0, 3.0, 5.0]},
     "right-hand side (load) is not finite at dof 0 of node 0"),
])
def test_bad_solver_parameters_rejected_before_the_block_inverse(monkeypatch, kwargs, message):
    def never(*diagonals):
        raise AssertionError("block inverse built")

    monkeypatch.setattr("memshell.solver._nodal_block_inverse", never)
    d = [2.0, 4.0, 8.0, 1.0, 3.0, 5.0]
    kwargs = dict(kwargs)
    rhs = kwargs.pop("rhs", d)
    with pytest.raises(SolverError) as err:
        solve(_system(np.diag(d), rhs), **kwargs)
    assert str(err.value) == message


def test_singular_nodal_block_fails_before_iterating():
    # a flat membrane has no normal stiffness: every nodal block is singular
    mesh = flat_grid_mesh(3, 3)
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, np.broadcast_to([1.0, 0.0, 0.0], geo.points.shape))
    with pytest.raises(SolverError, match=r"node 0 .*ratio 0\.000e\+00"):
        solve(system)


def test_iteration_limit_raises_with_report():
    mesh = build_cylinder_mesh(1.0, 4.0, 8, 8)
    load_at = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, load_at(geo.points))
    fixed = apply_constraints(system, *cylinder_constraints(mesh))
    with pytest.raises(IterationLimitError) as err:
        solve(fixed, tol=1e-12, max_iter=3)
    assert err.value.report.iterations == 3
    assert err.value.report.relative_residual > 1e-12
    assert err.value.solution.shape == (fixed.ndof,)


# Energy of the six rigid-body modes, relative to the mean diagonal, measured
# at n = 6...256: the kernel modes are at most 5e-17, the others at least
# 8e-10 (the interpolated torus's axial rotation, falling like h^4). Every
# rigid motion strains no flat facet, and on the cylinder the axial rotation
# alone moves neither axially nor radially, so it meets both ring constraints.
KERNEL_DIMENSION = {("cylinder", "interpolated"): 0, ("cylinder", "facet"): 1,
                    ("torus", "interpolated"): 3, ("torus", "facet"): 6}


@pytest.mark.parametrize("n", [6, 13, 24])
@pytest.mark.parametrize("case, variant", KERNEL_DIMENSION)
def test_kernel_dimension_detected(case, variant, n):
    result = solve_case(RunConfig(case=case, variant=variant), n)
    assert result.report.converged
    assert result.report.deflated_dimension == KERNEL_DIMENSION[case, variant]
    if case == "cylinder":  # the displacement honours the projected constraints
        nodes, q = cylinder_constraints(result.mesh)
        u = result.displacement.reshape(-1, 3)
        assert np.abs(np.einsum("ka,ka->k", q, u[nodes])).max() <= 1e-13 * np.abs(u).max()


@pytest.mark.parametrize("case, variant", KERNEL_DIMENSION)
def test_rigid_body_basis_orthonormal_with_energy_free_kernel_first(case, variant):
    system = _benchmark_system(case, variant, 8)
    Q, k = rigid_body_basis(system, system.matrix.diagonal())
    assert (Q.shape, k) == ((system.ndof, 6), KERNEL_DIMENSION[case, variant])
    assert np.abs(Q.T @ Q - np.eye(6)).max() <= 1e-12
    energy = np.einsum("ij,ij->j", Q, system.matrix @ Q) / system.matrix.diagonal().mean()
    assert np.abs(energy[:k]).max(initial=0.0) <= 1e-15
    assert energy[k:].min(initial=np.inf) >= 1e-6
    if system.constraints is not None:
        nodes, q = system.constraints
        assert np.abs(np.einsum("ka,kaj->kj", q, Q.reshape(-1, 3, 6)[nodes])).max() <= 1e-15


@pytest.mark.parametrize("variant, kernel", [("interpolated", 2), ("facet", 3)])
def test_rigid_body_basis_drops_modes_the_constraints_remove(variant, kernel):
    # u_x = 0 at every node removes the x-translation entirely and leaves only
    # parts of the rotations about y and z; the y and z translations stay in
    # the kernel, and on the facet torus the rotation about x as well
    mesh = build_torus_mesh(1.0, 0.5, 16, 8)
    system = assemble(mesh, MAT, geometry_of(mesh, variant=variant))
    nodes = np.arange(mesh.n_vertices)
    fixed = apply_constraints(system, nodes, np.tile([1.0, 0.0, 0.0], (len(nodes), 1)))
    Q, k = rigid_body_basis(fixed, fixed.matrix.diagonal())
    assert (Q.shape, k) == ((fixed.ndof, 5), kernel)
    assert np.abs(Q.T @ Q - np.eye(5)).max() <= 1e-12


def test_system_without_coordinates_has_no_kernel_basis():
    # the torus stiffness is singular, but without node positions nothing is deflated;
    # a load in the range of K keeps CG in the range space
    mesh = build_torus_mesh(1.0, 0.5, 12, 6)
    assembled = assemble(mesh, MAT, geometry_of(mesh))
    load = assembled.matrix @ np.random.default_rng(4).standard_normal(assembled.ndof)
    system = LinearSystem(assembled.csr, load)
    Q, k = rigid_body_basis(system, system.matrix.diagonal())
    assert Q.shape == (system.ndof, 0) and k == 0
    u, report = solve(system)
    assert report.converged
    assert report.deflated_dimension == 0
    assert report.rhs_consistency == 0.0 and report.rigid_fraction == 0.0


def _rotation_share(mesh, u):
    """||R^T u|| / ||u|| over an orthonormal basis R of the rotations about the centroid."""
    x = mesh.vertices - mesh.vertices.mean(axis=0)
    R, _ = np.linalg.qr(np.stack([np.cross(axis, x).ravel() for axis in np.eye(3)], axis=1))
    return float(np.linalg.norm(R.T @ u) / np.linalg.norm(u))


@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_torque_load_reports_its_kernel_share(variant):
    # a load with a net torque about z: inconsistent on the facet torus, whose
    # kernel holds all six rigid modes, so its kernel part is reported and
    # dropped; the interpolated torus answers it with a near-rigid rotation
    mesh = build_torus_mesh(1.0, 0.5, 24, 12)
    exact = torus_exact(1.0, MAT, Torus(1.0, 0.5))
    geo = geometry_of(mesh, variant=variant)
    system = assemble(mesh, MAT, geo,
                      exact.load_at(geo.points) + np.cross([0.0, 0.0, 0.3], geo.points))
    u, report = solve(system)
    assert report.converged
    assert report.iterations <= 65  # measured 56 in both variants
    Q, k = rigid_body_basis(system, system.matrix.diagonal())
    b = system.rhs - Q[:, :k] @ (Q[:, :k].T @ system.rhs)
    assert np.linalg.norm(system.matrix @ u - b) <= 1e-10 * np.linalg.norm(b)
    # the load's share on all six rigid modes sees the torque in both variants
    assert 0.3 <= report.rigid_load_share <= 0.4  # measured 0.35
    if variant == "facet":
        assert 0.3 <= report.rhs_consistency <= 0.4  # measured 0.35
        assert report.rigid_fraction <= 1e-14
    else:
        # translations are deflated and rotations centred, so the rigid share
        # is the rotation share, here 0.99994
        assert report.rhs_consistency <= 1e-12
        assert abs(report.rigid_fraction - _rotation_share(mesh, u)) <= 1e-10 * report.rigid_fraction
        assert report.rigid_fraction >= 0.99


def test_cylinder_benchmark_converges():
    load_at = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at
    for n in (8, 16):
        mesh = build_cylinder_mesh(1.0, 4.0, n, n)
        geo = geometry_of(mesh)
        system = assemble(mesh, MAT, geo, load_at(geo.points))
        fixed = apply_constraints(system, *cylinder_constraints(mesh))
        u, report = solve(fixed, tol=1e-10)
        assert report.converged
        assert report.relative_residual <= 1e-10
        assert report.deflated_dimension == 0
        # residual recomputed from scratch matches the report
        res = np.linalg.norm(fixed.matrix @ u - fixed.rhs) / np.linalg.norm(fixed.rhs)
        assert abs(res - report.relative_residual) <= 1e-12


def test_torus_deflated_solve_and_translation_invariance():
    mesh = build_torus_mesh(1.0, 0.5, 24, 12)
    exact = torus_exact(1.0, MAT, Torus(1.0, 0.5))
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, exact.load_at(geo.points))
    u0, report = solve(system, tol=1e-10)
    assert report.converged
    assert report.deflated_dimension == 3
    assert report.relative_residual <= 1e-10
    # returned solution carries no translation component
    for c in range(3):
        assert abs(u0[c::3].sum()) <= 1e-8 * np.abs(u0).max() * mesh.n_vertices


def test_rigid_translation_energy_free_on_benchmark_meshes():
    for mesh in (build_cylinder_mesh(1.0, 4.0, 12, 12), build_torus_mesh(1.0, 0.5, 16, 8)):
        system = assemble(mesh, MAT, geometry_of(mesh))
        K = system.matrix
        scale = np.abs(K.data).max()
        for c in range(3):
            u = np.zeros(system.ndof)
            u[c::3] = 1.0
            assert abs(u @ (K @ u)) <= 1e-10 * scale * (u @ u)


@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_rigid_rotation_leaves_iterations_and_stresses_unchanged(variant):
    # the nodal blocks rotate with the problem, so CG runs the same iteration.
    # A copy also moved off the origin finds the same kernel, because the
    # rigid-body modes rotate about the centroid. It is kept out of the
    # iteration check: its coordinates round differently, and the facet torus
    # then takes 67-68 iterations against 66, with or without rotation deflation.
    mesh = build_torus_mesh(1.0, 0.5, 48, 24)
    Q = random_rotation(np.random.default_rng(5))
    exact = torus_exact(1.0, MAT, Torus(1.0, 0.5))
    problems = [(mesh, exact.load_at)] + [
        (SurfaceMesh(mesh.vertices @ Q.T + shift, mesh.triangles,
                     nodal_normals=mesh.nodal_normals @ Q.T),
         lambda y, shift=shift: exact.load_at((y - shift) @ Q) @ Q.T)
        for shift in (np.zeros(3), np.array([3.0, -2.0, 5.0]))]
    results, iterations = [], []
    for m, load_at in problems:
        geo = geometry_of(m, variant=variant)
        system = assemble(m, MAT, geo, load_at(geo.points))
        u, report = solve(system, tol=1e-10)
        assert report.converged
        assert report.deflated_dimension == KERNEL_DIMENSION["torus", variant]
        iterations.append(report.iterations)
        results.append((geo.measures, recover_stress(m, MAT, u, geo)))
    assert abs(iterations[0] - iterations[1]) <= 1
    rotated = Q @ results[0][1] @ Q.T
    for weights, stress in results[1:]:
        assert _relative_stress_difference(weights, stress, rotated) <= 1e-8


@pytest.mark.parametrize("n", [17, 23])
def test_facet_cylinder_converges_between_its_neighbours(n):
    # CG scaled per x/y/z dof rather than per node stalls at these sizes
    config = RunConfig(case="cylinder", variant="facet")
    coarse, case, fine = (solve_case(config, k) for k in (n - 1, n, n + 1))
    assert case.report.converged
    assert case.report.relative_residual <= config.tol
    assert coarse.error > case.error > fine.error


def test_cylinder_iteration_counts_stay_low():
    # measured 27, 58, 115, 219, exactly repeatable; the limits leave ~15 % headroom
    config = RunConfig(case="cylinder", variant="interpolated")
    for n, limit in ((8, 31), (16, 67), (32, 132), (64, 252)):
        report = solve_case(config, n).report
        assert report.converged
        assert report.iterations <= limit, (n, report.iterations)


def test_torus_iteration_count_stays_low():
    # the interpolated torus at n=48, measured 128, exactly repeatable; ~15 % headroom
    report = solve_case(RunConfig(case="torus", variant="interpolated"), 48).report
    assert report.converged
    assert report.iterations <= 147, report.iterations


def test_perturbed_torus_load_iteration_count_stays_low():
    # a seeded random load of 1e-6 |b| breaks the symmetry that keeps the
    # Krylov space of the benchmark load small: the interpolated torus at
    # n=32 takes 632 iterations (79 without it), exactly repeatable; ~15 % headroom
    mesh = build_torus_mesh(1.0, 0.5, 64, 32)
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, torus_exact(1.0, MAT, Torus(1.0, 0.5)).load_at(geo.points))
    noise = np.random.default_rng(1).standard_normal(system.ndof)
    rhs = system.rhs + 1e-6 * np.linalg.norm(system.rhs) / np.linalg.norm(noise) * noise
    _, report = solve(LinearSystem(system.csr, rhs, coordinates=mesh.vertices))
    assert report.converged and report.deflated_dimension == 3
    assert report.iterations <= 727, report.iterations


def test_jittered_cylinder_iteration_count_stays_low():
    # the jittered mesh has no symmetry for the load to keep: the constrained
    # cylinder at n=32 takes 759 iterations (115 structured), exactly
    # repeatable; ~15 % headroom
    mesh = jittered_cylinder_mesh(1.0, 4.0, 32, 0.1, 1)
    geo = geometry_of(mesh)
    load = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at(geo.points)
    system = apply_constraints(assemble(mesh, MAT, geo, load), *cylinder_constraints(mesh))
    _, report = solve(system)
    assert report.converged
    assert report.iterations <= 873, report.iterations


def test_jittered_torus_iteration_count_stays_low():
    # the closed torus at n=32 jittered by a = 0.1 (seed 1) takes 1 039
    # iterations (79 structured), exactly repeatable; ~15 % headroom
    mesh = jittered_torus_mesh(1.0, 0.5, 32, 0.1, 1)
    geo = geometry_of(mesh)
    load = torus_exact(1.0, MAT, Torus(1.0, 0.5)).load_at(geo.points)
    _, report = solve(assemble(mesh, MAT, geo, load))
    assert report.converged and report.deflated_dimension == 3
    assert report.iterations <= 1195, report.iterations


def _lower_diagonals(matrix):
    """The main diagonal and the two below it, which the block inverse reads."""
    return [matrix.diagonal(-k) for k in range(3)]


def _scipy(record):
    """A CSR record of the solver as a scipy CSR matrix on the same arrays."""
    return sp.csr_matrix(record, shape=record.shape)


def _diagonal_blocks(matrix):
    """(N, 3, 3) nodal diagonal blocks of a node-major sparse matrix."""
    bsr = sp.csr_matrix(matrix).tobsr((3, 3))
    row = np.repeat(np.arange(bsr.shape[0] // 3), np.diff(bsr.indptr))
    return bsr.data[row == bsr.indices]


def _benchmark_system(case, variant, n):
    config = RunConfig(case=case, variant=variant)
    if case == "cylinder":
        mesh = build_cylinder_mesh(1.0, config.L, n, n)
        system = assemble(mesh, MAT, geometry_of(mesh, variant=variant))
        return apply_constraints(system, *cylinder_constraints(mesh))
    mesh = build_torus_mesh(config.R, 0.5, 2 * n, n)
    return assemble(mesh, MAT, geometry_of(mesh, variant=variant))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_matrix_entry_named_before_the_rigid_body_basis(monkeypatch, value):
    # unchecked, numpy's eigh raises "Eigenvalues did not converge" in the set-up
    def never(*args):
        raise AssertionError("rigid-body basis built")

    monkeypatch.setattr("memshell.solver.rigid_body_basis", never)
    mesh = build_torus_mesh(1.0, 0.5, 24, 12)
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, geo.normals)
    system.csr.data[100] = value
    row = np.repeat(np.arange(system.ndof), np.diff(system.csr.indptr))[100]
    assert (row, system.csr.indices[100]) == (4, 829)  # node 1's row 1, in node 276's block
    with pytest.raises(SolverError) as err:
        solve(system)
    assert str(err.value) == "system matrix is not finite at row 4, column 829 (node 1)"


@pytest.mark.parametrize("case", ["cylinder", "torus"])
@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_closed_form_block_inverse_matches_inverse(case, variant, monkeypatch):
    A = _benchmark_system(case, variant, 12).matrix

    def no_eigh(blocks):
        raise AssertionError(f"eigh called on {len(blocks)} blocks")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    M = _scipy(_nodal_block_inverse(*_lower_diagonals(A)))
    monkeypatch.undo()
    assert (M != M.T).nnz == 0
    assert M.nnz == 3 * A.shape[0]
    inv = _diagonal_blocks(M)
    ref = np.linalg.inv(_diagonal_blocks(A))
    rel = np.abs(inv - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert rel.max() <= 1e-12


def test_ill_conditioned_block_takes_eigh_path(monkeypatch):
    # A = S kron(T, I3) S with S = blockdiag(I, B^(1/2), I): SPD, node 1's
    # block 2B has eigenvalue ratio 1e-9, and block Jacobi makes it benign
    Q = random_rotation(np.random.default_rng(7))
    half = Q @ np.diag([1.0, 1.0, math.sqrt(1e-9)]) @ Q.T
    S = sp.block_diag([np.eye(3), half, np.eye(3)])
    A = (S @ sp.csr_matrix(_nodal([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])) @ S).tocsr()
    x_true = np.arange(1.0, 10.0)
    b = A @ x_true

    calls = []
    eigh = np.linalg.eigh

    def recording_eigh(blocks):
        calls.append(blocks.copy())
        return eigh(blocks)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    u, report = solve(_system(A.toarray(), b), tol=1e-12)
    monkeypatch.undo()
    assert len(calls) == 1 and calls[0].shape == (1, 3, 3)
    assert np.abs(calls[0][0] - 2.0 * half @ half).max() <= 1e-15
    lam = np.linalg.eigvalsh(calls[0][0])
    assert 0.5e-9 <= lam[0] / lam[2] <= 2e-9
    assert report.converged and report.relative_residual <= 1e-12
    assert np.abs(A @ u - b).max() <= 1e-11 * np.abs(b).max()


@pytest.mark.parametrize("blocks, message", [
    ([np.eye(3), np.diag([1.0, 1.0, -0.5]), np.eye(3), np.diag([2.0, 0.0, 1.0])],
     "nodal block of node 1 is not positive definite: smallest/largest eigenvalue "
     "ratio -5.000e-01; 2 of 4 nodal blocks fail"),
    ([np.eye(3), np.diag([-1.0, 2.0, 3.0])],
     "nodal block of node 1 is not positive definite: smallest/largest eigenvalue "
     "ratio -3.333e-01; 1 of 2 nodal blocks fail"),
    ([np.diag([-1.0, -2.0, -3.0]), 2.0 * np.eye(3), np.diag([1.0, 1e-13, 1.0])],
     "nodal block of node 0 is not positive definite: smallest/largest eigenvalue "
     "ratio -inf; 2 of 3 nodal blocks fail"),
    ([np.eye(3), np.diag([-1.0, -1.0, 5.0]), [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]]],
     "nodal block of node 1 is not positive definite: smallest/largest eigenvalue "
     "ratio -2.000e-01; 2 of 3 nodal blocks fail"),
    ([np.eye(3), np.diag([1.0, 1.0, -2002.0])],
     "nodal block of node 1 is not positive definite: smallest/largest eigenvalue "
     "ratio -2.002e+03; 1 of 2 nodal blocks fail"),
    ([np.eye(3), np.diag([2.0, 0.0, 1.0])],
     "nodal block of node 1 is not positive definite: smallest/largest eigenvalue "
     "ratio 0.000e+00; 1 of 2 nodal blocks fail"),
    ([np.eye(3), np.diag([1.0, 1e-13, 1.0])],
     "nodal block of node 1 is ill-conditioned: smallest/largest eigenvalue "
     "ratio 1.000e-13; 1 of 2 nodal blocks fail"),
])
def test_non_positive_definite_block_message(blocks, message):
    # det > 1e-6 tr^3 alone certifies none of them: node 1 of the first case has
    # a00 > 0 and a positive 2x2 minor but det < 0; in the fourth case node 1 has
    # a00 < 0 and node 2 a negative 2x2 minor, both with det > 0; in the fifth
    # case tr < 0, so det = -2002 > 1e-6 tr^3 although the block is indefinite.
    # A singular block (ratio 0) is not positive definite; a positive definite
    # one whose ratio is below 1e-12 is ill-conditioned.
    A = sp.block_diag(blocks, format="csr")
    with pytest.raises(SolverError) as err:
        solve(LinearSystem(csr_record(A), np.ones(A.shape[0])))
    assert str(err.value) == message


def test_rigid_body_basis_memory_peak_is_a_small_multiple_of_the_modes():
    # Traced peak over the returned (ndof, 6) modes at torus n=32: 3.35 while
    # the unorthonormalised modes live on beside q and A q, 2.35 without them;
    # A q must be freed before the rotation q @ vec, or it lives beside both.
    mesh = build_torus_mesh(1.0, 0.5, 64, 32)
    system = assemble(mesh, MAT, geometry_of(mesh))
    (modes, _), peak = traced_peak(rigid_body_basis, system, system.matrix.diagonal())
    assert peak <= 2.6 * modes.nbytes


def test_deflated_solution_and_limit_iterate_carry_no_translation():
    # a random load breaks the torus symmetry, so the preconditioned
    # directions, and with them the iterate, pick up translations
    mesh = build_torus_mesh(1.0, 0.5, 12, 6)
    K = assemble(mesh, MAT, geometry_of(mesh)).csr
    system = LinearSystem(K, np.random.default_rng(2).standard_normal(3 * mesh.n_vertices),
                          coordinates=mesh.vertices)
    T = np.tile(np.eye(3), (mesh.n_vertices, 1))
    u, report = solve(system)
    assert report.converged and report.deflated_dimension == 3
    with pytest.raises(IterationLimitError) as err:
        solve(system, max_iter=7)
    for v in (u, err.value.solution):
        assert np.abs(T.T @ v).max() <= 1e-12 * np.linalg.norm(v) * math.sqrt(mesh.n_vertices)


def _drifting_matvec(matrix, drifted, inputs):
    """The solver's product helper, with its first ``drifted`` products with
    ``matrix`` off by a relative 1e-6; appends the input of every product with
    ``matrix`` (not with the block inverse) to ``inputs``."""

    def drifting(A, v, out):
        _matvec(A, v, out)
        if A is matrix:
            inputs.append(v.copy())
            if len(inputs) <= drifted:
                out[0] += 1e-6 * np.linalg.norm(out)
        return out

    return drifting


def test_true_residual_restart_resets_the_direction(monkeypatch):
    # the perturbed first products make the recurrence residual pass the stop
    # test while the true residual does not; CG must then restart with p = M r,
    # and go on exactly as a fresh solve for that true residual from zero
    rng = np.random.default_rng(5)
    B = rng.standard_normal((30, 30))
    A = sp.csr_matrix(B @ B.T + 30.0 * np.eye(30))
    b = rng.standard_normal(30)
    system = LinearSystem(csr_record(A), b)
    calls = []
    monkeypatch.setattr("memshell.solver._matvec", _drifting_matvec(system.csr, 3, calls))
    u, report = solve(system, tol=1e-10)
    monkeypatch.undo()
    assert report.converged and np.linalg.norm(A @ u - b) <= 1e-10 * np.linalg.norm(b)
    assert len(calls) == report.iterations + 2  # one failed and one passed true-residual check

    M = _scipy(_nodal_block_inverse(*_lower_diagonals(A)))
    restart = [j for j in range(len(calls) - 1)
               if np.allclose(calls[j + 1], M @ (b - A @ calls[j]), rtol=1e-13, atol=0.0)]
    assert len(restart) == 1
    after = calls[restart[0] + 1:-1]  # the directions after the restart, not the final check
    residual = b - _matvec(system.csr, calls[restart[0]], np.empty(30))
    fresh, fresh_calls = LinearSystem(system.csr, residual), []
    monkeypatch.setattr("memshell.solver._matvec", _drifting_matvec(fresh.csr, 0, fresh_calls))
    # its tolerance is relative to the smaller |residual|, so it runs on for more iterations
    _, fresh_report = solve(fresh, tol=1e-10)
    assert fresh_report.converged and len(fresh_calls) > len(after) > 0
    for p, q in zip(after, fresh_calls):
        assert np.array_equal(p, q)
