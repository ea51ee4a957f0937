"""Deflated nodal block-Jacobi CG solver tests."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from memshell.assembly import LinearSystem, apply_constraints, assemble, cylinder_constraints
from memshell.cli import RunConfig, solve_case
from memshell.element import quadrature_rule
from memshell.geometry import Cylinder, MaterialModel, Torus, cylinder_exact, torus_exact
from memshell.mesh import SurfaceMesh, build_cylinder_mesh, build_torus_mesh
from memshell.postprocess import recover_stress
from memshell.solver import (
    IterationLimitError,
    NegativeCurvatureError,
    SolverError,
    _nodal_block_inverse,
    solve,
    translation_basis,
)
from oracles import flat_grid_mesh, random_rotation

MAT = MaterialModel(E=100.0, nu=0.5, t=1e-2)
QUAD = quadrature_rule(2)


def _system(matrix, rhs):
    return LinearSystem(sp.csr_matrix(np.asarray(matrix, dtype=float)),
                        np.asarray(rhs, dtype=float))


def _nodal(matrix):
    """Node-major system matrix: each scalar entry becomes that multiple of I3."""
    return np.kron(np.asarray(matrix, dtype=float), np.eye(3))


def _relative_stress_difference(f_ref, stresses):
    diff = f_ref.stresses - stresses
    num = math.sqrt(float(np.sum(f_ref.weights * np.einsum("mqab,mqab->mq", diff, diff))))
    return num / f_ref.l2_norm()


def test_diagonal_system_converges_fast():
    d = [2.0, 4.0, 8.0, 1.0, 3.0, 5.0]
    u, report = solve(_system(np.diag(d), d), tol=1e-12)
    assert np.abs(u - 1.0).max() < 1e-12
    assert report.iterations <= 2
    assert report.converged


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


def test_singular_nodal_block_fails_before_iterating():
    # a flat membrane has no normal stiffness: every nodal block is singular
    mesh = flat_grid_mesh(3, 3)
    system = assemble(mesh, MAT, lambda x: np.tile([1.0, 0.0, 0.0], (len(x), 1)), QUAD)
    with pytest.raises(SolverError, match=r"node 0 .*ratio 0\.000e\+00"):
        solve(system)


def test_iteration_limit_raises_with_report():
    mesh = build_cylinder_mesh(1.0, 4.0, 8, 8)
    system = assemble(mesh, MAT, cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at, QUAD)
    fixed = apply_constraints(system, cylinder_constraints(mesh))
    with pytest.raises(IterationLimitError) as err:
        solve(fixed, tol=1e-12, max_iter=3)
    assert err.value.report.iterations == 3
    assert err.value.report.relative_residual > 1e-12
    assert err.value.solution.shape == (fixed.ndof,)


def test_translation_basis_unconstrained_and_constrained():
    mesh = build_torus_mesh(1.0, 0.5, 8, 4)
    system = assemble(mesh, MAT, None, QUAD)
    Z = translation_basis(system)
    assert Z.shape == (system.ndof, 3)
    assert np.abs(Z.T @ Z - np.eye(3)).max() < 1e-12

    cyl = build_cylinder_mesh(1.0, 4.0, 6, 3)
    base = assemble(cyl, MAT, None, QUAD)
    fixed = apply_constraints(base, cylinder_constraints(cyl))
    Zc = translation_basis(fixed)
    # axial translation is fully constrained at x=0; lateral ones survive
    assert Zc.shape[1] <= 3
    assert np.abs(Zc.T @ Zc - np.eye(Zc.shape[1])).max() < 1e-12


def test_cylinder_benchmark_converges():
    for n in (8, 16):
        mesh = build_cylinder_mesh(1.0, 4.0, n, n)
        system = assemble(mesh, MAT, cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at, QUAD)
        fixed = apply_constraints(system, cylinder_constraints(mesh))
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
    system = assemble(mesh, MAT, exact.load_at, QUAD)
    u0, report = solve(system, tol=1e-10, deflate_translations=True)
    assert report.converged
    assert report.deflated_dimension == 3
    assert report.relative_residual <= 1e-10
    # returned solution carries no translation component
    for c in range(3):
        assert abs(u0[c::3].sum()) <= 1e-8 * np.abs(u0).max() * mesh.n_vertices

    # adding a rigid translation to the initial guess must not change stresses
    rng = np.random.default_rng(3)
    shift = np.tile(rng.standard_normal(3), mesh.n_vertices)
    u1, _ = solve(system, tol=1e-10, deflate_translations=True, x0=shift)
    f0 = recover_stress(mesh, MAT, system.recover(u0), QUAD)
    f1 = recover_stress(mesh, MAT, system.recover(u1), QUAD)
    assert _relative_stress_difference(f0, f1.stresses) <= 1e-8


def test_torus_random_initial_guesses_agree_in_stress():
    mesh = build_torus_mesh(1.0, 0.5, 16, 8)
    exact = torus_exact(1.0, MAT, Torus(1.0, 0.5))
    system = assemble(mesh, MAT, exact.load_at, QUAD)
    rng = np.random.default_rng(11)
    fields = []
    for _ in range(2):
        x0 = rng.standard_normal(system.ndof)
        u, report = solve(system, tol=1e-10, deflate_translations=True, x0=x0)
        assert report.converged
        fields.append(recover_stress(mesh, MAT, system.recover(u), QUAD))
    assert _relative_stress_difference(fields[0], fields[1].stresses) <= 1e-6


def test_rigid_translation_energy_free_on_benchmark_meshes():
    for mesh in (build_cylinder_mesh(1.0, 4.0, 12, 12), build_torus_mesh(1.0, 0.5, 16, 8)):
        system = assemble(mesh, MAT, None, QUAD)
        K = system.matrix
        scale = np.abs(K.data).max()
        for c in range(3):
            u = np.zeros(system.ndof)
            u[c::3] = 1.0
            assert abs(u @ (K @ u)) <= 1e-10 * scale * (u @ u)


@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_rigid_rotation_leaves_iterations_and_stresses_unchanged(variant):
    # the nodal blocks rotate with the problem, so CG runs the same iteration
    mesh = build_torus_mesh(1.0, 0.5, 48, 24)
    Q = random_rotation(np.random.default_rng(5))
    rotated = SurfaceMesh(mesh.vertices @ Q.T, mesh.triangles,
                          nodal_normals=mesh.nodal_normals @ Q.T)
    exact = torus_exact(1.0, MAT, Torus(1.0, 0.5))
    fields, iterations = [], []
    for m, load_at in ((mesh, exact.load_at), (rotated, lambda y: exact.load_at(y @ Q) @ Q.T)):
        system = assemble(m, MAT, load_at, QUAD, variant)
        u, report = solve(system, tol=1e-10, deflate_translations=True)
        assert report.converged
        iterations.append(report.iterations)
        fields.append(recover_stress(m, MAT, system.recover(u), QUAD, variant))
    assert abs(iterations[0] - iterations[1]) <= 1
    assert _relative_stress_difference(fields[1], Q @ fields[0].stresses @ Q.T) <= 1e-8


@pytest.mark.parametrize("n", [17, 23])
def test_facet_cylinder_converges_between_its_neighbours(n):
    # CG scaled per x/y/z dof rather than per node stalls at these sizes
    config = RunConfig(case="cylinder", variant="facet")
    coarse, case, fine = (solve_case(config, k) for k in (n - 1, n, n + 1))
    assert case.report.converged
    assert case.report.relative_residual <= config.tol
    assert coarse.error > case.error > fine.error


def test_cylinder_iteration_counts_stay_low():
    # measured 27, 58, 115, exactly repeatable; the limits leave ~15 % headroom
    config = RunConfig(case="cylinder", variant="interpolated")
    for n, limit in ((8, 31), (16, 67), (32, 132)):
        report = solve_case(config, n).report
        assert report.converged
        assert report.iterations <= limit, (n, report.iterations)


def _diagonal_blocks(matrix):
    """(N, 3, 3) nodal diagonal blocks of a node-major sparse matrix."""
    bsr = sp.csr_matrix(matrix).tobsr((3, 3))
    row = np.repeat(np.arange(bsr.shape[0] // 3), np.diff(bsr.indptr))
    return bsr.data[row == bsr.indices]


def _benchmark_system(case, variant, n):
    config = RunConfig(case=case, variant=variant)
    if case == "cylinder":
        mesh = build_cylinder_mesh(1.0, config.L, n, n)
        system = assemble(mesh, MAT, None, QUAD, variant)
        return apply_constraints(system, cylinder_constraints(mesh))
    return assemble(build_torus_mesh(config.R, 0.5, 2 * n, n), MAT, None, QUAD, variant)


@pytest.mark.parametrize("case", ["cylinder", "torus"])
@pytest.mark.parametrize("variant", ["interpolated", "facet"])
def test_closed_form_block_inverse_matches_inverse(case, variant, monkeypatch):
    A = _benchmark_system(case, variant, 12).matrix

    def no_eigh(blocks):
        raise AssertionError(f"eigh called on {len(blocks)} blocks")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    M = _nodal_block_inverse(A)
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
])
def test_non_positive_definite_block_message(blocks, message):
    # det > 1e-6 tr^3 alone certifies none of them: node 1 of the first case has
    # a00 > 0 and a positive 2x2 minor but det < 0; in the fourth case node 1 has
    # a00 < 0 and node 2 a negative 2x2 minor, both with det > 0; in the last
    # case tr < 0, so det = -2002 > 1e-6 tr^3 although the block is indefinite
    A = sp.block_diag(blocks, format="csr")
    with pytest.raises(SolverError) as err:
        solve(LinearSystem(A, np.ones(A.shape[0])))
    assert str(err.value) == message


def test_deflated_solution_and_limit_iterate_carry_no_translation():
    # a random load breaks the torus symmetry, so the preconditioned
    # directions, and with them the iterate, pick up translations
    mesh = build_torus_mesh(1.0, 0.5, 12, 6)
    K = assemble(mesh, MAT, None, QUAD).matrix
    system = LinearSystem(K, np.random.default_rng(2).standard_normal(3 * mesh.n_vertices))
    Z = translation_basis(system)
    shift = np.tile([0.3, -1.0, 2.0], mesh.n_vertices)
    u, report = solve(system, deflate_translations=True, x0=shift)
    assert report.converged
    with pytest.raises(IterationLimitError) as err:
        solve(system, deflate_translations=True, max_iter=7)
    for v in (u, err.value.solution):
        assert np.abs(Z.T @ v).max() <= 1e-12 * np.linalg.norm(v)


class _DriftingMatrix:
    """``A`` whose first ``drifted`` products are off by a relative 1e-6; records every input."""

    def __init__(self, A, drifted):
        self.A, self.shape, self.drifted, self.inputs = A, A.shape, drifted, []

    def diagonal(self, k=0):
        return self.A.diagonal(k)

    def __matmul__(self, v):
        self.inputs.append(v.copy())
        out = self.A @ v
        if len(self.inputs) <= self.drifted:
            out[0] += 1e-6 * np.linalg.norm(out)
        return out


def test_true_residual_restart_resets_the_direction():
    # the perturbed first products make the recurrence residual pass the stop
    # test while the true residual does not; CG must then restart with p = M r,
    # exactly as a fresh solve started from the iterate at the restart
    rng = np.random.default_rng(5)
    B = rng.standard_normal((30, 30))
    A = sp.csr_matrix(B @ B.T + 30.0 * np.eye(30))
    b = rng.standard_normal(30)
    system = LinearSystem(A, b)
    system.matrix = drifting = _DriftingMatrix(A, drifted=3)
    u, report = solve(system, tol=1e-10)
    assert report.converged and np.linalg.norm(A @ u - b) <= 1e-10 * np.linalg.norm(b)
    calls = drifting.inputs
    assert len(calls) == report.iterations + 2  # one failed and one passed true-residual check

    M = _nodal_block_inverse(A)
    restart = [j for j in range(len(calls) - 1)
               if np.allclose(calls[j + 1], M @ (b - A @ calls[j]), rtol=1e-13, atol=0.0)]
    assert len(restart) == 1
    fresh, fresh_report = solve(LinearSystem(A, b), tol=1e-10, x0=calls[restart[0]])
    assert fresh_report.iterations == report.iterations - restart[0]
    assert np.array_equal(fresh, u)
