"""Global assembly and rotated-frame constraint elimination."""

import numpy as np
import pytest
import scipy.sparse as sp

from memshell.assembly import (
    Constraint,
    ConstraintError,
    LinearSystem,
    apply_constraints,
    assemble,
    cylinder_constraints,
    pressure_rhs,
)
from memshell.element import SingularJacobianError, quadrature_rule
from memshell.geometry import Cylinder, MaterialModel, cylinder_exact
from memshell.mesh import SurfaceMesh, build_cylinder_mesh, build_torus_mesh

from oracles import apply_constraints_reference, dense_assembly, element_stiffness, flat_grid_mesh

MAT = MaterialModel(E=100.0, nu=0.5, t=1e-2)
QUAD = quadrature_rule(2)


def _const_load(x):
    return np.broadcast_to([0.0, 0.0, 1.0], np.asarray(x).shape)


def test_single_element_mesh_matches_element_matrix():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    system = assemble(mesh, MAT, _const_load, QUAD)
    ke = element_stiffness(verts, mesh.nodal_normals, MAT, QUAD)
    assert np.abs(system.matrix.toarray() - ke).max() <= 1e-15 * np.abs(ke).max()


def test_sparse_assembly_matches_dense_oracle_flat_square():
    mesh = flat_grid_mesh(1, 1)  # two triangles sharing the diagonal
    system = assemble(mesh, MAT, _const_load, QUAD)
    K_oracle, rhs_oracle = dense_assembly(mesh, MAT, _const_load, QUAD)
    scale = np.abs(K_oracle).max()
    assert np.abs(system.matrix.toarray() - K_oracle).max() <= 1e-13 * scale
    assert np.abs(system.rhs - rhs_oracle).max() <= 1e-13 * np.abs(rhs_oracle).max()


@pytest.mark.parametrize("mesh_builder", [
    lambda: build_cylinder_mesh(1.0, 4.0, 4, 3),     # 16 nodes
    lambda: build_torus_mesh(1.0, 0.5, 6, 4),        # 24 nodes
    lambda: flat_grid_mesh(3, 3),                    # 16 nodes
])
def test_sparse_assembly_matches_dense_oracle_small_meshes(mesh_builder):
    mesh = mesh_builder()
    assert mesh.n_vertices <= 50
    surf = Cylinder(1.0, 4.0)
    load = cylinder_exact(1.0, MAT, surf).load_at
    system = assemble(mesh, MAT, load, QUAD)
    K_oracle, rhs_oracle = dense_assembly(mesh, MAT, load, QUAD)
    scale = np.abs(K_oracle).max()
    assert np.abs(system.matrix.toarray() - K_oracle).max() <= 1e-13 * scale
    assert np.abs(system.rhs - rhs_oracle).max() <= 1e-13 * max(np.abs(rhs_oracle).max(), 1e-30)


def test_assembled_matrix_symmetric_and_psd_behaviour():
    mesh = build_cylinder_mesh(1.0, 4.0, 8, 6)
    system = assemble(mesh, MAT, None, QUAD)
    K = system.matrix
    asym = (K - K.T).toarray()
    assert np.abs(asym).max() <= 1e-12 * np.abs(K.toarray()).max()
    rng = np.random.default_rng(17)
    scale = np.abs(K.data).max()
    for _ in range(10):
        u = rng.standard_normal(system.ndof)
        assert u @ (K @ u) >= -1e-10 * scale * (u @ u)
    # rigid translations are energy free
    for c in range(3):
        u = np.zeros(system.ndof)
        u[c::3] = 1.0
        assert abs(u @ (K @ u)) <= 1e-10 * scale * (u @ u)


def test_cylinder_total_axial_load():
    # the assembled rhs integrates the axial load over the faceted surface:
    # the deficit is the chord factor sin(pi/n)/(pi/n), decreasing like n^-2
    F = 1.0
    devs = []
    for n in (16, 32, 64):
        mesh = build_cylinder_mesh(1.0, 4.0, n, n)
        load = cylinder_exact(F, MAT, Cylinder(1.0, 4.0)).load_at
        system = assemble(mesh, MAT, load, QUAD)
        total = system.rhs[0::3].sum()
        devs.append(abs(total - F / 2.0))
    assert devs[1] <= 1e-3  # n=32
    assert devs[0] > devs[1] > devs[2]
    # the measured deficit tracks the chord-factor prediction
    predicted = 0.5 * (1.0 - np.sinc(1.0 / 32.0))
    assert abs(devs[1] - predicted) < 0.05 * predicted


def test_pressure_rhs_closed_surface_self_equilibrated():
    mesh = build_torus_mesh(1.0, 0.5, 16, 8)
    rhs = pressure_rhs(mesh, 1.0, QUAD)
    # net force from a constant pressure on a closed surface vanishes
    net = np.array([rhs[c::3].sum() for c in range(3)])
    assert np.abs(net).max() < 1e-12 * np.abs(rhs).max() * mesh.n_vertices**0.5


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

def test_cylinder_constraints_counts_and_directions():
    mesh = build_cylinder_mesh(1.0, 4.0, 4, 2)
    cons = cylinder_constraints(mesh)
    assert len(cons) == 8
    by_node = {}
    for c in cons:
        assert abs(np.linalg.norm(c.direction) - 1.0) < 1e-12
        assert c.node not in by_node  # no node carries both constraints
        by_node[c.node] = c
    for node, c in by_node.items():
        x = mesh.vertices[node, 0]
        if abs(x) < 1e-12:
            assert np.allclose(c.direction, [1.0, 0.0, 0.0])
        else:
            yz = mesh.vertices[node, 1:]
            assert np.allclose(c.direction, [0.0, *(yz / np.linalg.norm(yz))], atol=1e-12)


def test_cylinder_constraints_name_first_node_on_axis():
    mesh = build_cylinder_mesh(1.0, 4.0, 6, 2)
    v = mesh.vertices.copy()
    v[[13, 15], 1:] = 0.0  # the x=L ring's loop visits 12, 17, 16, 15, 14, 13
    with pytest.raises(ConstraintError) as err:
        cylinder_constraints(SurfaceMesh(v, mesh.triangles))
    assert str(err.value) == "node 15 lies on the axis, radial direction undefined"


def test_cylinder_constraints_require_two_rings():
    torus = build_torus_mesh(1.0, 0.5, 6, 4)
    with pytest.raises(ConstraintError, match="boundary"):
        cylinder_constraints(torus)


def test_apply_constraints_noop_without_constraints():
    mesh = flat_grid_mesh(2, 2)
    system = assemble(mesh, MAT, _const_load, QUAD)
    assert apply_constraints(system, []) is system


def test_apply_constraints_all_directions_gives_zero_solution():
    mesh = flat_grid_mesh(2, 2)
    system = assemble(mesh, MAT, _const_load, QUAD)
    cons = []
    for node in range(mesh.n_vertices):
        for c in range(3):
            cons.append(Constraint(node, np.eye(3)[c]))
    fixed = apply_constraints(system, cons)
    assert np.abs(fixed.matrix.toarray() - np.eye(system.ndof)).max() < 1e-15
    assert np.abs(fixed.rhs).max() == 0.0
    u = np.linalg.solve(fixed.matrix.toarray(), fixed.rhs)
    assert np.abs(fixed.recover(u)).max() == 0.0


def test_axis_aligned_constraint_equals_direct_elimination():
    # with q = e_x the completed frame is the identity, so the rotated
    # elimination must coincide with zeroing row/column of dof x by hand
    mesh = flat_grid_mesh(1, 1)
    system = assemble(mesh, MAT, _const_load, QUAD)
    node = 0
    fixed = apply_constraints(system, [Constraint(node, np.array([1.0, 0.0, 0.0]))])

    K = system.matrix.toarray().copy()
    rhs = system.rhs.copy()
    dof = 3 * node
    K[dof, :] = 0.0
    K[:, dof] = 0.0
    K[dof, dof] = 1.0
    rhs[dof] = 0.0
    assert np.abs(fixed.matrix.toarray() - K).max() <= 1e-14 * np.abs(K).max()
    assert np.abs(fixed.rhs - rhs).max() <= 1e-14 * max(np.abs(rhs).max(), 1.0)


def test_rotated_constraint_matches_nullspace_reduction():
    # oracle: solve the constrained minimization on an explicit basis of the
    # admissible subspace and compare displacements (a small diagonal shift
    # removes the rigid modes of the floating patch in both paths)
    rng = np.random.default_rng(19)
    mesh = flat_grid_mesh(2, 1)
    base = assemble(mesh, MAT, _const_load, QUAD)
    ndof = base.ndof
    shift = 1e-3 * np.abs(base.matrix.data).max()
    K = base.matrix.toarray() + shift * np.eye(ndof)
    system = LinearSystem(sp.csr_matrix(K), base.rhs)
    q = rng.standard_normal(3)
    q /= np.linalg.norm(q)
    node = 2
    fixed = apply_constraints(system, [Constraint(node, q)])
    u = fixed.recover(np.linalg.solve(fixed.matrix.toarray(), fixed.rhs))

    # nullspace oracle: identity columns for free nodes plus the two
    # admissible directions at the constrained node
    w, vec = np.linalg.eigh(np.eye(3) - np.outer(q, q))
    keep = vec[:, w > 0.5]
    cols = [c for c in range(ndof) if c // 3 != node]
    Nred = np.zeros((ndof, len(cols) + 2))
    for k, c in enumerate(cols):
        Nred[c, k] = 1.0
    Nred[3 * node:3 * node + 3, len(cols):] = keep
    u_oracle = Nred @ np.linalg.solve(Nred.T @ K @ Nred, Nred.T @ system.rhs)

    assert abs(q @ u[3 * node:3 * node + 3]) < 1e-12 * max(1.0, np.abs(u).max())
    assert np.abs(u - u_oracle).max() <= 1e-9 * max(1.0, np.abs(u_oracle).max())


def test_apply_constraints_preserves_symmetry_and_far_rows():
    mesh = build_cylinder_mesh(1.0, 4.0, 6, 4)
    surf = Cylinder(1.0, 4.0)
    system = assemble(mesh, MAT, cylinder_exact(1.0, MAT, surf).load_at, QUAD)
    fixed = apply_constraints(system, cylinder_constraints(mesh))
    Kc = fixed.matrix
    scale = np.abs(Kc.data).max()
    assert np.abs((Kc - Kc.T).toarray()).max() <= 1e-12 * scale
    # rows of nodes not touching any constrained node are unchanged
    constrained_nodes = {c.node for c in fixed.constraints}
    adjacency = {n: set() for n in range(mesh.n_vertices)}
    for tri in mesh.triangles:
        for a in tri:
            adjacency[int(a)].update(int(b) for b in tri)
    K0 = system.matrix.toarray()
    K1 = Kc.toarray()
    for node in range(mesh.n_vertices):
        if adjacency[node] & constrained_nodes:
            continue
        sl = slice(3 * node, 3 * node + 3)
        assert np.abs(K0[sl] - K1[sl]).max() == 0.0


def test_dependent_constraint_directions_rejected():
    mesh = flat_grid_mesh(1, 1)
    system = assemble(mesh, MAT, _const_load, QUAD)
    cons = [
        Constraint(0, np.array([1.0, 0.0, 0.0])),
        Constraint(0, np.array([1.0, 0.0, 0.0])),
    ]
    with pytest.raises(ConstraintError, match="dependent"):
        apply_constraints(system, cons)


def _assert_matches_reference(system, constraints):
    got = apply_constraints(system, constraints)
    ref = apply_constraints_reference(system, constraints)
    scale = abs(ref.matrix).max()
    assert abs(got.matrix - ref.matrix).max() <= 1e-14 * scale
    assert np.abs(got.rhs - ref.rhs).max() <= 1e-14 * max(np.abs(ref.rhs).max(), 1e-300)
    assert abs(got.frame - ref.frame).max() <= 1e-14
    assert np.array_equal(got.constrained, ref.constrained)
    assert got.constraints == ref.constraints


@pytest.mark.parametrize("n", [3, 4, 7, 16])
def test_apply_constraints_matches_reference_on_cylinders(n):
    mesh = build_cylinder_mesh(1.0, 4.0, n, n)
    load = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at
    system = assemble(mesh, MAT, load, QUAD)
    _assert_matches_reference(system, cylinder_constraints(mesh))


def _random_constraints(rng, n_nodes, n_constrained):
    """1, 2 or 3 directions at random nodes, in shuffled order.

    Some directions are coordinate axes or diagonals, whose completion has
    ties in the smallest component. Each direction keeps a distance of at
    least 0.3 from the span of the node's earlier ones: Gram-Schmidt
    amplifies rounding by the inverse of that distance, and the two
    implementations round their dot products differently.
    """
    special = np.array([[0, 0, 1], [0, 1, 0], [1, 1, 0], [-1, 0, 1], [1, 1, 1]], dtype=float)
    cons = []
    for node in rng.choice(n_nodes, size=n_constrained, replace=False):
        basis = np.zeros((0, 3))
        count = rng.integers(1, 4)
        while len(basis) < count:
            d = special[rng.integers(len(special))] if rng.random() < 0.3 else rng.standard_normal(3)
            d = d / np.linalg.norm(d)
            rest = d - basis.T @ (basis @ d)
            if np.linalg.norm(rest) < 0.3:
                continue
            basis = np.vstack([basis, rest / np.linalg.norm(rest)])
            cons.append(Constraint(int(node), d))
    order = rng.permutation(len(cons))
    return [cons[k] for k in order]


@pytest.mark.parametrize("seed", range(6))
def test_apply_constraints_matches_reference_on_random_sets(seed):
    rng = np.random.default_rng(seed)
    mesh = build_torus_mesh(2.0, 0.7, 8, 5)
    system = assemble(mesh, MAT, _const_load, QUAD)
    for _ in range(10):
        _assert_matches_reference(system, _random_constraints(rng, mesh.n_vertices, 12))


def test_apply_constraints_matches_reference_without_stored_diagonal_block():
    # node 1 couples to node 0 but stores no diagonal block of its own
    K = np.zeros((6, 6))
    K[:3, :3] = np.diag([4.0, 5.0, 6.0])
    K[:3, 3:] = K[3:, :3] = 0.5
    system = LinearSystem(sp.csr_matrix(K), np.arange(1.0, 7.0))
    d = np.array([1.0, 2.0, 2.0]) / 3.0
    _assert_matches_reference(system, [Constraint(1, d), Constraint(0, np.array([0.0, 1.0, 0.0]))])


@pytest.mark.parametrize("directions, nodes, message", [
    ([[1, 0, 0], [0, 1, 0], [1, 0, 0]], [3, 2, 3], "dependent constraint directions at node 3"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0]], [1, 1, 1, 1],
     "dependent constraint directions at node 1"),
    # node 2 comes first in the constraint order, though node 0 is smaller
    ([[0, 1, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]], [2, 0, 2, 0],
     "dependent constraint directions at node 2"),
    ([[1, 0, 0], [0, 1, 0]], [0, 9], "constraint node 9 out of range"),
    ([[1, 0, 0], [0, 1, 0]], [-1, 0], "constraint node -1 out of range"),
])
def test_constraint_errors_match_reference(directions, nodes, message):
    mesh = flat_grid_mesh(1, 1)
    system = assemble(mesh, MAT, _const_load, QUAD)
    cons = [Constraint(n, np.array(d, dtype=float)) for n, d in zip(nodes, directions)]
    for apply in (apply_constraints, apply_constraints_reference):
        with pytest.raises(ConstraintError) as err:
            apply(system, cons)
        assert str(err.value) == message


def test_constraint_validation():
    with pytest.raises(ConstraintError, match=r"unit length, \|q\|=1\.4142135623730951$"):
        Constraint(0, np.array([1.0, 1.0, 0.0]))


def test_assemble_reports_failing_element():
    # second element's nodal normals all lie in its facet plane
    verts = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
    ])
    tris = np.array([[0, 1, 3], [0, 3, 2]])
    normals = np.array([
        [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
    ])
    mesh = SurfaceMesh(verts, tris, nodal_normals=normals)
    with pytest.raises(SingularJacobianError, match="element 1"):
        assemble(mesh, MAT, None, QUAD)

