"""Global assembly and Dirichlet constraints by nodal projection."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import Delaunay

from memshell import element
from memshell.assembly import (
    ConstraintError,
    LinearSystem,
    apply_constraints,
    assemble,
    cylinder_constraints,
)
from memshell.element import QUADRATURE_RULE, SingularJacobianError
from memshell.geometry import Cylinder, MaterialModel, cylinder_exact
from memshell.mesh import SurfaceMesh, build_cylinder_mesh, build_torus_mesh
from memshell.postprocess import export_vtk, recover_stress
from memshell.solver import solve

from oracles import (admissible_basis, apply_constraints_reference,
                     apply_constraints_scipy_reference, csr_bytes, dense_assembly,
                     element_stiffness, flat_grid_mesh, geometry_of, jittered_cylinder_mesh,
                     traced_peak)

MAT = MaterialModel(E=100.0, nu=0.5, t=1e-2)


def _const_load(x):
    return np.broadcast_to([0.0, 0.0, 1.0], np.asarray(x).shape)


def test_single_element_mesh_matches_element_matrix():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, _const_load(geo.points))
    ke = element_stiffness(verts, mesh.nodal_normals, MAT)
    assert np.abs(system.matrix.toarray() - ke).max() <= 1e-15 * np.abs(ke).max()


def test_sparse_assembly_matches_dense_oracle_flat_square():
    mesh = flat_grid_mesh(1, 1)  # two triangles sharing the diagonal
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, _const_load(geo.points))
    K_oracle, rhs_oracle = dense_assembly(mesh, MAT, _const_load, QUADRATURE_RULE)
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
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, load(geo.points))
    K_oracle, rhs_oracle = dense_assembly(mesh, MAT, load, QUADRATURE_RULE)
    scale = np.abs(K_oracle).max()
    assert np.abs(system.matrix.toarray() - K_oracle).max() <= 1e-13 * scale
    assert np.abs(system.rhs - rhs_oracle).max() <= 1e-13 * max(np.abs(rhs_oracle).max(), 1e-30)


def _curved_delaunay_patch():
    """A curved patch over a seeded Delaunay triangulation of 24 points: 37
    elements, node valences 3 to 8, so node rows hold unequal block counts."""
    xy = np.random.default_rng(0).uniform(0.0, 1.0, size=(24, 2))
    tri = Delaunay(xy).simplices
    e1, e2 = xy[tri[:, 1]] - xy[tri[:, 0]], xy[tri[:, 2]] - xy[tri[:, 0]]
    clockwise = e1[:, 0] * e2[:, 1] < e1[:, 1] * e2[:, 0]
    tri[clockwise] = tri[clockwise][:, ::-1]
    pairs = np.unique(tri[:, :, None] * len(xy) + tri[:, None, :])
    valence = np.bincount(pairs // len(xy)) - 1
    assert valence.min() == 3 and valence.max() == 8
    return SurfaceMesh(np.column_stack([xy, 0.3 * xy[:, 0] * xy[:, 1]]), tri)


@pytest.mark.parametrize("variant", ["interpolated", "facet"])
@pytest.mark.parametrize("mesh_builder", [
    lambda: build_torus_mesh(1.0, 0.5, 6, 4),     # 48 elements
    lambda: build_cylinder_mesh(1.0, 4.0, 5, 4),  # 40 elements
    _curved_delaunay_patch,                       # 37 elements
], ids=["torus", "cylinder", "delaunay-patch"])
def test_assembly_over_several_element_blocks_matches_dense_oracle(monkeypatch, mesh_builder,
                                                                    variant):
    # blocks of 7 elements: several full blocks and a partial last one
    monkeypatch.setattr(element, "BLOCK_ELEMENTS", 7)
    mesh = mesh_builder()
    assert mesh.n_triangles > 7 and mesh.n_triangles % 7
    load = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at
    geo = geometry_of(mesh, variant=variant)
    system = assemble(mesh, MAT, geo, load(geo.points))
    K_oracle, rhs_oracle = dense_assembly(mesh, MAT, load, QUADRATURE_RULE, variant)
    assert system.matrix.has_canonical_format
    assert np.abs(system.matrix.toarray() - K_oracle).max() <= 1e-13 * np.abs(K_oracle).max()
    assert np.abs(system.rhs - rhs_oracle).max() <= 1e-13 * np.abs(rhs_oracle).max()
    # one stored 3x3 block per coupled node pair, the diagonal included
    tri = mesh.triangles
    pairs = np.unique(tri[:, :, None] * mesh.n_vertices + tri[:, None, :])
    assert system.matrix.nnz == 9 * pairs.size


def test_assembly_memory_peak_is_a_small_multiple_of_the_matrix():
    # Traced peak over the returned CSR's bytes at torus n=32: 7.0 for a COO
    # assembly of all (m, 9, 9) element matrices at once, 2.68 for a scatter
    # into 3x3 blocks converted to CSR, 1.92 for the scatter into the CSR data.
    mesh = build_torus_mesh(1.0, 0.5, 64, 32)
    geo = geometry_of(mesh)
    traction = 1.0 * geo.normals
    system, peak = traced_peak(assemble, mesh, MAT, geo, traction)
    assert peak <= 2.2 * csr_bytes(system.matrix)


def test_constraint_memory_peak_is_a_small_multiple_of_the_matrix():
    # Traced peak over the returned CSR's bytes at cylinder n=32: 2.48 for a
    # read-back of the stiffness into 3x3 blocks, 1.47 for the sparse products.
    mesh = build_cylinder_mesh(1.0, 4.0, 32, 32)
    system = assemble(mesh, MAT, geometry_of(mesh))
    constraints = cylinder_constraints(mesh)
    constrained, peak = traced_peak(apply_constraints, system, *constraints)
    assert peak <= 1.8 * csr_bytes(constrained.matrix)


def test_assembled_matrix_symmetric_and_psd_behaviour():
    mesh = build_cylinder_mesh(1.0, 4.0, 8, 6)
    system = assemble(mesh, MAT, geometry_of(mesh))
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
        geo = geometry_of(mesh)
        system = assemble(mesh, MAT, geo, load(geo.points))
        total = system.rhs[0::3].sum()
        devs.append(abs(total - F / 2.0))
    assert devs[1] <= 1e-3  # n=32
    assert devs[0] > devs[1] > devs[2]
    # the measured deficit tracks the chord-factor prediction
    predicted = 0.5 * (1.0 - np.sinc(1.0 / 32.0))
    assert abs(devs[1] - predicted) < 0.05 * predicted


def test_geometry_of_another_mesh_rejected(tmp_path):
    mesh = build_torus_mesh(1.0, 0.5, 8, 4)
    geo = geometry_of(build_torus_mesh(1.0, 0.5, 10, 4))
    u = np.zeros(3 * mesh.n_vertices)
    calls = (lambda: assemble(mesh, MAT, geo),
             lambda: recover_stress(mesh, MAT, u, geo),
             lambda: export_vtk(mesh, u, np.zeros((80, 3, 3, 3)), geo, tmp_path / "x.vtk"))
    for call in calls:
        with pytest.raises(ValueError, match="covers 80 elements, the mesh has 64"):
            call()


def test_pressure_rhs_closed_surface_self_equilibrated():
    # the import case's load: a constant pressure on the geometry's normals
    mesh = build_torus_mesh(1.0, 0.5, 16, 8)
    geo = geometry_of(mesh)
    rhs = assemble(mesh, MAT, geo, 1.0 * geo.normals).rhs
    # net force from a constant pressure on a closed surface vanishes
    net = np.array([rhs[c::3].sum() for c in range(3)])
    assert np.abs(net).max() < 1e-12 * np.abs(rhs).max() * mesh.n_vertices**0.5


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

def test_cylinder_constraints_counts_and_directions():
    mesh = build_cylinder_mesh(1.0, 4.0, 4, 2)
    nodes, directions = cylinder_constraints(mesh)
    assert nodes.shape == (8,)
    assert directions.shape == (8, 3)
    assert len(set(nodes.tolist())) == 8  # no node carries both constraints
    for node, q in zip(nodes, directions):
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        x = mesh.vertices[node, 0]
        if abs(x) < 1e-12:
            assert np.allclose(q, [1.0, 0.0, 0.0])
        else:
            yz = mesh.vertices[node, 1:]
            assert np.allclose(q, [0.0, *(yz / np.linalg.norm(yz))], atol=1e-12)


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


def test_cylinder_constraints_reject_coincident_rings():
    # an annulus in the plane x=0: both boundary rings have mean x 0
    base = build_cylinder_mesh(1.0, 1.0, 8, 2)
    v = base.vertices.copy()
    v[:, 1:] *= 1.0 + v[:, :1]
    v[:, 0] = 0.0
    with pytest.raises(ConstraintError, match="^boundary rings coincide along the axis$"):
        cylinder_constraints(SurfaceMesh(v, base.triangles))


def test_constraints_applied_once():
    mesh = build_cylinder_mesh(1.0, 4.0, 6, 3)
    constraints = cylinder_constraints(mesh)
    fixed = apply_constraints(assemble(mesh, MAT, geometry_of(mesh)), *constraints)
    with pytest.raises(ConstraintError,
                       match="^constraints have already been applied to this system$"):
        apply_constraints(fixed, *constraints)


def test_apply_constraints_noop_without_constraints():
    mesh = flat_grid_mesh(2, 2)
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, _const_load(geo.points))
    assert apply_constraints(system, np.zeros(0, dtype=int), np.zeros((0, 3))) is system


def test_system_carries_node_coordinates_through_constraints():
    mesh = build_cylinder_mesh(1.0, 4.0, 6, 3)
    system = assemble(mesh, MAT, geometry_of(mesh))
    fixed = apply_constraints(system, *cylinder_constraints(mesh))
    assert np.array_equal(system.coordinates, mesh.vertices)
    assert np.array_equal(fixed.coordinates, mesh.vertices)


@pytest.mark.parametrize("shape", [(4, 3), (3, 2), (9,)])
def test_coordinates_of_wrong_shape_rejected(shape):
    with pytest.raises(ValueError, match=rf"node coordinates have shape \({shape[0]},.*"
                                         r"a system of 9 dofs needs \(3, 3\)"):
        LinearSystem(sp.eye(9), np.zeros(9), coordinates=np.zeros(shape))


def test_system_keeps_its_csr_record_and_wraps_it_for_scipy_on_first_access():
    mesh = build_cylinder_mesh(1.0, 4.0, 4, 3)
    system = assemble(mesh, MAT, geometry_of(mesh))
    record = system.csr
    assert LinearSystem(record, system.rhs).csr is record
    K = system.matrix
    assert type(K) is sp.csr_matrix and system.matrix is K and K.shape == record.shape
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(K, name), getattr(record, name)), name
    dense = LinearSystem(K.toarray(), system.rhs)
    assert np.array_equal(dense.matrix.toarray(), K.toarray())


@pytest.mark.parametrize("matrix, rhs, message", [
    (sp.csr_matrix((3, 6)), np.zeros(3), "system matrix must be square"),
    (sp.eye(6), np.zeros(5), "right-hand side does not match the matrix dimension"),
    (sp.eye(6), np.zeros((6, 1)), "right-hand side does not match the matrix dimension"),
], ids=["non-square", "short-rhs", "column-rhs"])
def test_misshapen_system_rejected(matrix, rhs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LinearSystem(matrix, rhs)


def test_axis_aligned_constraint_equals_direct_elimination():
    # with q = e_x the projector is diag(0, 1, 1), so the projected system
    # must coincide with zeroing row/column of dof x by hand
    mesh = flat_grid_mesh(1, 1)
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, _const_load(geo.points))
    node = 0
    fixed = apply_constraints(system, [node], [[1.0, 0.0, 0.0]])

    K = system.matrix.toarray().copy()
    rhs = system.rhs.copy()
    dof = 3 * node
    K[dof, :] = 0.0
    K[:, dof] = 0.0
    K[dof, dof] = 1.0
    rhs[dof] = 0.0
    assert np.abs(fixed.matrix.toarray() - K).max() <= 1e-14 * np.abs(K).max()
    assert np.abs(fixed.rhs - rhs).max() <= 1e-14 * max(np.abs(rhs).max(), 1.0)


def test_projected_constraint_matches_nullspace_reduction():
    # oracle: solve the constrained minimization on an explicit basis of the
    # admissible subspace and compare displacements (a small diagonal shift
    # removes the rigid modes of the floating patch in both paths)
    rng = np.random.default_rng(19)
    mesh = flat_grid_mesh(2, 1)
    geo = geometry_of(mesh)
    base = assemble(mesh, MAT, geo, _const_load(geo.points))
    ndof = base.ndof
    shift = 1e-3 * np.abs(base.matrix.data).max()
    K = base.matrix.toarray() + shift * np.eye(ndof)
    system = LinearSystem(sp.csr_matrix(K), base.rhs)
    q = rng.standard_normal(3)
    q /= np.linalg.norm(q)
    node = 2
    fixed = apply_constraints(system, [node], [q])
    u = np.linalg.solve(fixed.matrix.toarray(), fixed.rhs)

    N = admissible_basis(ndof, [node], [q])
    u_oracle = N @ np.linalg.solve(N.T @ K @ N, N.T @ system.rhs)

    assert abs(q @ u[3 * node:3 * node + 3]) < 1e-12 * max(1.0, np.abs(u).max())
    assert np.abs(u - u_oracle).max() <= 1e-9 * max(1.0, np.abs(u_oracle).max())


def test_projected_solve_matches_nullspace_oracle_on_a_jittered_cylinder():
    # no cyclic symmetry: every radial direction and every nodal block differs.
    # The oracle's condition number is 2.4e3, so tol 1e-12 pins u to ~1e-13.
    mesh = jittered_cylinder_mesh(1.0, 4.0, 6, 0.25, seed=7)
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo,
                      cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at(geo.points))
    nodes, directions = cylinder_constraints(mesh)
    u, report = solve(apply_constraints(system, nodes, directions), tol=1e-12)
    assert report.converged and report.deflated_dimension == 0

    N = admissible_basis(system.ndof, nodes, directions)
    K = system.matrix.toarray()
    u_oracle = N @ np.linalg.solve(N.T @ K @ N, N.T @ system.rhs)
    scale = np.abs(u_oracle).max()
    assert np.abs(np.einsum("ka,ka->k", directions, u.reshape(-1, 3)[nodes])).max() <= 1e-13 * scale
    assert np.abs(u - u_oracle).max() <= 1e-11 * scale  # measured 1.0e-13


def test_apply_constraints_preserves_symmetry_and_far_rows():
    mesh = build_cylinder_mesh(1.0, 4.0, 6, 4)
    surf = Cylinder(1.0, 4.0)
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, cylinder_exact(1.0, MAT, surf).load_at(geo.points))
    nodes, directions = cylinder_constraints(mesh)
    fixed = apply_constraints(system, nodes, directions)
    Kc = fixed.matrix
    scale = np.abs(Kc.data).max()
    assert np.abs((Kc - Kc.T).toarray()).max() <= 1e-12 * scale
    # rows of nodes not touching any constrained node are unchanged
    constrained_nodes = set(nodes.tolist())
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


def _assert_bit_identical_to_scipy_operators(got, system, nodes, directions):
    ref = apply_constraints_scipy_reference(system, nodes, directions)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got.csr, name), getattr(ref.csr, name)), name
    assert np.array_equal(got.rhs, ref.rhs)


def _assert_matches_reference(system, nodes, directions):
    got = apply_constraints(system, nodes, directions)
    _assert_bit_identical_to_scipy_operators(got, system, nodes, directions)
    ref = apply_constraints_reference(system, nodes, directions)
    scale = abs(ref.matrix).max()
    assert abs(got.matrix - ref.matrix).max() <= 1e-14 * scale
    # sorted column indices and no stored zeros, as assemble leaves its matrix
    assert got.matrix.has_canonical_format and np.all(got.matrix.data != 0)
    assert np.abs(got.rhs - ref.rhs).max() <= 1e-14 * max(np.abs(ref.rhs).max(), 1e-300)
    assert np.array_equal(got.constraints[0], ref.constraints[0])
    assert np.abs(got.constraints[1] - ref.constraints[1]).max() <= 1e-15
    assert got.coordinates is ref.coordinates


@pytest.mark.parametrize("n", [3, 4, 7, 16])
def test_apply_constraints_matches_reference_on_cylinders(n):
    mesh = build_cylinder_mesh(1.0, 4.0, n, n)
    load = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, load(geo.points))
    _assert_matches_reference(system, *cylinder_constraints(mesh))


@pytest.mark.parametrize("n", [3, 8, 16, 64])
def test_apply_constraints_is_bit_identical_to_scipy_operators_on_cylinders(n):
    # the benchmark ladder's sizes; the dense reference above stops at n=16
    mesh = build_cylinder_mesh(1.0, 4.0, n, n)
    load = cylinder_exact(1.0, MAT, Cylinder(1.0, 4.0)).load_at
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, load(geo.points))
    nodes, directions = cylinder_constraints(mesh)
    got = apply_constraints(system, nodes, directions)
    _assert_bit_identical_to_scipy_operators(got, system, nodes, directions)


def test_apply_constraints_on_int64_indices_matches_int32():
    # scipy keeps int64 indices once a matrix has them; the kernels then need
    # int64 outputs
    mesh = build_cylinder_mesh(1.0, 4.0, 8, 8)
    system = assemble(mesh, MAT, geometry_of(mesh))
    wide = system.matrix.copy()
    wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
    constraints = cylinder_constraints(mesh)
    got = apply_constraints(LinearSystem(wide, system.rhs), *constraints)
    ref = apply_constraints(system, *constraints)
    assert got.csr.indices.dtype == got.csr.indptr.dtype == np.int64
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got.csr, name), getattr(ref.csr, name)), name


def _random_constraints(rng, n_nodes, n_constrained):
    """One unit direction at each of ``n_constrained`` distinct random nodes.

    Some directions are coordinate axes or diagonals, whose completion has
    ties in the smallest component.
    """
    special = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 1], [1, 1, 1],
                        [1, -1, 1]], dtype=float)
    nodes = rng.choice(n_nodes, size=n_constrained, replace=False)
    directions = rng.standard_normal((n_constrained, 3))
    pick = rng.random(n_constrained) < 0.3
    directions[pick] = special[rng.integers(len(special), size=pick.sum())]
    return nodes, directions / np.linalg.norm(directions, axis=1)[:, None]


@pytest.mark.parametrize("seed", range(6))
def test_apply_constraints_matches_reference_on_random_sets(seed):
    rng = np.random.default_rng(seed)
    mesh = build_torus_mesh(2.0, 0.7, 8, 5)
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, _const_load(geo.points))
    for _ in range(10):
        _assert_matches_reference(system, *_random_constraints(rng, mesh.n_vertices, 12))


def test_apply_constraints_matches_reference_without_stored_diagonal_block():
    # node 1 couples to node 0 but stores no diagonal block of its own
    K = np.zeros((6, 6))
    K[:3, :3] = np.diag([4.0, 5.0, 6.0])
    K[:3, 3:] = K[3:, :3] = 0.5
    system = LinearSystem(sp.csr_matrix(K), np.arange(1.0, 7.0))
    _assert_matches_reference(system, [1, 0], [np.array([1.0, 2.0, 2.0]) / 3.0, [0.0, 1.0, 0.0]])


def test_apply_constraints_matches_reference_on_a_non_symmetric_matrix():
    # the sparse form needs no symmetry of K: Q K is not taken as (K Q)^T
    rng = np.random.default_rng(3)
    K = rng.standard_normal((15, 15))
    system = LinearSystem(sp.csr_matrix(K), rng.standard_normal(15))
    _assert_matches_reference(system, *_random_constraints(rng, 5, 3))


@pytest.mark.parametrize("directions, nodes, message", [
    ([[1, 0, 0], [0, 1, 0]], [0, 1, 2],
     "constraints need nodes (k,) and directions (k, 3), got (3,) and (2, 3)"),
    ([[1, 0, 0], [1, 1, 0], [0.6, 0.8, 0], [0, 0, 2]], [2, 1, 0, 3],
     "constraint direction at node 1 must be unit length, |q|=1.4142135623730951"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]], [2, 3, 0, 3, 2],
     "node 3 is constrained more than once"),
    ([[1, 0, 0], [0, 1, 0]], [0, 9], "constraint node 9 out of range"),
    ([[1, 0, 0], [0, 1, 0]], [-1, 0], "constraint node -1 out of range"),
    ([[0, 1, 0], [np.nan, 0, 0]], [3, 2], "constraint direction at node 2 must be unit length, |q|=nan"),
])
def test_constraint_errors_match_reference(directions, nodes, message):
    mesh = flat_grid_mesh(1, 1)
    geo = geometry_of(mesh)
    system = assemble(mesh, MAT, geo, _const_load(geo.points))
    for apply in (apply_constraints, apply_constraints_reference):
        with pytest.raises(ConstraintError) as err:
            apply(system, np.array(nodes), np.array(directions, dtype=float))
        assert str(err.value) == message


def test_non_integral_constraint_node_rejected_by_position():
    # a cast to int would constrain node 1
    system = LinearSystem(sp.eye(6, format="csr"), np.ones(6))
    with pytest.raises(ConstraintError,
                       match=r"^constraint nodes entry \[0\] is not an integer: 1.9$"):
        apply_constraints(system, [1.9], [[1.0, 0.0, 0.0]])
    nodes, _ = apply_constraints(system, np.array([1.0]), [[1.0, 0.0, 0.0]]).constraints
    assert nodes.dtype == np.int64 and nodes.tolist() == [1]


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
        assemble(mesh, MAT, geometry_of(mesh))

