"""Mesh container, generators, boundary topology, normals, and import tests."""

import math

import numpy as np
import pytest

from memshell.geometry import Cylinder, Torus
from memshell.mesh import (
    MeshError,
    SurfaceMesh,
    boundary_components,
    build_cylinder_mesh,
    build_torus_mesh,
    compute_nodal_normals,
    import_mesh,
    mesh_size,
)

from oracles import flat_grid_mesh


def test_cylinder_counts():
    mesh = build_cylinder_mesh(1.0, 4.0, 4, 1)
    assert mesh.n_vertices == 8
    assert mesh.n_triangles == 8
    assert len(mesh.boundary_components) == 2
    assert sorted(len(c) for c in mesh.boundary_components) == [4, 4]


def test_cylinder_vertices_on_radius():
    r = 1.0
    mesh = build_cylinder_mesh(r, 4.0, 12, 5)
    rho2 = mesh.vertices[:, 1] ** 2 + mesh.vertices[:, 2] ** 2
    assert np.abs(rho2 - r**2).max() < 1e-12


def test_cylinder_normals_exact_radial():
    r = 2.0
    mesh = build_cylinder_mesh(r, 4.0, 9, 3)
    expected = np.zeros_like(mesh.vertices)
    expected[:, 1] = mesh.vertices[:, 1] / r
    expected[:, 2] = mesh.vertices[:, 2] / r
    assert np.abs(mesh.nodal_normals - expected).max() < 1e-12


def test_cylinder_boundary_rings_at_ends():
    L = 4.0
    mesh = build_cylinder_mesh(1.0, L, 6, 3)
    by_label = {c.label: c for c in mesh.boundary_components}
    assert set(by_label) == {"x=0", "x=L"}
    assert np.abs(mesh.vertices[by_label["x=0"].vertices, 0]).max() < 1e-14
    assert np.abs(mesh.vertices[by_label["x=L"].vertices, 0] - L).max() < 1e-12


def test_cylinder_rejects_invalid_parameters():
    with pytest.raises(MeshError):
        build_cylinder_mesh(1.0, 4.0, 2, 1)
    with pytest.raises(MeshError):
        build_cylinder_mesh(1.0, 4.0, 4, 0)
    with pytest.raises(MeshError):
        build_cylinder_mesh(-1.0, 4.0, 4, 1)
    with pytest.raises(MeshError):
        build_cylinder_mesh(1.0, 0.0, 4, 1)


def test_torus_counts_topology():
    mesh = build_torus_mesh(1.0, 0.5, 8, 4)
    assert mesh.n_vertices == 32
    assert mesh.n_triangles == 64
    assert mesh.euler_characteristic() == 0
    assert mesh.boundary_components == ()


def test_torus_parametrization_convention():
    R, r = 1.0, 0.5
    mesh = build_torus_mesh(R, r, 8, 4)
    # vertex at (phi=0, theta=0): distance R from the axis, top of the tube
    v0 = mesh.vertices[0]
    assert np.allclose(v0, [R, 0.0, r], atol=1e-14)
    assert abs(np.linalg.norm(mesh.nodal_normals[0]) - 1.0) < 1e-14
    # all normals unit and outward from the tube center circle
    assert np.abs(np.linalg.norm(mesh.nodal_normals, axis=1) - 1.0).max() < 1e-12
    rho = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    tube = mesh.vertices.copy()
    tube[:, 0] -= R * mesh.vertices[:, 0] / rho
    tube[:, 1] -= R * mesh.vertices[:, 1] / rho
    assert np.einsum("ia,ia->i", tube, mesh.nodal_normals).min() > 0.0


def test_torus_rejects_bad_radii():
    with pytest.raises(MeshError):
        build_torus_mesh(1.0, 1.0, 8, 4)
    with pytest.raises(MeshError):
        build_torus_mesh(0.5, 1.0, 8, 4)
    with pytest.raises(MeshError):
        build_torus_mesh(1.0, 0.5, 2, 4)


def test_generated_meshes_pass_validation_at_several_resolutions():
    # constructor re-validates orientation/manifoldness; facets must face outward
    for n in (4, 8, 16):
        cyl = build_cylinder_mesh(1.0, 4.0, n, n)
        mean_nodal = cyl.nodal_normals[cyl.triangles].mean(axis=1)
        assert np.einsum("ma,ma->m", cyl.facet_normals, mean_nodal).min() > 0.0
        tor = build_torus_mesh(1.0, 0.5, 2 * n, n)
        mean_nodal = tor.nodal_normals[tor.triangles].mean(axis=1)
        assert np.einsum("ma,ma->m", tor.facet_normals, mean_nodal).min() > 0.0


def test_torus_area_converges():
    # chordization alone removes pi^2/6 per direction of the squared step;
    # facet tilt adds cross terms, so the O(n^-2) constant is 4 per direction
    R, r = 1.0, 0.5
    exact = 4.0 * math.pi**2 * R * r
    prev = None
    for n in (8, 16, 32):
        mesh = build_torus_mesh(R, r, 2 * n, n)
        rel = abs(mesh.area() - exact) / exact
        assert rel < 4.0 / n**2 + 4.0 / (2 * n) ** 2
        if prev is not None:
            assert rel < prev / 3.0  # clean second-order decrease
        prev = rel


def test_averaged_normals_flat_mesh():
    mesh = flat_grid_mesh(3, 3)
    out = compute_nodal_normals(mesh, "averaged")
    assert np.abs(out.nodal_normals - np.array([0.0, 0.0, 1.0])).max() < 1e-14


def test_averaged_normals_unit_and_converging():
    surface = Torus(1.0, 0.5)
    prev = None
    for n in (8, 16, 32):
        mesh = build_torus_mesh(1.0, 0.5, 2 * n, n)
        averaged = compute_nodal_normals(mesh, "averaged")
        norms = np.linalg.norm(averaged.nodal_normals, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        exact = surface.normal_at(mesh.vertices)
        dots = np.clip(np.einsum("ia,ia->i", averaged.nodal_normals, exact), -1.0, 1.0)
        dev = float(np.arccos(dots).max())
        if prev is not None:
            assert dev < prev
        prev = dev


def test_exact_normals_mode():
    mesh = build_cylinder_mesh(1.0, 4.0, 8, 4)
    # perturb: start from averaged normals, then restore exact ones
    averaged = compute_nodal_normals(mesh, "averaged")
    restored = compute_nodal_normals(averaged, "exact", surface=Cylinder(1.0, 4.0))
    expected = np.zeros_like(mesh.vertices)
    expected[:, 1] = mesh.vertices[:, 1]
    expected[:, 2] = mesh.vertices[:, 2]
    assert np.abs(restored.nodal_normals - expected).max() < 1e-12
    with pytest.raises(MeshError):
        compute_nodal_normals(mesh, "exact")
    with pytest.raises(MeshError):
        compute_nodal_normals(mesh, "sideways")


def test_averaged_normals_folded_surface_error():
    # two nearly coincident triangles folded back over a shared edge
    eps = 1e-15
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, 1.0, 0.0],
        [0.5, 1.0, eps],
    ])
    tris = np.array([[0, 1, 2], [1, 0, 3]])
    with pytest.raises(MeshError, match="folded"):
        SurfaceMesh(verts, tris)


def test_boundary_components_single_triangle():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    comps = boundary_components(mesh)
    assert len(comps) == 1
    assert len(comps[0]) == 3


def test_boundary_loops_disjoint_cover_all_boundary_edges():
    mesh = build_cylinder_mesh(1.0, 4.0, 7, 3)
    comps = boundary_components(mesh)
    seen = set()
    for comp in comps:
        for v in comp.vertices:
            assert v not in seen
            seen.add(int(v))
    # each loop vertex must lie on a boundary edge: ring size matches n_circ
    assert sorted(len(c) for c in comps) == [7, 7]


def test_nonmanifold_edge_rejected():
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, -1.0, 0.0],
    ])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match="non-manifold"):
        SurfaceMesh(verts, tris)


def test_inconsistent_orientation_rejected():
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
    ])
    tris = np.array([[0, 1, 2], [0, 1, 3]])  # edge (0,1) run twice the same way
    with pytest.raises(MeshError, match="orientation"):
        SurfaceMesh(verts, tris)


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(MeshError, match="degenerate"):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))


def test_unreferenced_vertex_rejected():
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [5.0, 5.0, 5.0],
    ])
    with pytest.raises(MeshError, match="unreferenced"):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))


def test_import_off_single_triangle(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text("OFF\n# a comment\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    mesh = import_mesh(path)
    assert mesh.n_vertices == 3
    assert mesh.n_triangles == 1
    assert len(mesh.boundary_components) == 1
    # averaged normals assigned by default
    assert np.abs(mesh.nodal_normals - np.array([0.0, 0.0, 1.0])).max() < 1e-14


def test_import_off_quad_face_error(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshError, match="triangular"):
        import_mesh(path)


def test_import_off_empty_error(tmp_path):
    path = tmp_path / "empty.off"
    path.write_text("")
    with pytest.raises(MeshError, match="empty"):
        import_mesh(path)


def test_import_off_truncated_error(tmp_path):
    path = tmp_path / "trunc.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshError, match="truncated"):
        import_mesh(path)


def test_import_off_rejects_numpy_scalar_repr(tmp_path):
    # OFF holds plain numbers; the numpy >= 2 repr of a scalar is not one.
    path = tmp_path / "repr.off"
    path.write_text("OFF\n3 1 0\nnp.float64(0.0) 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(MeshError, match="vertex") as info:
        import_mesh(path)
    assert "np.float64(0.0)" in str(info.value)


@pytest.mark.parametrize("name, text, line", [
    ("face.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n", "3 0 1 x"),
    ("short.off", "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n3 1 3\n", "3 1 3"),
    ("vertex.obj", "v 0 0 0\nv 1 0 x\nv 0 1 0\nf 1 2 3\n", "v 1 0 x"),
    ("face.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", "f 1 2 x"),
], ids=["off-face", "off-short-face", "obj-vertex", "obj-face"])
def test_import_bad_number_names_the_line(tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MeshError) as info:
        import_mesh(path)
    assert line in str(info.value)

def test_import_obj(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text(
        "# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n"
    )
    mesh = import_mesh(path)
    assert mesh.n_vertices == 3
    assert mesh.n_triangles == 1


def test_import_obj_non_triangle_error(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshError, match="triangular"):
        import_mesh(path)


def test_import_inconsistent_orientation_error(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 1 2 4\n"
    )
    with pytest.raises(MeshError, match="orientation"):
        import_mesh(path)


def test_import_unknown_format(tmp_path):
    path = tmp_path / "mesh.stl"
    path.write_text("whatever")
    with pytest.raises(MeshError, match="format"):
        import_mesh(path)


def test_mesh_size_unit_right_triangle():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    assert abs(mesh_size(mesh) - math.sqrt(2.0)) < 1e-14


def test_mesh_size_halves_under_refinement():
    coarse = build_cylinder_mesh(1.0, 4.0, 8, 8)
    fine = build_cylinder_mesh(1.0, 4.0, 16, 16)
    # chord lengths do not scale exactly linearly; allow the geometric slack
    ratio = mesh_size(coarse) / mesh_size(fine)
    assert 1.95 < ratio < 2.05


def test_mesh_size_matches_edge_scan_cylinder():
    mesh = build_cylinder_mesh(1.0, 4.0, 64, 64)
    # brute-force scan over every triangle edge
    best = 0.0
    for tri in mesh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            best = max(best, float(np.linalg.norm(mesh.vertices[tri[a]] - mesh.vertices[tri[b]])))
    h = mesh_size(mesh)
    assert abs(h - best) < 1e-14
    # the longest edge is the split diagonal of the parametric quad
    expected = math.hypot(4.0 / 64.0, 2.0 * math.sin(math.pi / 64.0))
    assert abs(h - expected) < 1e-12


def _imported_shuffled_torus(tmp_path):
    # a torus with permuted vertex numbers, written to OFF and read back
    mesh = build_torus_mesh(2.0, 0.7, 7, 5)
    perm = np.random.default_rng(5).permutation(mesh.n_vertices)
    inverse = np.argsort(perm)
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices[perm]]
    lines += ["3 %d %d %d" % tuple(inverse[t]) for t in mesh.triangles]
    path = tmp_path / "torus.off"
    path.write_text("\n".join(lines) + "\n")
    return import_mesh(path)


@pytest.mark.parametrize("make", [
    lambda tmp: build_cylinder_mesh(1.0, 4.0, 9, 4),
    lambda tmp: build_torus_mesh(2.0, 0.7, 8, 6),
    _imported_shuffled_torus,
], ids=["cylinder", "torus", "imported_off"])
def test_edges_match_row_unique(tmp_path, make):
    mesh = make(tmp_path)
    ea = mesh.triangles.ravel()
    eb = mesh.triangles[:, [1, 2, 0]].ravel()
    expected = np.unique(np.stack([np.minimum(ea, eb), np.maximum(ea, eb)], axis=1), axis=0)
    edges = mesh.edges()
    assert edges.dtype == expected.dtype
    assert np.array_equal(edges, expected)


def test_mesh_immutable():
    mesh = build_cylinder_mesh(1.0, 4.0, 4, 1)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0
    with pytest.raises(ValueError):
        mesh.nodal_normals[0, 0] = 7.0
