"""Mesh container, generators, boundary topology, normals, and import tests."""

import math
import re

import numpy as np
import pytest

from memshell.assembly import assemble
from memshell.cli import main
from memshell.geometry import MaterialModel, Torus
from memshell.mesh import (
    MeshError,
    _extract_boundary_loops,
    SurfaceMesh,
    build_cylinder_mesh,
    build_torus_mesh,
    import_mesh,
    mesh_size,
)

from oracles import (extract_boundary_loops_reference, facet_areas, facet_normals,
                     flat_grid_mesh, geometry_of, jittered_cylinder_mesh, jittered_torus_mesh,
                     surface_normal)


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
    with pytest.raises(MeshError, match=r"minor radius must be positive, got r=0.0"):
        build_torus_mesh(1.0, 0.0, 8, 4)


def test_generated_meshes_pass_validation_at_several_resolutions():
    # constructor re-validates orientation/manifoldness; facets must face outward
    for n in (4, 8, 16):
        cyl = build_cylinder_mesh(1.0, 4.0, n, n)
        mean_nodal = cyl.nodal_normals[cyl.triangles].mean(axis=1)
        assert np.einsum("ma,ma->m", facet_normals(cyl), mean_nodal).min() > 0.0
        tor = build_torus_mesh(1.0, 0.5, 2 * n, n)
        mean_nodal = tor.nodal_normals[tor.triangles].mean(axis=1)
        assert np.einsum("ma,ma->m", facet_normals(tor), mean_nodal).min() > 0.0


def test_torus_area_converges():
    # chordization alone removes pi^2/6 per direction of the squared step;
    # facet tilt adds cross terms, so the O(n^-2) constant is 4 per direction
    R, r = 1.0, 0.5
    exact = 4.0 * math.pi**2 * R * r
    prev = None
    for n in (8, 16, 32):
        mesh = build_torus_mesh(R, r, 2 * n, n)
        assert mesh.area() == float(facet_areas(mesh).sum())
        rel = abs(mesh.area() - exact) / exact
        assert rel < 4.0 / n**2 + 4.0 / (2 * n) ** 2
        if prev is not None:
            assert rel < prev / 3.0  # clean second-order decrease
        prev = rel


def test_averaged_normals_flat_mesh():
    mesh = flat_grid_mesh(3, 3)
    out = SurfaceMesh(mesh.vertices, mesh.triangles)
    assert np.abs(out.nodal_normals - np.array([0.0, 0.0, 1.0])).max() < 1e-14


def test_averaged_normals_unit_and_converging():
    surface = Torus(1.0, 0.5)
    prev = None
    for n in (8, 16, 32):
        mesh = build_torus_mesh(1.0, 0.5, 2 * n, n)
        averaged = SurfaceMesh(mesh.vertices, mesh.triangles)
        norms = np.linalg.norm(averaged.nodal_normals, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        exact = surface_normal(surface, mesh.vertices)
        dots = np.clip(np.einsum("ia,ia->i", averaged.nodal_normals, exact), -1.0, 1.0)
        dev = float(np.arccos(dots).max())
        if prev is not None:
            assert dev < prev
        prev = dev


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
    comps = mesh.boundary_components
    assert len(comps) == 1
    assert len(comps[0]) == 3


def test_boundary_loops_disjoint_cover_all_boundary_edges():
    mesh = build_cylinder_mesh(1.0, 4.0, 7, 3)
    comps = mesh.boundary_components
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


def test_boundary_loops_touching_at_a_vertex_rejected():
    # a bowtie: two triangles that share only vertex 0
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0],
        [-1.0, -1.0, 0.0],
    ])
    tris = np.array([[0, 1, 2], [0, 3, 4]])
    with pytest.raises(MeshError, match="boundary loops touch at vertex 0"):
        SurfaceMesh(verts, tris)


_BAD_TOPOLOGY = {
    # three triangles on edge (0, 1), two of them running it the same way
    "non_manifold": [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
    "orientation": [[0, 1, 2], [0, 1, 3]],
    "bowtie": [[0, 1, 2], [0, 3, 4]],
    # two bowties; the one at vertex 5 shows first in edge order
    "two_bowties": [[5, 6, 7], [5, 8, 9], [0, 1, 2], [0, 3, 4]],
    # a non-manifold edge and a repeated directed edge elsewhere
    "non_manifold_and_orientation": [[0, 1, 2], [1, 0, 3], [1, 0, 4], [2, 3, 4], [2, 3, 0]],
}


@pytest.mark.parametrize("name", sorted(_BAD_TOPOLOGY))
def test_boundary_loop_errors_match_reference(name):
    tris = np.array(_BAD_TOPOLOGY[name])
    with pytest.raises(MeshError) as expected:
        extract_boundary_loops_reference(tris, tris.max() + 1)
    with pytest.raises(MeshError) as got:
        _extract_boundary_loops(tris, tris.max() + 1)
    assert str(got.value) == str(expected.value)


def test_degenerate_triangle_rejected():
    # collinear corners, and |t_xi x t_eta| = 4e-14 |t_xi| |t_eta|: below the
    # 1e-13 cut, which is the only facet-area check, as quadrature_geometry has none
    for verts in ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                  [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 4e-14, 0.0]]):
        with pytest.raises(MeshError) as err:
            SurfaceMesh(np.array(verts), np.array([[0, 1, 2]]))
        assert str(err.value) == "degenerate triangle 0"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_vertex_rejected_by_index(value):
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, value]])
    message = rf"^vertex 2 has a non-finite coordinate \[0.0, 1.0, {value}\]$"
    with pytest.raises(MeshError, match=message):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("normal", [[math.nan, 0.0, 1.0], [0.0, 0.0, math.nan], [0.0, 0.0, 2.0]])
def test_given_nodal_normals_must_be_unit_length(normal):
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    normals = np.array([[0.0, 0.0, 1.0], normal, [0.0, 0.0, 1.0]])
    with pytest.raises(MeshError, match="unit length"):
        SurfaceMesh(verts, np.array([[0, 1, 2]]), nodal_normals=normals)


def test_unreferenced_vertex_rejected():
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [5.0, 5.0, 5.0],
    ])
    with pytest.raises(MeshError, match="unreferenced"):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))


_TRIANGLE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.mark.parametrize("kwargs, message", [
    ({"vertices": _TRIANGLE[:, :2]}, r"vertices must have shape \(n, 3\), got \(3, 2\)"),
    ({"triangles": [0, 1, 2]}, r"triangles must have shape \(m, 3\), got \(3,\)"),
    ({"triangles": np.zeros((0, 3))}, "mesh has no triangles"),
    ({"triangles": [[0, 1, 3]]},
     r"triangle vertex index out of range: triangle 0 is \[0, 1, 3\], the mesh has 3 vertices"),
    ({"triangles": [[0, -1, 2]]},
     r"triangle vertex index out of range: triangle 0 is \[0, -1, 2\], the mesh has 3 vertices"),
    ({"nodal_normals": [[0.0, 0.0, 1.0]] * 2},
     r"nodal_normals must have shape \(3, 3\), got \(2, 3\)"),
    ({"boundary_labels": ["rim", "extra"]}, "2 boundary labels for 1 components"),
], ids=["vertices", "triangles", "no-triangles", "index-high", "index-negative", "normals",
        "labels"])
def test_misshapen_mesh_input_rejected(kwargs, message):
    args = {"vertices": _TRIANGLE, "triangles": [[0, 1, 2]], **kwargs}
    with pytest.raises(MeshError, match=f"^{message}$"):
        SurfaceMesh(**args)


@pytest.mark.parametrize("index", [1.7, np.nan])
def test_non_integral_triangle_index_rejected_by_position(index):
    # a cast to int would read 1.7 as vertex 1
    with pytest.raises(MeshError, match=rf"^triangles entry \[0, 1\] is not an integer: {index}$"):
        SurfaceMesh(_TRIANGLE, [[0, index, 2.0]])
    for triangles in ([[0.0, 1.0, 2.0]], np.array([[0, 1, 2]], dtype=np.uint8)):
        assert SurfaceMesh(_TRIANGLE, triangles).triangles.tolist() == [[0, 1, 2]]


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
], ids=["off-face", "off-short-face"])
def test_import_bad_number_names_the_line(tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MeshError) as info:
        import_mesh(path)
    assert line in str(info.value)


@pytest.mark.parametrize("name, text, message", [
    ("header.off", "COFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "missing OFF header"),
    ("no-counts.off", "OFF\n", "missing OFF vertex/face counts"),
    ("one-count.off", "OFF 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
     "missing OFF vertex/face counts"),
    ("bad-counts.off", "OFF\n3 one 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
     r"invalid OFF counts: \['3', 'one', '0'\]"),
    ("negative-counts.off", "OFF\n-1 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
     r"invalid OFF counts: \['-1', '1', '0'\]"),
    ("index.off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 7\n",
     r"triangle vertex index out of range: triangle 1 is \[0, 1, 7\], the mesh has 3 vertices"),
], ids=["off-header", "off-no-counts", "off-one-count", "off-bad-counts", "off-negative-counts",
        "off-index-out-of-range"])
def test_import_error_names_the_cause(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MeshError, match=f"^{message}$"):
        import_mesh(path)
    # the command line prints the same message
    assert main(["mesh-info", "--mesh", str(path)]) == 1
    assert re.fullmatch(rf"memshell: error \[mesh\]: {message}\n", capsys.readouterr().err)


def test_import_unreadable_file(tmp_path):
    path = tmp_path / "missing.off"
    with pytest.raises(MeshError) as err:
        import_mesh(path)
    assert str(err.value).startswith(f"cannot read mesh file {path}: ")


def test_import_inconsistent_orientation_error(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n3 0 1 3\n")
    with pytest.raises(MeshError, match="orientation"):
        import_mesh(path)


def test_import_unknown_format(tmp_path):
    # OBJ is not read either: OFF is the one mesh format
    for fmt in ("stl", "obj"):
        path = tmp_path / f"mesh.{fmt}"
        path.write_text("whatever")
        message = rf"^unsupported mesh format '{fmt}' \(expected 'off'\)$"
        with pytest.raises(MeshError, match=message):
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
    structured = build_cylinder_mesh(1.0, 4.0, 64, 64)
    jittered = jittered_cylinder_mesh(1.0, 1.0, 16, 0.3, 2)
    for mesh in (structured, jittered):
        # brute-force scan over every triangle edge
        best = 0.0
        for tri in mesh.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                edge = mesh.vertices[tri[a]] - mesh.vertices[tri[b]]
                best = max(best, float(np.linalg.norm(edge)))
        assert abs(mesh_size(mesh) - best) < 1e-14
    # the structured mesh's longest edge is the split diagonal of the parametric
    # quad (corners 0 and 1 of every even triangle); the jittered mesh's is not
    expected = math.hypot(4.0 / 64.0, 2.0 * math.sin(math.pi / 64.0))
    assert abs(mesh_size(structured) - expected) < 1e-12
    diagonals = jittered.vertices[jittered.triangles[::2, :2]]
    assert mesh_size(jittered) > np.linalg.norm(diagonals[:, 1] - diagonals[:, 0], axis=1).max()


def _imported_shuffled_torus(tmp_path):
    return _imported_shuffled(build_torus_mesh(2.0, 0.7, 7, 5), tmp_path)


def _imported_shuffled(mesh, tmp_path):
    # the mesh with permuted vertex numbers, written to OFF and read back
    perm = np.random.default_rng(5).permutation(mesh.n_vertices)
    inverse = np.argsort(perm)
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices[perm]]
    lines += ["3 %d %d %d" % tuple(inverse[t]) for t in mesh.triangles]
    path = tmp_path / "shuffled.off"
    path.write_text("\n".join(lines) + "\n")
    return import_mesh(path)


def _row_unique_edges(mesh):
    """The unique undirected edges (a, b), a < b, sorted by row: the oracle of ``edge_keys``."""
    ea = mesh.triangles.ravel()
    eb = mesh.triangles[:, [1, 2, 0]].ravel()
    return np.unique(np.stack([np.minimum(ea, eb), np.maximum(ea, eb)], axis=1), axis=0)


_EDGE_GRAPH_MESHES = pytest.mark.parametrize("make", [
    lambda tmp: build_cylinder_mesh(1.0, 4.0, 9, 4),
    lambda tmp: build_torus_mesh(2.0, 0.7, 8, 6),
    lambda tmp: jittered_cylinder_mesh(1.0, 4.0, 8, 0.25, 1),
    lambda tmp: jittered_torus_mesh(1.0, 0.5, 6, 0.25, 1),
    _imported_shuffled_torus,
    lambda tmp: flat_grid_mesh(4, 3),
], ids=["cylinder", "torus", "jittered_cylinder", "jittered_torus", "imported_off", "flat_grid"])


@_EDGE_GRAPH_MESHES
def test_edges_match_row_unique(tmp_path, make):
    mesh = make(tmp_path)
    assert mesh.edge_keys.dtype == np.int64
    assert np.array_equal(mesh.edge_keys, _row_unique_edges(mesh) @ [mesh.n_vertices, 1])
    with pytest.raises(ValueError):
        mesh.edge_keys[0] = 0


@_EDGE_GRAPH_MESHES
def test_stiffness_pattern_is_the_edge_graph(tmp_path, make):
    # the stored 3x3 blocks are each node's own and both directions of each edge
    mesh = make(tmp_path)
    K = assemble(mesh, MaterialModel(E=100.0, nu=0.5, t=1e-2), geometry_of(mesh)).csr
    n, edges = mesh.n_vertices, _row_unique_edges(mesh)
    assert K.indptr[-1] == K.indices.size == 9 * (n + 2 * len(edges))
    row = np.repeat(np.arange(3 * n), np.diff(K.indptr))
    assert (np.diff(K.indices)[row[1:] == row[:-1]] > 0).all()  # sorted, no duplicates
    blocks = np.unique(row // 3 * n + K.indices // 3)
    expected = np.concatenate([np.arange(n) * (n + 1), edges @ [n, 1], edges @ [1, n]])
    assert np.array_equal(blocks, np.sort(expected))


@pytest.mark.parametrize("make", [
    lambda tmp: build_cylinder_mesh(1.0, 4.0, 9, 4),
    lambda tmp: build_torus_mesh(2.0, 0.7, 8, 6),
    lambda tmp: _imported_shuffled(build_cylinder_mesh(1.0, 4.0, 11, 5), tmp),
    lambda tmp: flat_grid_mesh(4, 3),
], ids=["cylinder", "torus", "imported_off_cylinder", "flat_grid"])
def test_boundary_loops_match_reference(tmp_path, make):
    mesh = make(tmp_path)
    expected = extract_boundary_loops_reference(mesh.triangles, mesh.n_vertices)
    loops, _ = _extract_boundary_loops(mesh.triangles, mesh.n_vertices)
    assert len(loops) == len(expected)
    for loop, ref in zip(loops, expected):
        assert loop.dtype == ref.dtype
        assert np.array_equal(loop, ref)


def test_mesh_immutable():
    mesh = build_cylinder_mesh(1.0, 4.0, 4, 1)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0
    with pytest.raises(ValueError):
        mesh.nodal_normals[0, 0] = 7.0
