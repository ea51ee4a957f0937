"""Public API guards: exported names resolve, the benchmark's traced names exist."""

import copy
import dataclasses
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import numpy as np
import scipy.sparse as sp

import memshell
from memshell import geometry, mesh, postprocess
from memshell.assembly import LinearSystem, apply_constraints
from memshell.element import QuadraturePointData, quadrature_geometry
from memshell.solver import solve

from oracles import csr_record

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("assembly", "cli", "element", "geometry", "mesh", "postprocess", "solver")

# Names taken out of the package: test-only ones, whose single-element kernels
# and exact-surface queries live on in tests/oracles.py as references, and the
# caller-stated kernel (the solver now detects it from the system), the
# rotated constraint frames, the separate pressure load path, the stress
# container (stresses are a plain array on the case's quadrature geometry),
# the rule-by-order lookup and then the rule type and its one instance (the
# three-point rule is private arrays of memshell.element, and SurfaceMesh
# validates the triangles and normals that it reads), the plane-strain
# material mode (the membrane law is plane stress) and the read-back of a
# CSR matrix into 3x3 blocks (``tobsr`` leaves block column indices unsorted,
# which once gave silent zero blocks; constraints are sparse products now)
# and the case decision spread over three functions (``cli._case`` holds it),
# and the config file's own parser and value checks (argparse parses its lines),
# and the separate rate fit (a ``ConvergenceRecord`` fits its own ladder).
REMOVED = (
    "DofMap", "ElementMatrices", "element_matrices", "REFERENCE_GRADIENTS", "_GRAD_RHS",
    "shape_values_and_ref_gradients", "element_jacobian", "basis_surface_gradients",
    "strain_displacement", "element_stiffness", "element_load", "total_area",
    "convergence_rate", "compute_nodal_normals", "with_normals", "von_mises_cells",
    "Constraint", "translation_basis", "rotation_fraction", "_rotation_fraction",
    "deflate_translations", "AnalyticSurface", "signed_distance", "normal_at", "_normal",
    "_radial", "_tube_frame", "ON_SURFACE_TOL", "projector", "facet_areas", "facet_normals",
    "_facet_normals", "_facet_areas", "l2_norm", "_node_frames", "pressure_rhs",
    "StressField", "cell_averages", "n_elements", "quadrature_rule", "_row_texts",
    "_DIGIT_WORDS", "_LEAD_WORDS", "_EXP_MAX", "_EXP_WORDS", "_SCALES", "lame_effective",
    "plane_strain", "tobsr", "bsr_matrix", "_build_case", "_case_mesh", "resolved_r",
    "_parse_obj", "_read_config_file", "_convert", "fit_convergence", "QuadratureRule",
    "QUADRATURE_RULE",
)


def _load_spans():
    """perfbench/spans.py as a module, compiled from its text (no bytecode cache)."""
    path = ROOT / "perfbench" / "spans.py"
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("name", ("memshell",) + tuple(f"memshell.{m}" for m in SUBMODULES))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_exports_each_library_name_once():
    # the package namespace is the union of the library modules' __all__
    for name in sorted(set(SUBMODULES) - {"cli"}):
        module = importlib.import_module(f"memshell.{name}")
        for attr in module.__all__:
            assert getattr(memshell, attr, None) is getattr(module, attr), f"{name}.{attr}"
            assert memshell.__all__.count(attr) == 1, f"{name}.{attr}"


def test_removed_names_absent_from_source():
    pattern = re.compile(r"\b(" + "|".join(REMOVED) + r")\b")
    found = [f"{path.name}:{k}: {m.group(1)}"
             for path in sorted((ROOT / "src" / "memshell").glob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), 1)
             for m in pattern.finditer(line)]
    assert found == []
    # too common to search the text for: the module-level function (the
    # SurfaceMesh property stays), the surfaces' closest-point projection
    # and the abstract-base-class import
    assert not hasattr(mesh, "boundary_components")
    assert not hasattr(geometry.Cylinder(1.0, 4.0), "project")
    assert not hasattr(geometry.Torus(1.0, 0.5), "project")
    assert not hasattr(geometry, "abc")


def test_constrained_system_stays_in_global_coordinates():
    # the (nodes, directions) pair is the only copy of the constraints; no
    # rotated frame, eliminated-dof mask or map back to global dofs
    fixed = apply_constraints(LinearSystem(csr_record(sp.eye(6)), np.ones(6)), [1],
                              [[0.0, 0.6, 0.8]])
    nodes, directions = fixed.constraints
    assert np.array_equal(nodes, [1]) and np.array_equal(directions, [[0.0, 0.6, 0.8]])
    assert [name for name in ("frame", "constrained", "recover") if hasattr(fixed, name)] == []
    assert LinearSystem(csr_record(sp.eye(3)), np.zeros(3)).constraints is None


def test_solver_finds_the_kernel_itself():
    # no caller states the kernel; the basis builder stays out of the package API
    assert "deflate_translations" not in inspect.signature(solve).parameters
    assert "rigid_body_basis" not in memshell.__all__


@pytest.mark.parametrize("surface, fields", [
    (geometry.Cylinder(1.0, 4.0), ("r", "L")),
    (geometry.Torus(1.0, 0.5), ("R", "r")),
], ids=["cylinder", "torus"])
def test_benchmark_surfaces_are_parameter_records(surface, fields):
    # the exact-surface queries live in tests/oracles.py
    cls = type(surface)
    assert cls.__mro__ == (cls, object)
    assert tuple(f.name for f in dataclasses.fields(surface)) == fields
    assert [n for n in vars(cls) if not n.startswith("__")] == []


def _cylinder_and_geometry():
    msh = mesh.build_cylinder_mesh(1.0, 4.0, 4, 2)
    return msh, quadrature_geometry(msh, "interpolated")


@pytest.mark.parametrize("make", [
    lambda: mesh.build_cylinder_mesh(1.0, 4.0, 4, 2).boundary_components[0],
    lambda: _cylinder_and_geometry()[1],
    lambda: postprocess.ConvergenceRecord([0.5, 0.25, 0.125], [4.0, 1.0, 0.25]),
], ids=["BoundaryComponent", "QuadraturePointData", "ConvergenceRecord"])
def test_array_records_compare_and_hash_by_identity(make):
    # field-wise == would ask numpy for the truth value of an array comparison
    record = make()
    assert record == record
    assert record != copy.copy(record)
    assert len({record, record}) == 1


def test_benchmark_traced_names_exist():
    spans = _load_spans()
    targets = [target for layer in spans.LAYERS for target in layer.targets]
    assert targets
    absent = [f"{module}.{attr}" for module, attr in targets
              if not callable(getattr(importlib.import_module(module), attr, None))]
    assert absent == []


@pytest.mark.parametrize("module, name", [
    ("element", "batch_element_stiffness"),
    ("element", "batch_element_loads"),
    ("assembly", "assemble"),
    ("postprocess", "recover_stress"),
    ("postprocess", "stress_l2_error"),
    ("postprocess", "export_vtk"),
])
def test_geometry_consumers_take_only_the_geometry(module, name):
    # quadrature_geometry is the one place that reads the rule or a variant
    consumer = getattr(importlib.import_module(f"memshell.{module}"), name)
    params = inspect.signature(consumer).parameters
    assert {"quad", "variant", "geometry"}.isdisjoint(params)
    assert params["geo"].annotation is QuadraturePointData
    assert params["geo"].default is inspect.Parameter.empty


def test_no_parameter_that_no_caller_sets():
    # the file suffix decides the mesh format, the VTK title is fixed, and the
    # recovered stress is a plain array
    assert list(inspect.signature(mesh.import_mesh).parameters) == ["path"]
    assert "title" not in inspect.signature(postprocess.export_vtk).parameters
    msh, geo = _cylinder_and_geometry()
    material = geometry.MaterialModel(100.0, 0.5, 0.01)
    stress = postprocess.recover_stress(msh, material, np.zeros(3 * msh.n_vertices), geo)
    assert type(stress) is np.ndarray and stress.shape == (msh.n_triangles, 3, 3, 3)
    # CG always starts from zero: solve takes no initial guess
    assert list(inspect.signature(solve).parameters) == ["system", "tol", "max_iter"]
    # mesh-info counts the edges by their keys; the (ne, 2) edge array is gone
    assert not hasattr(mesh.SurfaceMesh, "edges")
    # one rule: the geometry is read from the mesh for a variant, and holds no shape values
    assert list(inspect.signature(quadrature_geometry).parameters) == ["mesh", "variant"]
    assert [f.name for f in dataclasses.fields(QuadraturePointData)] == [
        "gradients", "normals", "measures", "points"]
    # the displacement is the flat dof vector that solve returns, not an (n, 3) array
    with pytest.raises(ValueError, match=re.escape(f"shape ({msh.n_vertices}, 3)")):
        postprocess.recover_stress(msh, material, np.zeros((msh.n_vertices, 3)), geo)
