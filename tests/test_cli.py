"""Command-line driver tests (in-process through ``main``)."""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from memshell import cli, element, mesh, postprocess, solver
from memshell.assembly import assemble
from memshell.cli import RunConfig, main, run_convergence, solve_case
from memshell.geometry import MaterialModel
from memshell.mesh import build_torus_mesh, import_mesh

from oracles import csr_bytes, read_legacy_vtk, traced_peak


def _source_env():
    """The environment with this checkout's ``src`` first on a subprocess's path."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _write_off(mesh, path):
    # repr(float(x)) is the shortest text that reads back to the same double;
    # the repr of a numpy scalar is not a number under numpy >= 2.
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    lines.extend(" ".join(repr(float(x)) for x in v) for v in mesh.vertices)
    lines.extend(f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles)
    path.write_text("\n".join(lines) + "\n")
    # The file must read back to the same mesh; normals are not compared,
    # since an import gets area-weighted averages, not the exact normals.
    back = import_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)


@pytest.mark.parametrize("case, variant, ladder", [
    ("cylinder", "interpolated", (8, 16, 32, 64)),
    ("cylinder", "facet", (8, 16, 32, 64)),
    ("torus", "facet", (12, 24, 48)),
], ids=["cylinder-interpolated", "cylinder-facet", "torus-facet"])
def test_stress_error_rate_on_benchmark_ladders(tmp_path, case, variant, ladder):
    """First-order stress convergence on the real ladders (measured slopes:
    0.9933, 0.9969, 1.0185).

    The interpolated-variant torus is not gated: on n = 12, 24, 48 its slope
    is 0.7594, and it stays near 0.73 up to n = 256. That rate is an open
    defect, not an expected value, so no bound is fitted to it.
    """
    record, _ = run_convergence(RunConfig(case=case, variant=variant, out=str(tmp_path)), ladder)
    assert record.slope >= 0.95


def test_run_cylinder_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "cyl"
    rc = main(["run", "--case", "cylinder", "--n", "8", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert (out / "solution.vtk").exists()
    assert (out / "report.txt").exists()
    report = (out / "report.txt").read_text()
    assert "stress L2 error" in report
    assert "deflated kernel dimension: 0" in report
    residual = float(next(
        line.split(":")[1] for line in report.splitlines()
        if line.startswith("solver relative residual")
    ))
    assert residual <= 1e-10
    assert "stress L2 error" in captured.out


def test_run_torus_uses_deflated_path(tmp_path):
    out = tmp_path / "tor"
    rc = main(["run", "--case", "torus", "--n", "6", "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "deflated kernel dimension: 3" in report
    lines = [line.split(": ")[0] for line in report.splitlines()]
    assert lines[lines.index("rhs consistency") + 1] == "rigid-body share of load"
    assert "rigid-body component of solution: " in report


def test_run_writes_the_solved_displacement_bit_for_bit(tmp_path):
    out = tmp_path / "tor"
    assert main(["run", "--case", "torus", "--n", "6", "--out", str(out)]) == 0
    solved = solve_case(RunConfig(case="torus", n=6)).displacement
    data = read_legacy_vtk(out / "solution.vtk")
    assert np.array_equal(data["point_vectors"]["displacement"], solved.reshape(-1, 3))


@pytest.mark.parametrize("case, dimension", [("torus", 6), ("cylinder", 1)])
def test_facet_runs_report_the_detected_kernel(tmp_path, case, dimension):
    # the facet rotations are exact kernel modes: all three on the torus, the
    # axial one on the cylinder, whose constraints leave it free
    out = tmp_path / case
    assert main(["run", "--case", case, "--variant", "facet", "--n", "8", "--out", str(out)]) == 0
    fields = dict(line.split(": ", 1) for line in (out / "report.txt").read_text().splitlines())
    assert fields["deflated kernel dimension"] == str(dimension)
    assert float(fields["rhs consistency"]) <= 1e-12
    assert 0.0 <= float(fields["rigid-body component of solution"]) <= 1.0


def test_run_invalid_poisson_ratio_fails_before_assembly(tmp_path, capsys):
    rc = main(["run", "--case", "cylinder", "--n", "8", "--nu", "1.0",
               "--out", str(tmp_path / "bad")])
    assert rc != 0
    err = capsys.readouterr().err
    assert "geometry" in err
    assert "nu" in err
    assert not (tmp_path / "bad" / "solution.vtk").exists()


def test_run_import_case(tmp_path):
    mesh = build_torus_mesh(1.0, 0.5, 12, 6)
    off = tmp_path / "torus.off"
    _write_off(mesh, off)
    out = tmp_path / "imp"
    rc = main(["run", "--case", "import", "--mesh", str(off), "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "deflated kernel dimension: 3" in report
    assert "stress L2 error" not in report  # no exact solution for imports


def test_import_case_load_scales_with_the_pressure(tmp_path):
    # the import case's load is p on the normals: linear in p
    off = tmp_path / "torus.off"
    _write_off(build_torus_mesh(1.0, 0.5, 12, 6), off)
    stresses = [solve_case(RunConfig(case="import", mesh_path=str(off), p=p)).stress
                for p in (1.0, 2.5)]
    scale = np.abs(stresses[0]).max()
    assert scale > 0
    assert np.abs(stresses[1] - 2.5 * stresses[0]).max() <= 1e-9 * scale


def test_import_case_fences_off_the_facet_variant(tmp_path, capsys, monkeypatch):
    # The facet load balance holds only on structured meshes: on a jittered
    # torus OFF (n=24, a = 0.1) the facet run exited 0 with max |u| = 101.9,
    # against 0.48 interpolated. The fence stops it before the file is read,
    # and mesh-info, which builds the same case, rejects it alike.
    def never(path):
        raise AssertionError("mesh file read")

    monkeypatch.setattr(mesh, "import_mesh", never)
    out = tmp_path / "out"
    for command in ("run", "mesh-info"):
        assert main([command, "--case", "import", "--variant", "facet", "--mesh",
                     str(tmp_path / "t.off"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "memshell: error [builtins]: the facet variant is not run on imported meshes: its "
            "load balance holds only on structured meshes\n"), command
    assert not (out / "report.txt").exists() and not (out / "solution.vtk").exists()


def test_convergence_command_writes_table(tmp_path, capsys):
    out = tmp_path / "conv"
    rc = main(["convergence", "--case", "cylinder", "--resolutions", "4,6,8",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "h,error,rate"
    assert len(lines) == 4
    assert "fitted slope" in capsys.readouterr().out
    assert (out / "report.txt").exists()


def test_convergence_rejects_import_case(tmp_path, capsys):
    rc = main(["convergence", "--case", "import", "--out", str(tmp_path / "x")])
    assert rc != 0
    assert "cylinder" in capsys.readouterr().err


def test_convergence_deterministic_output(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(["convergence", "--case", "cylinder", "--resolutions", "4,6,8",
                   "--out", str(out)])
        assert rc == 0
    assert (out1 / "convergence.csv").read_bytes() == (out2 / "convergence.csv").read_bytes()


def test_run_convergence_api_returns_details(tmp_path):
    config = RunConfig(case="cylinder", n=8, out=str(tmp_path / "api"))
    record, results = run_convergence(config, resolutions=[4, 6, 8])
    assert len(results) == 3
    assert record.h.shape == (3,)
    assert all(r.report.converged for r in results)
    assert record.error[0] > record.error[-1]


def test_mesh_info_generated_and_imported(tmp_path, capsys):
    rc = main(["mesh-info", "--case", "torus", "--n", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vertices: 32" in out
    assert "euler characteristic: 0" in out

    mesh = build_torus_mesh(1.0, 0.5, 8, 4)
    off = tmp_path / "t.off"
    _write_off(mesh, off)
    rc = main(["mesh-info", "--mesh", str(off)])
    assert rc == 0
    assert "vertices: 32" in capsys.readouterr().out

    rc = main(["mesh-info", "--case", "cylinder", "--n", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["boundary components: 2", "  x=0: 4 vertices", "  x=L: 4 vertices"]


@pytest.mark.parametrize("flags, message", [
    (["--case", "torus", "--R", "0.3", "--r", "0.5", "--n", "4"],
     "[geometry]: torus requires R > r (non self-intersecting), got R=0.3, r=0.5"),
    (["--case", "cylinder", "--L", "0", "--n", "4"],
     "[geometry]: cylinder requires r, L > 0, got r=1.0, L=0.0"),
    (["--case", "torus", "--n", "2"], "[mesh]: n_tor and n_pol must be >= 3, got 4, 2"),
], ids=["torus-radii", "cylinder-length", "torus-resolution"])
def test_run_and_mesh_info_reject_a_bad_case_alike(tmp_path, capsys, flags, message):
    # both commands build the benchmark mesh through the same code
    for command in ("run", "mesh-info"):
        assert main([command, *flags, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"memshell: error {message}\n", command


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = cylinder\nn = 8\nnu = 0.3\n# comment\nout = ignored\n")
    out = tmp_path / "cfgout"
    rc = main(["run", "--config", str(cfg), "--n", "6", "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "resolution n: 6" in report  # flag wins over the file
    assert "nu=0.3" in report


def test_material_is_plane_stress_without_a_mode(tmp_path, capsys):
    # the membrane law is plane stress: no --mode flag, no mode key or field
    assert "mode" not in cli.CHOICES and not hasattr(RunConfig(), "mode")
    with pytest.raises(SystemExit):
        main(["run", "--mode", "plane_stress", "--out", str(tmp_path)])
    cfg = tmp_path / "mode.cfg"
    cfg.write_text("mode = plane_stress\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "unknown config key 'mode'" in capsys.readouterr().err
    assert main(["run", "--n", "4", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert "material: E=100.0 nu=0.5 t=0.01" in report


def test_config_file_line_without_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("case = torus\nn 8  # no sign\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ("memshell: error [builtins]: invalid config line: "
                                       "'n 8  # no sign'\n")


def test_solve_case_rejects_an_unknown_case():
    # argparse and the config file check the case first; the library names it too
    with pytest.raises(ValueError, match=r"^unknown case 'sphere' \(expected cylinder, "
                                         r"torus, import\)$"):
        solve_case(RunConfig(case="sphere", n=4))


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flux_capacitance = 7\n")
    rc = main(["run", "--config", str(cfg)])
    assert rc != 0
    assert "flux_capacitance" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [
    ("n = 8.5", "n"),
    ("tol = abc", "tol"),
    ("max_iter = 1e3", "max_iter"),
    ("r =", "r"),
])
def test_config_file_values_type_checked_like_flags(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"case = torus\n{line}\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config key {key!r}" in err
    assert repr(line.partition("=")[2].strip()) in err
    assert not (out / "report.txt").exists()


@pytest.mark.parametrize("key, value", [
    ("case", "cylindre"),
    ("variant", "facte"),
])
def test_config_file_values_checked_against_flag_choices(tmp_path, capsys, monkeypatch,
                                                          key, value):
    def never(*args, **kwargs):
        raise AssertionError("mesh built")

    for builder in ("build_cylinder_mesh", "build_torus_mesh", "import_mesh"):
        monkeypatch.setattr(mesh, builder, never)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config key {key!r}: invalid choice {value!r}" in err
    assert not (out / "report.txt").exists()


def test_run_rejects_non_positive_tolerance(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--tol", "-1", "--n", "6", "--out", str(out)])
    assert rc == 1
    assert "error [solver]: tol must be > 0, got -1.0" in capsys.readouterr().err
    assert not (out / "report.txt").exists()


@pytest.mark.parametrize("flags, message", [
    (["--E", "nan"], "[geometry]: material requires a finite E, got E=nan"),
    (["--E", "inf"], "[geometry]: material requires a finite E, got E=inf"),
    (["--t", "nan"], "[geometry]: material requires a finite t, got t=nan"),
    (["--r", "nan"], "[geometry]: cylinder requires a finite r, got r=nan"),
    (["--L", "inf"], "[geometry]: cylinder requires a finite L, got L=inf"),
    (["--case", "torus", "--R", "inf"], "[geometry]: torus requires a finite R, got R=inf"),
    (["--F", "nan"], "[solver]: right-hand side (load) is not finite at dof 0 of node 0"),
    (["--case", "torus", "--p", "nan"],
     "[solver]: right-hand side (load) is not finite at dof 0 of node 0"),
    (["--case", "torus", "--tol", "1.5"], "[solver]: tol must be < 1, got 1.5"),
    (["--case", "torus", "--tol", "inf"], "[solver]: tol must be < 1, got inf"),
], ids=["E-nan", "E-inf", "t-nan", "r-nan", "L-inf", "R-inf", "F-nan", "p-nan", "tol-1.5",
        "tol-inf"])
def test_run_rejects_a_non_finite_or_out_of_range_value_by_name(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["run", *flags, "--n", "6", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"memshell: error {message}\n"
    assert not (out / "report.txt").exists()


def test_import_rejects_a_nan_vertex_by_index(tmp_path, capsys):
    off = tmp_path / "nan.off"
    _write_off(build_torus_mesh(1.0, 0.5, 12, 6), off)
    lines = off.read_text().splitlines()
    lines[2 + 5] = "nan 0.0 0.5"  # vertex 5
    off.write_text("\n".join(lines) + "\n")
    message = "memshell: error [mesh]: vertex 5 has a non-finite coordinate [nan, 0.0, 0.5]\n"
    assert main(["mesh-info", "--mesh", str(off)]) == 1
    assert capsys.readouterr().err == message
    out = tmp_path / "out"
    assert main(["run", "--case", "import", "--mesh", str(off), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not (out / "report.txt").exists()


def test_config_file_mesh_key_names_the_import_mesh(tmp_path):
    off = tmp_path / "t.off"
    _write_off(build_torus_mesh(1.0, 0.5, 12, 6), off)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = import\nmesh = {off}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "vertices: 72" in (out / "report.txt").read_text()


def test_import_case_requires_mesh(capsys):
    rc = main(["run", "--case", "import"])
    assert rc != 0
    assert "mesh" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    ["run", "--case", "import"],
    ["run", "--case", "cylinder", "--mesh", "x.off"],
    ["convergence", "--case", "import"],
    ["convergence", "--case", "cylinder", "--mesh", "x.off"],
], ids=["run-import", "run-cylinder-mesh", "convergence-import", "convergence-cylinder-mesh"])
def test_rejected_case_creates_nothing(tmp_path, monkeypatch, argv):
    # the default output directory is made only for a case that was accepted
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert list(tmp_path.iterdir()) == []


def test_import_case_rejects_an_obj_file(tmp_path, monkeypatch, capsys):
    # OFF is the one mesh format read; an OBJ file is refused before a run starts
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    assert main(["run", "--case", "import", "--mesh", "x.obj"]) == 1
    assert capsys.readouterr().err == ("memshell: error [mesh]: unsupported mesh format "
                                       "'obj' (expected 'off')\n")
    assert [p.name for p in tmp_path.iterdir()] == ["x.obj"]


@pytest.mark.parametrize("command", ["run", "convergence", "mesh-info"])
@pytest.mark.parametrize("case", ["cylinder", "torus"])
def test_mesh_file_rejected_outside_import_case(tmp_path, capsys, command, case):
    # mesh-info reads a mesh file alone, but not under another case
    off = tmp_path / "t.off"
    _write_off(build_torus_mesh(1.0, 0.5, 8, 4), off)
    out = tmp_path / "out"
    rc = main([command, "--case", case, "--mesh", str(off), "--out", str(out)])
    assert rc != 0
    captured = capsys.readouterr()
    assert captured.err == (f"memshell: error [builtins]: mesh file {off} is only read by "
                            f"case 'import', not by case {case!r}\n")
    assert captured.out == ""
    assert not (out / "report.txt").exists()


@pytest.mark.parametrize("case", ["cylinder", "torus", "import"])
def test_solve_case_computes_quadrature_geometry_once(tmp_path, monkeypatch, case):
    real = element.quadrature_geometry
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # replace it in every memshell namespace that imported it by name
    for name, module in list(sys.modules.items()):
        if name == "memshell" or name.startswith("memshell."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    config = RunConfig(case=case, n=6, out=str(tmp_path))
    if case == "import":
        config.mesh_path = str(tmp_path / "torus.off")
        _write_off(build_torus_mesh(1.0, 0.5, 12, 6), tmp_path / "torus.off")
    result = solve_case(config)
    assert result.report.converged
    assert len(calls) == 1


def test_solve_case_memory_peak_is_a_small_multiple_of_the_matrix():
    # Traced peak of one torus n=32 case over its stiffness's CSR bytes: 4.01
    # with a stiffness assembled from 3x3 blocks and held through the stress
    # recovery, 3.25 with the scatter into the CSR data and the stiffness
    # dropped after the solve.
    config = RunConfig(case="torus", n=32)
    result, peak = traced_peak(solve_case, config)
    material = MaterialModel(config.E, config.nu, config.t)
    assert peak <= 3.7 * csr_bytes(assemble(result.mesh, material, result.geo).matrix)


@pytest.mark.parametrize("case", ["cylinder", "torus"])
def test_solve_case_frees_the_stiffness_before_the_recovery(monkeypatch, case):
    stiffness, held = [], []

    def solve(system, **kwargs):
        stiffness.append(weakref.ref(system.matrix))
        return real_solve(system, **kwargs)

    def recover_stress(*args):
        held.append(stiffness[0]() is not None)
        return real_recover(*args)

    real_solve, real_recover = solver.solve, postprocess.recover_stress
    monkeypatch.setattr(solver, "solve", solve)
    monkeypatch.setattr(postprocess, "recover_stress", recover_stress)
    solve_case(RunConfig(case=case, n=6))
    assert held == [False]


@pytest.fixture(scope="module")
def scipy_modules_of_a_run(tmp_path_factory):
    """The scipy modules that a run of both cases imports, seen from a
    subprocess, without the test suite's own imports."""
    out = tmp_path_factory.mktemp("run")
    script = (
        "import sys\n"
        "from memshell import cli\n"
        "for case in ('cylinder', 'torus'):\n"
        f"    cli.run_case(cli.RunConfig(case=case, n=6, out={str(out)!r}))\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_source_env(), check=True).stdout.split()


def test_a_run_imports_no_dense_or_iterative_scipy_solvers(scipy_modules_of_a_run):
    # scipy.linalg and scipy.sparse.linalg add import time and resident memory
    # to every run; the pipeline needs neither
    assert [m for m in scipy_modules_of_a_run
            if m.split('.')[:2] == ['scipy', 'linalg']
            or m.split('.')[:3] == ['scipy', 'sparse', 'linalg']] == []


def test_a_run_imports_of_scipy_sparse_only_its_compiled_kernels(scipy_modules_of_a_run):
    # the scipy.sparse package import costs a run more start-up time and
    # resident memory than numpy does; the CSR kernels come from their file
    assert [m for m in scipy_modules_of_a_run
            if m.split('.')[:2] == ['scipy', 'sparse']] == ["scipy.sparse._sparsetools"]


@pytest.mark.parametrize("sparse_first", [False, True], ids=["sparse-after-a-run",
                                                             "sparse-before-memshell"])
def test_scipy_sparse_and_a_run_share_one_kernel_module(tmp_path, sparse_first):
    imports = ["import scipy.sparse as sp\n",
               "from memshell import assembly, cli\n"
               f"cli.run_case(cli.RunConfig(case='cylinder', n=6, out={str(tmp_path)!r}))\n"]
    script = "".join(imports if sparse_first else imports[::-1]) + (
        "import sys\n"
        "import numpy as np\n"
        "import scipy.sparse._compressed\n"
        "from scipy.sparse import _sparsetools\n"
        "kernels = {id(m) for name, m in sys.modules.items() if name.endswith('_sparsetools')}\n"
        "print(kernels == {id(_sparsetools)} and assembly._sparsetools is _sparsetools\n"
        "      and scipy.sparse._compressed.csr_matmat is _sparsetools.csr_matmat)\n"
        "A = sp.random(30, 30, density=0.2, random_state=1, format='csr')\n"
        "x = np.arange(30.0)\n"
        "print(np.allclose(A @ x, A.toarray() @ x) and np.allclose((A @ A).toarray(),\n"
        "                                                       A.toarray() @ A.toarray()))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_source_env(), check=True).stdout
    assert out.split() == ["True", "True"]


def test_kernels_fall_back_to_the_package_import_without_their_file(tmp_path):
    # another install layout: no kernel file where the loader looks (the
    # interpreter's own import system keeps its copy of the suffixes)
    script = (
        "import importlib.machinery, sys\n"
        "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']\n"
        "from memshell import assembly, cli\n"
        f"cli.run_case(cli.RunConfig(case='cylinder', n=6, out={str(tmp_path)!r}))\n"
        "print('scipy.sparse' in sys.modules,\n"
        "      assembly._sparsetools is sys.modules['scipy.sparse._sparsetools'])\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_source_env(), check=True).stdout
    assert out.split() == ["True", "True"]
    assert (tmp_path / "report.txt").exists()


def test_module_entry_point_exits_with_the_status_of_main(tmp_path):
    command = [sys.executable, "-m", "memshell.cli", "run", "--case"]
    ok = subprocess.run([*command, "torus", "--n", "6", "--out", str(tmp_path / "tor")],
                        capture_output=True, text=True, env=_source_env())
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "tor" / "report.txt").exists()
    bad = subprocess.run([*command, "import"], capture_output=True, text=True,
                         env=_source_env(), cwd=tmp_path)
    assert bad.returncode == 1
    assert bad.stderr == ("memshell: error [builtins]: case 'import' requires a mesh file "
                          "(--mesh)\n")


def test_failing_ladder_level_leaves_completed_rows(tmp_path, monkeypatch):
    real = cli.solve_case

    def third_level_fails(config, n=None):
        if n == 8:
            raise RuntimeError("level 3 failed")
        return real(config, n)

    monkeypatch.setattr(cli, "solve_case", third_level_fails)
    with pytest.raises(RuntimeError, match="level 3 failed"):
        run_convergence(RunConfig(case="cylinder", out=str(tmp_path)), [4, 6, 8])
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "h,error,rate"
    assert lines[1].endswith(",")
    assert float(lines[2].split(",")[2]) > 0.0


@pytest.mark.parametrize("ladder", ["8,8,12", "16,8,12", "8,16", "8,x,32"])
def test_bad_ladder_rejected_before_any_level(tmp_path, capsys, monkeypatch, ladder):
    def never(config, n=None):
        raise AssertionError("solve_case called")

    monkeypatch.setattr(cli, "solve_case", never)
    out = tmp_path / "out"
    rc = main(["convergence", "--case", "cylinder", "--resolutions", ladder, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    if ladder == "8,x,32":
        assert "error [builtins]: --resolutions: invalid int value 'x'" in err
    else:
        assert f"resolution ladder {ladder}:" in err
    assert not (out / "convergence.csv").exists()
