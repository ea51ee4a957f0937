"""Command-line driver tests (in-process through ``main``)."""

import numpy as np
import pytest

from memshell.cli import RunConfig, main, run_convergence
from memshell.mesh import build_torus_mesh, import_mesh


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
    assert "rotation component of solution" in report


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


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = cylinder\nn = 8\nnu = 0.3\n# comment\nout = ignored\n")
    out = tmp_path / "cfgout"
    rc = main(["run", "--config", str(cfg), "--n", "6", "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "resolution n: 6" in report  # flag wins over the file
    assert "nu=0.3" in report


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flux_capacitance = 7\n")
    rc = main(["run", "--config", str(cfg)])
    assert rc != 0
    assert "flux_capacitance" in capsys.readouterr().err


def test_import_case_requires_mesh(capsys):
    rc = main(["run", "--case", "import"])
    assert rc != 0
    assert "mesh" in capsys.readouterr().err.lower()
