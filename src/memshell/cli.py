"""Command-line driver: benchmark runs, convergence studies, mesh inspection.

Subcommands
-----------
run
    Build the case, assemble, constrain (cylinder), solve, recover stresses,
    write ``solution.vtk`` and ``report.txt``.
convergence
    Run a refinement ladder, write ``convergence.csv`` (h, error, rate) and
    ``report.txt``, print the fitted slope.
mesh-info
    Print mesh statistics for a generated or imported mesh.

Flags override values from an optional ``key = value`` config file. Defaults
are the benchmark values (E=100, nu=1/2, t=1e-2, F=1, p=1; cylinder r=1, L=4;
torus R=1, r=1/2). The resolution parameter ``n`` maps to
``(n_circ, n_axial) = (n, n)`` for the cylinder and ``(n_tor, n_pol) =
(2n, n)`` for the torus, keeping elements near-isotropic.
"""

import argparse
import dataclasses
import functools
import sys
import typing
from pathlib import Path

import numpy as np

from . import assembly, geometry, mesh, postprocess, solver
from .element import QUADRATURE_RULE, QuadraturePointData, quadrature_geometry

__all__ = ["RunConfig", "run_case", "run_convergence", "main"]

DEFAULT_RESOLUTIONS = (16, 32, 64, 128)
# allowed values of the string options, shared by their flags and config keys
CHOICES = {"case": ("cylinder", "torus", "import"), "variant": ("interpolated", "facet")}


@dataclasses.dataclass
class RunConfig:
    """Parameters of one benchmark or import run."""

    case: str = "cylinder"
    n: int = 32
    r: float | None = None  # cylinder radius / torus minor radius
    L: float = 4.0
    R: float = 1.0
    E: float = 100.0
    nu: float = 0.5
    t: float = 0.01
    F: float = 1.0
    p: float = 1.0
    variant: str = "interpolated"
    tol: float = 1e-10
    max_iter: int | None = None
    out: str = "out"
    mesh_path: str | None = None


@dataclasses.dataclass
class CaseResult:
    """Everything produced by one solve of a configured case.

    ``stress`` is the (m, nq, 3, 3) recovered stress at ``geo.points``, the
    quadrature geometry the case was assembled on.
    """

    mesh: "mesh.SurfaceMesh"
    h: float
    displacement: np.ndarray
    geo: QuadraturePointData
    stress: np.ndarray
    error: float | None
    report: "solver.SolveReport"


def _case(config: RunConfig, n: int):
    """Mesh at resolution ``n``, constraints (nodes, directions) and exact solution as a
    function of the material, None where absent: the one place that decides a case."""
    if config.case == "import":
        if not config.mesh_path:
            raise ValueError("case 'import' requires a mesh file (--mesh)")
        if config.variant == "facet":
            raise ValueError("the facet variant is not run on imported meshes: its load balance "
                             "holds only on structured meshes")
        return mesh.import_mesh(config.mesh_path), None, None
    if config.mesh_path:
        raise ValueError(f"mesh file {config.mesh_path} is only read by case 'import', "
                         f"not by case {config.case!r}")
    if config.case == "cylinder":
        surf = geometry.Cylinder(1.0 if config.r is None else config.r, config.L)
        msh = mesh.build_cylinder_mesh(surf.r, surf.L, n, n)
        return (msh, assembly.cylinder_constraints(msh),
                functools.partial(geometry.cylinder_exact, config.F, surface=surf))
    if config.case == "torus":
        surf = geometry.Torus(config.R, 0.5 if config.r is None else config.r)
        return (mesh.build_torus_mesh(surf.R, surf.r, 2 * n, n), None,
                functools.partial(geometry.torus_exact, config.p, surface=surf))
    raise ValueError(f"unknown case {config.case!r} (expected cylinder, torus, import)")


def solve_case(config: RunConfig, n: int | None = None) -> CaseResult:
    """Assemble, constrain, solve, and recover stresses for one resolution.

    The load at the quadrature points is the exact one of a benchmark case,
    or for an imported mesh the pressure ``p`` on the variant's normals.
    """
    material = geometry.MaterialModel(config.E, config.nu, config.t)
    msh, constraints, exact_of = _case(config, config.n if n is None else n)
    exact = exact_of(material) if exact_of is not None else None
    h = mesh.mesh_size(msh)
    tris = msh.triangles
    geo = quadrature_geometry(msh.vertices[tris], msh.nodal_normals[tris], QUADRATURE_RULE,
                              config.variant)
    system = assembly.assemble(msh, material, geo, exact.load_at(geo.points) if exact is not None
                               else config.p * geo.normals)
    if constraints is not None:
        system = assembly.apply_constraints(system, *constraints)
    u, report = solver.solve(system, tol=config.tol, max_iter=config.max_iter)
    del system  # free the stiffness: the recovery and the error do not read it
    stress = postprocess.recover_stress(msh, material, u, geo)
    error = postprocess.stress_l2_error(stress, geo, exact) if exact is not None else None
    return CaseResult(mesh=msh, h=h, displacement=u, geo=geo, stress=stress, error=error,
                      report=report)


def _report_lines(config: RunConfig, result: CaseResult) -> list[str]:
    lines = [
        f"case: {config.case}",
        f"variant: {config.variant}",
        f"resolution n: {config.n}",
        f"vertices: {result.mesh.n_vertices}",
        f"triangles: {result.mesh.n_triangles}",
        f"mesh size h: {result.h:.12e}",
        f"material: E={config.E} nu={config.nu} t={config.t}",
        f"load scale: {config.F if config.case == 'cylinder' else config.p}",
        f"solver iterations: {result.report.iterations}",
        f"solver relative residual: {result.report.relative_residual:.6e}",
        f"deflated kernel dimension: {result.report.deflated_dimension}",
        f"rhs consistency: {result.report.rhs_consistency:.6e}",
        f"rigid-body share of load: {result.report.rigid_load_share:.6e}",
        f"rigid-body component of solution: {result.report.rigid_fraction:.6e}",
    ]
    if result.error is not None:
        lines.append(f"stress L2 error: {result.error:.12e}")
    return lines


def run_case(config: RunConfig) -> dict:
    """Execute one run; returns artifact paths and headline numbers."""
    result = solve_case(config)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)  # only for a case that was accepted
    vtk_path = outdir / "solution.vtk"
    postprocess.export_vtk(result.mesh, result.displacement, result.stress, result.geo, vtk_path)
    report_path = outdir / "report.txt"
    report_path.write_text("\n".join(_report_lines(config, result)) + "\n")
    return {
        "vtk": vtk_path,
        "report": report_path,
        "error": result.error,
        "solve_report": result.report,
    }


def run_convergence(config: RunConfig, resolutions=None) -> tuple[
        "postprocess.ConvergenceRecord", list[CaseResult]]:
    """Run a refinement ladder and fit the stress-error rate.

    The ladder is checked before any level is solved: it needs at least 3
    strictly increasing resolutions. The output directory is made after the
    first level is solved, and the CSV table is rewritten after each
    resolution, so a failing level leaves the completed rows on disk.
    """
    if config.case not in ("cylinder", "torus"):
        raise ValueError("convergence studies require case 'cylinder' or 'torus'")
    resolutions = list(resolutions) if resolutions is not None else list(DEFAULT_RESOLUTIONS)
    if len(resolutions) < 3 or any(a >= b for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError(f"resolution ladder {','.join(map(str, resolutions))}: a rate fit "
                         "needs at least 3 strictly increasing resolutions")
    outdir = Path(config.out)
    csv_path = outdir / "convergence.csv"

    results: list[CaseResult] = []
    hs: list[float] = []
    errors: list[float] = []
    for n in resolutions:
        result = solve_case(config, n)
        results.append(result)
        hs.append(result.h)
        errors.append(result.error)
        outdir.mkdir(parents=True, exist_ok=True)
        postprocess.write_convergence_csv(csv_path, hs, errors)

    record = postprocess.fit_convergence(list(zip(hs, errors)))
    report_path = outdir / "report.txt"
    lines = [
        f"case: {config.case}",
        f"variant: {config.variant}",
        f"resolutions: {' '.join(str(n) for n in resolutions)}",
        f"fitted slope: {record.slope:.6f}",
        f"fit residual: {record.fit_residual:.6e}",
    ]
    report_path.write_text("\n".join(lines) + "\n")
    return record, results


def _mesh_info_lines(msh) -> list[str]:
    lines = [
        f"vertices: {msh.n_vertices}",
        f"triangles: {msh.n_triangles}",
        f"edges: {len(msh.edges())}",
        f"euler characteristic: {msh.euler_characteristic()}",
        f"area: {msh.area():.12e}",
        f"mesh size h: {mesh.mesh_size(msh):.12e}",
        f"boundary components: {len(msh.boundary_components)}",
    ]
    for comp in msh.boundary_components:
        lines.append(f"  {comp.label}: {len(comp)} vertices")
    return lines


def _convert(cast, text: str, name: str, choices=None):
    """``cast(text)``, as a flag would convert it; an error names ``name`` and ``text``."""
    try:
        value = cast(text)
    except ValueError:
        raise ValueError(f"{name}: invalid {cast.__name__} value {text!r}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"{name}: invalid choice {text!r} (choose from {', '.join(choices)})")
    return value


def _read_config_file(path: str) -> dict:
    """Parse a minimal ``key = value`` file (one pair per line, # comments).

    Each value is converted with the type of its :class:`RunConfig` field and
    checked against its flag's :data:`CHOICES`; an unknown key or a bad value
    is an error naming the key.
    """
    field_types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    values: dict[str, object] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"invalid config line: {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        key = "mesh_path" if key == "mesh" else key
        if key not in field_types:
            raise ValueError(f"unknown config key {key!r}")
        cast = next((t for t in typing.get_args(field_types[key]) if t is not type(None)),
                    field_types[key])
        val = val.strip().strip("\"'")
        values[key] = _convert(cast, val, f"config key {key!r}", CHOICES.get(key))
    return values


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file; flags override it")
    p.add_argument("--case", choices=CHOICES["case"])
    p.add_argument("--n", type=int, help="resolution parameter")
    p.add_argument("--variant", choices=CHOICES["variant"])
    p.add_argument("--E", type=float, help="Young's modulus")
    p.add_argument("--nu", type=float, help="Poisson's ratio")
    p.add_argument("--t", type=float, help="thickness")
    p.add_argument("--F", type=float, help="cylinder total-force scale")
    p.add_argument("--p", type=float, help="torus/import gauge pressure")
    p.add_argument("--r", type=float, help="cylinder radius / torus minor radius")
    p.add_argument("--L", type=float, help="cylinder length")
    p.add_argument("--R", type=float, help="torus major radius")
    p.add_argument("--tol", type=float, help="solver relative residual target")
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--out", help="output directory")
    p.add_argument("--mesh", dest="mesh_path", help="mesh file for case 'import'")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            values[f.name] = value
    if args.command == "mesh-info" and values.get("mesh_path") and "case" not in values:
        values["case"] = "import"  # a mesh file alone is the mesh to describe
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memshell",
        description="Membrane shell finite elements on triangulated surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one case and export the solution")
    _add_common_flags(p_run)

    p_conv = sub.add_parser("convergence", help="refinement ladder and rate fit")
    _add_common_flags(p_conv)
    p_conv.add_argument("--resolutions", help="comma-separated ladder, default 16,32,64,128")

    p_info = sub.add_parser("mesh-info", help="print mesh statistics")
    _add_common_flags(p_info)

    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "run":
            artifacts = run_case(config)
            print(f"wrote {artifacts['vtk']}")
            print(f"wrote {artifacts['report']}")
            if artifacts["error"] is not None:
                print(f"stress L2 error: {artifacts['error']:.12e}")
            rep = artifacts["solve_report"]
            print(f"solver: {rep.iterations} iterations, "
                  f"relative residual {rep.relative_residual:.3e}")
            return 0
        if args.command == "convergence":
            resolutions = None
            if args.resolutions:
                resolutions = [_convert(int, s.strip(), "--resolutions")
                               for s in args.resolutions.split(",") if s.strip()]
            record, _ = run_convergence(config, resolutions)
            outdir = Path(config.out)
            for h, e in zip(record.h, record.error):
                print(f"h={h:.6e}  error={e:.6e}")
            print(f"fitted slope: {record.slope:.6f}")
            print(f"wrote {outdir / 'convergence.csv'}")
            print(f"wrote {outdir / 'report.txt'}")
            return 0
        # mesh-info: the subparsers are required, so argparse has rejected any other
        print("\n".join(_mesh_info_lines(_case(config, config.n)[0])))
        return 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        module = type(exc).__module__
        origin = module.rsplit(".", 1)[-1] if module.startswith("memshell") else module
        print(f"memshell: error [{origin}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
