"""Workloads of the memshell benchmark: the cases, the checks on each result.

A case is one call of a public CLI function: ``cli.run_case`` for a single
resolution, ``cli.run_convergence`` for a ladder. A case fails when it raises
a ``SolverError`` or when one of its checks fails; either way the benchmark
counts it and carries on.
"""

import dataclasses
import math
import random
import statistics
import time
import traceback
from pathlib import Path

WORKLOADS = ("torus_solve", "cylinder_ladder", "sweep_small")

SWEEP_CELLS = tuple((case, variant) for case in ("cylinder", "torus")
                    for variant in ("interpolated", "facet"))
SWEEP_NS = tuple(range(6, 25))

# An error may exceed the recorded reference by this share and still pass,
# so that improvements always pass and rounding never fails a case.
ERROR_RTOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Case:
    """One CLI call: a run at ``ns[0]``, or a convergence ladder over ``ns``."""

    case: str
    variant: str
    ns: tuple[int, ...]

    @property
    def ladder(self) -> bool:
        return len(self.ns) > 1

    @property
    def id(self) -> str:
        return f"{self.case}/{self.variant}/{','.join(map(str, self.ns))}"


def level_id(case: Case, n: int) -> str:
    return f"{case.case}/{case.variant}/{n}"


# Warm-up cases run before timing starts. They fill allocator pools and
# caches with arrays of the timed sizes, and their errors join the rate fit.
WARMUP = {
    "torus_solve": (Case("torus", "interpolated", (24,)), Case("torus", "interpolated", (32,)),
                    Case("torus", "interpolated", (48,))),
    "cylinder_ladder": (Case("cylinder", "interpolated", (8, 16, 32, 64)),),
    "sweep_small": tuple(Case(c, v, (24,)) for c, v in SWEEP_CELLS),
}


def timed_cases(workload: str, seed: int) -> list[Case]:
    """The cases of one timed pass. Only ``sweep_small`` uses the seed.

    Every problem is small enough for its sparse matrix to stay in a core's
    cache, so that one pass takes seconds and a run holds many of them. The
    sweep runs every cell of {cylinder, torus} x {interpolated, facet} x n in
    [6, 24] once, in an order drawn from the seed. A fixed set keeps the
    failure count, the errors and the total work equal for every seed, so
    seeds change the order, not what is measured.
    """
    if workload == "torus_solve":
        return [Case("torus", "interpolated", (48,))]
    if workload == "cylinder_ladder":
        return [Case("cylinder", "interpolated", (8, 16, 32, 64))]
    if workload == "sweep_small":
        cases = [Case(c, v, (n,)) for c, v in SWEEP_CELLS for n in SWEEP_NS]
        random.Random(seed).shuffle(cases)
        return cases
    raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")


@dataclasses.dataclass
class Outcome:
    """What one case produced and what its checks found."""

    case: Case
    seconds: float
    status: str  # "ok", "solver_error", "check_failed" or "error"
    problems: list[str]
    hs: list[float] = dataclasses.field(default_factory=list)
    errors: list[float] = dataclasses.field(default_factory=list)
    iterations: list[int] = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def incorrect(self) -> bool:
        """A wrong or missing output, as opposed to a reported solver failure."""
        return self.status in ("check_failed", "error")


def _report_fields(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _check_solve(report, tol: float, label: str) -> list[str]:
    if report.converged and report.relative_residual <= tol:
        return []
    return [f"{label}: converged={report.converged}, relative residual "
            f"{report.relative_residual:.3e} > tol {tol:.1e}"]


def _check_error(error, reference: dict, key: str) -> list[str]:
    if error is None or not math.isfinite(error) or error <= 0:
        return [f"{key}: stress error {error!r} is not a positive number"]
    ref = reference["errors"].get(key)
    if ref is not None and error > ref * (1 + ERROR_RTOL):
        return [f"{key}: stress error {error:.12e} worse than reference {ref:.12e}"]
    return []


def _check_run(case: Case, config, artifacts, outdir: Path, reference: dict, outcome: Outcome):
    key = level_id(case, case.ns[0])
    report = artifacts["solve_report"]
    error = artifacts["error"]
    problems = _check_solve(report, config.tol, key) + _check_error(error, reference, key)
    report_path, vtk_path = outdir / "report.txt", outdir / "solution.vtk"
    if not vtk_path.is_file() or vtk_path.stat().st_size == 0:
        problems.append(f"{key}: solution.vtk missing or empty")
    if not report_path.is_file():
        return problems + [f"{key}: report.txt missing"]
    fields = _report_fields(report_path)
    if error is not None and fields.get("stress L2 error") != f"{error:.12e}":
        problems.append(f"{key}: report.txt error line {fields.get('stress L2 error')!r} "
                        f"does not match returned error {error:.12e}")
    if "mesh size h" in fields:
        outcome.hs = [float(fields["mesh size h"])]
    else:
        problems.append(f"{key}: report.txt has no mesh size line")
    outcome.errors = [error]
    outcome.iterations = [report.iterations]
    return problems


def _check_ladder(case: Case, config, result, outdir: Path, reference: dict, outcome: Outcome):
    record, levels = result
    problems = []
    for n, level in zip(case.ns, levels):
        key = level_id(case, n)
        problems += _check_solve(level.report, config.tol, key)
        problems += _check_error(level.error, reference, key)
    if len(levels) != len(case.ns):
        problems.append(f"{case.id}: {len(levels)} levels returned for {len(case.ns)} resolutions")
    ref = reference["slopes"].get(case.id)
    if ref is not None and record.slope < ref - ERROR_RTOL * abs(ref):
        problems.append(f"{case.id}: slope {record.slope:.6f} below reference {ref:.6f}")
    report_path, csv_path = outdir / "report.txt", outdir / "convergence.csv"
    if not report_path.is_file():
        problems.append(f"{case.id}: report.txt missing")
    elif _report_fields(report_path).get("fitted slope") != f"{record.slope:.6f}":
        problems.append(f"{case.id}: report.txt slope does not match {record.slope:.6f}")
    if not csv_path.is_file() or len(csv_path.read_text().splitlines()) != len(case.ns) + 1:
        problems.append(f"{case.id}: convergence.csv missing or incomplete")
    outcome.hs = [float(h) for h in record.h]
    outcome.errors = [float(e) for e in record.error]
    outcome.iterations = [level.report.iterations for level in levels]
    return problems


def run_one(cli, solver_error, case: Case, outdir: Path, reference: dict) -> Outcome:
    """Run one case through ``cli.run_case`` or ``cli.run_convergence`` and check it.

    The functions are looked up on ``cli`` at call time, so a tracer's
    wrappers are used. Stale outputs are removed first, so a file that exists
    afterwards was written by this case.
    """
    for name in ("report.txt", "solution.vtk", "convergence.csv"):
        (outdir / name).unlink(missing_ok=True)
    config = cli.RunConfig(case=case.case, variant=case.variant, n=case.ns[0], out=str(outdir))
    start = time.perf_counter()
    try:
        if case.ladder:
            result = cli.run_convergence(config, case.ns)
        else:
            result = cli.run_case(config)
    except solver_error as exc:
        return Outcome(case, time.perf_counter() - start, "solver_error",
                       [f"{case.id}: {type(exc).__name__}: {exc}"])
    except Exception as exc:  # noqa: BLE001 - a crash is a failed case, not the end of the run
        return Outcome(case, time.perf_counter() - start, "error",
                       [f"{case.id}: {''.join(traceback.format_exception_only(exc)).strip()}"])
    outcome = Outcome(case, time.perf_counter() - start, "ok", [])
    check = _check_ladder if case.ladder else _check_run
    outcome.problems = check(case, config, result, outdir, reference, outcome)
    if outcome.problems:
        outcome.status = "check_failed"
    return outcome


def stress_err(outcomes) -> float:
    """Finest-level stress error of each passed case, geometric mean over cases."""
    errors = [o.errors[-1] for o in outcomes if not o.failed]
    return math.exp(statistics.fmean(math.log(e) for e in errors)) if errors else math.nan


def stress_rate(outcomes) -> float:
    """Lowest fitted slope of log(error) over log(h) among the (case, variant) groups.

    Each group pools the levels of its passed cases, one point per n; a
    group needs three distinct n to count.
    """
    groups: dict[tuple[str, str], dict[int, tuple[float, float]]] = {}
    for o in outcomes:
        if o.failed:
            continue
        points = groups.setdefault((o.case.case, o.case.variant), {})
        for n, h, e in zip(o.case.ns, o.hs, o.errors):
            points[n] = (h, e)
    slopes = []
    for points in groups.values():
        if len(points) >= 3:
            log_h = [math.log(h) for h, _ in points.values()]
            log_e = [math.log(e) for _, e in points.values()]
            slopes.append(statistics.linear_regression(log_h, log_e).slope)
    return min(slopes, default=math.nan)
