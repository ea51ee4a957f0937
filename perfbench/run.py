"""Benchmark for memshell: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload torus_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process runs the cases of a workload one after another (a closed loop
with one client) with one BLAS/OpenMP thread. Before timing it measures the
set-up time in fresh interpreters and runs warm-up cases. It then repeats
timed passes over the workload until the next pass would end after
``--seconds`` (two passes at least) and reports medians. With ``--trace 1``
passes alternate between untraced and traced, and the per-layer metrics come
from the traced ones. The last line of standard output is one JSON object;
the metric names and units are those of ``BENCHMARK.json``. Outputs go to
``.perfbench_out/`` under the repository root.

Every reported time is scaled to a reference host speed. Between cases the
benchmark times a fixed pure-Python loop (the speed probe); a case timed
between two probes that took twice their reference time on average counts
half. The raw times are kept in ``result.json``.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7  # timed probes; one more runs first to fill the bytecode cache
MIN_PASSES = 2
SPEED_LOOPS = 200_000
SPEED_REF_S = 0.02  # speed probe time at the reference speed that times are scaled to
SPEED_EVERY_S = 0.25  # least case time between two speed probes within a pass


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(SPEED_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


@dataclasses.dataclass
class Pass:
    """One timed pass: per case its outcome, loop seconds and speed scale."""

    outcomes: list
    seconds: list[float]
    scales: list[float]
    tracer: spans.Tracer | None
    probes: list[float]

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def scaled_wall(self) -> float:
        return sum(s * k for s, k in zip(self.seconds, self.scales))

    @property
    def scale(self) -> float:
        """Factor from this pass's seconds to seconds at the reference speed."""
        return self.scaled_wall / self.wall


def load_memshell():
    """Import numpy, scipy and memshell from this checkout's ``src``."""
    if not (SRC / "memshell" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no memshell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from memshell import cli, solver

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported memshell from {cli.__file__}, not from {SRC}")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    return cli, solver.SolverError, env


def measure_setup(probe_out: Path) -> tuple[list[float], list[float]]:
    """Seconds from process start to a solved warm-up case, per fresh interpreter.

    Returns the raw times and the times scaled by speed probes taken just
    before and after each interpreter.
    """
    raw, scaled = [], []
    for k in range(SETUP_PROBES + 1):
        before = speed_probe()
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(probe_out)],
                              capture_output=True, text=True, timeout=120, check=True)
        seconds = float(proc.stdout.split()[-1]) - start
        if k:
            raw.append(seconds)
            scaled.append(seconds * 2 * SPEED_REF_S / (before + speed_probe()))
    return raw, scaled


def run_passes(cli, solver_error, cases, seconds, workdir, reference, trace) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer() if trace and len(passes) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        probes = [speed_probe()]
        outcomes, loop_s, scales = [], [], []
        try:
            for i, case in enumerate(cases):
                if tracer is not None:
                    tracer.case = f"{i}:{case.id}"
                t0 = time.perf_counter()
                outcomes.append(workloads.run_one(cli, solver_error, case, workdir, reference))
                loop_s.append(time.perf_counter() - t0)
                if sum(loop_s[len(scales):]) >= SPEED_EVERY_S or i == len(cases) - 1:
                    # Cases since the last probe ran at the mean speed of the two around them.
                    probes.append(speed_probe())
                    scale = 2 * SPEED_REF_S / (probes[-2] + probes[-1])
                    scales += [scale] * (len(loop_s) - len(scales))
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(Pass(outcomes, loop_s, scales, tracer, probes))
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def case_samples(passes) -> list[float]:
    """Seconds of every CLI call, scaled to the reference speed."""
    return [o.seconds * k for p in passes for o, k in zip(p.outcomes, p.scales)]


def end_to_end(passes, warmup, setup_times) -> dict[str, float]:
    samples = case_samples(passes)
    outcomes = [o for p in passes for o in p.outcomes]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.scaled_wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "case_s.p50": statistics.median(samples),
        "case_s.p90": percentile(samples, 0.9),
        "ok_frac": sum(not o.failed for o in outcomes) / len(outcomes),
        "stress_err": workloads.stress_err(passes[0].outcomes),
        "stress_rate": workloads.stress_rate(list(warmup) + passes[0].outcomes),
    }


def per_layer(passes) -> dict[str, float]:
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes if p.tracer is None]
    totals = [spans.layer_totals(p.tracer.spans, p.scale) for p in traced]
    values = {key: statistics.median(t[key] for t in totals) for key in totals[0]}
    traced_wall = statistics.median(p.scaled_wall for p in traced)
    untraced_wall = statistics.median(p.scaled_wall for p in untraced)
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": statistics.median(
            (p.wall - sum(spans.self_times(p.tracer.spans))) * p.scale for p in traced),
        "trace.absent": len(traced[-1].tracer.absent),
    })
    return values


def case_rows(p: Pass) -> list[dict]:
    """One row per (case, variant, n): sizes, iterations, per-layer seconds, error.

    With a tracer, each level's spans run from its ``mesh.build`` span to the
    next one; the CLI's own time of a ladder lands on its first row.
    """
    by_case = defaultdict(list)
    if p.tracer is not None:
        for span, self_s in zip(p.tracer.spans, spans.self_times(p.tracer.spans)):
            by_case[span.case].append((span, self_s))
    rows = []
    for i, o in enumerate(p.outcomes):
        levels = defaultdict(list)
        builds = 0
        for span, self_s in by_case[f"{i}:{o.case.id}"]:
            builds += span.name == "mesh.build"
            levels[max(builds - 1, 0)].append((span, self_s))
        for k, n in enumerate(o.case.ns):
            row = {"case": o.case.case, "variant": o.case.variant, "n": n, "status": o.status,
                   "case_s": o.seconds,
                   "iterations": o.iterations[k] if k < len(o.iterations) else None,
                   "error": o.errors[k] if k < len(o.errors) else None}
            if p.tracer is not None and builds == len(o.case.ns):
                seconds = defaultdict(float)
                counts = defaultdict(int)
                for span, self_s in levels[k]:
                    seconds[spans.layer_metric(span.name)] += self_s
                    for key, value in span.counts.items():
                        counts[key] += value
                row.update(ndof=counts["ndof"], nnz=counts["nnz"],
                           iterations=counts["iterations"], seconds=dict(seconds))
            rows.append(row)
    return rows


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def run_workload(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cli, solver_error, env = load_memshell()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = outdir / "work"
    shutil.rmtree(outdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_raw, setup_times = measure_setup(workdir)
    warmup = [workloads.run_one(cli, solver_error, case, workdir, reference)
              for case in workloads.WARMUP[args.workload]]
    cases = workloads.timed_cases(args.workload, args.seed)
    passes = run_passes(cli, solver_error, cases, args.seconds, workdir, reference, args.trace)
    shutil.rmtree(workdir)

    if args.trace:
        values, declared = per_layer(passes), bench["per_layer"]
    else:
        values, declared = end_to_end(passes, warmup, setup_times), bench["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    outcomes = [o for p in passes for o in p.outcomes]
    problems = [msg for o in warmup + outcomes for msg in o.problems]
    samples = case_samples(passes)
    p90 = percentile(samples, 0.9)
    result = {
        "correct": not any(o.incorrect for o in warmup + outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, speed_ref_s=SPEED_REF_S,
                  setup_raw=setup_raw, setup_samples=setup_times,
                  pass_walls=[p.wall for p in passes], pass_scales=[p.scale for p in passes],
                  pass_probes=[p.probes for p in passes],
                  traced=[p.tracer is not None for p in passes],
                  case_samples=len(samples),
                  beyond_p90=sum(s > p90 for s in samples),
                  problems=sorted(set(problems)))
    if args.trace:
        traced = [p for p in passes if p.tracer is not None]
        record["absent"] = traced[-1].tracer.absent
        write_jsonl(outdir / "spans.jsonl", (dataclasses.asdict(s) for p in traced for s in p.tracer.spans))
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    write_jsonl(outdir / "cases.jsonl", (row for p in passes for row in case_rows(p)))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {result['attempted']} cases, {result['failed']} failed")
    print("environment: " + json.dumps(env))
    print(f"host speed: scale {min(record['pass_scales']):.3f}..{max(record['pass_scales']):.3f}"
          f" to the reference; raw pass seconds median {statistics.median(record['pass_walls']):.4g}")
    print(f"case_s samples: {record['case_samples']}, beyond p90: {record['beyond_p90']}")
    for msg in record["problems"]:
        print(f"failed: {msg}")
    if record.get("absent"):
        print("absent from memshell: " + ", ".join(record["absent"]))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
             for w in workloads.WORKLOADS]
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
