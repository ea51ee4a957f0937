"""Tests of the benchmark's own code: spans, case lists, checks and metric names.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, "c0", {})


def test_self_time_subtracts_covered_child_time():
    tree = [
        _span("cli", 0.0, 10.0),
        _span("assembly.assemble", 1.0, 4.0, parent=0),
        _span("element.stiffness", 1.5, 3.5, parent=1),
        _span("element.qgeo", 2.0, 3.0, parent=2),
        _span("solver.solve", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.0, 1.0, 1.0, 4.0])
    totals = spans.layer_totals(tree)
    assert totals["cli.self_s"] == pytest.approx(3.0)
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)
    assert spans.layer_totals(tree, 0.5)["solver.solve_s"] == pytest.approx(2.0)


def test_times_scale_to_reference_speed():
    half, quarter = 0.5, 0.25  # probes took twice and four times their reference time
    slow = run.Pass(outcomes=[None, None], seconds=[3.0, 2.0], scales=[half, quarter],
                    tracer=None, probes=[])
    assert slow.wall == pytest.approx(5.0)
    assert slow.scaled_wall == pytest.approx(2.0)
    assert slow.scale == pytest.approx(0.4)


def test_layer_totals_counts_wasted_iterations():
    ok, failed = _span("solver.solve", 0.0, 1.0), _span("solver.solve", 1.0, 4.0)
    ok.counts.update(iterations=100)
    failed.counts.update(iterations=300, failed=1)
    totals = spans.layer_totals([ok, failed])
    assert totals["solver.iterations"] == 400
    assert totals["solver.failed"] == 1
    assert totals["solver.wasted_iter_frac"] == pytest.approx(0.75)
    assert totals["solver.iter_ms"] == pytest.approx(10.0)


def test_tracer_wraps_every_namespace_and_records_absent_names(monkeypatch):
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    inner.leaf = leaf
    outer.leaf = leaf  # imported by name, as ``from .inner import leaf``
    outer.top = lambda x: outer.leaf(x) * 2
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.inner", inner), ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, module)
    layers = (spans.Layer("leaf", (("fakepkg.inner", "leaf"),)),
              spans.Layer("top", (("fakepkg.outer", "top"), ("fakepkg.outer", "gone"))))
    tracer = spans.Tracer(layers, package="fakepkg")
    tracer.install()
    try:
        tracer.case = "c1"
        assert outer.top(1) == 4
        assert inner.leaf(1) == 2
    finally:
        tracer.uninstall()
    assert [(s.name, s.parent, s.case) for s in tracer.spans] == [
        ("top", None, "c1"), ("leaf", 0, "c1"), ("leaf", None, "c1")]
    assert tracer.absent == ["fakepkg.outer.gone"]
    assert inner.leaf is leaf and outer.leaf is leaf


def test_sweep_cases_are_seeded():
    first = workloads.timed_cases("sweep_small", 7)
    assert first == workloads.timed_cases("sweep_small", 7)
    other = workloads.timed_cases("sweep_small", 8)
    assert first != other
    assert sorted(first, key=lambda c: c.id) == sorted(other, key=lambda c: c.id)
    assert len(first) == 4 * len(workloads.SWEEP_NS)
    assert workloads.timed_cases("torus_solve", 1) == workloads.timed_cases("torus_solve", 2)


class _SolverError(RuntimeError):
    pass


def _fake_cli(run_case):
    return types.SimpleNamespace(
        RunConfig=lambda **kw: types.SimpleNamespace(tol=1e-10, **kw),
        run_case=run_case,
        run_convergence=None,
    )


def _failing_run(config):
    raise _SolverError("no convergence")


def test_solver_failure_is_counted_not_raised(tmp_path):
    case = workloads.Case("cylinder", "facet", (22,))
    outcome = workloads.run_one(_fake_cli(_failing_run), _SolverError, case, tmp_path, REFERENCE)
    assert outcome.failed and not outcome.incorrect
    assert outcome.status == "solver_error"


def test_failed_check_is_counted_not_raised(tmp_path):
    def run_case(config):  # converges but writes no files and a worse error
        report = types.SimpleNamespace(converged=True, relative_residual=1e-12, iterations=5)
        return {"error": 10.0, "solve_report": report}

    case = workloads.Case("cylinder", "interpolated", (6,))
    outcome = workloads.run_one(_fake_cli(run_case), _SolverError, case, tmp_path, REFERENCE)
    assert outcome.failed and outcome.incorrect
    assert any("worse than reference" in p for p in outcome.problems)
    assert any("report.txt missing" in p for p in outcome.problems)


def test_metric_names_are_well_formed():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in BENCHMARK[section]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(spans.layer_totals([])) <= per_layer
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
