"""Tracing from outside: spans around memshell's public functions.

The tracer replaces functions by wrappers through module attributes. A
function that another module imported by name (``assembly`` imports
``batch_element_stiffness``, ``postprocess`` imports ``quadrature_geometry``)
is replaced in every ``memshell`` namespace that holds it, so calls made
inside the package are traced too. Spans stay in memory until the run ends.
A name that no longer exists is recorded as absent and skipped.
"""

import dataclasses
import functools
import inspect
import os
import sys
import time
from collections import defaultdict


def _assemble_counts(system, arguments):
    return {"ndof": system.ndof, "nnz": system.matrix.nnz}


def _solve_counts(result, arguments):
    return {"iterations": result[1].iterations}


def _solve_error_counts(exc):
    report = getattr(exc, "report", None)
    iterations = report.iterations if report is not None else getattr(exc, "iteration", 0)
    return {"iterations": iterations, "failed": 1}


def _export_counts(result, arguments):
    return {"bytes": os.path.getsize(arguments["path"])}


@dataclasses.dataclass(frozen=True)
class Layer:
    """One span name, the functions it wraps and the counts it records."""

    name: str
    targets: tuple[tuple[str, str], ...]
    on_return: object = None
    on_error: object = None


LAYERS = (
    Layer("mesh.build", (("memshell.mesh", "build_cylinder_mesh"),
                         ("memshell.mesh", "build_torus_mesh"))),
    Layer("mesh.size", (("memshell.mesh", "mesh_size"),)),
    Layer("element.stiffness", (("memshell.element", "batch_element_stiffness"),)),
    Layer("element.loads", (("memshell.element", "batch_element_loads"),)),
    Layer("element.qgeo", (("memshell.element", "quadrature_geometry"),)),
    Layer("assembly.assemble", (("memshell.assembly", "assemble"),), _assemble_counts),
    Layer("assembly.constrain", (("memshell.assembly", "cylinder_constraints"),
                                 ("memshell.assembly", "apply_constraints"))),
    Layer("solver.solve", (("memshell.solver", "solve"),), _solve_counts, _solve_error_counts),
    Layer("postprocess.recover", (("memshell.postprocess", "recover_stress"),)),
    Layer("postprocess.error", (("memshell.postprocess", "stress_l2_error"),)),
    Layer("postprocess.export", (("memshell.postprocess", "export_vtk"),), _export_counts),
    Layer("cli", (("memshell.cli", "run_case"), ("memshell.cli", "run_convergence"))),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    counts: dict


class Tracer:
    """Records spans while installed; ``uninstall`` restores every function."""

    def __init__(self, layers=LAYERS, package="memshell"):
        self.layers = layers
        self.package = package
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.case: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == self.package or name.startswith(self.package + ".")]
        self.absent = []
        for layer in self.layers:
            for module_name, attr in layer.targets:
                fn = getattr(sys.modules.get(module_name), attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(layer, fn)
                for module in namespaces:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
                            self._patches.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def _wrap(self, layer: Layer, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(layer.name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                        self.case, {})
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                if layer.on_error is not None:
                    span.counts.update(layer.on_error(exc))
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            if layer.on_return is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                span.counts.update(layer.on_return(result, arguments))
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus that of its child spans.

    The tracer is single-threaded and keeps a call stack, so the children of
    a span are disjoint and lie inside it.
    """
    child_s = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    return [span.end - span.start - child_s[i] for i, span in enumerate(spans)]


def layer_metric(name: str) -> str:
    """Metric name of a layer's self time; the CLI's own share is ``cli.self_s``."""
    return "cli.self_s" if name == "cli" else f"{name}_s"


def layer_totals(spans, scale: float = 1.0) -> dict[str, float]:
    """Self seconds per layer metric, times ``scale``, plus the counts recorded at the boundaries."""
    totals = {layer_metric(layer.name): 0.0 for layer in LAYERS}
    for span, self_s in zip(spans, self_times(spans)):
        totals[layer_metric(span.name)] += self_s * scale
    solves = [s for s in spans if s.name == "solver.solve"]
    iterations = sum(s.counts.get("iterations", 0) for s in solves)
    wasted = sum(s.counts.get("iterations", 0) for s in solves if s.counts.get("failed"))
    totals.update({
        "assembly.ndof": sum(s.counts.get("ndof", 0) for s in spans),
        "assembly.nnz": sum(s.counts.get("nnz", 0) for s in spans),
        "solver.iterations": iterations,
        "solver.iter_ms": 1e3 * totals["solver.solve_s"] / max(iterations, 1),
        "solver.failed": sum(s.counts.get("failed", 0) for s in solves),
        "solver.wasted_iter_frac": wasted / max(iterations, 1),
        "postprocess.export_mb": sum(s.counts.get("bytes", 0) for s in spans) / 1e6,
    })
    return totals
