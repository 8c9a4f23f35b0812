"""Spans around calls into the public functions of each tabounds layer.

The benchmark wraps the functions below for a separate traced run.  Each
wrapper is installed in every ``tabounds`` module namespace that holds the
function (including tuples inside module-level dicts, such as the verify
suite table), so calls through ``from .x import f`` are traced too.  Spans
live in flat in-memory arrays and are written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (span name, defining module, attribute)
TARGETS = (
    ("linalg.hermitian_eigenvalues", "tabounds.linalg", "hermitian_eigenvalues"),
    ("linalg.von_neumann_entropy", "tabounds.linalg", "von_neumann_entropy"),
    ("linalg.partial_trace", "tabounds.linalg", "partial_trace"),
    ("qubit.dilated_state", "tabounds.qubit", "dilated_state"),
    ("qubit.coherent_information_qubit", "tabounds.qubit", "coherent_information_qubit"),
    ("optimize.maximize_scalar", "tabounds.optimize", "maximize_scalar"),
    ("bounds.report", "tabounds.bounds", "report"),
    ("bounds.qubit_lower", "tabounds.bounds", "qubit_lower"),
    ("bounds.qubit_upper_extended", "tabounds.bounds", "qubit_upper_extended"),
    ("bounds.gauss_lower", "tabounds.bounds", "gauss_lower"),
    ("bounds.gauss_upper_extended", "tabounds.bounds", "gauss_upper_extended"),
    ("bounds.gauss_upper_twist", "tabounds.bounds", "gauss_upper_twist"),
    ("bounds.gauss_upper_plob", "tabounds.bounds", "gauss_upper_plob"),
    ("bounds.gauss_upper_swat", "tabounds.bounds", "gauss_upper_swat"),
    ("gaussian.g_function", "tabounds.gaussian", "g_function"),
    ("gaussian.twisted_decompose", "tabounds.gaussian", "twisted_decompose"),
    ("gaussian.symplectic_eigenvalues", "tabounds.gaussian", "symplectic_eigenvalues"),
    ("cli.main", "tabounds.cli", "main"),
    ("verify.linalg_suite", "tabounds.verify", "linalg_suite"),
    ("verify.qubit_suite", "tabounds.verify", "qubit_suite"),
    ("verify.gaussian_suite", "tabounds.verify", "gaussian_suite"),
    ("verify.bounds_suite", "tabounds.verify", "bounds_suite"),
)
# DensityMatrix is a class; its validating __post_init__ stands for construction.
DENSITY_MATRIX = "linalg.DensityMatrix"


class Tracer:
    """Flat arrays of spans: name, start, end, parent span and operation id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = -1
        self.dilation_keys: set[tuple[float, float, float]] = set()
        self.evaluations = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(args, result)`` sees each return."""
        self.names.append(name)
        nid = len(self.names) - 1
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def retime(self, clock) -> None:
        """Map every span's start and end through ``clock``."""
        self.start = array("d", map(clock, self.start))
        self.end = array("d", map(clock, self.end))

    def _count_dilation(self, args, result) -> None:
        state, params = args[0], args[1]
        self.dilation_keys.add((state.p, params.eta, params.noise))

    def _count_evaluations(self, args, result) -> None:
        self.evaluations += result.evaluations

    def write(self, path: str) -> None:
        """Gzipped tab-separated spans: op, span index, parent index, name,
        start and end in us."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.3f}\t{(self.end[i] - t0) * 1e6:.3f}\n"
                )


@contextmanager
def installed(tracer: Tracer):
    """Install tracing wrappers for TARGETS and DensityMatrix; undo them on exit."""
    hooks = {
        "qubit.dilated_state": tracer._count_dilation,
        "optimize.maximize_scalar": tracer._count_evaluations,
    }
    for _, modname, _ in TARGETS:
        importlib.import_module(modname)
    modules = [m for n, m in list(sys.modules.items()) if n == "tabounds" or n.startswith("tabounds.")]
    undo = []
    for name, modname, attr in TARGETS:
        orig = getattr(sys.modules[modname], attr)
        wrapper = tracer.wrap(name, orig, hooks.get(name))
        for module in modules:
            for key, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, key, wrapper)
                    undo.append(functools.partial(setattr, module, key, orig))
                elif isinstance(val, dict):
                    for dk, dv in list(val.items()):
                        if isinstance(dv, tuple) and any(x is orig for x in dv):
                            val[dk] = tuple(wrapper if x is orig else x for x in dv)
                            undo.append(functools.partial(val.__setitem__, dk, dv))
    cls = sys.modules["tabounds.linalg"].DensityMatrix
    post_init = cls.__dict__["__post_init__"]
    cls.__post_init__ = tracer.wrap(DENSITY_MATRIX, post_init)
    undo.append(functools.partial(setattr, cls, "__post_init__", post_init))
    try:
        yield tracer
    finally:
        for fn in reversed(undo):
            fn()


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    kids: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in children):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def share_under(tracer: Tracer, root: str, layers: tuple[str, ...]) -> float:
    """Self time of the ``layers`` spans nested in ``root`` spans, over the
    total time of the ``root`` spans (0 when there are none)."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    inside = bytearray(len(tracer))
    part = whole = 0.0
    for i in range(len(tracer)):  # a parent is always recorded before its children
        name = tracer.names[tracer.name_id[i]]
        p = tracer.parent[i]
        inside[i] = name == root or (p >= 0 and inside[p])
        if name == root and not (p >= 0 and inside[p]):
            whole += tracer.end[i] - tracer.start[i]
        elif inside[i] and name.split(".")[0] in layers:
            part += own[i]
    return part / whole if whole else 0.0


def totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed self time and summed duration (s)."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    agg = {name: {"calls": 0, "self": 0.0, "total": 0.0} for name in tracer.names}
    for i in range(len(tracer)):
        a = agg[tracer.names[tracer.name_id[i]]]
        a["calls"] += 1
        a["self"] += own[i]
        a["total"] += tracer.end[i] - tracer.start[i]
    return agg


SCAN_POINTS = 129  # size of the optimizer's initial scan

# (metric, unit, better); "/op" units are per traced operation of the workload.
PER_LAYER = (
    ("linalg.hermitian_eigenvalues.calls", "calls/op", "lower"),
    ("linalg.hermitian_eigenvalues.self_ms", "ms/op", "lower"),
    ("linalg.von_neumann_entropy.self_ms", "ms/op", "lower"),
    ("linalg.partial_trace.calls", "calls/op", "lower"),
    ("linalg.partial_trace.self_ms", "ms/op", "lower"),
    ("linalg.DensityMatrix.calls", "calls/op", "lower"),
    ("qubit.dilated_state.calls", "calls/op", "lower"),
    ("qubit.dilated_state.self_ms", "ms/op", "lower"),
    ("qubit.dilated_state.unique_frac", "frac", "higher"),
    ("qubit.coherent_information_qubit.calls", "calls/op", "lower"),
    ("qubit.coherent_information_qubit.self_ms", "ms/op", "lower"),
    ("optimize.maximize_scalar.calls", "calls/op", "lower"),
    ("optimize.maximize_scalar.self_ms", "ms/op", "lower"),
    ("optimize.maximize_scalar.evals_per_call", "evals/call", "lower"),
    ("optimize.maximize_scalar.us_per_eval", "us", "lower"),
    ("optimize.maximize_scalar.scan_frac", "frac", "higher"),
    ("bounds.report.calls", "calls/op", "lower"),
    ("bounds.report.self_ms", "ms/op", "lower"),
    ("bounds.report.total_ms", "ms/op", "lower"),
    ("bounds.qubit_lower.self_ms", "ms/op", "lower"),
    ("bounds.qubit_upper_extended.self_ms", "ms/op", "lower"),
    ("bounds.gauss.self_ms", "ms/op", "lower"),
    ("gaussian.g_function.calls", "calls/op", "lower"),
    ("gaussian.g_function.self_ms", "ms/op", "lower"),
    ("gaussian.twisted_decompose.calls", "calls/op", "lower"),
    ("gaussian.twisted_decompose.self_ms", "ms/op", "lower"),
    ("gaussian.symplectic_eigenvalues.calls", "calls/op", "lower"),
    ("gaussian.symplectic_eigenvalues.self_ms", "ms/op", "lower"),
    ("cli.main.calls", "calls/op", "lower"),
    ("cli.main.self_ms", "ms/op", "lower"),
    ("cli.rows_written", "rows/op", "higher"),
    ("cli.bytes_written", "B/op", "lower"),
    ("verify.linalg_suite.self_s", "s/op", "lower"),
    ("verify.linalg_suite.total_s", "s/op", "lower"),
    ("verify.qubit_suite.self_s", "s/op", "lower"),
    ("verify.qubit_suite.total_s", "s/op", "lower"),
    ("verify.gaussian_suite.self_s", "s/op", "lower"),
    ("verify.gaussian_suite.total_s", "s/op", "lower"),
    ("verify.bounds_suite.self_s", "s/op", "lower"),
    ("verify.bounds_suite.total_s", "s/op", "lower"),
    ("verify.checks", "checks/op", "higher"),
    ("verify.checks_failed", "checks/op", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

COUNTED_BY_WORKLOAD = ("cli.rows_written", "cli.bytes_written", "verify.checks", "verify.checks_failed")
_SCALE = {"calls": 1.0, "self_ms": 1e3, "total_ms": 1e3, "self_s": 1.0, "total_s": 1.0}
_FIELD = {"calls": "calls", "self_ms": "self", "total_ms": "total", "self_s": "self", "total_s": "total"}


def layer_metrics(tracer: Tracer, ops: int, counts: dict[str, float], overhead: float) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``ops`` operations.

    ``counts`` carries the per-operation COUNTED_BY_WORKLOAD values the
    workload measured itself; a count the workload does not produce is 0.
    A ratio over zero calls is reported as 0.
    """
    agg = totals(tracer)
    empty = {"calls": 0, "self": 0.0, "total": 0.0}
    opt = agg.get("optimize.maximize_scalar", empty)
    dil = agg.get("qubit.dilated_state", empty)
    evals = tracer.evaluations
    derived = {
        "qubit.dilated_state.unique_frac": len(tracer.dilation_keys) / dil["calls"] if dil["calls"] else 0.0,
        "optimize.maximize_scalar.evals_per_call": evals / opt["calls"] if opt["calls"] else 0.0,
        "optimize.maximize_scalar.us_per_eval": opt["total"] * 1e6 / evals if evals else 0.0,
        "optimize.maximize_scalar.scan_frac": SCAN_POINTS * opt["calls"] / evals if evals else 0.0,
        "bounds.gauss.self_ms": 1e3 / ops * sum(a["self"] for n, a in agg.items() if n.startswith("bounds.gauss_")),
        "trace.overhead_frac": overhead,
    }
    out = {}
    for metric, _unit, _better in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric in COUNTED_BY_WORKLOAD:
            out[metric] = counts.get(metric, 0.0)
        else:
            span, field = metric.rsplit(".", 1)
            out[metric] = agg.get(span, empty)[_FIELD[field]] * _SCALE[field] / ops
    return out
