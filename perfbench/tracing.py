"""Span tracing of the program's layers, from outside the program.

The layers are the package modules named in ``LAYERS``.  ``Tracer``
wraps every public function of those modules at every module attribute
that holds it (the modules use from-imports, so ``sketch.apply`` is also
reachable as ``recovery.apply``, ``jl.apply`` and ``analysis.apply``),
plus ``numpy.linalg.eigvalsh``, which only the analysis layer calls.  A
span is recorded only while an operation is open, so checks made between
operations leave no spans.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

PACKAGE = "fastsketch"
LAYERS = ("transforms", "ensembles", "sketch", "recovery", "analysis", "jl")

#: Span name of one benchmark operation (the root of every span tree).
OP_SPAN = "op"


def _batch_rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1], dtype=np.int64)) if shape else 0


# Work counted at a span: (span name) -> f(args, result).
_COUNTERS = {
    "transforms.dft": lambda args, res: int(np.size(args[0])),
    "transforms.fwht": lambda args, res: int(np.size(args[0])),
    "sketch.apply": lambda args, res: _batch_rows(args[1]),
    "sketch.apply_adjoint": lambda args, res: _batch_rows(args[1]),
    "recovery.iht": lambda args, res: res.iterations_used,
    "recovery.cosamp": lambda args, res: res.iterations_used,
    "analysis.mc_rip_lower_bound": lambda args, res: res.supports_evaluated,
    "jl.distortion_report": lambda args, res: res.pairs_evaluated,
}

# Per-layer metrics, per operation: name -> (unit, statistic, span names).
# Statistics: self (duration minus child spans), incl (whole duration),
# calls, count (the work counted above).
METRICS = {
    "transforms.dft.self_ms": ("ms", "self", ["transforms.dft"]),
    "transforms.dft.calls": ("count", "calls", ["transforms.dft"]),
    "transforms.dft.points": ("count", "count", ["transforms.dft"]),
    "transforms.fwht.self_ms": ("ms", "self", ["transforms.fwht"]),
    "transforms.fwht.calls": ("count", "calls", ["transforms.fwht"]),
    "transforms.fwht.points": ("count", "count", ["transforms.fwht"]),
    "transforms.toeplitz_multiply.self_ms": ("ms", "self", ["transforms.toeplitz_multiply"]),
    "transforms.toeplitz_multiply.calls": ("count", "calls", ["transforms.toeplitz_multiply"]),
    "ensembles.apply_rows.self_ms": ("ms", "self", ["ensembles.apply_rows"]),
    "ensembles.apply_rows_adjoint.self_ms": ("ms", "self", ["ensembles.apply_rows_adjoint"]),
    "sketch.apply.self_ms": ("ms", "self", ["sketch.apply"]),
    "sketch.apply.vectors": ("count", "count", ["sketch.apply"]),
    "sketch.apply_adjoint.self_ms": ("ms", "self", ["sketch.apply_adjoint"]),
    "sketch.apply_adjoint.vectors": ("count", "count", ["sketch.apply_adjoint"]),
    "sketch.build_sketch.ms": ("ms", "incl", ["sketch.build_sketch"]),
    "recovery.hard_threshold.ms": ("ms", "incl", ["recovery.hard_threshold"]),
    "recovery.hard_threshold.calls": ("count", "calls", ["recovery.hard_threshold"]),
    "recovery.cosamp.self_ms": ("ms", "self", ["recovery.cosamp"]),
    "recovery.iterations": ("count", "count", ["recovery.iht", "recovery.cosamp"]),
    "recovery.solve.ms": ("ms", "incl", ["recovery.iht", "recovery.cosamp"]),
    "analysis.mc_rip_lower_bound.self_ms": ("ms", "self", ["analysis.mc_rip_lower_bound"]),
    "analysis.eigvalsh.ms": ("ms", "incl", ["analysis.eigvalsh"]),
    "analysis.supports": ("count", "count", ["analysis.mc_rip_lower_bound"]),
    "jl.jl_embed.self_ms": ("ms", "self", ["jl.jl_embed"]),
    "jl.distortion_report.ms": ("ms", "incl", ["jl.distortion_report"]),
    "jl.pairs": ("count", "count", ["jl.distortion_report"]),
}

#: Reported next to METRICS: traced minus untraced time of one operation.
OVERHEAD_METRIC = "trace.overhead_ms"


def public_functions() -> dict:
    """Span name -> function, for the public functions defined in each layer."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Records spans of the wrapped functions while an operation is open.

    A span is ``(name, start_ns, end_ns, parent, op, count)``; ``parent``
    is the index of the enclosing span (-1 for an operation span) and
    ``count`` the work counted for that call, or None.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self._op, None)
            if count is not None:
                self.spans[sid] = (name, start, end, parent, self._op, count(args, result))
            return result

        return traced

    def install(self) -> None:
        """Replace each public layer function at every attribute that holds it."""
        targets = {id(fn): (name, fn) for name, fn in public_functions().items()}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and value is targets[id(value)][1]:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        eig = np.linalg.eigvalsh
        self._patches.append((np.linalg, "eigvalsh", eig))
        np.linalg.eigvalsh = self._wrap("analysis.eigvalsh", eig)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextmanager
    def operation(self, op_id: int):
        """Open one benchmark operation; layer calls inside become its spans."""
        sid = len(self.spans)
        self.spans.append(None)
        self._op = op_id
        self._stack = [sid]
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self.spans[sid] = (OP_SPAN, start, end, -1, op_id, None)
            self._op = None
            self._stack = []

    # -- results ----------------------------------------------------------

    def summary(self) -> tuple[int, dict]:
        """(operations traced, per-name totals of calls, incl, self and count)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _op, _count in self.spans:
            if parent >= 0:
                # Spans of one thread nest without overlap, so the time the
                # children cover is the sum of their durations.
                child_ns[parent] += end - start
        totals: dict = {}
        ops = 0
        for sid, (name, start, end, _parent, _op, count) in enumerate(self.spans):
            if name == OP_SPAN:
                ops += 1
                continue
            t = totals.setdefault(name, {"calls": 0, "incl": 0, "self": 0, "count": 0})
            t["calls"] += 1
            t["incl"] += end - start
            t["self"] += end - start - child_ns[sid]
            t["count"] += count or 0
        return ops, totals

    def per_layer_metrics(self) -> dict:
        """Every metric of METRICS, per traced operation."""
        ops, totals = self.summary()
        out = {}
        for metric, (unit, stat, names) in METRICS.items():
            total = sum(totals.get(name, {}).get(stat, 0) for name in names)
            value = total / max(ops, 1)
            if unit == "ms":
                value /= 1e6
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("name", "start_ns", "end_ns", "parent", "op", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **dict(zip(keys, span))}) + "\n")
