"""Span tracer that instruments biflow from outside the package.

The tracer wraps the public functions of each biflow layer (every
function in a module's ``__all__``, plus the CLI experiment runners) and
every function defined in the body of a class in ``__all__``: methods,
constructors, dunders, classmethods and staticmethods.  Property getters are
one-line accessors and are not wrapped; their time counts in the caller's
layer.  Module-level functions are rebound wherever the package refers to
them: module attributes made by ``from .x import y`` and values of
module-level dicts such as the CLI's runner table.  Nothing under ``src/``
changes.

Each call records one span ``(name, start, end, parent, op, self)``, where
``self`` is the call's time minus that of the traced calls below it.  Spans
stay in memory until :meth:`Tracer.write` dumps them when the run ends;
:meth:`Tracer.op_totals` sums them into calls and self time per name and op.
Counters read from arguments and return values by probes are kept per op.

A name that a layer is expected to export but does not raises
:class:`TraceSetupError`: a renamed function must fail the traced run, never
turn into a metric that silently reads zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import operator
import sys
import time
from pathlib import Path
from types import FunctionType

PACKAGE = "biflow"

LAYERS = (
    "cli",
    "flows",
    "symmetrizer",
    "invariants",
    "laurent",
    "matcore",
    "factorization",
    "findim",
    "blockpde",
)

# The CLI module has no __all__; its public work is done by the runners.
# main() and run() are left out on purpose: they are the op boundary the
# benchmark times, so the spans below them show how much of an op the
# layers account for.
CLI_NAMES = (
    "run_flow",
    "run_invariants",
    "run_commute",
    "run_factorize",
    "run_findim",
    "run_pde",
    "run_lemma41",
)

# Names that a per-layer metric reads directly.
REQUIRED = (
    "flows.rk4_path",
    "symmetrizer.SymmetrizerTable.__init__",
    "symmetrizer.SymmetrizerTable.get",
    "invariants.hamiltonian",
    "invariants.spectral_coeffs",
    "invariants.integral_independence_rank",
    "laurent.mul",
    "laurent.rbracket",
    "laurent.LaurentLoop.evaluate",
    "matcore.eigenvalues_sym",
    "matcore.char_poly",
    "matcore.numerical_rank",
    "matcore.SymMatrix.full",
    "factorization.expm",
    "factorization.birkhoff",
    "factorization.sample_exp",
    "factorization.circle_symmetry_residual",
    "factorization.FourierLoop.aliasing_estimate",
)


class TraceSetupError(RuntimeError):
    """A name the tracer must wrap is missing from its module."""


class OpTrace:
    """One traced op: its id, wall seconds and probe counters."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.counters: dict[str, float] = {}
        self.wall = 0.0

    def add(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, key: str, value: float):
        self.counters[key] = max(self.counters.get(key, value), value)


class Tracer:
    """Wraps biflow's layers; install() before a traced op, uninstall() after."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.ops: list[OpTrace] = []
        self._stack: list[list] = []
        self._op_id = -1
        self._current: OpTrace | None = None
        self._originals: dict[str, object] = {}
        self._patches: list[tuple] = []  # (setter, container, key, original, wrapper)
        self.layer_of: list[str] = []
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for qualname, owner, attr, value in _targets(layer, module):
                self._add_target(f"{layer}.{qualname}", layer, owner, attr, value)
        missing = [name for name in REQUIRED if name not in self._originals]
        if missing:
            raise TraceSetupError(f"names not found for tracing: {', '.join(missing)}")

    # -- set-up ---------------------------------------------------------------

    def _add_target(self, name, layer, owner, attr, value):
        """Wrap ``value``, a function or a classmethod/staticmethod object."""
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        func = getattr(value, "__func__", value)
        self._originals[name] = func
        wrapper = self._wrap(name_id, func, _PROBES.get(name))
        if isinstance(owner, type):
            if not isinstance(value, FunctionType):
                wrapper = type(value)(wrapper)  # re-wrap as classmethod/staticmethod
            self._patches.append((setattr, owner, attr, value, wrapper))
            return
        # A module-level function: rebind it wherever the package refers to it.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is func:
                    self._patches.append((setattr, mod, key, func, wrapper))
                elif isinstance(val, dict) and not key.startswith("__"):
                    for dkey, dval in val.items():
                        if dval is func:
                            self._patches.append((operator.setitem, val, dkey, func, wrapper))

    def _wrap(self, name_id, func, probe):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            op = tracer._current
            frame = [len(spans), 0.0]
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                spans[frame[0]] = (
                    name_id,
                    start,
                    end,
                    parent[0] if parent is not None else -1,
                    tracer._op_id,
                    dur - frame[1],
                )
            if probe is not None:
                probe(tracer, op, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    def original(self, name: str):
        return self._originals[name]

    # -- op boundaries --------------------------------------------------------

    def install(self, op_id: int):
        """Start traced op ``op_id``: patch every target, open a fresh aggregate."""
        self._op_id = op_id
        self._current = OpTrace(op_id)
        self.ops.append(self._current)
        for put, container, key, _, wrapper in self._patches:
            put(container, key, wrapper)

    def uninstall(self, wall: float):
        """End the traced op: restore every original binding."""
        for put, container, key, original, _ in self._patches:
            put(container, key, original)
        self._current.wall = wall
        self._current = None

    # -- results --------------------------------------------------------------

    def op_totals(self) -> dict[int, tuple[list[int], list[float]]]:
        """Calls and self seconds per name, indexed like ``names``, for each op id."""
        totals = {op.op_id: ([0] * len(self.names), [0.0] * len(self.names)) for op in self.ops}
        for name, _, _, _, op, self_s in self.spans:
            calls, selfs = totals[op]
            calls[name] += 1
            selfs[name] += self_s
        return totals

    def write(self, path: Path):
        """Dump every span as JSON: a names table plus one row per span.

        Times are integer nanoseconds, start and end from the first span's start.
        """
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            (name, round((start - t0) * 1e9), round((end - t0) * 1e9), parent, op, round(s * 1e9))
            for name, start, end, parent, op, s in self.spans
        ]
        payload = {
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
            "names": self.names,
            "spans": rows,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _targets(layer: str, module):
    """(qualname, owner, attr, value) for each traced callable of a layer.

    ``value`` is a function, or a classmethod or staticmethod object.
    """
    if layer == "cli":
        names = CLI_NAMES
    else:
        names = getattr(module, "__all__", None)
        if names is None:
            raise TraceSetupError(f"{module.__name__} has no __all__ to trace")
    for name in names:
        if not hasattr(module, name):
            raise TraceSetupError(f"{module.__name__}.{name} is missing")
        obj = getattr(module, name)
        if isinstance(obj, FunctionType) and obj.__module__ == module.__name__:
            yield name, module, name, obj
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            if issubclass(obj, BaseException):
                continue
            for attr, val in vars(obj).items():
                if isinstance(getattr(val, "__func__", val), FunctionType):
                    yield f"{name}.{attr}", obj, attr, val


# -- probes: counters read from arguments and return values -------------------


def _probe_rk4(tracer, op, args, kwargs, result):
    times = result[0]
    op.add("flows.rk4_steps", len(times) - 1)
    op.add("flows.rk4_integrated_t", float(times[-1]))
    op.peak("flows.rk4_final_t", float(times[-1]))


def _probe_table(tracer, op, args, kwargs, result):
    cap = args[0].degree_cap
    op.add("symmetrizer.entries_built", (cap + 1) * (cap + 2) // 2)


def _probe_birkhoff(tracer, op, args, kwargs, result):
    bound = inspect.signature(tracer.original("factorization.birkhoff")).bind(*args, **kwargs)
    bound.apply_defaults()
    gamma = bound.arguments["gamma"]
    requested = min(bound.arguments["depth"], gamma.m_samples // 2 - 1)
    reached = -result.g_minus.lo
    doublings = math.ceil(math.log2(reached / requested)) if reached > requested else 0
    op.peak("factorization.birkhoff.depth", reached)
    op.add("factorization.birkhoff.doublings", doublings)
    op.peak("factorization.birkhoff.residual", result.residual)
    op.peak("factorization.birkhoff.tail", result.tail)


def _probe_sample_exp(tracer, op, args, kwargs, result):
    aliasing = tracer.original("factorization.FourierLoop.aliasing_estimate")(result)
    op.peak("factorization.sample_exp.aliasing", aliasing)


_PROBES = {
    "flows.rk4_path": _probe_rk4,
    "symmetrizer.SymmetrizerTable.__init__": _probe_table,
    "factorization.birkhoff": _probe_birkhoff,
    "factorization.sample_exp": _probe_sample_exp,
}
