"""Span tracing of the qnoise layers, installed from outside the package.

:meth:`Tracer.install` replaces every public function of each layer
module, and every public method of the classes those modules define,
with a wrapper that records a span: name, parent span, op, start and end.
Names that other modules imported with ``from .x import f`` are rebound
too, so intra-package calls are seen as well.  ``qnoise.fourier`` is an
internal helper and is not wrapped: its time counts as its callers' self
time.  Spans stay in memory until :meth:`Tracer.write`.

The same wrappers take the counts that must be measured where the work
happens: the bytes of each returned model and filter, the tracemalloc
peak of ``build_model``, the builds made under each ``run_all``, and the
checks run and failed by each outermost verification call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields
from time import perf_counter

import numpy as np

LAYERS = ("spectra", "stationary", "decomposition", "synthesis", "qsi",
          "mode_algebra", "verification", "cli")
CLI_COMMANDS = ("spectrum", "corr", "decompose", "synth", "qsi", "verify", "mode")
SUITES = ("spectra", "stationary", "modular", "decomposition", "synthesis", "qsi", "mode")
STAGES = ("build_model", "modular_matrix", "correlation_sequence")

# Span record fields.
NAME, LAYER, PARENT, OP, START, END, CHILD, ERROR, OUTER = range(9)


def array_bytes(obj) -> int:
    """nbytes of every array a dataclass instance holds."""
    return sum(
        value.nbytes
        for value in (getattr(obj, f.name) for f in fields(obj))
        if isinstance(value, np.ndarray)
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.model_bytes = 0
        self.filter_bytes = 0
        self.build_peak = 0
        self.run_all_calls = 0
        self.builds_in_run_all = 0
        self.sequences_in_run_all = 0
        self.checks_run = 0
        self.checks_failed = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qnoise.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr, self._wrap(layer, f"{name}.{attr}", member))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qnoise" or mod_name.startswith("qnoise."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patch(module, name, wrapped[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        is_build = key == "stationary.build_model"
        is_filter = key == "stationary.modular_matrix"
        is_sequence = key == "stationary.correlation_sequence"
        is_run_all = key == "verification.run_all"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, open_ = tracer._stack, tracer._open
            outer = open_[layer] == 0
            if open_["verification.run_all"]:
                tracer.builds_in_run_all += is_build
                tracer.sequences_in_run_all += is_sequence
            tracer.run_all_calls += is_run_all
            span = [key, layer, stack[-1] if stack else -1, tracer.op, 0.0, 0.0, 0.0, False, outer]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            open_[layer] += 1
            open_[key] += 1
            if is_build:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                end = perf_counter()
                if is_build:
                    tracer.build_peak = max(tracer.build_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                open_[layer] -= 1
                open_[key] -= 1
                span[START], span[END] = start, end
                if span[PARENT] >= 0:
                    tracer.spans[span[PARENT]][CHILD] += end - start
            if is_build:
                tracer.model_bytes = max(tracer.model_bytes, array_bytes(result))
            elif is_filter:
                tracer.filter_bytes = max(tracer.filter_bytes, array_bytes(result))
            elif layer == "verification" and outer and isinstance(result, list):
                tracer.checks_run += len(result)
                tracer.checks_failed += sum(not r.passed for r in result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self, op_count: int, op_commands: dict[int, str]) -> dict[str, float]:
        """Per-layer metrics, per op of the traced pass unless stated."""
        per_op = 1.0 / max(op_count, 1)
        calls, busy, self_s, errors = Counter(), Counter(), Counter(), Counter()
        by_name_busy, by_name_self = Counter(), Counter()
        cli_self = Counter()
        for span in self.spans:
            layer, duration = span[LAYER], span[END] - span[START]
            own = duration - span[CHILD]
            calls[layer] += 1
            self_s[layer] += own
            if span[OUTER]:
                busy[layer] += duration
                errors[layer] += span[ERROR]
            by_name_busy[span[NAME]] += duration
            by_name_self[span[NAME]] += own
            if layer == "cli" and span[OP] in op_commands:
                cli_self[op_commands[span[OP]]] += own

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] * per_op
            out[f"{layer}.busy_s"] = busy[layer] * per_op
            out[f"{layer}.self_s"] = self_s[layer] * per_op
            out[f"{layer}.errors"] = errors[layer] * per_op
        for stage in STAGES:
            out[f"stationary.{stage}.busy_s"] = by_name_busy[f"stationary.{stage}"] * per_op
        out["stationary.model_bytes"] = self.model_bytes
        out["stationary.filter_bytes"] = self.filter_bytes
        out["stationary.build_model.peak_mb"] = self.build_peak / 2**20
        for suite in SUITES:
            key = f"verification.{suite}_checks"
            out[f"{key}.self_s"] = by_name_self[key] * per_op
        run_alls = max(self.run_all_calls, 1)
        out["verification.model_builds"] = self.builds_in_run_all / run_alls
        out["verification.sequence_builds"] = self.sequences_in_run_all / run_alls
        out["verification.checks_run"] = self.checks_run * per_op
        out["verification.checks_failed"] = self.checks_failed * per_op
        command_ops = Counter(op_commands.values())
        for command in CLI_COMMANDS:
            out[f"cli.{command}.self_s"] = cli_self[command] / max(command_ops[command], 1)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        origin = min((s[START] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for index, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": s[NAME], "parent": s[PARENT], "op": s[OP],
                    "start": s[START] - origin, "end": s[END] - origin, "error": s[ERROR],
                }) + "\n")

