"""Spans and counts recorded from outside regkit.

``Tracer.install`` replaces each traced function with a wrapper on every
``regkit.*`` module attribute bound to it, so calls are seen whichever
name the program looks up (``regkit.network.apply_matrix`` as well as
``regkit.activations.apply_matrix``).  ``uninstall`` puts the originals
back.  A traced function that no longer exists is reported in
``missing`` and skipped.

Spans are ``(name, start, end, parent_index)`` tuples kept in memory; a
span's self time is its duration minus that of its direct children.  A
call that re-enters a span of the same name records no second span.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _cells(args, result):
    return int(getattr(result, "size", 0))


def _file_bytes(args, result):
    return os.path.getsize(args[0])


_CELLS = ("cells", _cells)
_BYTES = ("bytes", _file_bytes)

# (span name, module, function, optional (count name, count from (args, result)))
SPANS = (
    ("data.read_columns", "regkit.data", "read_columns", _CELLS),
    ("data.normalize", "regkit.data", "normalize", None),
    ("data.split", "regkit.data", "split", None),
    ("ols.build_problem", "regkit.ols", "build_problem", None),
    ("ols.solve_analytic", "regkit.ols", "solve_analytic", None),
    ("ols.solve_gd", "regkit.ols", "solve_gd", None),
    ("linalg.inverse", "regkit.linalg", "inverse", None),
    ("network.init_network", "regkit.network", "init_network", None),
    ("network.train", "regkit.network", "train", None),
    ("network.forward", "regkit.network", "forward", None),
    ("network.output_delta", "regkit.network", "output_delta", None),
    ("network.hidden_delta", "regkit.network", "hidden_delta", None),
    ("network.layer_gradients", "regkit.network", "layer_gradients", None),
    ("activations.apply_matrix", "regkit.activations", "apply_matrix", None),
    ("activations.jacobian_product", "regkit.activations", "jacobian_product", None),
    ("losses.column_losses", "regkit.losses", "column_losses", None),
    ("losses.loss_gradient", "regkit.losses", "loss_gradient", None),
    ("optimizers.optimizer_step", "regkit.optimizers", "optimizer_step", None),
    ("model_io.save_model", "regkit.model_io", "save_model", _BYTES),
    ("model_io.load_model", "regkit.model_io", "load_model", None),
    ("model_io.predict_rows", "regkit.model_io", "predict_rows", None),
)

# Functions only counted, not timed: one BB rate per BB iteration, and
# every public function of regkit.linalg (found at install time).
COUNTED = (("ols.bb_learning_rate", "regkit.ols", "bb_learning_rate"),)
LINALG = "regkit.linalg"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack = [-1]
        self._active: set[str] = set()
        self._installed: list = []

    def _wrap(self, fn, span: str | None, counters: tuple[str, ...], extra):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        def traced(*args, **kwargs):
            for key in counters:
                counts[key] += 1
            if span is None or span in active:
                return fn(*args, **kwargs)
            active.add(span)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active.discard(span)
                spans[index] = (span, start, end, parent)
            if extra is not None:
                counts[f"{span}.{extra[0]}"] += extra[1](args, result)
            return result

        return traced

    def install(self) -> None:
        targets = {}  # id(original) -> (original, span, counters, extra)

        def add(name, module, attr, span, counter, extra=None):
            original = getattr(sys.modules.get(module), attr, None)
            if not callable(original):
                self.missing.add(name)
                return
            entry = targets.setdefault(id(original), [original, None, (), None])
            if span:
                entry[1], entry[3] = span, extra
            entry[2] += (counter,)

        for span, module, attr, extra in SPANS:
            add(span, module, attr, span, span + ".calls", extra)
        for name, module, attr in COUNTED:
            add(name, module, attr, None, name + ".calls")
        linalg = sys.modules.get(LINALG)
        if linalg is None:
            self.missing.add("linalg.calls")
        else:
            for attr, value in vars(linalg).items():
                if inspect.isfunction(value) and value.__module__ == LINALG and not attr.startswith("_"):
                    add("linalg.calls", LINALG, attr, None, "linalg.calls")

        wrappers = {key: self._wrap(*entry) for key, entry in targets.items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "regkit" or module_name.startswith("regkit.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is targets[id(value)][0]:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    @contextmanager
    def operation(self, name: str):
        """A top-level span around one CLI command.

        Yields a record that, after the block, holds the command's span
        range and the counts taken during it.
        """
        self.counts.clear()
        index = len(self.spans)
        record = {"first": index}
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield record
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1)
            record["last"] = len(self.spans)
            record["counts"] = dict(self.counts)

    def summarize(self, record: dict) -> tuple[dict, dict]:
        """Busy and self seconds per span name within one operation."""
        busy, self_time = defaultdict(float), defaultdict(float)
        for index in range(record["first"], record["last"]):
            name, start, end, parent = self.spans[index]
            duration = end - start
            busy[name] += duration
            self_time[name] += duration
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
        return busy, self_time

    def write(self, path) -> None:
        """All spans as JSON lines: name, start and end (s), parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
