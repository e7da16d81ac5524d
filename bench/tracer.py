"""Per-layer spans for the bts modules, installed from outside the package.

``Tracer.install`` replaces the public functions of each layer module (and a
few named private functions and methods whose work a layer metric needs) with
wrappers, in every ``bts`` module namespace that binds them, and
``Tracer.restore`` puts the originals back.  Nothing under ``src/`` changes.

A call records a span only where it crosses a layer boundary (its caller is in
another layer) or where a metric needs its own time; a call inside its own
layer is only counted, which keeps the overhead and the span count small.
``numpy.tensordot`` and ``numpy.linalg.lstsq`` are counted and timed but
record no span, so their time stays in the self time of the layer that called
them.  Spans are kept in memory and written by ``write_spans``.

A span's self time is its duration minus the durations of its child spans.
Each item opens a root span in the ``harness`` layer, so the self times of
all layers of an item add up to the item's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy

LAYERS = ("cli", "spectral", "polys", "invariants", "tensor", "combinatorics")
HARNESS = "harness"

# Private functions and methods wrapped besides each layer's public functions.
EXTRA_FUNCTIONS = {
    "spectral": ("_rank_one_spectrum_222", "_rank_one_spectrum_21"),
    "polys": ("_all_roots_float",),
}
EXTRA_METHODS = (("polys", "MultiPoly", "__call__"), ("polys", "MultiPoly", "coefficients_in"))
# Timed as spans even when called from their own layer: a metric needs their time.
ALWAYS_SPAN = frozenset({"polys.square_free_decomposition", "polys._all_roots_float"})
LEAVES = ((numpy, "tensordot"), (numpy.linalg, "lstsq"))

_ATTEMPT = re.compile(r"attempt=(\d+)")


class Tracer:
    """Wraps the bts layers, records spans per item and accumulates layer totals."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: Counter = Counter()
        self.calls: Counter = Counter()
        self.items = 0
        self._stack: list[list] = []  # frames: [span_id, layer, child_seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._item_id: int | None = None
        self._next_id = 0
        self._item_self: Counter = Counter()
        self._sv_depth = 0
        self._max_attempts = 3

    # --- install and restore -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"bts.{layer}") for layer in LAYERS}
        self._max_attempts = getattr(modules["spectral"], "MAX_ROTATION_ATTEMPTS", 3)
        replacements: dict[int, object] = {}
        for layer, mod in modules.items():
            names = [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
            ]
            names += [n for n in EXTRA_FUNCTIONS.get(layer, ()) if hasattr(mod, n)]
            for n in names:
                fn = getattr(mod, n)
                replacements[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{n}"))
        bts_modules = [m for name, m in sorted(sys.modules.items()) if name == "bts" or name.startswith("bts.")]
        for mod in bts_modules:
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name, meth in EXTRA_METHODS:
            cls = getattr(modules[layer], cls_name, None)
            if cls is not None and meth in vars(cls):
                self._patch(cls, meth, self._wrap(vars(cls)[meth], layer, f"{cls_name}.{meth}"))
        for owner, attr in LEAVES:
            self._patch(owner, attr, self._leaf(getattr(owner, attr), attr))

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- items and spans ------------------------------------------------------

    @contextmanager
    def item(self, item_id: int):
        """Root span of one item; yields a dict filled with its wall and layer self times."""
        self._item_id = item_id
        self._item_self = Counter()
        out: dict = {}
        root = [self._new_id(), HARNESS, 0.0]
        self._stack.append(root)
        start = perf_counter()
        try:
            yield out
        finally:
            end = perf_counter()
            self._stack.pop()
            self._close(root, None, "item", start, end)
            self._item_id = None
            self.items += 1
            out["wall"] = end - start
            out["self"] = dict(self._item_self)
            for layer, secs in self._item_self.items():
                self.totals[f"self_s:{layer}"] += secs
            self.totals["wall_s"] += end - start

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _close(self, frame: list, parent: list | None, name: str, start: float, end: float) -> float:
        dur = end - start
        if parent is not None:
            parent[2] += dur
        self._item_self[frame[1]] += dur - frame[2]
        self.spans.append((self._item_id, frame[0], parent[0] if parent else None, name, frame[1], start, end))
        return dur

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        always = name in ALWAYS_SPAN
        watch = self._watcher(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            crossing = stack[-1][1] != layer
            if not (crossing or always):
                if watch is None:
                    return fn(*args, **kwargs)
                return watch(fn, args, kwargs, None)
            parent = stack[-1]
            frame = [tracer._new_id(), layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                if watch is None:
                    return fn(*args, **kwargs)
                return watch(fn, args, kwargs, crossing)
            finally:
                end = perf_counter()
                stack.pop()
                dur = tracer._close(frame, parent, name, start, end)
                tracer.totals[f"span_s:{name}"] += dur
                if layer == "invariants" and crossing:
                    kind = "exact" if _is_exact_input(args) else "float"
                    tracer.totals[f"inv_{kind}_s"] += dur
                    tracer.totals[f"inv_{kind}_calls"] += 1

        return wrapper

    def _leaf(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.totals[f"leaf_s:{name}"] += perf_counter() - start
                tracer.calls[f"numpy.{name}"] += 1

        return leaf

    # --- watchers: inspect arguments, results and errors of named functions ---

    def _watcher(self, name: str):
        if name == "spectral.singular_values":
            return self._watch_singular_values
        if name == "polys.all_roots":
            return self._watch_all_roots
        if name.startswith("invariants."):
            return self._watch_invariants
        return None

    def _watch_singular_values(self, fn, args, kwargs, crossing):
        self._sv_depth += 1
        try:
            spec = fn(*args, **kwargs)
        except Exception as exc:
            if self._sv_depth == 1:
                self.totals["solver_failures"] += 1
                self.totals["rotation_attempts"] += str(getattr(exc, "diagnostics", "")).count("attempt ")
            raise
        finally:
            self._sv_depth -= 1
        if self._sv_depth == 0:
            self.totals["certified"] += len(spec.data)
            note = spec.data[0].chart_note if spec.data else ""
            m = _ATTEMPT.search(note)
            if m:
                self.totals["rotation_attempts"] += int(m.group(1)) + 1
            elif "rank-one" in note:
                self.totals["rotation_attempts"] += self._max_attempts
        return spec

    def _watch_all_roots(self, fn, args, kwargs, crossing):
        p = args[0] if args else kwargs.get("p")
        if getattr(p, "exact", False):
            self.totals["eliminant_degree_sum"] += p.degree
            self.totals["eliminant_count"] += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "RootFindingError":
                self.totals["root_failures"] += 1
            raise

    def _watch_invariants(self, fn, args, kwargs, crossing):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if crossing and type(exc).__name__ == "FormulaCrossCheckError":
                self.totals["crosscheck_failures"] += 1
            raise

    # --- output --------------------------------------------------------------------

    def write_spans(self, path: Path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for item, sid, parent, name, layer, start, end in self.spans:
                fh.write(json.dumps({"item": item, "id": sid, "parent": parent, "name": name, "layer": layer,
                                     "start_s": start - t0, "end_s": end - t0}) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-item layer metrics from the accumulated totals, as name -> (value, unit)."""
        n = max(self.items, 1)
        t, c = self.totals, self.calls

        def ms(key: str) -> float:
            return 1000.0 * t[key] / n

        residual_checks = c["spectral.tuple_residual"]
        return {
            "cli.self_ms_per_item": (ms("self_s:cli"), "ms"),
            "spectral.self_ms_per_item": (ms("self_s:spectral"), "ms"),
            "spectral.tensordot_calls_per_item": (c["numpy.tensordot"] / n, "count"),
            "spectral.tensordot_ms_per_item": (ms("leaf_s:tensordot"), "ms"),
            "spectral.newton_steps_per_item": (c["numpy.lstsq"] / n, "count"),
            "spectral.residual_checks_per_item": (residual_checks / n, "count"),
            "spectral.useful_ratio": (t["certified"] / residual_checks if residual_checks else 0.0, "ratio"),
            "spectral.rotation_attempts_per_item": (t["rotation_attempts"] / n, "count"),
            "spectral.rank_one_fallbacks_per_item": (
                (c["spectral._rank_one_spectrum_222"] + c["spectral._rank_one_spectrum_21"]) / n, "count"),
            "spectral.solver_failures_per_item": (t["solver_failures"] / n, "count"),
            "polys.self_ms_per_item": (ms("self_s:polys"), "ms"),
            "polys.resultant_ms_per_item": (ms("span_s:polys.sylvester_resultant"), "ms"),
            "polys.roots_ms_per_item": (ms("span_s:polys.all_roots"), "ms"),
            "polys.float_roots_ms_per_item": (ms("span_s:polys._all_roots_float"), "ms"),
            "polys.squarefree_ms_per_item": (ms("span_s:polys.square_free_decomposition"), "ms"),
            "polys.backsub_ms_per_item": (
                ms("span_s:MultiPoly.__call__") + ms("span_s:MultiPoly.coefficients_in"), "ms"),
            "polys.eliminant_degree_mean": (
                t["eliminant_degree_sum"] / t["eliminant_count"] if t["eliminant_count"] else 0.0, "degree"),
            "polys.root_failures_per_item": (t["root_failures"] / n, "count"),
            "invariants.self_ms_per_item": (ms("self_s:invariants"), "ms"),
            "invariants.exact_ms_per_item": (ms("inv_exact_s"), "ms"),
            "invariants.float_ms_per_item": (ms("inv_float_s"), "ms"),
            "invariants.exact_calls_per_item": (t["inv_exact_calls"] / n, "count"),
            "invariants.float_calls_per_item": (t["inv_float_calls"] / n, "count"),
            "invariants.crosscheck_failures_per_item": (t["crosscheck_failures"] / n, "count"),
            "tensor.ms_per_item": (ms("self_s:tensor"), "ms"),
            "combinatorics.ms_per_item": (ms("self_s:combinatorics"), "ms"),
            "harness.self_ms_per_item": (ms(f"self_s:{HARNESS}"), "ms"),
            "trace.wall_ms_per_item": (ms("wall_s"), "ms"),
            "trace.spans_per_item": (len(self.spans) / n, "count"),
        }


def _is_exact_input(args: tuple) -> bool:
    """Whether the first argument of an invariants call carries exact (rational) entries."""
    if not args:
        return False
    first = args[0]
    exact = getattr(first, "exact", None)
    if isinstance(exact, bool):
        return exact
    try:
        from bts.scalars import is_exact

        return all(is_exact(v) for v in first)
    except TypeError:
        return False
