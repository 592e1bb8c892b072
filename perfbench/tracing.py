"""Span tracing for the benchmark's traced run.

``Tracer.install`` wraps the public functions of each ``sumsieve`` module and
rebinds every copy of each wrapped function: a name brought in with
``from .primes import divisibility_hits`` is patched in ``sieves`` and
``irreducibility`` as well as in ``primes``.  Class constructors listed in
``CONSTRUCTORS`` are wrapped on the class.  Spans (name, start, end, parent)
are kept in compact in-memory arrays and written out by ``write_spans`` when
the run ends.  Work counters are computed at the same boundaries from the
call's arguments and result.

Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("primes", "arith", "sieves", "smooth", "semigroup", "sumset",
          "irreducibility", "checks", "cli")
CONSTRUCTORS = {"primes": ("PrimeTable",)}
# Spans past this many are counted, not stored, so a long run cannot exhaust
# memory; self times and counters stay exact either way.
MAX_STORED_SPANS = 2_000_000


def _sift_pairs(args, kwargs, result):
    s, shifts, ps = args[:3]
    arr = np.asarray(getattr(s, "elements", s))
    if arr.size == 0:
        return {}
    shift_vals = getattr(shifts, "values", shifts)
    top = int(max(arr.max(), max(shift_vals)))
    swept = ps.primes_in(0, min(top, ps.base.limit)).size
    return {"pairs": int(arr.size) * int(swept)}


def _table_bytes(args, kwargs, table):
    mask = table._odd_mask
    return {"table_bytes": int(mask.nbytes) + 8 * (int(np.count_nonzero(mask)) + 1)}


def _moduli(result):
    return {"moduli": len(result[1])}


# name -> function(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "primes.divisibility_hits": lambda a, k, r: {"values": len(a[0])},
    "primes.PrimeTable": _table_bytes,
    "sieves.sift_count": _sift_pairs,
    "semigroup.enumerate_q": lambda a, k, r: {"elements": len(r)},
    "smooth.enumerate_smooth": lambda a, k, r: {"elements": int(r.size)},
    "smooth.bv_discrepancy_sum": lambda a, k, r: _moduli(r),
    "sumset.decompose_binary": lambda a, k, r: {"nodes": r.nodes_explored},
    "sumset.decompose_binary_relative": lambda a, k, r: {"nodes": r.nodes_explored},
}
# counters taken from an exception's partial-progress attributes
ERROR_COUNTERS = {
    "smooth.bv_discrepancy_sum": lambda e: {"moduli": len(getattr(e, "partial_breakdown", ()))},
    "sumset.decompose_binary": lambda e: {"nodes": getattr(e, "nodes_explored", 0)},
    "sumset.decompose_binary_relative": lambda e: {"nodes": getattr(e, "nodes_explored", 0)},
}


class Tracer:
    """Collects spans, per-name self time and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.self_s: dict[str, float] = {}
        self.max_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.recording = True
        self._stack: list[list] = []  # [span id, child time, name]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------
    def install(self, package: str = "sumsieve") -> int:
        """Wrap every public function of the package's layers; returns the
        number of bindings patched."""
        modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        modules[package] = importlib.import_module(package)
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                original = cls.__init__
                self._restore.append((cls, "__init__", original))
                cls.__init__ = self._wrap(original, f"{layer}.{cls_name}", constructor=True)
        patched = 0
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replacement)
                    patched += 1
        return patched

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, name: str, constructor: bool = False):
        tracer = self
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        error_counter = ERROR_COUNTERS.get(name)
        is_smooth = name.startswith("smooth.")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0, name]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                tracer._close(name, name_id, span_id, parent, start, end, frame[1])
                extra_start = clock()
                if error is None and counter is not None:
                    tracer._count(name, counter(args[1:] if constructor else args, kwargs,
                                                args[0] if constructor else result))
                elif error is not None:
                    if error_counter is not None:
                        tracer._count(name, error_counter(error))
                    if is_smooth and type(error).__name__ == "CapacityError":
                        if not stack or not stack[-1][2].startswith("smooth."):
                            tracer.counters["smooth.capacity_errors"] = (
                                tracer.counters.get("smooth.capacity_errors", 0) + 1)
                if stack:
                    # counting work is not the parent's own time
                    stack[-1][1] += (end - start) + (clock() - extra_start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _close(self, name, name_id, span_id, parent, start, end, child_time):
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_time
        if dur > self.max_s.get(name, 0.0):
            self.max_s[name] = dur
        self.calls[name] = self.calls.get(name, 0) + 1
        if len(self.span_start) < MAX_STORED_SPANS:
            self.span_id.append(span_id)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(end)
        else:
            self.spans_dropped += 1

    def _count(self, name, increments):
        for key, value in increments.items():
            full = f"{name}.{key}"
            self.counters[full] = self.counters.get(full, 0) + int(value)

    def write_spans(self, path):
        np.savez(
            path,
            names=np.asarray(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int32),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "max_s": dict(self.max_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "spans": self._next_id,
            "spans_dropped": self.spans_dropped,
        }
