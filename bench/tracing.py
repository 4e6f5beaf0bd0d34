"""Spans around the public functions of each ramsys module.

``Tracer.install`` replaces every module attribute bound to a traced
function, in every ramsys module, because ``ramsys.cli`` binds names with
``from .x import y``; methods are replaced on their class.  A span opens when
a traced function is entered and closes when it returns.  Its parent is the
span open beneath it, and its self time is its duration minus the time its
child spans cover.  A call from inside a span of the same name (recursion)
is folded into that span.  A traced generator gets one span per resume, so
time its consumer spends between items is not charged to it.

Spans are folded into per-name totals as they close rather than kept,
because one reps-stream pass closes millions of them; after each request
the worker scales that request's times (see calibration.py) with ``settle``.  Per-element
operations (``Permutation``, ``compose``, ``conjugate``, ``act``) are not
traced: their cost is self time of the traced function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (module, attribute, span name); the module part of the span name is the
# layer name the benchmark reports under.
TRACED = (
    ("perm", "enumerate_cycle_types", "perm.enumerate_cycle_types"),
    ("perm", "CycleType.parse", "perm.CycleType.parse"),
    ("perm", "class_size", "perm.class_size"),
    ("perm", "centralizer_order", "perm.centralizer_order"),
    ("combinat", "multiset_coefficient", "combinat.multiset_coefficient"),
    ("combinat", "weak_compositions", "combinat.weak_compositions"),
    ("centralizer", "gamma", "centralizer.gamma"),
    ("centralizer", "abelianization_invariants", "centralizer.abelianization_invariants"),
    ("counting", "parse_ramification", "counting.parse_ramification"),
    ("counting", "count_rsc", "counting.count_rsc"),
    ("counting", "count_report", "counting.count_report"),
    ("counting", "enumerate_types", "counting.enumerate_types"),
    ("counting", "RSCTypeVector.__str__", "counting.type_vector_str"),
    ("oracle", "character_basis", "oracle.character_basis"),
    ("oracle", "class_points", "oracle.class_points"),
    ("oracle", "orbit_partition_class", "oracle.orbit_partition_class"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("perm", "combinat", "centralizer", "counting", "oracle", "cli")


class SpanTotals:
    """Totals over the closed spans of one name.

    calls    function calls (for a generator: generators created)
    items    len() of each returned tuple or list, or items a generator yielded
    self_ns  self time, scaled by ``Tracer.settle``
    first    per generator, the duration of its first resume, scaled likewise

    ``pending_*`` hold the raw times of the current request until it settles.
    """

    __slots__ = ("calls", "items", "self_ns", "first", "pending_ns", "pending_first")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.self_ns = 0.0
        self.first: list[float] = []
        self.pending_ns = 0
        self.pending_first: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.stack: list[list] = []          # open spans: [name, start_ns, child_ns]
        self.totals: dict[str, SpanTotals] = {}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ramsys"]
        for module_name, path, span in TRACED:
            module = importlib.import_module(f"ramsys.{module_name}")
            owner, _, attr = path.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(span, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(span, raw))
                continue
            original = getattr(module, attr)
            traced = self._wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def _wrap(self, name: str, fn):
        totals = self.totals.setdefault(name, SpanTotals())
        if inspect.isgeneratorfunction(fn):
            traced = self._wrap_generator(name, fn, totals)
        else:
            traced = self._wrap_function(name, fn, totals)
        functools.update_wrapper(traced, fn)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _close(self, frame: list, totals: SpanTotals) -> int:
        duration = time.perf_counter_ns() - frame[1]
        self.stack.pop()
        totals.pending_ns += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def _wrap_function(self, name: str, fn, totals: SpanTotals):
        stack = self.stack

        def traced(*args, **kwargs):
            if not self.on or (stack and stack[-1][0] is name):
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, totals)
                totals.calls += 1
            if isinstance(result, (tuple, list)):
                totals.items += len(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn, totals: SpanTotals):
        stack = self.stack

        def resumes(gen):
            first = True
            try:
                while True:
                    frame = [name, time.perf_counter_ns(), 0]
                    stack.append(frame)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        duration = self._close(frame, totals)
                        if first:
                            totals.pending_first.append(duration)
                            first = False
                    totals.items += 1
                    yield item
            finally:
                gen.close()

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.on or (stack and stack[-1][0] is name):
                return gen
            totals.calls += 1
            return resumes(gen)

        return traced

    def settle(self, factor: float) -> None:
        """Scale the raw times recorded since the last call and add them to the totals."""
        for t in self.totals.values():
            t.self_ns += t.pending_ns * factor
            t.first.extend(d * factor for d in t.pending_first)
            t.pending_ns = 0
            t.pending_first.clear()

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready totals; ``first_ms`` is the median first-resume time."""
        out = {}
        for name, t in self.totals.items():
            first = sorted(t.first)
            out[name] = {
                "calls": t.calls,
                "self_ms": t.self_ns / 1e6,
                "items": t.items,
                "first_ms": first[len(first) // 2] / 1e6 if first else 0.0,
            }
        return out
