"""Span tracing of the program's layers, installed only for traced runs.

``Tracer.install`` wraps every public function of the layer modules
(``fields``, ``graphs``, ``algebra``, ``expr``, ``reduction``, ``socle``,
``cli``) on every module that binds it, so ``leavitt.socle.line_points``
and ``leavitt.graphs.line_points`` record the same span, and wraps the
algebra methods listed in ``METHODS`` on their classes. Each call records
one span: name, start, end, parent span and the phase it ran in (0 for the
set-up, k for round k). Scalar arithmetic on ``Fraction`` and
``GFElement`` is counted, not spanned, and only while a program call is
open. Spans live in flat arrays in memory and are written out by
``dump`` after the run. An untraced run never calls ``install``.
"""

from __future__ import annotations

import fractions
import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("fields", "graphs", "algebra", "expr", "reduction", "socle", "cli")

METHODS = {
    "LeavittAlgebra": (
        "zero", "one", "vertex", "edge", "ghost", "path_element",
        "path_star_element", "monomial", "element", "normal_form",
        "normal_form_steps", "mono_mul", "corner_basis", "check_relations",
    ),
    "Element": (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
        "involution", "local_unit",
    ),
}

SCALAR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def _observers() -> dict:
    """Counters read off return values, keyed by span name."""

    def steps(t, result, args):
        t.count["rewrite_steps"] += result[1]
        t.count["terms_out"] += len(result[0].items())

    def terms(t, result, args):
        t.count["terms_out"] += len(result.items())

    def entries(t, result, args):
        t.count["entry_paths"] += len(result)

    def kept(t, result, args):
        t.count["entry_kept"] += len(result.entry_part)

    def generators(t, result, args):
        t.count["witness_generators"] += len(result.left) + len(result.right)

    return {
        "algebra.LeavittAlgebra.normal_form_steps": steps,
        "algebra.LeavittAlgebra.normal_form": terms,
        "graphs.entry_paths": entries,
        "graphs.hedgehog_graph": kept,
        "reduction.reduce": generators,
    }


COUNTERS = ("scalar_ops", "rewrite_steps", "terms_out", "entry_paths",
            "entry_kept", "witness_generators")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_of: array = array("i")
        self.parent_of: array = array("i")
        self.phase_of: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack: list[int] = []
        self.phase = 0
        self.count = {k: 0 for k in COUNTERS}
        self.phase_counts: dict[int, dict] = {}
        self._mark = dict(self.count)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def begin_phase(self, phase: int) -> None:
        self._close_phase()
        self.phase = phase

    def _close_phase(self) -> None:
        self.phase_counts[self.phase] = {
            k: self.count[k] - self._mark[k] for k in COUNTERS
        }
        self._mark = dict(self.count)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, observe=None):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        stack, name_of, parent_of, phase_of = (
            self.stack, self.name_of, self.parent_of, self.phase_of,
        )
        start, end = self.start, self.end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent_of.append(stack[-1] if stack else -1)
            phase_of.append(tracer.phase)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, result, args)
            return result

        return wrapper

    def _count_scalar(self, fn):
        stack, count = self.stack, self.count

        @functools.wraps(fn)
        def wrapper(*args):
            if stack:
                count["scalar_ops"] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        import leavitt.cli  # noqa: F401  (the package does not import it)
        from leavitt.algebra import Element, LeavittAlgebra
        from leavitt.fields import GFElement

        observers = _observers()
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules["leavitt." + layer]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = "%s.%s" % (layer, attr)
                wrapped[id(obj)] = self._wrap(obj, name, layer, observers.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "leavitt" and not modname.startswith("leavitt."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        for cls in (LeavittAlgebra, Element):
            for attr in METHODS[cls.__name__]:
                name = "algebra.%s.%s" % (cls.__name__, attr)
                setattr(cls, attr, self._wrap(
                    cls.__dict__[attr], name, "algebra", observers.get(name)
                ))
        for cls in (fractions.Fraction, GFElement):
            for attr in SCALAR_METHODS:
                if attr in cls.__dict__:
                    setattr(cls, attr, self._count_scalar(cls.__dict__[attr]))

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def analyse(self, rounds: int) -> dict:
        """Per-pass totals: the set-up phase plus the mean of the rounds.

        Returns per layer the self time and call count, per span name the
        self time and call count, the counters, and the per-span weights
        that ``group_ms`` needs for inclusive times.
        """
        self._close_phase()
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent_of[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        weight = [1.0 if ph == 0 else 1.0 / rounds for ph in self.phase_of]
        self_ms: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        span_self: dict[str, float] = {}
        span_calls: dict[str, float] = {}
        for i in range(n):
            nid = self.name_of[i]
            layer = self.layer_of[nid]
            s = (self.end[i] - self.start[i] - child[i]) * 1000.0 * weight[i]
            self_ms[layer] += s
            calls[layer] += weight[i]
            name = self.names[nid]
            span_self[name] = span_self.get(name, 0.0) + s
            span_calls[name] = span_calls.get(name, 0.0) + weight[i]
        self._by_name: dict[int, list[int]] = {}
        for i in range(n):
            self._by_name.setdefault(self.name_of[i], []).append(i)
        counts = {k: 0.0 for k in COUNTERS}
        for phase, values in self.phase_counts.items():
            w = 1.0 if phase == 0 else 1.0 / rounds
            for k in COUNTERS:
                counts[k] += values[k] * w
        return {
            "self_ms": self_ms,
            "calls": calls,
            "span_self_ms": span_self,
            "span_calls": span_calls,
            "counts": counts,
            "weight": weight,
        }

    def group_ms(self, names, weight) -> float:
        """Inclusive time of spans named in ``names`` that have no ancestor
        in ``names``, weighted per pass (call after ``analyse``)."""
        ids = {i for i, nm in enumerate(self.names) if nm in names}
        total = 0.0
        for i in sorted(j for nid in ids for j in self._by_name.get(nid, ())):
            p = self.parent_of[i]
            nested = False
            while p >= 0:
                if self.name_of[p] in ids:
                    nested = True
                    break
                p = self.parent_of[p]
            if not nested:
                total += (self.end[i] - self.start[i]) * 1000.0 * weight[i]
        return total

    def dump(self, path) -> None:
        """Write the spans as one gzipped JSON object of parallel arrays."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(
                {
                    "names": self.names,
                    "layers": self.layer_of,
                    "name": list(self.name_of),
                    "parent": list(self.parent_of),
                    "phase": list(self.phase_of),
                    "start_us": [round((s - t0) * 1e6, 1) for s in self.start],
                    "end_us": [round((e - t0) * 1e6, 1) for e in self.end],
                },
                handle,
            )
