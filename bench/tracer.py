"""Span recording and call counting for the traced benchmark run.

Nothing in the package is edited: every traced function is rebound, from
here, in each ``gradedorders`` namespace that holds it (the defining module
and every module that did ``from .x import name``), and restored afterwards.
Functions that the package later removes or renames are skipped, and their
metrics read 0.

Spans live in memory as ``(name, start, end, parent, op)`` tuples, where
``parent`` is the index of the enclosing span (or None) and ``op`` the id of
the benchmark operation.  There is one thread and no queue anywhere in the
program, so a span has no waiting time to report.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

OP_SPAN = "bench.op"

# Layer-boundary functions, as (module, name).  Leaf arithmetic called per
# element (pmul, minplus, valuation, ...) is left unwrapped so that wrapper
# cost does not swamp the spans; the counting pass covers the hot methods.
TRACED = (
    ("tiled", "is_hereditary_local"),
    ("tiled", "validate_global_order"),
    ("groups", "_close"),
    ("groups", "sylow_subgroup"),
    ("groups", "orbits_and_stabilizers"),
    ("pic", "picent_global"),
    ("pic", "construct_class_representative"),
    ("graded", "graded_order"),
    ("graded", "validate_strong_grading"),
    ("graded", "construct_from_pic"),
    ("graded", "construct_crossed_product"),
    ("graded", "inner_classification"),
    ("graded", "prime_hereditary_verdict"),
    ("graded", "prime_hereditary_at_place"),
    ("semiprime", "main_hereditary_verdict"),
    ("semiprime", "orbit_decompose"),
    ("semiprime", "hereditary_at_place"),
    ("oracle", "oracle_report"),
    ("oracle", "flatten"),
    ("oracle", "radical_mod_m"),
    ("oracle", "hereditary_oracle"),
    ("gf", "rref"),
    ("gf", "rank"),
    ("gf", "nullspace"),
    ("gf", "charpoly"),
    ("cli", "main"),
    ("cli", "parse_graded"),
    ("cli", "parse_tiled_global"),
)

# Cached properties of the flattened algebra, forced under their own spans
# right after flatten so that their cost leaves the downstream spans.
FLATTEN_PROPERTIES = ("residue_products", "w_products")

# Hot methods and functions counted (not timed) in a separate pass.
COUNTED = (
    ("base_rings", "KElem", "__mul__", "base_rings.KElem.mul.calls"),
    ("groups", "FiniteGroup", "__contains__", "groups.contains.calls"),
    ("groups", "Subgroup", "__contains__", "groups.contains.calls"),
    ("groups", "GroupAction", "validate", "groups.GroupAction.validate.calls"),
    ("semiprime", None, "orbit_decompose", "semiprime.orbit_decompose.calls"),
)


def _module(name: str):
    return importlib.import_module(f"gradedorders.{name}")


def _rebind(orig, replacement) -> None:
    """Point every gradedorders namespace entry that is ``orig`` at
    ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gradedorders" or modname.startswith("gradedorders.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, replacement)


class Tracer:
    """Records nested spans around calls into the package."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.sums: Counter = Counter()  # exact counts read from results
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start):
        end = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op)

    def call(self, name, fn, *args, **kwargs):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, parent, name, start)

    def add_span(self, name, start, end, parent, op):
        """Append a span recorded elsewhere (a child process)."""
        self.spans.append((name, start, end, parent, op))

    def run_op(self, op_id, fn):
        self.op = op_id
        try:
            return self.call(OP_SPAN, fn)
        finally:
            self.op = None

    # -- instrumentation -------------------------------------------------

    def _wrap(self, span_name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(span_name, fn, *args, **kwargs)

        return traced

    def _wrap_flatten(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alg = tracer.call("oracle.flatten", fn, *args, **kwargs)
            tracer.sums["oracle.rank.sum"] += getattr(alg, "rank", 0)
            tracer.sums["oracle.nnz.sum"] += len(getattr(alg, "products", ()))
            for prop in FLATTEN_PROPERTIES:
                if hasattr(type(alg), prop):
                    tracer.call(f"oracle.{prop}", getattr, alg, prop)
            return alg

        return traced

    def _wrap_radical(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rad = tracer.call("oracle.radical_mod_m", fn, *args, **kwargs)
            tracer.sums["oracle.radical_dim.sum"] += len(rad)
            return rad

        return traced

    def install(self) -> None:
        """Rebind every traced function that exists in the package."""
        for modname, fname in TRACED:
            mod = _module(modname)
            orig = getattr(mod, fname, None)
            if orig is None:
                continue
            if (modname, fname) == ("oracle", "flatten"):
                wrapper = self._wrap_flatten(orig)
            elif (modname, fname) == ("oracle", "radical_mod_m"):
                wrapper = self._wrap_radical(orig)
            else:
                wrapper = self._wrap(f"{modname}.{fname}", orig)
            _rebind(orig, wrapper)
            self._undo.append((wrapper, orig))

    def uninstall(self) -> None:
        while self._undo:
            wrapper, orig = self._undo.pop()
            _rebind(wrapper, orig)


class CallCounter:
    """Counts calls of the hot methods in COUNTED; no timing."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._undo: list = []

    def _wrap(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for modname, clsname, attr, key in COUNTED:
            mod = _module(modname)
            if clsname is None:
                orig = getattr(mod, attr, None)
                if orig is not None:
                    wrapper = self._wrap(key, orig)
                    _rebind(orig, wrapper)
                    self._undo.append((None, attr, wrapper, orig))
                continue
            cls = getattr(mod, clsname, None)
            orig = cls.__dict__.get(attr) if cls is not None else None
            if orig is not None:
                setattr(cls, attr, self._wrap(key, orig))
                self._undo.append((cls, attr, None, orig))

    def uninstall(self) -> None:
        while self._undo:
            cls, attr, wrapper, orig = self._undo.pop()
            if cls is None:
                _rebind(wrapper, orig)
            else:
                setattr(cls, attr, orig)


# ---------------------------------------------------------------------------
# Aggregation


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds (outermost spans of that name only,
    so recursion is not counted twice), self seconds (duration minus the
    time its children cover) and the call count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        st = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child_time[idx]
        ancestor = parent
        nested = False
        while ancestor is not None:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            st["s"] += end - start
    return stats
