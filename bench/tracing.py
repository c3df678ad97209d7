"""Per-layer spans and counts, recorded from outside the program.

``Tracer.installed()`` replaces public eqschub functions and methods with
wrappers for the duration of a ``with`` block.  Each wrapper records a
span (name, start, end, parent index) in memory; ``layer_metrics`` turns
the spans into per-layer call counts and self times once the block ends.
Nothing is written into ``src/``: the wrappers are installed by rebinding
names in the eqschub modules and classes, and the originals are put back
on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from functools import cached_property

import eqschub
from eqschub import cli, localize, rootsys, structconst, weyl

MODULES = (eqschub, rootsys, weyl, localize, structconst, cli)

# Spans that hold the tracer's own bookkeeping: they are children of the
# span that was open, so they come out of its self time, and no layer owns them.
OBSERVE = "bench.observe"


def _table_stats(counts: Counter, table) -> None:
    polys = table.values.values()
    counts["localize.table.entries"] += len(table.values)
    counts["localize.table.nonzeros"] += sum(1 for p in polys if p.terms)
    counts["localize.table.terms"] += sum(len(p.terms) for p in polys)


def _constants_stats(counts: Counter, s) -> None:
    coeffs = [c for p in s.values.values() for c in p.terms.values()]
    counts["structconst.constants.terms"] += len(coeffs)
    bits = max((abs(c).bit_length() for c in coeffs), default=0)
    counts["structconst.max_coeff_bits"] = max(counts["structconst.max_coeff_bits"], bits)


def _range_stats(counts: Counter, rng) -> None:
    counts["weyl.elements"] += len(rng)


# (span name, function, observer of its result).  A function is rebound in
# every eqschub module that holds it, so calls through ``from .x import f``
# names are traced too.
FUNCTIONS = (
    ("rootsys.build", rootsys.build_root_system, None),
    ("weyl.enumerate", weyl.enumerate_upto, _range_stats),
    ("weyl.bruhat_leq", weyl.bruhat_leq, None),
    ("weyl.element_from_word", weyl.element_from_word, None),
    ("weyl.longest", weyl.longest_element, None),
    ("localize.table", localize.restriction_table, _table_stats),
    ("structconst.solve", structconst.structure_constants, _constants_stats),
    ("structconst.certificate", structconst.positivity_certificate, None),
    ("structconst.opposite", structconst.opposite_constants, None),
    ("structconst.evaluate", structconst.billey_evaluate, None),
    ("cli.main", cli.main, None),
    ("cli.run_sweep", cli.run_sweep, None),
)

METHODS = (
    ("rootsys.mul", rootsys.RootPolynomial, "__mul__"),
    ("rootsys.divide", rootsys.RootPolynomial, "exact_divide_linear"),
    ("rootsys.apply_linear", rootsys.RootPolynomial, "apply_linear"),
    ("rootsys.evaluate", rootsys.RootPolynomial, "evaluate"),
)

# The Bruhat table is a cached property: only its first access computes.
PROPERTIES = (("weyl.leq", weyl.WeylRange, "leq"),)


class Tracer:
    """Spans and counts of one traced region, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                t0 = clock()
                observe(counts, result)
                spans.append((OBSERVE, t0, clock(), parent))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every name in FUNCTIONS, METHODS and PROPERTIES inside the block."""
        undo = []
        try:
            for name, fn, observe in FUNCTIONS:
                wrapper = self.wrap(name, fn, observe)
                for module in MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, fn))
            for name, cls, attr in METHODS:
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(name, original))
                undo.append((cls, attr, original))
            for name, cls, attr in PROPERTIES:
                original = cls.__dict__[attr]
                prop = cached_property(self.wrap(name, original.func))
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def span_totals(spans) -> tuple[Counter, dict, dict]:
    """Calls, self seconds and inclusive seconds per span name.

    Spans nest within one thread, so a span's children cover disjoint
    parts of it and its self time is its duration minus theirs.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered[idx]
        incl_s[name] += end - start
    return calls, self_s, incl_s


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics that come from spans and observed results."""
    calls, self_s, incl_s = span_totals(tracer.spans)

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    return {
        "rootsys.self.s": layer_self("rootsys"),
        "rootsys.build.s": self_s["rootsys.build"],
        "rootsys.mul.calls": calls["rootsys.mul"],
        "rootsys.mul.s": self_s["rootsys.mul"],
        "rootsys.divide.calls": calls["rootsys.divide"],
        "rootsys.divide.s": self_s["rootsys.divide"],
        "rootsys.apply_linear.s": self_s["rootsys.apply_linear"],
        "rootsys.evaluate.s": self_s["rootsys.evaluate"],
        "weyl.self.s": layer_self("weyl"),
        "weyl.enumerate.s": self_s["weyl.enumerate"],
        "weyl.elements": tracer.counts["weyl.elements"],
        "weyl.bruhat_leq.calls": calls["weyl.bruhat_leq"],
        "weyl.leq.s": incl_s["weyl.leq"],
        "weyl.element_from_word.calls": calls["weyl.element_from_word"],
        "localize.table.s": self_s["localize.table"],
        "localize.table.entries": tracer.counts["localize.table.entries"],
        "localize.table.nonzeros": tracer.counts["localize.table.nonzeros"],
        "localize.table.terms": tracer.counts["localize.table.terms"],
        "structconst.self.s": layer_self("structconst"),
        "structconst.solve.calls": calls["structconst.solve"],
        "structconst.solve.s": self_s["structconst.solve"],
        "structconst.certificate.calls": calls["structconst.certificate"],
        "structconst.certificate.s": self_s["structconst.certificate"],
        "structconst.opposite.s": self_s["structconst.opposite"],
        "structconst.constants.terms": tracer.counts["structconst.constants.terms"],
        "structconst.max_coeff_bits": tracer.counts["structconst.max_coeff_bits"],
        "cli.self.s": layer_self("cli"),
    }
