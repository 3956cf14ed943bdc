"""Spans and counters recorded around the library's public functions.

The library is not edited: ``Tracer.installed()`` replaces each traced
function, on every ``semiam`` module namespace that holds a reference to
it, by a wrapper that records a span (name, start, end, parent), and
restores the originals on exit.  Counters are read from return values at
the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (span name, module, attribute): a dotted attribute is a method.
TRACED = (
    ("cli.main", "semiam.cli", "main"),
    ("semilattice.check_table", "semiam.semilattice", "check_table"),
    ("semilattice.Semilattice", "semiam.semilattice", "Semilattice.__init__"),
    ("enumeration.canonical_table", "semiam.enumeration", "canonical_table"),
    ("enumeration.enumerate_by_extension", "semiam.enumeration", "enumerate_by_extension"),
    ("enumeration.gap_instances", "semiam.enumeration", "gap_instances"),
    ("diagonal.diagonal_recursive", "semiam.diagonal", "diagonal_recursive"),
    ("diagonal.verify_diagonal", "semiam.diagonal", "verify_diagonal"),
    ("diagonal.unit", "semiam.diagonal", "unit"),
    ("diagonal.DiagonalTensor.am", "semiam.diagonal", "DiagonalTensor.am"),
    ("moebius.mobius_table", "semiam.moebius", "mobius_table"),
    ("moebius.diagonal_via_mobius", "semiam.moebius", "diagonal_via_mobius"),
    ("clifford.build_clifford", "semiam.clifford", "build_clifford"),
    ("clifford.unit_solve", "semiam.clifford", "unit_solve"),
    ("clifford.diagonal_solve", "semiam.clifford", "diagonal_solve"),
    ("exactlinalg.add_row", "semiam.exactlinalg", "SparseEliminator.add_row"),
    ("exactlinalg.solve", "semiam.exactlinalg", "SparseEliminator.solve"),
)


def self_times(spans) -> dict:
    """Per span name: (total self time, call count).

    spans holds (name, start, end, parent) with parent the index of the
    enclosing span or None.  A span's self time is its duration minus the
    part of its interval that its child spans cover.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        busy, calls = totals.get(name, (0.0, 0))
        totals[name] = (busy + (end - start) - covered, calls + 1)
    return totals


class Tracer:
    """Spans and counters of one traced pass; ``reset()`` starts the next."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.mobius_tables = []
        self._stack = []

    def reset(self):
        # cleared in place: the installed wrappers hold these lists
        self.spans.clear()
        self.counters.clear()
        self.mobius_tables.clear()
        self._stack.clear()

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            self._observe(name, result)
            return result

        return traced

    def _observe(self, name: str, result):
        if name == "exactlinalg.add_row":
            self.count("exactlinalg.rows_" + result)
        elif name == "enumeration.gap_instances":
            self.count("enumeration.instances", len(result))
        elif name == "moebius.mobius_table":
            # counted after the pass, so the count costs no traced time
            self.mobius_tables.append(result)

    def finish_counters(self) -> dict:
        for table in self.mobius_tables:
            self.count("moebius.nonzeros", sum(1 for _, _, v in table.pairs() if v))
        self.mobius_tables.clear()
        return dict(self.counters)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        patched = []
        try:
            for name, module_name, attribute in TRACED:
                owner = sys.modules[module_name]
                if "." in attribute:
                    cls_name, method = attribute.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    patched.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original))
                    continue
                original = getattr(owner, attribute)
                wrapper = self._wrap(name, original)
                for module in _semiam_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)


def _semiam_modules():
    return [
        module for name, module in list(sys.modules.items())
        if name == "semiam" or name.startswith("semiam.")
    ]
