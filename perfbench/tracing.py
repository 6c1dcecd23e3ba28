"""Spans recorded from outside the program, around the calls into each layer.

A ``Tracer`` replaces a module attribute with a wrapper that records one span
per call: name, start, end, parent span and run id, plus a small ``info``
dict drawn from the arguments and result.  The attribute must be the name the
caller looks up at call time: ``solver`` does ``from .kernels import
decompose``, so the span goes on ``altismooth.solver.decompose``, not on
``altismooth.kernels.decompose``.

Spans stay in memory and are written once, by ``export``.  Tracing is
single-threaded: a span's parent is the innermost span open when it starts.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span record layout: [span_id, parent_id, name, start, end, run_id, info].
SPAN_ID, PARENT, NAME, START, END, RUN, INFO = range(7)


class TracingError(RuntimeError):
    """A wrapped name is missing, blind or was not restored."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), parent, name, 0.0, 0.0, self.run_id, None]
        self.spans.append(record)
        self._stack.append(record[SPAN_ID])
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, run_id=None):
        """A span around a block of the benchmark's own code."""
        if run_id is not None:
            self.run_id = run_id
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrapper(self, fn, name: str, info=None):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(record)
                record[INFO] = {"error": type(exc).__name__}
                raise
            self._close(record)
            if info is not None:
                record[INFO] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every (module, attribute, span name, info) target; restore on exit."""
        saved = []
        try:
            for module, attr, name, info in targets:
                original = getattr(module, attr, None)
                if not callable(original):
                    raise TracingError(f"{module.__name__}.{attr} is not a callable")
                saved.append((module, attr, original))
                setattr(module, attr, self.wrapper(original, name, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        for module, attr, original in saved:
            if getattr(module, attr) is not original:
                raise TracingError(f"{module.__name__}.{attr} was not restored")

    def export(self, path, meta: dict) -> None:
        """Write the metadata and every span, one JSON document per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap, because tracing is single-threaded.
    """
    duration = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return duration - child


def per_run_totals(spans: list[list]) -> dict:
    """{run_id: {name: {"s", "self_s", "calls"}}} summed over each run's spans."""
    own = self_times(spans)
    totals: dict = defaultdict(lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}))
    for s, self_s in zip(spans, own):
        entry = totals[s[RUN]][s[NAME]]
        entry["s"] += s[END] - s[START]
        entry["self_s"] += float(self_s)
        entry["calls"] += 1
    return totals
