"""Spans and operation counts around the benchmark's own calls into sorkin_lab.

Nothing inside the package is instrumented.  A span covers one call (or one
loop of identical calls) made by the benchmark; counts of numpy operations
made inside the package (``SeedSequence`` constructions, matrices passed to
``numpy.linalg.eigh``) are attributed to the innermost open span by wrapping
the numpy functions while a traced section runs.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

# Spans kept for the trace file; aggregates always cover every span.
MAX_STORED_SPANS = 50_000


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one call each."""

    _NULL = contextlib.nullcontext()

    def span(self, name, **work):
        return self._NULL


class _Span:
    __slots__ = ("tracer", "name", "work", "index", "start")

    def __init__(self, tracer, name, work):
        self.tracer = tracer
        self.name = name
        self.work = work

    def __enter__(self):
        tr = self.tracer
        self.index = tr._next_index
        tr._next_index += 1
        tr._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        key = (tr._root(), self.name)
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else None
        tr.busy[key] += end - self.start
        tr.span_counts[key] += 1
        for k, n in self.work.items():
            tr.work[key][k] += n
        if len(tr.spans) < MAX_STORED_SPANS:
            tr.spans.append(
                (self.name, self.start, end, None if parent is None else parent.index)
            )
        else:
            tr.dropped += 1
        return False


class Tracer:
    """Collects spans, per-span busy time and work and operation counts.

    Aggregates are keyed by (root, name): the root is the outermost span's
    name up to its first ``:`` (``pass`` for workload passes, ``probe`` for
    the per-call probe), so the same function can be timed in both places.
    """

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.busy = defaultdict(float)
        self.span_counts = Counter()
        self.work = defaultdict(Counter)
        self.ops = defaultdict(Counter)
        self._stack = []
        self._next_index = 0

    def span(self, name, **work):
        return _Span(self, name, work)

    def _root(self):
        return self._stack[0].name.split(":")[0]

    def _count(self, op, n):
        if self._stack:
            self.ops[(self._root(), self._stack[-1].name)][op] += n

    @contextlib.contextmanager
    def counting(self):
        """Count SeedSequence constructions and eigh'd matrices while open."""
        seed_sequence = np.random.SeedSequence
        eigh = np.linalg.eigh

        def counted_seed_sequence(*args, **kwargs):
            self._count("seed_streams", 1)
            return seed_sequence(*args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            shape = np.shape(a)
            self._count("eigh_matrices", math.prod(shape[:-2]))
            return eigh(a, *args, **kwargs)

        np.random.SeedSequence = counted_seed_sequence
        np.linalg.eigh = counted_eigh
        try:
            yield self
        finally:
            np.random.SeedSequence = seed_sequence
            np.linalg.eigh = eigh

    # -- aggregates -------------------------------------------------------

    def total(self, root, name, field="busy"):
        """Busy seconds, span count ("spans") or a work count of one name."""
        key = (root, name)
        if field == "busy":
            return self.busy.get(key, 0.0)
        if field == "spans":
            return self.span_counts.get(key, 0)
        return self.work[key][field] if key in self.work else 0

    def op_total(self, root, op):
        return sum(c[op] for (r, _), c in self.ops.items() if r == root)

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                    "dropped_spans": self.dropped,
                },
                f,
            )
            f.write("\n")
