"""In-memory span recorder for the benchmark's traced run.

The recorder wraps public powerdep functions at the module attribute
their callers resolve at call time (``pipeline.fit_ar_garch``, not only
``marginals.fit_ar_garch``), so every call on the measured path opens a
span.  A span is (name, start, end, parent index); spans nest strictly
because the traced run is serial.  Counters are updated from each
call's bound arguments and result, at the same boundary as its span.
"""

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps


class Recorder:
    """Spans and exact counters of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(counts, arguments, result)`` runs after each call with
        the call's arguments bound by name, defaults applied.
        """
        signature = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        return traced

    def total_times(self):
        """Summed span durations per name, children included."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self):
        """Summed self time per name: duration minus direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out


@contextmanager
def patched(recorder, layers):
    """Swap each ``(module, attribute, span name, count)`` for a traced wrapper.

    The original attributes are restored on exit, also after an error.
    """
    saved = []
    try:
        for module, attribute, name, count in layers:
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)
