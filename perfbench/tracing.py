"""Stage timers for the benchmark.

``Timer`` is the untraced recorder: it only sums the duration of each named
stage.  ``ProbedTimer`` is the recorder of ``--trace 0`` runs, which give the
end-to-end metrics: it also samples the host's speed during the pass.
``Tracer`` records a span (name, layer, start, end, parent) for every stage
the benchmark enters, and wraps hot inner calls (kernel evaluation, survival
exponents) so that their time is charged to their own layer.  A layer's
self time is the time its spans cover minus the time of the spans nested
inside them.

All live entirely in the benchmark: the package is driven only through its
public functions, and the tracer sees it only at those boundaries.
"""

from __future__ import annotations

import signal
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from coagtree import Kernel


class Timer:
    """Per-stage totals, nothing else; used for the untraced passes."""

    traced = False

    def __init__(self):
        self.totals = defaultdict(float)  # stage name -> seconds
        self.counts = defaultdict(int)  # stage name -> entries
        self.values = defaultdict(float)  # result name -> accumulated value

    @contextmanager
    def span(self, name: str, layer: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.totals[name] += perf_counter() - t0
            self.counts[name] += 1

    def note(self, name: str, value: float) -> None:
        """Add ``value`` to a named result (events, atoms, bytes, ...)."""
        self.values[name] += value

    def note_max(self, name: str, value: float) -> None:
        self.values[name] = max(self.values[name], value)

    def kernel(self, kernel: Kernel) -> Kernel:
        return kernel

    def path(self, path):
        return path


class ProbedTimer(Timer):
    """A Timer that also samples the host's speed while the pass runs.

    Inside ``sampling()``, an interval timer interrupts the pass every
    ``every`` seconds of wall time, and the signal handler runs one round of
    a reference task (``probe``, which returns its own duration).  Python
    runs the handler between two bytecodes of the pass (after a long call
    into C returns), so the samples are spread over it whatever its call
    structure.  The pass's wall time
    less ``probe_wall`` is the time of the work alone.  Stage totals include
    the rounds run inside them, so only ``--trace 0`` uses this recorder.
    """

    def __init__(self, probe, every: float):
        super().__init__()
        self.probe = probe
        self.every = every
        self.probes = []  # seconds of each reference round
        self.probe_wall = 0.0  # wall time the handler took

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probes.append(self.probe())
        self.probe_wall += perf_counter() - t0

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every / 2, self.every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if not self.probes:  # a pass shorter than the first interval
                self._on_alarm(signal.SIGALRM, None)


class Tracer(Timer):
    """Spans with parents, per-layer self time, and counted hot calls."""

    traced = True

    def __init__(self):
        super().__init__()
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.pairs = 0  # kernel (x, y) pairs evaluated
        self._stack = []  # open frames: [seconds covered by children, span index]

    def _close(self, name: str, layer: str, frame: list, duration: float) -> None:
        self._stack.pop()
        self.self_s[layer] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        self.totals[name] += duration
        self.counts[name] += 1

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1][1] if self._stack else -1
        record = [name, layer, perf_counter(), None, parent]
        frame = [0.0, len(self.spans)]
        self.spans.append(record)
        self._stack.append(frame)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._close(name, layer, frame, record[3] - record[2])

    def hot(self, name: str, layer: str, fn):
        """Wrap a frequently called function.

        Calls are timed and charged to ``layer`` like spans, but are
        aggregated by name rather than stored one by one.
        """

        def wrapped(*args, **kwargs):
            parent = self._stack[-1][1] if self._stack else -1
            frame = [0.0, parent]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, layer, frame, perf_counter() - t0)

        return wrapped

    def kernel(self, kernel: Kernel) -> Kernel:
        """Counting copy of ``kernel``, built from its public fields."""
        inner = kernel.evaluate

        def evaluate(x, y):
            out = inner(x, y)
            self.pairs += out.size if hasattr(out, "size") else 1
            return out

        return Kernel(kernel.name, self.hot("kernels.evaluate", "kernels", evaluate),
                      kernel.phi, kernel.ktilde_bound)

    def path(self, path):
        """Count and time ``survival_exponent`` calls on a solved path."""
        path.survival_exponent = self.hot(
            "smoluchowski.survival_exponent", "smoluchowski", path.survival_exponent)
        return path

    def span_records(self) -> list:
        return [dict(zip(("name", "layer", "start", "end", "parent"), s))
                for s in self.spans]
