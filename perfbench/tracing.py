"""Layer spans recorded from outside the package.

The traced run replaces layer entry points (module attributes of
``persymdet``) with wrappers that time each call. Callers look these names
up through their module at call time, so the wrappers see every call the
workload makes. A span's self time is its duration minus the time of the
spans it encloses on the same thread.

Installing a wrapper on a name that no longer exists raises
:class:`TraceError`, and so does a run in which an installed span never
fired: a renamed or bypassed entry point must not drop a layer silently.
"""

import threading
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter

# Time spent reading generator state for the word count. It is recorded as
# a child span so that it is kept out of the self time of the draw layer.
OVERHEAD = "trace.overhead"


class TraceError(RuntimeError):
    """A layer entry point is missing, or its span recorded nothing."""


class Recording:
    """Spans and counters of one library call."""

    def __init__(self):
        self.durations = defaultdict(lambda: array("d"))
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)

    def total(self, name: str) -> float:
        return sum(self.durations[name])

    def calls(self, name: str) -> int:
        return len(self.durations[name])


class Tracer:
    """Installs span wrappers and collects them into the current recording."""

    def __init__(self):
        self.recording = Recording()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed = []  # (module, attribute, original)
        self.expected = set()

    def start(self) -> Recording:
        """Begin a fresh recording; returns it."""
        self.recording = Recording()
        return self.recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack()
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += d
            rec = self.recording
            with self._lock:
                rec.durations[name].append(d)
                rec.self_time[name] += d - child

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.recording.counters[name] += amount

    def _replace(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            raise TraceError(
                f"layer entry point {module.__name__}.{attr} is missing; "
                "update the benchmark's span table"
            )
        setattr(module, attr, wraps(original)(make_wrapper(original)))
        self._installed.append((module, attr, original))

    def wrap(self, module, attr: str, name) -> None:
        """Time every call of ``module.attr`` as span ``name``.

        ``name`` may be a callable of the call's positional arguments, for
        entry points that serve several layers (one span per statistic).
        """
        if callable(name):
            def make(original):
                return lambda *a, **kw: self.span(name(*a), original, *a, **kw)
        else:
            self.expected.add(name)

            def make(original):
                return lambda *a, **kw: self.span(name, original, *a, **kw)

        self._replace(module, attr, make)

    def wrap_rekeyer(self, module, attr: str, name: str) -> None:
        """Time the rekey callables made by ``module.attr`` and count words.

        The 64-bit words a trial drew are read from the Philox state when
        the generator is rekeyed for the next trial, and for the last trial
        when :meth:`flush_words` is called at the end of the draw.
        """
        self.expected.add(name)

        def make(original):
            def factory(*a, **kw):
                rekey = original(*a, **kw)
                pending = []

                def flush():
                    if pending:
                        self.span(OVERHEAD, self._count_words, pending.pop())

                def traced(*ra, **rkw):
                    flush()
                    gen = self.span(name, rekey, *ra, **rkw)
                    pending.append(gen)
                    return gen

                self._local.flush = flush
                return traced

            return factory

        self._replace(module, attr, make)

    def flush_words(self) -> None:
        flush = getattr(self._local, "flush", None)
        if flush is not None:
            flush()
            self._local.flush = None

    def _count_words(self, gen) -> None:
        state = gen.bit_generator.state
        counter = 0
        for i, word in enumerate(state["state"]["counter"]):
            counter |= int(word) << (64 * i)
        # each counter step fills a 4-word buffer; buffer_pos words of the
        # last block have been handed out
        words = 0 if counter == 0 else 4 * (counter - 1) + int(state["buffer_pos"])
        self.count("streams.words", words)
        self.count("streams.trials", 1)

    def wrap_then_flush(self, module, attr: str, name: str) -> None:
        """Like :meth:`wrap`, then flush the word count inside the span."""
        self.expected.add(name)

        def make(original):
            def body(*a, **kw):
                out = original(*a, **kw)
                self.flush_words()
                return out

            return lambda *a, **kw: self.span(name, body, *a, **kw)

        self._replace(module, attr, make)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def check_fired(self, recordings, extra=()) -> None:
        """Raise unless every installed span fired in ``recordings``."""
        seen = set()
        for rec in recordings:
            seen.update(n for n, d in rec.durations.items() if len(d))
        missing = sorted((self.expected | set(extra)) - seen)
        if missing:
            raise TraceError(
                f"spans {missing} recorded nothing: their entry points are no "
                "longer on the workload's path; update the benchmark's span table"
            )
