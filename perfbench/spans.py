"""Nested span accounting for the traced benchmark run.

A :class:`Tracer` keeps a stack of open spans.  When a span closes, its
duration is charged to its name as *total* time, the duration minus the time
its child spans covered is charged as *self* time, and the duration is added
to the parent's child time.  Self times therefore never count the same
interval twice, even when a layer calls itself (a default batch method that
loops over another batch method) or another layer, and they sum to the time
covered by the outermost spans.

Spans are aggregated per name as they close rather than stored one by one:
the flash workload opens millions of traffic spans, and the benchmark only
reports per-layer sums.

:class:`Patcher` installs the wrappers that open spans around a layer's
public functions and puts every original back on :meth:`Patcher.restore`,
so only the traced part of a run executes instrumented code.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregates nested spans into per-name self time, total time and calls."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: Open spans, innermost last: ``[name, start, child_time]``.
        self._stack: list[list] = []
        #: Open spans per name (O(1) "is this call nested in X?" checks).
        self.depth: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        #: Outermost entries per name: a span opened while another span of
        #: the same name is open is timed but not counted again.
        self.calls: Counter = Counter()
        #: Free-form counts recorded at layer boundaries.
        self.counts: Counter = Counter()

    def enter(self, name: str) -> None:
        if not self.depth[name]:
            self.calls[name] += 1
        self.depth[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.depth[name] -= 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def self_sum(self) -> float:
        """Sum of every span's self time (the time the outermost spans cover)."""
        return sum(self.self_s.values())


class Patcher:
    """Replaces attributes with span-opening wrappers and restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Open a span around ``owner.attr`` (a function or method).

        ``name`` is the span name, or a callable receiving the call's
        arguments and returning it (so one wrapper can label the calling
        instance's layer).  ``before(*args)`` runs before the span opens
        and may return ``False`` to call straight through without a span;
        ``after(result, *args)`` runs after the span closes.
        """
        original = owner.__dict__[attr]
        tracer = self.tracer
        label = name if callable(name) else (lambda *args, **kwargs: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None and before(*args, **kwargs) is False:
                return original(*args, **kwargs)
            tracer.enter(label(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._replace(owner, attr, wrapper)

    def wrap_iterator(self, owner, attr: str, name: str, on_item=None) -> None:
        """Open a span around ``owner.attr(...)`` and every ``next()`` of the
        iterator it returns, so lazy producers are charged where they run.

        ``on_item(item, nested)`` sees each produced item; ``nested`` is true
        when the ``next()`` ran inside another span of the same name (an
        inner stream pulled by an outer one).
        """
        original = owner.__dict__[attr]
        tracer = self.tracer

        def timed(iterator):
            while True:
                nested = tracer.depth[name] > 0
                tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                if on_item is not None:
                    on_item(item, nested)
                yield item

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                iterator = iter(original(*args, **kwargs))
            finally:
                tracer.exit()
            return timed(iterator)

        self._replace(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
