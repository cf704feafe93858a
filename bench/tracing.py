"""In-memory span tracing for the benchmark's traced runs.

:class:`Tracer` replaces the module attributes that callers look up (for
example ``cswa.protocol.sgd_step``, which ``participant_step`` calls) with
timing wrappers, and restores them on :meth:`Tracer.uninstall`. Each call
records a span: id, name, start, end, parent span id and optional counts.
Parents are tracked per thread, so the sweep's worker threads nest
correctly. The package itself is not modified.

:class:`LayerStats` folds spans into per-name call counts, total time and
self time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One attribute to wrap. ``name`` is the span name, or a function of
    the call's positional arguments that returns it. ``note`` turns a call's
    arguments and result into counts stored on the span."""

    owner: object
    attr: str
    name: str | Callable
    note: Callable | None = None


@dataclass(frozen=True)
class CountInside:
    """Count calls of ``owner.attr`` made while a span named ``span`` is
    open in the same thread; the count is stored on that span as ``key``."""

    owner: object
    attr: str
    span: str
    key: str


class Tracer:
    def __init__(self, targets: list[Target], counters: list[CountInside]):
        self._targets = targets
        self._counters = counters
        self._saved: list[tuple[object, str, object]] = []
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, target: Target):
        spans, ids, stack_of = self._spans, self._ids, self._stack
        name_of, note = target.name, target.note

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(args)
            stack = stack_of()
            parent = stack[-1][0] if stack else None
            frame = [next(ids), name, {}]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((frame[0], name, start, end, parent, frame[2]))
            if note is not None:
                frame[2].update(note(args, result))
            return result

        return traced

    def _count(self, fn, counter: CountInside):
        stack_of, span, key = self._stack, counter.span, counter.key

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for frame in reversed(stack_of()):
                if frame[1] == span:
                    frame[2][key] = frame[2].get(key, 0) + 1
                    break
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in self._targets:
            original = getattr(target.owner, target.attr)
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))
        for counter in self._counters:
            original = getattr(counter.owner, counter.attr)
            self._saved.append((counter.owner, counter.attr, original))
            setattr(counter.owner, counter.attr, self._count(original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def collect(self) -> list[tuple]:
        """Return the spans recorded since the last collect and forget them."""
        spans = list(self._spans)
        self._spans.clear()
        return spans


class LayerStats:
    """Per-span-name totals over any number of collected span lists."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.notes: Counter = Counter()   # keyed "<span name>.<count name>"

    def add(self, spans: list[tuple]) -> None:
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        for span_id, name, start, end, _, notes in spans:
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered[span_id]
            for key, value in notes.items():
                self.notes[f"{name}.{key}"] += value

    def mean_s(self, name: str) -> float:
        """Mean wall time per call, 0.0 when the layer was never called."""
        return self.total_s[name] / self.calls[name] if self.calls[name] else 0.0

    def mean_self_s(self, name: str) -> float:
        return self.self_s[name] / self.calls[name] if self.calls[name] else 0.0

    def per_call(self, name: str, key: str) -> float:
        calls = self.calls[name]
        return self.notes[f"{name}.{key}"] / calls if calls else 0.0
