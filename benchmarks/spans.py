"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
package's public functions: either directly with ``Recorder.span`` or by
temporarily rebinding a module attribute with ``Recorder.patch`` so that
calls the package makes through that attribute are timed too. Each span
keeps its name, start, end and parent, so self time (duration minus the
time covered by child spans) can be computed afterwards. Spans stay in
memory; the benchmark writes them out once, when the run ends.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Spans as ``[name, start, end, parent_index]`` rows plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return timed

    @contextmanager
    def patch(self, targets: list[tuple[object, str, str]]):
        """Rebind each ``(owner, attribute, span name)`` to a timed wrapper, then restore."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its direct children cover."""
        own = defaultdict(float)
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def as_dict(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "self_s": self.self_times(),
        }
