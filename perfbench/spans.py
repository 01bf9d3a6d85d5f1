"""In-memory span recorder and call-site wrapping for the traced benchmark run.

A span is (name, start, end, parent). Spans are recorded around calls into the
package's public functions from outside the package: ``Tracer.wrap`` replaces a
module (or class) attribute with a timing wrapper, under the name its caller
looks it up by, and restores it afterwards. A name that no longer exists is
listed in ``Tracer.absent`` rather than skipped silently.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

NO_PARENT = -1


class SpanRecorder:
    """Keeps every span in memory; ``spans[i] = [name, start, end, parent]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else NO_PARENT
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        self.spans[index][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def self_times(self) -> list:
        """Per span: its duration minus the part of it covered by child spans."""
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent != NO_PARENT:
                children[parent].append((start, end))
        out = []
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children[index]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def totals(self) -> dict:
        """name -> {"calls", "total_s" (inclusive), "self_s"}."""
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            entry = agg[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
        return dict(agg)


class Tracer:
    """Installs span-recording wrappers and undoes them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.counters = defaultdict(int)
        self.absent = []
        self._undo = []

    def wrap(self, owner, attr: str, span_name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span ``span_name``.

        ``count(counters, args)`` runs before each call, to add work counts.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        recorder, counters = self.recorder, self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                count(counters, args)
            index = recorder.begin(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(index)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
