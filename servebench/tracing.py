"""Spans recorded around the public calls, kept in memory, written at exit.

A span is ``(name, start_ns, end_ns, parent)``; ``parent`` is the index
of the span that caused it, ``-1`` for a root. Each traced request gets a
``request`` span (submit call to future resolution) with two children,
``submit`` (time inside ``submit()`` on the caller thread) and
``resolve`` (from ``submit()`` returning to the future resolving), under
the span of the phase that sent it. Set-up records ``setup`` spans with
``setup.compile``, ``setup.publish`` and ``setup.rest`` children.

Nothing here reaches into the program: the spans sit in the benchmark's
own files, and layer timings inside the program come from its existing
``Collector`` passed through the public ``collector=`` argument.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List

import numpy as np


class SpanLog:
    """Columnar in-memory span store (appends only; arrays at the end)."""

    def __init__(self):
        self._names: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Record one span; ``end`` 0 means still open. Returns its index."""
        nid = self._names.setdefault(name, len(self._names))
        self.name_id.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.name_id) - 1

    def open(self, name: str, parent: int = -1) -> int:
        """Start a span now; finish it with :meth:`close`."""
        return self.add(name, time.perf_counter_ns(), 0, parent)

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter_ns()

    def request(self, phase: int, t_call: int, t_return: int, future) -> None:
        """One request: ``submit`` now, ``resolve`` when the future is done."""
        root = self.add("request", t_call, 0, phase)
        self.add("submit", t_call, t_return, root)
        child = self.add("resolve", t_return, 0, root)
        end = self.end

        def resolved(_future) -> None:
            now = time.perf_counter_ns()
            end[root] = now
            end[child] = now

        future.add_done_callback(resolved)

    def durations_ns(self, name: str, phase: str = "") -> np.ndarray:
        """Durations of every finished span called ``name``.

        With ``phase``, only the spans of requests sent by a phase of that
        name (the span's parent's parent).
        """
        ids = np.asarray(self.name_id)
        mask = ids == self._names.get(name, -1)
        if phase:
            parent = np.asarray(self.parent)
            grand = np.where(parent >= 0, parent[parent], -1)
            mask &= (grand >= 0) & (
                ids[grand] == self._names.get(phase, -1)
            )
        start = np.asarray(self.start, dtype=np.int64)[mask]
        end = np.asarray(self.end, dtype=np.int64)[mask]
        done = end > 0
        return end[done] - start[done]

    def __len__(self) -> int:
        return len(self.name_id)

    def write(self, path: Path) -> None:
        """Write the spans as one ``.npz`` (columns plus the name table)."""
        names = sorted(self._names, key=self._names.get)
        np.savez(
            path,
            names=np.array(names),
            name_id=np.asarray(self.name_id, dtype=np.int16),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
        )
