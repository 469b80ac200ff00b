"""The load drivers: one submitting thread, closed or open loop.

* :func:`closed_loop` measures capacity. It keeps ``window`` requests
  outstanding and waits on the oldest before submitting the next, so the
  pending pool never grows past ``window`` requests and the phase never
  sheds.
* :func:`open_loop` measures latency at a fixed Poisson rate. Each
  request is timed from its *due* instant, not from the moment the
  generator got round to submitting it, so a stalled generator shows up
  in the latency instead of hiding it; the lateness itself is reported.

Every response is checked byte-for-byte against the serial engine's
answer for the same input (:class:`Tally`), so a phase's request count
and its correctness are one ledger: sheds, errors, timeouts and
mismatches all count as misses against the requests attempted.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import BackpressureError
from repro.loadgen import poisson_offsets

#: How long a single response may take before it counts as a timeout.
RESPONSE_TIMEOUT_S = 30.0

_COUNTS = ("attempted", "ok", "sheds", "errors", "timeouts", "mismatches")


class Tally:
    """Requests attempted and how each one ended, against the reference."""

    def __init__(self, expected: Sequence[np.ndarray]):
        self._expected = [(e.shape, e.tobytes()) for e in expected]
        self.attempted = 0
        self.ok = 0
        self.sheds = 0
        self.errors = 0
        self.timeouts = 0
        self.mismatches = 0

    def refused(self, exc: BaseException) -> None:
        """``submit`` raised: a shed or an error, never a success."""
        self.attempted += 1
        if isinstance(exc, BackpressureError):
            self.sheds += 1
        else:
            self.errors += 1

    def settle(self, index: int, future,
               timeout: Optional[float] = RESPONSE_TIMEOUT_S) -> bool:
        """Wait for one response and compare it; ``True`` when it is right."""
        self.attempted += 1
        try:
            result = future.result(timeout=timeout)
        except FutureTimeout:
            self.timeouts += 1
            return False
        except BackpressureError:
            self.sheds += 1
            return False
        except Exception:  # noqa: BLE001 — any failed response is a miss
            self.errors += 1
            return False
        shape, want = self._expected[index]
        got = np.asarray(result)
        if got.shape != shape or got.tobytes() != want:
            self.mismatches += 1
            return False
        self.ok += 1
        return True

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def ok_frac(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0

    def counts(self) -> dict:
        return {name: getattr(self, name) for name in _COUNTS}


def _stamper(stamps: np.ndarray, k: int):
    def stamp(_future) -> None:
        stamps[k] = time.perf_counter_ns()
    return stamp


def cycle(inputs) -> Iterator[int]:
    """Input indices in order, round and round: one phase continues
    where the last one stopped, so a run uses the set evenly."""
    return itertools.cycle(range(len(inputs)))


def closed_loop(backend, inputs, tally: Tally, window: int, seconds: float,
                spans=None, order: Optional[Iterator[int]] = None) -> dict:
    """Capacity: requests completed right with ``window`` outstanding.

    Returns the completed count and the elapsed seconds; requests still
    outstanding at the end are checked but not counted. With ``spans``
    (a :class:`~servebench.tracing.SpanLog`) every request records a
    ``request`` span with ``submit`` and ``resolve`` children. ``order``
    (see :func:`cycle`) picks the inputs.
    """
    order = cycle(inputs) if order is None else order
    submit = backend.submit
    pending = deque()
    completed = 0
    sheds_before = tally.sheds
    phase = spans.open("phase.closed") if spans is not None else None
    start = time.perf_counter()
    end = start + seconds
    while True:
        while len(pending) < window:
            index = next(order)
            mode, x = inputs[index]
            t0 = time.perf_counter_ns()
            try:
                future = submit(x, mode=mode)
            except Exception as exc:  # noqa: BLE001 — tallied as a miss
                tally.refused(exc)
                continue
            if spans is not None:
                spans.request(phase, t0, time.perf_counter_ns(), future)
            pending.append((index, future))
        index, future = pending.popleft()
        completed += tally.settle(index, future)
        if time.perf_counter() >= end:
            break
    elapsed = time.perf_counter() - start
    while pending:
        tally.settle(*pending.popleft())
    if spans is not None:
        spans.close(phase)
    return {
        "samples": completed,
        "seconds": elapsed,
        "sheds": tally.sheds - sheds_before,
    }


def open_loop(backend, inputs, tally: Tally, rate: float, seconds: float,
              rng: np.random.Generator, name: str = "open",
              spans=None, order: Optional[Iterator[int]] = None) -> dict:
    """Latency at a fixed Poisson ``rate``, timed from each due instant.

    Returns per-request ``latency_ms`` (from the due instant to the
    future resolving) and ``late_ms`` (due instant to the submit call).
    A request that fails in any way (shed, error, timeout, mismatch) has
    an infinite latency, so it misses every percentile.
    """
    order = cycle(inputs) if order is None else order
    count = max(1, int(round(rate * seconds)))
    due = (poisson_offsets(count, rate, rng) * 1e9).astype(np.int64)
    finish = np.zeros(count, dtype=np.int64)
    late = np.zeros(count, dtype=np.int64)
    ok = np.zeros(count, dtype=bool)
    submit = backend.submit
    pending = deque()
    phase = spans.open(f"phase.{name}") if spans is not None else None
    # A short lead so the first due instant is in the future.
    due += time.perf_counter_ns() + 2_000_000
    for k in range(count):
        due_k = int(due[k])
        # Verify finished responses while there is time to spare; this
        # is where the generator frees each response it has checked.
        while pending and pending[0][2].done() \
                and due_k - time.perf_counter_ns() > 50_000:
            j, index, future = pending.popleft()
            ok[j] = tally.settle(index, future)
        wait = due_k - time.perf_counter_ns()
        if wait > 0:
            time.sleep(wait / 1e9)
        t0 = time.perf_counter_ns()
        late[k] = t0 - due_k
        index = next(order)
        mode, x = inputs[index]
        try:
            future = submit(x, mode=mode)
        except Exception as exc:  # noqa: BLE001 — tallied as a miss
            tally.refused(exc)
            continue
        future.add_done_callback(_stamper(finish, k))
        if spans is not None:
            spans.request(phase, t0, time.perf_counter_ns(), future)
        pending.append((k, index, future))
    while pending:
        j, index, future = pending.popleft()
        ok[j] = tally.settle(index, future)
    # A future's done-callbacks run just after its waiters wake; give the
    # last finish stamps a moment to land.
    deadline = time.monotonic() + 1.0
    while np.any(ok & (finish == 0)) and time.monotonic() < deadline:
        time.sleep(0.001)
    if spans is not None:
        spans.close(phase)
    return {
        "latency_ms": np.where(ok, (finish - due) / 1e6, np.inf),
        "late_ms": late / 1e6,
    }


def percentile(values, q: float) -> float:
    """A percentile without interpolation (so a miss at +inf stays put)."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q, method="inverted_cdf"))
