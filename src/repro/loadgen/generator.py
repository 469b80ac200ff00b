"""Open- and closed-loop load generation against a serving backend.

Two driving disciplines, because they answer different questions:

* **Closed loop** (:meth:`LoadGenerator.run_closed`) — K client threads,
  each submitting its next request only after the previous one
  resolved. Outstanding work is capped at K, so the generator never
  outruns the server; what you measure is *capacity*: the req/s the
  backend sustains at a fixed concurrency. This is the discipline the
  scaling benchmark uses — its throughput numbers are comparable across
  worker counts because the offered concurrency is identical.
* **Open loop** (:meth:`LoadGenerator.run_open`) — requests fire at
  externally scheduled instants (an arrival process from
  :mod:`repro.loadgen.arrivals`) whether or not earlier ones finished,
  like real users who do not politely wait for each other. Queues can
  grow, admission control can shed; what you measure is *behaviour
  under offered load*: tail latency and shed rate at a target rate.
  Closed-loop harnesses systematically hide this (coordinated
  omission); the open loop is why this module exists.

Both return a :class:`LoadReport` with client-side latencies, shed/error
counts, and optional bit-identity verification of every response against
a reference engine. A closed-loop latency runs from the submit call to
the future's resolution; an open-loop latency runs from the request's
*due* instant, so a generator that falls behind its schedule (a stalled
submit, a descheduled thread) shows up in the latency instead of
silently pushing later arrivals back. The open loop also reports that
lateness itself (``LoadReport.late_ns``).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BackpressureError
from repro.loadgen.workload import expected_responses


@dataclass
class LoadReport:
    """What one generator run offered, completed, and measured."""

    kind: str
    offered: int
    completed: int
    sheds: int
    errors: int
    duration_s: float
    #: Client-side latency of each completed request, nanoseconds.
    latencies_ns: np.ndarray = field(repr=False)
    #: Response mismatches vs the reference engine; ``None`` when the
    #: run was not verified.
    mismatches: Optional[int] = None
    #: Open loop: how far behind its due instant each request was
    #: actually submitted, nanoseconds (``None`` for the closed loop).
    late_ns: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def req_per_s(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        if self.latencies_ns.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies_ns, q)) / 1e6

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99)

    @property
    def late_p99_ms(self) -> float:
        """The generator's own p99 lateness (open loop; NaN otherwise)."""
        if self.late_ns is None or self.late_ns.size == 0:
            return float("nan")
        return float(np.percentile(self.late_ns, 99)) / 1e6

    @property
    def ok(self) -> bool:
        """No errors and (when verified) no mismatches."""
        return self.errors == 0 and not self.mismatches

    def summary(self) -> str:
        verified = (
            f", {self.mismatches} mismatches" if self.mismatches is not None
            else ""
        )
        if self.late_ns is not None:
            verified += f", generator late p99 {self.late_p99_ms:.2f} ms"
        return (
            f"{self.kind}-loop: {self.completed}/{self.offered} done in "
            f"{self.duration_s * 1e3:.1f} ms ({self.req_per_s:,.0f} req/s), "
            f"p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms, "
            f"{self.sheds} shed, {self.errors} errors{verified}"
        )


class _Outcome:
    """Per-request slots the client threads and done-callbacks fill."""

    __slots__ = ("submit_ns", "finish_ns", "result", "error", "late_ns")

    def __init__(self):
        #: Latency origin: the submit call (closed) or due instant (open).
        self.submit_ns = 0
        self.late_ns = 0
        self.finish_ns = 0
        self.result = None
        self.error: Optional[BaseException] = None


class LoadGenerator:
    """Drive a serving backend with a prepared request list.

    ``backend`` is anything with the serving contract
    (``submit(x, mode=...) -> Future``): an
    :class:`~repro.serve.server.InferenceServer`, a
    :class:`~repro.serve.pool.WorkerPool`, or a test double. With
    ``verify_engine`` every completed response is compared byte-for-byte
    against a direct engine call and the report carries the mismatch
    count — the load harness doubles as a correctness oracle.
    """

    def __init__(self, backend, *, verify_engine=None):
        self.backend = backend
        self.verify_engine = verify_engine

    # ------------------------------------------------------------------
    def run_closed(self, requests: Sequence[Tuple[str, np.ndarray]],
                   concurrency: int = 4,
                   timeout_s: float = 120.0) -> LoadReport:
        """K threads, each at most one request outstanding."""
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        outcomes = [_Outcome() for _ in requests]
        deadline = time.monotonic() + timeout_s

        def client(shard: List[int]) -> None:
            for index in shard:
                mode, x = requests[index]
                outcome = outcomes[index]
                outcome.submit_ns = time.perf_counter_ns()
                try:
                    future = self.backend.submit(x, mode=mode)
                    outcome.result = future.result(
                        timeout=max(deadline - time.monotonic(), 0.001)
                    )
                except BaseException as exc:  # noqa: BLE001 — tallied
                    outcome.error = exc
                outcome.finish_ns = time.perf_counter_ns()

        shards = [
            list(range(i, len(requests), concurrency))
            for i in range(concurrency)
        ]
        start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(shard,), daemon=True)
            for shard in shards if shard
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        duration = time.perf_counter() - start
        return self._report("closed", requests, outcomes, duration)

    # ------------------------------------------------------------------
    def run_open(self, requests: Sequence[Tuple[str, np.ndarray]],
                 offsets_s: np.ndarray,
                 timeout_s: float = 120.0) -> LoadReport:
        """Fire request *i* at ``offsets_s[i]``; never wait in between.

        Latency is timed from each request's due instant, not from the
        moment the generator got round to submitting it.
        """
        if len(offsets_s) != len(requests):
            raise ValueError("one offset per request")
        outcomes = [_Outcome() for _ in requests]
        inflight: List[Future] = []
        done = threading.Event()
        # [outstanding futures, all fired yet?] — the drain event only
        # arms once the pacing loop has fired everything, so an early
        # quiet moment cannot end the run prematurely.
        remaining = [0, False]
        lock = threading.Lock()

        start_ns = time.perf_counter_ns()
        for index, ((mode, x), offset) in enumerate(
            zip(requests, np.asarray(offsets_s, dtype=np.float64))
        ):
            due_ns = start_ns + int(float(offset) * 1e9)
            delay = (due_ns - time.perf_counter_ns()) / 1e9
            if delay > 0:
                time.sleep(delay)
            outcome = outcomes[index]
            outcome.submit_ns = due_ns
            outcome.late_ns = max(time.perf_counter_ns() - due_ns, 0)
            try:
                future = self.backend.submit(x, mode=mode)
            except BaseException as exc:  # noqa: BLE001 — tallied
                outcome.error = exc
                outcome.finish_ns = time.perf_counter_ns()
                continue

            with lock:
                remaining[0] += 1
            inflight.append(future)

            def resolved(fut: Future, outcome=outcome) -> None:
                outcome.finish_ns = time.perf_counter_ns()
                try:
                    outcome.result = fut.result()
                except BaseException as exc:  # noqa: BLE001 — tallied
                    outcome.error = exc
                with lock:
                    remaining[0] -= 1
                    if remaining[0] == 0 and remaining[1]:
                        done.set()

            future.add_done_callback(resolved)

        with lock:
            remaining[1] = True
            drained = remaining[0] == 0
        elapsed_s = (time.perf_counter_ns() - start_ns) / 1e9
        if not drained and not done.wait(
            timeout=max(timeout_s - elapsed_s, 0.001)
        ):
            for outcome in outcomes:
                if outcome.finish_ns == 0:
                    outcome.error = TimeoutError("open-loop drain timeout")
                    outcome.finish_ns = time.perf_counter_ns()
        duration = (time.perf_counter_ns() - start_ns) / 1e9
        report = self._report("open", requests, outcomes, duration)
        report.late_ns = np.array(
            [o.late_ns for o in outcomes], dtype=np.int64
        )
        return report

    # ------------------------------------------------------------------
    def _report(self, kind: str, requests, outcomes,
                duration: float) -> LoadReport:
        sheds = sum(
            isinstance(o.error, BackpressureError) for o in outcomes
        )
        errors = sum(
            o.error is not None
            and not isinstance(o.error, BackpressureError)
            for o in outcomes
        )
        completed = [o for o in outcomes if o.error is None]
        latencies = np.array(
            [o.finish_ns - o.submit_ns for o in completed], dtype=np.int64
        )
        mismatches = None
        if self.verify_engine is not None:
            mismatches = 0
            kept = [
                (request, outcome)
                for request, outcome in zip(requests, outcomes)
                if outcome.error is None
            ]
            expected = expected_responses(
                self.verify_engine, [request for request, _ in kept]
            )
            for (_, outcome), want in zip(kept, expected):
                if not np.array_equal(np.asarray(outcome.result), want):
                    mismatches += 1
        return LoadReport(
            kind=kind, offered=len(requests), completed=len(completed),
            sheds=sheds, errors=errors, duration_s=duration,
            latencies_ns=latencies, mismatches=mismatches,
        )
