"""The zero-copy ring transport: framing, backpressure, torn frames.

Three layers of coverage:

* :class:`repro.serve.store.SlotRing` as a data structure — frame
  roundtrips, wraparound generations, torn-frame refusal (property
  tests), answers written in place under the next generation;
* the pool's transport behaviour — full-ring backpressure, retries and
  hedges that never wait on a ring they must drain themselves, FxArray
  slot-reuse safety, crash forensics after a SIGKILL with frames in
  flight;
* bit identity — mixed-mode streams, requests beyond the coalescing
  ceiling and payloads at the slot-size bound (canary included) must
  produce the serial engine's raw bytes at 8/12/16 bits.
"""

import functools
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BatchEngine
from repro.errors import (
    ResponseVerificationError,
    ServeError,
    TornFrameError,
    WorkerCrashError,
)
from repro.faults.models import FaultModel, FaultSpec
from repro.faults.plan import IO_OUT, FaultPlan
from repro.fixedpoint import FxArray
from repro.serve import (
    ResponsePolicy,
    RingManifest,
    RingSlotState,
    SlotRing,
    WorkerPool,
)
from repro.serve import pool as pool_module
from repro.telemetry import Collector

MODES = ("sigmoid", "tanh", "exp", "softmax")


def _mixed_requests(count, fmt, seed=0):
    """A reproducible mixed-mode stream scaled to ``fmt``'s range."""
    rng = np.random.default_rng(seed)
    lo = fmt.min_value / 2
    hi = fmt.max_value / 2
    out = []
    for _ in range(count):
        mode = MODES[int(rng.integers(len(MODES)))]
        if mode == "softmax":
            x = rng.uniform(lo, hi, size=(int(rng.integers(2, 7)),))
        elif mode == "exp":
            x = rng.uniform(lo, 0, size=(int(rng.integers(1, 9)),))
        else:
            x = rng.uniform(lo, hi, size=(int(rng.integers(1, 9)),))
        out.append((mode, x))
    return out


def _wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


# ----------------------------------------------------------------------
# SlotRing as a data structure
# ----------------------------------------------------------------------
class TestSlotRing:
    def test_frame_roundtrip(self):
        ring = SlotRing.create("req", slots=2, slot_elements=16)
        try:
            payload = np.arange(10, dtype=np.int64) - 5
            ring.write_frame(0, seq=7, payload=payload)
            back = ring.read_frame(0, seq=7, shape=(10,))
            assert np.array_equal(back, payload)
            assert not back.flags.writeable
        finally:
            ring.unlink()

    def test_attach_sees_owner_frames(self):
        ring = SlotRing.create("req", slots=1, slot_elements=8)
        attached = None
        try:
            attached = SlotRing.attach(ring.name, "req", 1, 8)
            payload = np.array([1, -2, 3], dtype=np.int64)
            ring.write_frame(0, seq=3, payload=payload)
            assert np.array_equal(
                attached.read_frame(0, seq=3, shape=(3,)), payload
            )
        finally:
            if attached is not None:
                attached.close()
            ring.unlink()

    def test_two_dimensional_shapes(self):
        ring = SlotRing.create("req", slots=1, slot_elements=32)
        try:
            rows = np.arange(12, dtype=np.int64).reshape(3, 4)
            ring.write_frame(0, seq=1, payload=rows)
            assert np.array_equal(
                ring.read_frame(0, seq=1, shape=(3, 4)), rows
            )
        finally:
            ring.unlink()

    def test_uncommitted_frame_reads_torn(self):
        ring = SlotRing.create("resp", slots=1, slot_elements=8)
        try:
            frame = ring.open_frame(0, seq=1, elements=4)
            frame[:] = 11  # writer dies here: no commit
            with pytest.raises(TornFrameError):
                ring.read_frame(0, seq=1, shape=(4,))
            state = ring.slot_state(0)
            assert state.torn
            assert "TORN" in str(state)
        finally:
            ring.unlink()

    def test_seq_and_size_mismatches_are_refused(self):
        ring = SlotRing.create("req", slots=1, slot_elements=8)
        try:
            ring.write_frame(0, seq=5, payload=np.ones(4, dtype=np.int64))
            with pytest.raises(TornFrameError):
                ring.read_frame(0, seq=6, shape=(4,))   # stale seq
            with pytest.raises(TornFrameError):
                ring.read_frame(0, seq=5, shape=(3,))   # wrong size
        finally:
            ring.unlink()

    def test_oversize_frame_is_refused(self):
        ring = SlotRing.create("req", slots=1, slot_elements=4)
        try:
            with pytest.raises(ServeError):
                ring.open_frame(0, seq=1, elements=5)
        finally:
            ring.unlink()

    def test_closed_ring_is_refused(self):
        ring = SlotRing.create("req", slots=1, slot_elements=4)
        ring.unlink()
        with pytest.raises(ServeError):
            ring.open_frame(0, seq=1, elements=1)
        with pytest.raises(ServeError):
            ring.read_frame(0, seq=1, shape=(1,))

    def test_invalid_geometry_is_refused(self):
        with pytest.raises(ServeError):
            SlotRing.create("req", slots=0, slot_elements=4)
        with pytest.raises(ServeError):
            SlotRing.create("req", slots=1, slot_elements=0)

    def test_wraparound_generations(self):
        # Many frames through few slots: every reuse bumps the
        # generation, every committed frame reads back exactly.
        ring = SlotRing.create("req", slots=2, slot_elements=8)
        try:
            for seq in range(20):
                slot = seq % 2
                payload = np.full(3 + seq % 5, seq, dtype=np.int64)
                ring.write_frame(slot, seq=seq, payload=payload)
                assert np.array_equal(
                    ring.read_frame(slot, seq=seq, shape=payload.shape),
                    payload,
                )
            # 10 writes per slot → generation 10, fully committed.
            for slot in range(2):
                state = ring.slot_state(slot)
                assert state.generation == state.commit == 10
                assert not state.torn
        finally:
            ring.unlink()

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 24), min_size=1, max_size=32),
        slots=st.integers(2, 5),
        data=st.data(),
    )
    def test_roundtrip_property(self, sizes, slots, data):
        # Arbitrary frame sizes through arbitrary slot choices: a
        # committed frame always reads back bit-exactly, whatever was in
        # the slot before.
        ring = SlotRing.create("req", slots=slots, slot_elements=24)
        try:
            for seq, size in enumerate(sizes):
                slot = data.draw(
                    st.integers(0, slots - 1), label=f"slot[{seq}]"
                )
                payload = np.asarray(
                    data.draw(
                        st.lists(
                            st.integers(-(2 ** 62), 2 ** 62),
                            min_size=size, max_size=size,
                        ),
                        label=f"payload[{seq}]",
                    ),
                    dtype=np.int64,
                )
                ring.write_frame(slot, seq=seq, payload=payload)
                assert np.array_equal(
                    ring.read_frame(slot, seq=seq, shape=(size,)), payload
                )
        finally:
            ring.unlink()

    def test_slot_state_is_a_plain_snapshot(self):
        ring = SlotRing.create("resp", slots=1, slot_elements=4)
        try:
            ring.write_frame(0, seq=9, payload=np.ones(2, dtype=np.int64))
            state = ring.slot_state(0)
        finally:
            ring.unlink()
        # Outlives the ring: plain ints, safely embeddable in an error.
        assert state == RingSlotState(
            ring="resp", slot=0, generation=1, commit=1, seq=9, elements=2
        )

    def test_answer_in_place_needs_the_next_generation(self):
        # The pool's worker answers over the request in the same slot:
        # the reader pins the answer's generation, so the untouched
        # request frame (same seq, same size) never passes for it.
        ring = SlotRing.create("ring", slots=1, slot_elements=8)
        try:
            request = np.arange(4, dtype=np.int64)
            frame = ring.open_frame(0, seq=3, elements=4)
            frame[:] = request
            answer_gen = ring.commit_frame(0) + 1
            with pytest.raises(TornFrameError):
                ring.read_frame(0, seq=3, shape=(4,), generation=answer_gen)
            ring.write_frame(0, seq=3, payload=request * 10)
            assert np.array_equal(
                ring.read_frame(0, seq=3, shape=(4,), generation=answer_gen),
                request * 10,
            )
        finally:
            ring.unlink()


# ----------------------------------------------------------------------
# The pool's ring transport
# ----------------------------------------------------------------------
def _within(seconds):
    """Fail the test, instead of hanging the suite, past ``seconds``."""
    def wrap(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            outcome = {}

            def body():
                try:
                    test(*args, **kwargs)
                except BaseException as exc:  # noqa: BLE001 — re-raised
                    outcome["exc"] = exc

            thread = threading.Thread(target=body, daemon=True)
            thread.start()
            thread.join(seconds)
            if thread.is_alive():
                pytest.fail(f"{test.__name__} hung for more than {seconds}s")
            if "exc" in outcome:
                raise outcome["exc"]
        return run
    return wrap


def _counters(collector):
    return collector.snapshot()["counters"]


class TestRingTransport:
    def test_unknown_transport_is_refused(self):
        # There is one transport: every knob that chose or shaped
        # another is gone from the constructor.
        for knob, value in (("transport", "carrier-pigeon"),
                            ("transport", "pipe"), ("ring_slots", 2),
                            ("ring_slot_elements", 8)):
            with pytest.raises(TypeError):
                WorkerPool(n_bits=12, workers=1, **{knob: value})

    def test_repr_names_the_transport(self):
        with WorkerPool(n_bits=12, workers=1) as pool:
            assert "ring transport" in repr(pool)

    def test_one_ring_per_worker_sized_for_every_admissible_batch(self):
        with WorkerPool(n_bits=12, workers=2, max_pending_elements=512) as pool:
            rings = [handle.ring for handle in pool._handles]
            assert len({ring.name for ring in rings}) == 2
            for ring in rings:
                assert ring.slots == pool_module.RING_SLOTS
                assert ring.slot_elements == 512
        assert set(RingManifest.__dataclass_fields__) == {
            "name", "slots", "slot_elements",
        }

    @_within(120)
    def test_full_ring_waits_for_a_free_slot(self, monkeypatch):
        # One slot, worker stopped under load: the first batch holds the
        # slot, the dispatcher must wait for it (counted) — nothing shed,
        # failed or diverted — and every answer is bit-exact once the
        # worker resumes.
        monkeypatch.setattr(pool_module, "RING_SLOTS", 1)
        reference = BatchEngine.for_bits(12, fast=True)
        collector = Collector()
        pool = WorkerPool(
            n_bits=12, workers=1, collector=collector, max_delay_us=50.0,
        )
        try:
            pool.submit(0.5).result(timeout=30)  # worker is warm
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            try:
                inputs = {
                    mode: np.linspace(-2, 0 if mode == "exp" else 2, 9)
                    for mode in MODES
                }
                futures = {
                    mode: pool.submit(x, mode=mode)
                    for mode, x in inputs.items()
                }
                _wait_for(
                    lambda: _counters(collector).get(
                        "serve.pool.ring_waits", 0) >= 1,
                    what="the dispatcher to wait on the full ring",
                )
                assert not any(f.done() for f in futures.values())
            finally:
                os.kill(pid, signal.SIGCONT)
            for mode, future in futures.items():
                got = future.result(timeout=30)
                want = getattr(reference, mode)(inputs[mode])
                assert np.array_equal(np.asarray(got), np.asarray(want)), mode
        finally:
            pool.close()
        counters = _counters(collector)
        assert counters["serve.pool.ring_waits"] >= 1
        assert counters["serve.requests"] == 5
        assert counters["serve.pool.dispatched"] == 5
        assert counters["serve.pool.ring_dispatched"] == 5
        assert "serve.shed" not in counters

    def test_batches_beyond_max_batch_ride_the_ring(self):
        # Requests larger than the coalescing ceiling fit the slot too:
        # every dispatched batch rides the ring.
        reference = BatchEngine.for_bits(12, fast=True)
        collector = Collector()
        xs = [np.linspace(-4, 4, n) for n in (64, 300, 1000)]
        with WorkerPool(
            n_bits=12, workers=1, collector=collector,
            max_batch_elements=8, max_pending_elements=1024,
        ) as pool:
            for x in xs:
                got = pool.submit(x, mode="sigmoid").result(timeout=30)
                assert np.array_equal(got, reference.sigmoid(x))
        counters = _counters(collector)
        assert counters["serve.pool.dispatched"] == len(xs)
        assert counters["serve.pool.ring_dispatched"] == len(xs)

    def test_fx_results_survive_slot_reuse(self, monkeypatch):
        # FxArray futures receive the raw words themselves; a one-slot
        # ring guarantees the answer frame is recycled by the very next
        # batch, so any un-unshared view would be corrupted.
        monkeypatch.setattr(pool_module, "RING_SLOTS", 1)
        reference = BatchEngine.for_bits(12, fast=True)
        fx = FxArray.from_float(np.linspace(-3, 3, 11), reference.io_fmt)
        with WorkerPool(n_bits=12, workers=1) as pool:
            first = pool.submit(fx, mode="tanh").result(timeout=30)
            want = reference.tanh_fx(fx).raw.copy()
            assert np.array_equal(first.raw, want)
            for _ in range(8):  # recycle the slot repeatedly
                pool.submit(np.linspace(-1, 1, 11), mode="sigmoid").result(
                    timeout=30
                )
            assert np.array_equal(first.raw, want), (
                "FxArray result mutated by ring slot reuse"
            )


class TestNoSelfDeadlock:
    @_within(120)
    def test_retries_on_a_one_slot_one_worker_pool_resolve(
        self, monkeypatch
    ):
        # Every retry needs the one slot its failed attempt held: the
        # receiver must hand the retry over instead of waiting on a ring
        # only it can drain.
        monkeypatch.setattr(pool_module, "RING_SLOTS", 1)
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(site=IO_OUT, model=FaultModel.TRANSIENT,
                      rate=0.2, bit=11),
        ))
        collector = Collector()
        rng = np.random.default_rng(5)
        requests = [
            ("sigmoid" if i % 2 else "tanh",
             rng.uniform(-6, 6, size=(int(rng.integers(1, 4)),)))
            for i in range(60)
        ]
        with WorkerPool(
            n_bits=12, workers=1, collector=collector, fault_plan=plan,
            resilience=ResponsePolicy(verify=True, max_retries=2),
        ) as pool:
            futures = [pool.submit(x, mode=mode) for mode, x in requests]
            for future in futures:
                exc = future.exception(timeout=60)
                assert exc is None or isinstance(
                    exc, ResponseVerificationError
                ), exc
        counters = _counters(collector)
        assert counters.get("serve.resilience.retries", 0) > 0, (
            "the armed plan never forced a retry — vacuous test"
        )
        assert counters["serve.pool.dispatched"] == (
            counters["serve.pool.ring_dispatched"]
        )

    @_within(120)
    def test_hedge_onto_a_full_ring_resolves(self, monkeypatch):
        # Both workers stopped, one batch in each one-slot ring. Each
        # flight hedges onto the other worker's full ring; resuming only
        # one worker must resolve both — the hedge waits for that
        # worker's slot and lands there while the other stays stopped.
        monkeypatch.setattr(pool_module, "RING_SLOTS", 1)
        reference = BatchEngine.for_bits(12, fast=True)
        collector = Collector()
        pool = WorkerPool(
            n_bits=12, workers=2, collector=collector, max_delay_us=50.0,
            resilience=ResponsePolicy(hedge_after_s=0.05),
        )
        pids = {h.worker_id: h.process.pid for h in pool._handles}
        stopped = set(pids.values())
        try:
            pool.submit(0.5).result(timeout=30)
            for pid in stopped:
                os.kill(pid, signal.SIGSTOP)
            x1, x2 = np.linspace(-3, 3, 7), np.linspace(-2, 2, 5)
            f1 = pool.submit(x1, mode="sigmoid")
            _wait_for(lambda: _counters(collector).get(
                "serve.pool.dispatched", 0) >= 2, what="the first batch")
            f2 = pool.submit(x2, mode="tanh")
            _wait_for(lambda: _counters(collector).get(
                "serve.pool.dispatched", 0) >= 3, what="the second batch")
            _wait_for(lambda: _counters(collector).get(
                "serve.pool.ring_waits", 0) >= 1,
                what="a hedge to wait on a full ring")
            # Resume only the worker holding the second batch.
            holder = next(
                h for h in pool._handles
                if any(p.batch.mode.value == "tanh"
                       for p in h.in_flight.values())
            )
            os.kill(pids[holder.worker_id], signal.SIGCONT)
            stopped.discard(pids[holder.worker_id])
            assert np.array_equal(f2.result(timeout=30), reference.tanh(x2))
            assert np.array_equal(f1.result(timeout=30), reference.sigmoid(x1))
            # A hedge that lost while waiting on the stopped worker's
            # ring is abandoned: the dispatcher keeps serving around it.
            x3 = np.linspace(-4, 0, 6)
            f3 = pool.submit(x3, mode="exp")
            assert np.array_equal(f3.result(timeout=30), reference.exp(x3))
        finally:
            for pid in stopped:
                os.kill(pid, signal.SIGCONT)
            pool.close()
        counters = _counters(collector)
        assert counters["serve.resilience.hedges"] >= 1
        assert counters["serve.resilience.hedge_wins"] >= 1


class TestCrashForensics:
    def test_crash_report_carries_seqs_and_slot_state(self):
        collector = Collector()
        pool = WorkerPool(
            n_bits=12, workers=1, restart=False, collector=collector,
            max_delay_us=50.0,
        )
        try:
            pool.submit(0.25).result(timeout=30)
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            futures = [
                pool.submit(np.linspace(-2, 2, 256), mode="sigmoid"),
                pool.submit(np.linspace(-2, 1.5, 256), mode="tanh"),
            ]
            _wait_for(
                lambda: _counters(collector).get(
                    "serve.pool.dispatched", 0
                ) >= 3,
                what="both batches to dispatch",
            )
            os.kill(pid, signal.SIGKILL)
            errors = []
            for future in futures:
                with pytest.raises(WorkerCrashError) as info:
                    future.result(timeout=30)
                errors.append(info.value)
        finally:
            pool.close()
        exc = errors[0]
        assert exc.worker_id == 0
        assert len(exc.in_flight_seqs) == 2
        # One state per orphaned slot of the worker's one ring.
        assert len(exc.ring_slots) == 2
        assert {state.ring for state in exc.ring_slots} == {"ring"}
        assert len({state.slot for state in exc.ring_slots}) == 2
        # The parent committed what it shipped and the stopped worker
        # never opened an answer: each slot still holds its whole
        # request frame, carrying exactly the orphaned seqs.
        assert {s.seq for s in exc.ring_slots} == set(exc.in_flight_seqs)
        assert all(not s.torn for s in exc.ring_slots)
        assert all(s.elements == 256 for s in exc.ring_slots)
        # The message itself names the forensics — a crash report is
        # readable without poking attributes.
        text = str(exc)
        assert "seqs" in text and "ring[" in text

    def test_torn_response_frame_named_in_report(self):
        # A fabricated SIGKILL-mid-write: the worker opened the answer
        # frame over the request but died before committing. The state
        # object must call it torn and the crash error must surface it.
        exc = WorkerCrashError(
            "worker 3 (pid 123) died with 1 batch(es) in flight",
            worker_id=3,
            in_flight_seqs=[41],
            ring_slots=[RingSlotState("ring", 2, 8, 7, 41, 4096)],
        )
        assert exc.ring_slots[0].torn
        assert "ring[2] gen=8 commit=7 seq=41 elements=4096 TORN" in str(exc)


# ----------------------------------------------------------------------
# Bit identity with the serial engine, up to the slot-size bound
# ----------------------------------------------------------------------
class TestDifferential:
    MAX_BATCH = 64
    MAX_PENDING = 1024

    @pytest.mark.parametrize("n_bits", [8, 12, 16])
    def test_pool_bit_identical_to_serial_engine(self, n_bits):
        reference = BatchEngine.for_bits(n_bits, fast=True)
        fmt = reference.io_fmt
        rng = np.random.default_rng(n_bits)
        lo, hi = fmt.min_value / 2, fmt.max_value / 2
        mixed = _mixed_requests(48, fmt, seed=n_bits) + [
            # Larger than the coalescing ceiling: each ships alone.
            ("tanh", rng.uniform(lo, hi, size=150)),
            ("exp", rng.uniform(lo, 0, size=150)),
            ("softmax", rng.uniform(lo, hi, size=(3, 50))),
        ]
        # Each phase alone fits the pending pool; the last two fill it.
        phases = [
            mixed,
            [("sigmoid", rng.uniform(lo, hi, size=self.MAX_PENDING))],
            # One softmax row as wide as the pending pool: with a canary
            # row of the same width, the largest payload a slot takes.
            [("softmax", rng.uniform(lo, hi, size=(1, self.MAX_PENDING)))],
        ]
        for resilience in (None, ResponsePolicy(canary_every=1)):
            with WorkerPool(
                n_bits=n_bits, workers=2, resilience=resilience,
                max_batch_elements=self.MAX_BATCH,
                max_pending_elements=self.MAX_PENDING,
            ) as pool:
                for phase in phases:
                    requests = [
                        (mode, FxArray.from_float(x, fmt)) for mode, x in phase
                    ]
                    futures = [
                        pool.submit(fx, mode=mode) for mode, fx in requests
                    ]
                    for (mode, fx), future in zip(requests, futures):
                        got = future.result(timeout=30).raw
                        want = getattr(reference, f"{mode}_fx")(fx).raw
                        assert np.array_equal(got, want), (mode, resilience)
