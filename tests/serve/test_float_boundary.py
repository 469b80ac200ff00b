"""The float boundary: admission rules at submit, quantisation per batch.

Float requests cross ``submit()`` as float64 snapshots and are quantised
once per fused batch (``Batch.gather_into``). These tests pin that the
move changed nothing a caller can see: the exp rule judged on the float
equals the rule judged on the rounded code, every entry point raises the
same typed error at submit, a caller may reuse its array at once, mixed
float/``FxArray`` batches stay bit-identical to the serial engine, and
overflow telemetry keeps its totals.
"""

import asyncio
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.errors import RangeError
from repro.fixedpoint import FxArray
from repro.fixedpoint.rounding import quantize_float
from repro.nacu.config import FunctionMode, NacuConfig
from repro.serve import (
    AsyncFrontend,
    Batch,
    InferenceServer,
    ResponsePolicy,
    WorkerPool,
)
from repro.serve.batcher import build_request, exp_float_knee
from repro.telemetry import Collector, use_collector

ENGINES = {}


def engine_for(bits: int) -> BatchEngine:
    if bits not in ENGINES:
        ENGINES[bits] = BatchEngine.for_bits(bits, fast=True)
    return ENGINES[bits]


def fmt_for(bits: int):
    return NacuConfig.for_bits(bits).io_fmt


def boundary_values(fmt) -> np.ndarray:
    """The knee ±1 ulp, signed zeros, subnormals, infinities, huge values."""
    knee = exp_float_knee(fmt)
    tiny = np.nextafter(0.0, 1.0)
    values = [
        knee, np.nextafter(knee, np.inf), np.nextafter(knee, -np.inf),
        0.0, -0.0, tiny, -tiny, np.finfo(np.float64).tiny / 2,
        np.inf, -np.inf, 1e300, -1e300,
        fmt.resolution, -fmt.resolution, 3 * knee,
        fmt.raw_max * fmt.resolution, fmt.raw_min * fmt.resolution,
    ]
    return np.array(values, dtype=np.float64)


class TestExpRuleOnFloats:
    @pytest.mark.parametrize("bits", [8, 12, 16, 24])
    def test_float_rule_equals_rounded_code_rule(self, bits):
        fmt = fmt_for(bits)
        stub = SimpleNamespace(io_fmt=fmt)
        for x in boundary_values(fmt):
            code = int(quantize_float(x, fmt))
            for request in (x, np.array([x])):
                if code > 0:
                    with pytest.raises(RangeError):
                        build_request(
                            Future(), request, FunctionMode.EXP, -1, stub
                        )
                else:
                    build_request(
                        Future(), request, FunctionMode.EXP, -1, stub
                    )

    @pytest.mark.parametrize("bits", [8, 12, 16, 24])
    def test_knee_is_the_last_admitted_float(self, bits):
        fmt = fmt_for(bits)
        knee = exp_float_knee(fmt)
        assert int(quantize_float(knee, fmt)) == 0
        assert int(quantize_float(np.nextafter(knee, np.inf), fmt)) == 1


HOSTILE = [
    ("sigmoid", np.nan),
    ("tanh", np.array([0.5, np.nan])),
    ("softmax", np.array([[0.1, np.nan]])),
    ("exp", np.nan),
    ("exp", 0.5),
    ("exp", np.array([-1.0, np.inf])),
    ("softmax", np.zeros((3, 0))),
    ("softmax", np.zeros(0)),
    ("softmax", 1.0),
]


class TestTypedErrorsAtSubmit:
    def test_every_entry_point_raises_range_error_at_submit(self):
        engine = engine_for(12)
        with InferenceServer(n_bits=12) as server, \
                WorkerPool(n_bits=12, workers=1) as pool:
            frontend = AsyncFrontend(server)

            async def via_frontend(x, mode):
                await frontend.submit(x, mode=mode)

            for mode, x in HOSTILE:
                with pytest.raises(RangeError):
                    getattr(engine, mode)(x)
                # Raised by submit() itself, before any future exists.
                with pytest.raises(RangeError):
                    server.submit(x, mode=mode)
                with pytest.raises(RangeError):
                    pool.submit(x, mode=mode)
                with pytest.raises(RangeError):
                    asyncio.run(via_frontend(x, mode))
            # The refusals poisoned nothing.
            assert server.submit(0.5).result(30) == engine.sigmoid(0.5)
            assert pool.submit(0.5).result(30) == engine.sigmoid(0.5)


class TestSnapshot:
    @pytest.mark.parametrize("backend", ["server", "pool"])
    def test_mutating_the_input_after_submit_changes_nothing(self, backend):
        engine = engine_for(12)
        x = np.linspace(-3.0, 3.0, 64)
        row = np.linspace(-2.0, 2.0, 8)
        want = engine.tanh(x.copy())
        want_row = engine.softmax(row.copy())
        # A long coalescing window keeps both requests pending while the
        # caller scribbles over its arrays.
        make = (
            (lambda: InferenceServer(n_bits=12, max_delay_us=200_000))
            if backend == "server" else
            (lambda: WorkerPool(n_bits=12, workers=1, max_delay_us=200_000))
        )
        with make() as served:
            future = served.submit(x, mode="tanh")
            future_row = served.submit(row, mode="softmax")
            x[:] = 9.0
            row[:] = np.nan
            assert np.array_equal(future.result(30), want)
            assert np.array_equal(future_row.result(30), want_row)


def _mixed_members(fmt, rng):
    """Interleaved float and FxArray requests per mode, specials included."""
    members = []
    for mode in ("sigmoid", "tanh", "exp", "softmax"):
        for i in range(6):
            if mode == "softmax":
                x = rng.uniform(-4, 4, size=(int(rng.integers(1, 3)), 5))
            elif mode == "exp":
                x = rng.uniform(-8, 0, size=int(rng.integers(1, 6)))
                x[0] = [-np.inf, -1e300, -0.0, exp_float_knee(fmt)][i % 4]
            else:
                x = rng.uniform(-6, 6, size=int(rng.integers(1, 6)))
                x[0] = [np.inf, -1e300, 1e300, -np.inf][i % 4]
            if i % 3 == 1:
                x = FxArray.from_float(x, fmt)
            elif i % 3 == 2 and mode != "softmax":
                x = float(x[0])
            members.append((mode, x))
    return members


def _check(engine, mode, x, got):
    if isinstance(x, FxArray):
        kernel = getattr(engine, f"{mode}_fx")
        assert isinstance(got, FxArray)
        assert np.array_equal(got.raw, kernel(x).raw), mode
    else:
        want = getattr(engine, mode)(x)
        assert type(got) is type(want), mode
        assert np.array_equal(np.asarray(got), np.asarray(want)), mode


class TestMixedBatches:
    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_gather_and_fused_raw_quantise_like_from_float(self, bits):
        engine = engine_for(bits)
        fmt = engine.io_fmt
        rng = np.random.default_rng(bits)
        members = [
            (mode, x) for mode, x in _mixed_members(fmt, rng)
            if mode == "sigmoid"
        ]
        requests = [
            build_request(Future(), x, FunctionMode.SIGMOID, -1, engine)
            for _, x in members
        ]
        want = np.concatenate([
            (x if isinstance(x, FxArray) else FxArray.from_float(x, fmt))
            .raw.reshape(-1)
            for _, x in members
        ])
        batch = Batch(FunctionMode.SIGMOID, requests)
        assert np.array_equal(batch.fused_raw(fmt), want)
        slot = np.full(want.size, -1, dtype=np.int64)
        batch.gather_into(slot, fmt)
        assert np.array_equal(slot, want)

    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_server_mixed_batches_match_serial_engine(self, bits):
        engine = engine_for(bits)
        members = _mixed_members(engine.io_fmt, np.random.default_rng(bits))
        collector = Collector()
        with InferenceServer(
            n_bits=bits, max_delay_us=200_000, collector=collector
        ) as server:
            futures = [
                (mode, x, server.submit(x, mode=mode)) for mode, x in members
            ]
            for mode, x, future in futures:
                _check(engine, mode, x, future.result(30))
        # Every member really shared a batch with the other kind: one
        # batch per mode (softmax rows of one width).
        assert collector.snapshot()["counters"]["serve.batches"] == 4

    @pytest.mark.parametrize("canaries", [False, True])
    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_pool_mixed_batches_match_serial_engine(self, bits, canaries):
        engine = engine_for(bits)
        members = _mixed_members(engine.io_fmt, np.random.default_rng(bits))
        policy = (
            ResponsePolicy(verify=True, canary_every=1, max_retries=1)
            if canaries else None
        )
        collector = Collector()
        with WorkerPool(
            n_bits=bits, workers=1, max_delay_us=200_000,
            resilience=policy, collector=collector,
        ) as pool:
            futures = [
                (mode, x, pool.submit(x, mode=mode)) for mode, x in members
            ]
            for mode, x, future in futures:
                _check(engine, mode, x, future.result(30))
            counters = collector.snapshot()["counters"]
        assert counters["serve.batches"] == 4
        if canaries:
            assert counters["serve.resilience.canaries"] == 4


def _fx_counters(snapshot) -> dict:
    return {
        name: value for name, value in snapshot["counters"].items()
        if name.startswith("fx.")
    }


class TestOverflowTelemetry:
    def test_per_batch_quantise_counts_like_per_request(self):
        engine = engine_for(8)
        fmt = engine.io_fmt
        inputs = [
            np.array([100.0, -3.0, 0.5]), np.array([np.inf]),
            np.array([-1e300, 1e19]), np.array([0.25]),
        ]
        per_request, per_batch = Collector(), Collector()
        with use_collector(per_request):
            for x in inputs:
                FxArray.from_float(x, fmt)
        requests = [
            build_request(Future(), x, FunctionMode.TANH, -1, engine)
            for x in inputs
        ]
        with use_collector(per_batch):
            Batch(FunctionMode.TANH, requests).fused_raw(fmt)
        want = _fx_counters(per_request.snapshot())
        assert want["fx.saturate.events"] == 4
        assert _fx_counters(per_batch.snapshot()) == want

    @pytest.mark.parametrize("backend", ["server", "pool"])
    def test_served_totals_unchanged(self, backend):
        # Float requests (quantised per batch in the dispatcher) must
        # leave the same fx.* totals as the same requests quantised per
        # request by the caller and submitted as FxArrays.
        engine = engine_for(8)
        fmt = engine.io_fmt
        inputs = [
            np.array([100.0, -3.0, 0.5]), np.array([np.inf]),
            np.array([-1e300, 1e19]), np.array([7.9, -8.5]),
        ]

        def serve(collector, fixed_point):
            # Built outside the collector: table compiles and publishes
            # quantise too, and only the serving path is under test.
            if backend == "server":
                served = InferenceServer(n_bits=8, max_delay_us=50_000)
            else:
                served = WorkerPool(n_bits=8, workers=1, max_delay_us=50_000)
            with use_collector(collector), served:
                xs = [
                    FxArray.from_float(x, fmt) if fixed_point else x
                    for x in inputs
                ]
                for future in [served.submit(x, mode="tanh") for x in xs]:
                    future.result(30)

        floats, fixed = Collector(), Collector()
        serve(floats, fixed_point=False)
        serve(fixed, fixed_point=True)
        got = _fx_counters(floats.snapshot())
        assert got["fx.saturate.events"] >= 4
        assert got == _fx_counters(fixed.snapshot())
