"""Load generation: arrivals, workload, both loop disciplines, CLI."""

import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.errors import BackpressureError
from repro.loadgen import (
    LoadGenerator,
    RequestMix,
    bursty_offsets,
    expected_responses,
    make_offsets,
    make_requests,
    poisson_offsets,
    uniform_offsets,
)
from repro.serve import InferenceServer

N_BITS = 12


class TestArrivals:
    def test_uniform_spacing(self):
        offsets = uniform_offsets(5, 100.0)
        assert np.allclose(np.diff(offsets), 0.01)
        assert offsets[0] == 0.0

    def test_poisson_is_seeded_and_sorted(self):
        a = poisson_offsets(256, 1000.0, rng=7)
        b = poisson_offsets(256, 1000.0, rng=7)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        assert a[0] == 0.0

    def test_poisson_mean_rate(self):
        offsets = poisson_offsets(20_000, 1000.0, rng=3)
        observed = (len(offsets) - 1) / offsets[-1]
        assert observed == pytest.approx(1000.0, rel=0.05)

    def test_bursty_same_mean_harsher_peaks(self):
        rate, n = 2000.0, 4096
        smooth = poisson_offsets(n, rate, rng=11)
        burst = bursty_offsets(n, rate, rng=11, burst=32)
        assert burst[-1] == pytest.approx(smooth[-1], rel=0.35)
        # Peak concentration: the max arrivals inside any 1 ms window
        # must be far higher for the bursty process.
        def peak(offsets):
            bins = np.floor(offsets / 1e-3).astype(int)
            return np.bincount(bins).max()
        assert peak(burst) >= 2 * peak(smooth)

    def test_dispatch_by_name(self):
        assert len(make_offsets("uniform", 10, 100.0)) == 10
        assert len(make_offsets("poisson", 10, 100.0, rng=1)) == 10
        assert len(make_offsets("bursty", 10, 100.0, rng=1)) == 10
        with pytest.raises(ValueError):
            make_offsets("lumpy", 10, 100.0)

    def test_empty_and_invalid(self):
        assert uniform_offsets(0, 100.0).size == 0
        with pytest.raises(ValueError):
            uniform_offsets(4, 0.0)
        with pytest.raises(ValueError):
            poisson_offsets(4, -1.0)


class TestWorkload:
    def test_seeded_and_mode_domains(self):
        a = make_requests(128, rng=5)
        b = make_requests(128, rng=5)
        assert len(a) == 128
        for (mode_a, x_a), (mode_b, x_b) in zip(a, b):
            assert mode_a == mode_b
            assert np.array_equal(x_a, x_b)
        for mode, x in a:
            if mode == "exp":
                assert np.all(x <= 0)
            if mode == "softmax":
                assert 2 <= x.size <= 8

    def test_mix_weights_respected(self):
        mix = RequestMix(weights={"exp": 1.0, "softmax": 0.0,
                                  "sigmoid": 0.0, "tanh": 0.0})
        requests = make_requests(32, mix=mix, rng=0)
        assert all(mode == "exp" for mode, _ in requests)

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            RequestMix(weights={"mac": 1.0})
        with pytest.raises(ValueError):
            RequestMix(weights={"exp": 0.0})

    def test_expected_responses_match_engine(self):
        engine = BatchEngine.for_bits(N_BITS, fast=True)
        requests = make_requests(16, rng=2)
        expected = expected_responses(engine, requests)
        for (mode, x), want in zip(requests, expected):
            assert np.array_equal(want, np.asarray(getattr(engine, mode)(x)))


class TestGenerator:
    @pytest.fixture(scope="class")
    def reference(self):
        return BatchEngine.for_bits(N_BITS, fast=True)

    def test_closed_loop_verified(self, reference):
        requests = make_requests(96, rng=9)
        with InferenceServer(n_bits=N_BITS) as server:
            report = LoadGenerator(
                server, verify_engine=reference
            ).run_closed(requests, concurrency=4)
        assert report.kind == "closed"
        assert report.completed == 96
        assert report.errors == 0
        assert report.mismatches == 0
        assert report.ok
        assert report.latencies_ns.size == 96
        assert report.req_per_s > 0
        assert report.p99_ms >= report.p50_ms

    def test_open_loop_verified(self, reference):
        requests = make_requests(96, rng=13)
        offsets = poisson_offsets(96, 5000.0, rng=13)
        with InferenceServer(n_bits=N_BITS) as server:
            report = LoadGenerator(
                server, verify_engine=reference
            ).run_open(requests, offsets)
        assert report.kind == "open"
        assert report.completed == 96
        assert report.mismatches == 0
        assert report.ok

    def test_open_loop_counts_sheds(self):
        requests = make_requests(64, rng=1)
        offsets = np.zeros(64)  # everything at once
        server = InferenceServer(
            n_bits=N_BITS, max_delay_us=10_000_000,
            max_batch_elements=1 << 20, max_pending_elements=32,
        )
        try:
            report = LoadGenerator(server).run_open(
                requests, offsets, timeout_s=30
            )
        finally:
            server.close()
        assert report.sheds > 0
        assert report.errors == 0
        assert report.completed + report.sheds == 64

    def test_open_loop_times_from_the_due_instant(self):
        # A backend whose first submit stalls 50 ms: every request due
        # during the stall is submitted late, and that lateness must
        # land in its latency (no coordinated omission) and in the
        # report's generator-lateness figure.
        stall_ns = 50_000_000

        class StallingBackend:
            calls = 0

            def submit(self, x, mode="sigmoid"):
                StallingBackend.calls += 1
                if StallingBackend.calls == 1:
                    time.sleep(stall_ns / 1e9)
                future = Future()
                future.set_result(x)
                return future

        requests = make_requests(10, rng=2)
        offsets = np.arange(10) * 0.002  # due every 2 ms
        report = LoadGenerator(StallingBackend()).run_open(requests, offsets)
        assert report.completed == 10
        assert report.late_ns.shape == (10,)
        # Request i was due at 2i ms but went out after the 50 ms stall.
        for i in range(1, 10):
            assert report.late_ns[i] >= stall_ns - i * 2_000_000 - 1_000_000
            assert report.latencies_ns[i] >= report.late_ns[i]
        assert report.latencies_ns[0] >= stall_ns
        assert report.late_p99_ms >= 30.0
        assert "generator late p99" in report.summary()

    def test_closed_loop_reports_no_lateness(self):
        requests = make_requests(8, rng=4)
        with InferenceServer(n_bits=N_BITS) as server:
            report = LoadGenerator(server).run_closed(requests, concurrency=2)
        assert report.late_ns is None
        assert "late" not in report.summary()

    def test_unverified_report_has_no_mismatch_count(self):
        requests = make_requests(8, rng=4)
        with InferenceServer(n_bits=N_BITS) as server:
            report = LoadGenerator(server).run_closed(requests, concurrency=2)
        assert report.mismatches is None
        assert report.ok

    def test_summary_mentions_the_numbers(self, reference):
        requests = make_requests(16, rng=3)
        with InferenceServer(n_bits=N_BITS) as server:
            report = LoadGenerator(
                server, verify_engine=reference
            ).run_closed(requests, concurrency=2)
        text = report.summary()
        assert "16/16" in text
        assert "0 mismatches" in text

    def test_offset_count_must_match(self):
        with InferenceServer(n_bits=N_BITS) as server:
            with pytest.raises(ValueError):
                LoadGenerator(server).run_open(
                    make_requests(4, rng=0), np.zeros(3)
                )


class TestCli:
    def test_quick_profile_server_backend(self, capsys):
        from repro.loadgen.__main__ import main
        code = main([
            "--profile", "quick", "--backend", "server",
            "--requests", "64", "--concurrency", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 mismatches" in out

    def test_quick_profile_pool_backend_open_loop(self, capsys):
        from repro.loadgen.__main__ import main
        code = main([
            "--profile", "quick", "--backend", "pool",
            "--pool-workers", "2", "--loop", "open",
            "--arrivals", "bursty", "--requests", "64",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 mismatches" in out
