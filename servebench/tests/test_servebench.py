"""Self-tests of the serving benchmark (not of the program it measures).

Run from the root of a checkout: ``python3 -m pytest servebench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from repro.errors import BackpressureError
from servebench import host
from servebench.bench import quiet_rounds, run_rounds
from servebench.loops import Tally, closed_loop, open_loop, percentile
from servebench.metrics import END_TO_END, PER_LAYER, benchmark_entries
from servebench.workloads import WORKLOADS, Workload, make_inputs

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeBackend:
    """Echoes each input back; can stall, shed or corrupt chosen calls."""

    def __init__(self, stall_at=None, stall_s=0.0, shed=(), corrupt=()):
        self.calls = 0
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.shed = set(shed)
        self.corrupt = set(corrupt)

    def submit(self, x, mode="sigmoid"):
        call = self.calls
        self.calls += 1
        if call == self.stall_at:
            time.sleep(self.stall_s)
        if call in self.shed:
            raise BackpressureError("pending pool full")
        future = Future()
        out = np.array(x, dtype=np.float64)
        if call in self.corrupt:
            out = out + 1.0
        future.set_result(out)
        return future


def echo_inputs(count=64):
    inputs = [("sigmoid", np.array([i / count])) for i in range(count)]
    return inputs, Tally([x for _, x in inputs])


# ----------------------------------------------------------------------
# Seeded workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    w = WORKLOADS[name]
    first, again, other = (
        make_inputs(w, 7), make_inputs(w, 7), make_inputs(w, 8)
    )
    assert len(first) == w.set_size
    assert [m for m, _ in first] == [m for m, _ in again]
    assert all(a.tobytes() == b.tobytes()
               for (_, a), (_, b) in zip(first, again))
    assert any(a.shape != b.shape or a.tobytes() != b.tobytes()
               for (_, a), (_, b) in zip(first, other))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_mode_gets_a_quarter_of_the_set(name):
    w = WORKLOADS[name]
    modes = [m for m, _ in make_inputs(w, 3)]
    assert {modes.count(m) for m in set(modes)} == {w.set_size // 4}


def test_bulk_work_per_set_barely_depends_on_the_seed():
    w = WORKLOADS["bulk_pool"]
    totals = [sum(x.size for _, x in make_inputs(w, s)) for s in range(5)]
    assert max(totals) / min(totals) < 1.02


# ----------------------------------------------------------------------
# Names match BENCHMARK.json
# ----------------------------------------------------------------------
def test_workload_and_metric_tables_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert SPEC["end_to_end"] == benchmark_entries(END_TO_END, True)
    assert SPEC["per_layer"] == benchmark_entries(PER_LAYER, False)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_run_emits_exactly_the_declared_names(trace):
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "scalar_server",
         "--seed", "1", "--seconds", "0.6", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "servebench", tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "scalar_server",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# Due-time latency and the miss ledger
# ----------------------------------------------------------------------
def test_due_time_latency_includes_generator_lateness():
    inputs, tally = echo_inputs()
    stall_s = 0.1
    backend = FakeBackend(stall_at=0, stall_s=stall_s)
    # 200 requests at 1000/s: about half are due while submit() stalls.
    result = open_loop(backend, inputs, tally, 1000.0, 0.2,
                       np.random.default_rng(0))
    assert tally.ok == tally.attempted == result["latency_ms"].size
    assert percentile(result["late_ms"], 99) >= 0.8 * stall_s * 1e3
    # The fake answers instantly, so latency stamped at submit would be
    # ~0 for every request but the stalled one; from the due instant,
    # the requests queued behind the stall carry their wait.
    assert percentile(result["latency_ms"], 90) >= 0.4 * stall_s * 1e3
    assert np.all(result["latency_ms"] >= result["late_ms"])


def test_ok_frac_counts_a_shed_and_a_mismatch_as_misses():
    inputs, tally = echo_inputs()
    backend = FakeBackend(shed={3}, corrupt={5})
    result = open_loop(backend, inputs, tally, 2000.0, 0.05,
                       np.random.default_rng(1))
    assert result["latency_ms"].size == tally.attempted == 100
    assert tally.sheds == 1 and tally.mismatches == 1
    assert tally.ok_frac == pytest.approx(98 / 100)
    # Both misses miss every latency percentile too.
    assert np.isinf(result["latency_ms"]).sum() == 2


def test_closed_loop_counts_misses_and_only_right_answers_as_completed():
    inputs, tally = echo_inputs()
    backend = FakeBackend(shed={0}, corrupt={1, 2})
    result = closed_loop(backend, inputs, tally, window=4, seconds=0.05)
    assert tally.sheds == 1 and tally.mismatches == 2
    assert tally.failed == 3
    # Requests still outstanding when the phase ends are checked but not
    # counted towards the rate.
    assert result["samples"] <= tally.ok <= result["samples"] + 4
    assert result["sheds"] == 1


def test_tally_refuses_wrong_shape_with_equal_bytes():
    tally = Tally([np.zeros((2, 2))])
    future = Future()
    future.set_result(np.zeros(4))
    assert not tally.settle(0, future)
    assert tally.mismatches == 1 and tally.ok_frac == 0.0


# ----------------------------------------------------------------------
# Rounds spoiled by CPU steal
# ----------------------------------------------------------------------
def _steal_ticks(monkeypatch, steal_per_round):
    """Make each round's ``host.cpu_ticks`` pair report the given steal."""
    ticks = []
    busy = steal = 0
    for share in steal_per_round:
        ticks.append((busy, steal))
        busy += 1000
        steal += int(1000 * share / (1 - share))
        ticks.append((busy, steal))
    feed = iter(ticks)
    monkeypatch.setattr(host, "cpu_ticks", lambda: next(feed))


def test_each_round_records_the_steal_it_ran_under(monkeypatch):
    _steal_ticks(monkeypatch, [0.5, 0.0, 0.2])
    inputs, tally = echo_inputs()
    tiny = Workload(
        name="tiny", why="", backend="fake", n_bits=12, traffic="scalar",
        set_size=64, window=4, light_rps=2000.0, busy_rps=2000.0,
    )
    rounds = run_rounds(FakeBackend(), tiny, inputs, tally, 0.3, 3,
                        np.random.default_rng(0))
    assert [r["steal"] for r in rounds] == pytest.approx([0.5, 0.0, 0.2],
                                                         abs=0.01)
    assert tally.ok == tally.attempted > 0


def test_the_metrics_pool_quiet_rounds_or_the_least_stolen_half():
    steal = [0.3, 0.01, 0.0, 0.02, 0.5, 0.01, 0.03, 0.05]
    rounds = [{"steal": s, "id": i} for i, s in enumerate(steal)]
    assert sorted(r["id"] for r in quiet_rounds(rounds)) == [1, 2, 3, 5, 6]
    noisy = [{"steal": s, "id": i} for i, s in
             enumerate([0.3, 0.2, 0.01, 0.1, 0.5, 0.06])]
    assert sorted(r["id"] for r in quiet_rounds(noisy)) == [2, 3, 5]
    assert quiet_rounds(rounds[:1]) == rounds[:1]
