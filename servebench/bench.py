"""One serving benchmark: three workloads, end-to-end and traced runs.

An end-to-end run (``--trace 0``) measures in ``PARTS`` fresh processes,
one after another, and pools what they measured, because a Python
process on a shared VM carries its own speed for its whole life (thread
placement, memory layout): pooling several processes averages that out
where one long process cannot. Each part:

1. builds the workload's seeded input set and the reference answers from
   the serial ``BatchEngine`` (the bit-accurate datapath);
2. **set-up**: builds the backend ``SETUP_PER_PART`` times from cold
   caches (the process-wide table cache and the sigmoid LUT cache are
   dropped first) and times construction to the first correct response
   in every mode;
3. **phases**, on a fresh backend: a short warm-up, then
   ``ROUNDS_PER_PART`` rounds of a closed loop (capacity), a light and a
   busy open loop (latency from the due instant), interleaved so every
   phase samples the whole part. Each round records how much CPU time
   the hypervisor stole from the VM while it ran;
4. **checks**: every response is compared with the reference as it comes
   back; after the backend closes, no shared-memory segment and no child
   process may remain.

Telemetry stays off in those phases. Part 0 then replays a short closed
loop on a backend with a ``Collector`` to record the transport mix.

The run pools its quiet rounds, those with at most ``STEAL_QUIET`` of
the CPU time stolen, or the least-stolen ``MIN_KEEP_SHARE`` of all
rounds when fewer are quiet: steal comes in episodes of a minute or two
on a shared host, stretches every timing whatever the program does, and
so says nothing about the program. Every round's steal, and the most
any kept round had, are in the validity fields. ``setup_s`` is the mean
over the parts of each part's median set-up, because a process's CPU
speed on such a host is often one of two levels for its whole life.

A traced run (``--trace 1``) is one part: it times set-up layer by
layer, runs the phases once without and once with a ``Collector`` and
request spans, times ``build_request`` and quantisation directly, and
reports the per-layer metrics. Spans are written to ``.servebench/``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.compile import TABLE_MODES, TableCache, reset_default_cache
from repro.compile.cache import default_cache
from repro.engine import BatchEngine
from repro.fixedpoint import FxArray
from repro.loadgen import expected_responses
from repro.nacu.config import FunctionMode, NacuConfig
from repro.nacu.lutgen import clear_lut_cache
from repro.serve import InferenceServer, SharedTableStore, WorkerPool
from repro.serve.batcher import build_request
from repro.telemetry import Collector, use_collector

from servebench import host
from servebench.loops import Tally, closed_loop, cycle, open_loop, percentile
from servebench.metrics import END_TO_END, PER_LAYER
from servebench.tracing import SpanLog
from servebench.workloads import (
    MODES,
    WORKLOADS,
    Workload,
    make_inputs,
    probe_requests,
)

#: Fresh processes per end-to-end run; their measurements are pooled.
PARTS = 3
#: Cold set-ups timed per part.
SETUP_PER_PART = 7
#: Interleaved rounds of closed, light and busy per part.
ROUNDS_PER_PART = 4
#: Rounds with at most this share of CPU time stolen are quiet; the
#: metrics pool the quiet rounds, or the least-stolen ``MIN_KEEP_SHARE``
#: of all rounds when fewer are quiet.
STEAL_QUIET = 0.04
MIN_KEEP_SHARE = 0.5
#: Share of a part's measured time spent warming up first.
WARMUP_SHARE = 0.05
#: Shares of one round (they sum to one).
ROUND_SHARES = {"closed": 0.4, "light": 0.3, "busy": 0.3}
#: The untimed closed-loop replay that records the transport mix.
MIX_PROBE_S = 1.0
#: How long the traced run times ``build_request`` and quantisation.
MICRO_S = 0.5
#: Every part together must finish within this many seconds.
RUN_BUDGET_S = 170.0


# ----------------------------------------------------------------------
# Backends and set-up
# ----------------------------------------------------------------------
def make_backend(w: Workload, collector=None, publish_cache=None):
    """The workload's backend; callers own it through ``with``."""
    if w.backend == "server":
        return InferenceServer(n_bits=w.n_bits, collector=collector)
    return WorkerPool(
        n_bits=w.n_bits, workers=1, collector=collector,
        publish_cache=publish_cache,
    )


def worker_pids(backend) -> List[int]:
    return backend.worker_pids() if isinstance(backend, WorkerPool) else []


def cold_caches() -> None:
    """Drop the process-wide table and LUT caches: the next use compiles."""
    reset_default_cache()
    clear_lut_cache()


def compile_tables(config: NacuConfig, cache: TableCache) -> None:
    """What a cold start compiles: every table mode (and the reciprocal)."""
    for mode in TABLE_MODES:
        cache.get(config, mode)
    if config.use_approx_divider:
        cache.get_reciprocal(config)


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def run_rounds(backend, w: Workload, inputs, tally: Tally, seconds: float,
               rounds: int, rng: np.random.Generator,
               spans: Optional[SpanLog] = None) -> List[dict]:
    """Warm-up, then rounds of closed loop, light and busy open loops.

    Returns each round's raw measurements and the share of CPU time the
    host stole while it ran (see :func:`host.steal_share`).
    """
    order = cycle(inputs)
    closed_loop(backend, inputs, tally, w.window, WARMUP_SHARE * seconds,
                order=order)
    chunk = (1.0 - WARMUP_SHARE) * seconds / rounds
    measured = []
    for _ in range(rounds):
        before = host.cpu_ticks()
        closed = closed_loop(
            backend, inputs, tally, w.window,
            ROUND_SHARES["closed"] * chunk, spans, order,
        )
        light = open_loop(
            backend, inputs, tally, w.light_rps,
            ROUND_SHARES["light"] * chunk, rng, "light", spans, order,
        )
        busy = open_loop(
            backend, inputs, tally, w.busy_rps,
            ROUND_SHARES["busy"] * chunk, rng, "busy", spans, order,
        )
        measured.append({
            "closed": closed, "light": light, "busy": busy,
            "steal": host.steal_share(before, host.cpu_ticks()),
        })
    return measured


def quiet_rounds(rounds: List[dict]) -> List[dict]:
    """The rounds the metrics pool (see ``STEAL_QUIET``)."""
    ranked = sorted(rounds, key=lambda r: r["steal"])
    quiet = [r for r in ranked if r["steal"] <= STEAL_QUIET]
    least = ranked[:max(1, math.ceil(MIN_KEEP_SHARE * len(ranked)))]
    return quiet if len(quiet) >= len(least) else least


def summarise(rounds: List[dict]) -> dict:
    """Pool rounds: the closed-loop rate, latency percentiles, counts."""
    samples = sum(r["closed"]["samples"] for r in rounds)
    out = {
        "closed": {
            "req_per_s": samples / sum(r["closed"]["seconds"] for r in rounds),
            "samples": samples,
            "sheds": sum(r["closed"]["sheds"] for r in rounds),
        },
    }
    for phase in ("light", "busy"):
        latency = np.concatenate(
            [np.asarray(r[phase]["latency_ms"], dtype=np.float64)
             for r in rounds]
        )
        late = np.concatenate([np.asarray(r[phase]["late_ms"]) for r in rounds])
        out[phase] = {
            "p50_ms": percentile(latency, 50),
            "p90_ms": percentile(latency, 90),
            "p99_ms": percentile(latency, 99),
            "late_p50_ms": percentile(late, 50),
            "late_p99_ms": percentile(late, 99),
            "samples": int(latency.size),
            "missed": int(np.isinf(latency).sum()),
        }
    return out


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def telemetry_of(backend, collector: Collector) -> dict:
    """The backend's merged snapshot (parent plus workers for a pool)."""
    if isinstance(backend, WorkerPool):
        return backend.telemetry_snapshot()
    return collector.snapshot()


def transport_mix(counters: dict) -> dict:
    """Batch shape and ring/pipe split from the program's own counters."""
    batches = counters.get("serve.batches", 0)
    requests = counters.get("serve.requests", 0)
    dispatched = counters.get("serve.pool.dispatched", 0)
    return {
        "batch.fill_mean": requests / batches if batches else 0.0,
        "batch.elements_mean": (
            counters.get("serve.batch_elements", 0) / batches
            if batches else 0.0
        ),
        "ring.share": (
            counters.get("serve.pool.ring_dispatched", 0) / dispatched
            if dispatched else 0.0
        ),
        "ring.oversize": counters.get("serve.pool.ring_oversize", 0),
        "ring.full": counters.get("serve.pool.ring_full", 0),
        "ipc.bytes_per_request": (
            counters.get("serve.pool.ipc_bytes", 0) / requests
            if requests else 0.0
        ),
    }


def layer_metrics(snapshot: dict, spans: SpanLog) -> dict:
    """Per-layer numbers from the merged snapshot and the request spans."""
    counters = snapshot["counters"]
    timers = snapshot["timers"]

    def timer(name):
        t = timers.get(name, {"count": 0, "total_ns": 0})
        return t["count"], t["total_ns"]

    out = transport_mix(counters)
    waits, wait_ns = timer("serve.queue_wait")
    out["queue_wait.mean_us"] = wait_ns / waits / 1e3 if waits else 0.0
    kernel_batches = kernel_ns = 0
    for mode in MODES:
        count, total = timer(f"engine.{mode}")
        elements = counters.get(f"engine.{mode}.elements", 0)
        out[f"kernel.ns_per_element.{mode}"] = (
            total / elements if elements else 0.0
        )
        out[f"kernel.us_per_batch.{mode}"] = (
            total / count / 1e3 if count else 0.0
        )
        kernel_batches += count
        kernel_ns += total
    ships, ship_ns = timer("serve.pool.ship")
    out["ship.us_per_batch"] = ship_ns / ships / 1e3 if ships else 0.0
    submit = spans.durations_ns("submit")
    resolve = spans.durations_ns("resolve")
    busy_resolve = spans.durations_ns("resolve", phase="phase.busy")
    out["submit.us_per_call"] = float(submit.mean()) / 1e3
    out["resolve.ms_p50"] = float(np.median(busy_resolve)) / 1e6
    # What the program's own timers do not explain: resolve time minus
    # queue wait, ship and kernel. Means, because medians do not add.
    # Reported, never asserted: closing it needs stamps inside the
    # program.
    explained_us = (
        out["queue_wait.mean_us"] + out["ship.us_per_batch"]
        + (kernel_ns / kernel_batches / 1e3 if kernel_batches else 0.0)
    )
    out["residual.ms_mean"] = (float(resolve.mean()) / 1e3 - explained_us) / 1e3
    return out


# ----------------------------------------------------------------------
# One part: runs in its own process
# ----------------------------------------------------------------------
class Part:
    """Inputs, reference answers and the correctness ledger of one part."""

    def __init__(self, workload: str, seed: int, part: int,
                 reference: Optional[Path] = None):
        self.w = WORKLOADS[workload]
        self.config = NacuConfig.for_bits(self.w.n_bits)
        self.inputs = make_inputs(self.w, seed)
        self.probes = probe_requests()
        self.tally = Tally(self._expected(reference))
        self.probe_base = len(self.inputs)
        self.arrivals = np.random.default_rng([seed, part])

    def _expected(self, path: Optional[Path]) -> List[np.ndarray]:
        """The serial engine's answers, computed by the run's first part.

        The later parts of a run load the first part's answers from
        ``path`` instead of recomputing them through the datapath.
        """
        if path is not None and path.is_file():
            with np.load(path) as saved:
                return [saved[f"arr_{i}"] for i in range(len(saved.files))]
        reference = BatchEngine.for_bits(self.w.n_bits)
        expected = expected_responses(reference, self.inputs + self.probes)
        if path is not None:
            np.savez(path, *expected)
        return expected

    def first_responses(self, backend) -> None:
        """Submit one probe per mode and wait for every answer."""
        futures = []
        for j, (mode, x) in enumerate(self.probes):
            try:
                futures.append(
                    (self.probe_base + j, backend.submit(x, mode=mode))
                )
            except Exception as exc:  # noqa: BLE001 — tallied as a miss
                self.tally.refused(exc)
        for index, future in futures:
            self.tally.settle(index, future)

    def end_to_end(self, seconds: float, with_mix: bool) -> dict:
        w = self.w
        setups = []
        for _ in range(SETUP_PER_PART):
            cold_caches()
            start = time.perf_counter()
            with make_backend(w) as backend:
                self.first_responses(backend)
                setups.append(time.perf_counter() - start)
        with make_backend(w) as backend:
            self.first_responses(backend)
            rounds = run_rounds(
                backend, w, self.inputs, self.tally, seconds,
                ROUNDS_PER_PART, self.arrivals,
            )
            rss_mb = host.peak_rss_mb([os.getpid(), *worker_pids(backend)])
        out = {"setups": setups, "rounds": rounds, "rss_mb": rss_mb}
        if with_mix:
            collector = Collector()
            with make_backend(w, collector=collector) as backend:
                closed_loop(backend, self.inputs, self.tally, w.window,
                            MIX_PROBE_S)
                snapshot = telemetry_of(backend, collector)
            out["transport"] = transport_mix(snapshot["counters"])
        return out

    def traced(self, seconds: float, spans_path: Path) -> dict:
        w = self.w
        spans = SpanLog()
        setup = self._setup_layers(spans)
        half = seconds / 2
        with make_backend(w) as backend:
            self.first_responses(backend)
            plain = summarise(run_rounds(
                backend, w, self.inputs, self.tally, half, ROUNDS_PER_PART,
                self.arrivals,
            ))
        collector = Collector()
        store_counts = Collector()
        with use_collector(store_counts):
            backend = make_backend(w, collector=collector)
        with backend:
            self.first_responses(backend)
            traced = summarise(run_rounds(
                backend, w, self.inputs, self.tally, half, ROUNDS_PER_PART,
                self.arrivals, spans,
            ))
            snapshot = telemetry_of(backend, collector)
        layers = layer_metrics(snapshot, spans)
        layers.update(self._micro())
        layers.update(setup)
        stored = store_counts.snapshot()["counters"]
        busy = plain["busy"]
        layers.update({
            "store.published_bytes": stored.get(
                "serve.store.published_bytes", 0),
            "store.ring_bytes": stored.get("serve.store.ring_bytes", 0),
            "gen.late_p50_ms": busy["late_p50_ms"],
            "gen.late_p99_ms": busy["late_p99_ms"],
            "p99_ms.light": plain["light"]["p99_ms"],
            "p99_ms.busy": busy["p99_ms"],
            "samples.closed": plain["closed"]["samples"],
            "samples.light": plain["light"]["samples"],
            "samples.busy": busy["samples"],
            "samples.setup": SETUP_PER_PART,
            "trace.overhead": (
                traced["closed"]["req_per_s"] / plain["closed"]["req_per_s"]
            ),
        })
        spans.write(spans_path)
        return {
            "layers": layers,
            "phases": plain,
            "traced_phases": traced,
            "spans": len(spans),
            "counters": snapshot["counters"],
        }

    def _setup_layers(self, spans: SpanLog) -> dict:
        """Set-up split into compile, publish and the rest, medians."""
        w, config = self.w, self.config
        compile_s, publish_s, rest_s = [], [], []
        for _ in range(SETUP_PER_PART):
            cold_caches()
            root = spans.open("setup")
            t0 = time.perf_counter_ns()
            cache = default_cache() if w.backend == "server" else TableCache()
            compile_tables(config, cache)
            t1 = time.perf_counter_ns()
            spans.add("setup.compile", t0, t1, root)
            publish = 0
            if w.backend == "pool":
                with SharedTableStore() as store:
                    store.publish(config, cache=cache)
                    publish = time.perf_counter_ns() - t1
                spans.add("setup.publish", t1, t1 + publish, root)
            t2 = time.perf_counter_ns()
            with make_backend(w, publish_cache=cache) as backend:
                self.first_responses(backend)
                t3 = time.perf_counter_ns()
            spans.add("setup.rest", t2, t3, root)
            spans.close(root)
            compile_s.append((t1 - t0) / 1e9)
            publish_s.append(publish / 1e9)
            # The pool publishes again from the warm cache while it is
            # built; that share is already counted under publish.
            rest_s.append((t3 - t2 - publish) / 1e9)
        return {
            "setup.compile_s": statistics.median(compile_s),
            "setup.publish_s": statistics.median(publish_s),
            "setup.rest_s": statistics.median(rest_s),
        }

    def _micro(self) -> dict:
        """``build_request`` and ``FxArray.from_float`` on the inputs."""
        engine = BatchEngine(config=self.config)
        fmt = engine.io_fmt
        requests = [(FunctionMode(m), x) for m, x in self.inputs]
        elements = sum(x.size for _, x in requests)

        def per_pass_ns(call) -> float:
            passes = 0
            start = time.perf_counter_ns()
            while True:
                for mode, x in requests:
                    call(mode, x)
                passes += 1
                elapsed = time.perf_counter_ns() - start
                if elapsed >= MICRO_S * 1e9:
                    return elapsed / passes

        build = per_pass_ns(
            lambda m, x: build_request(Future(), x, m, -1, engine))
        quantise = per_pass_ns(
            lambda m, x: FxArray.from_float(
                np.asarray(x, dtype=np.float64), fmt))
        return {
            "build_request.us_per_call": build / len(requests) / 1e3,
            "quantise.ns_per_element": quantise / elements,
        }


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot encode {type(value).__name__}")


def part_main(workload: str, seed: int, seconds: float, trace: bool,
              part: int, out_dir: Path, reference: Optional[Path]) -> int:
    """Run one part here and print its raw results as one JSON line."""
    shm_before = host.shm_segments()
    p = Part(workload, seed, part, reference)
    try:
        if trace:
            report = p.traced(
                seconds, out_dir / f"{workload}-seed{seed}-spans.npz"
            )
        else:
            report = p.end_to_end(seconds, with_mix=part == 0)
    finally:
        leaks = host.leaks(shm_before)
        host.stop_resource_tracker()
    report["tally"] = p.tally.counts()
    report["leaks"] = leaks
    print(json.dumps(report, default=_jsonable))
    return 0


# ----------------------------------------------------------------------
# The run: parts in fresh processes, pooled
# ----------------------------------------------------------------------
def run_part(workload: str, seed: int, seconds: float, trace: bool,
             part: int, reference: Path, timeout: float) -> dict:
    """Run one part in a fresh interpreter and return its raw results."""
    run_py = Path(__file__).with_name("run.py")
    command = [
        sys.executable, str(run_py),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
        "--part", str(part), "--reference", str(reference),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=timeout,
        cwd=run_py.resolve().parent.parent,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"part {part} exited with {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool_parts(parts: List[dict]) -> tuple:
    """Pool the parts into the end-to-end metrics and validity fields."""
    rounds = [r for p in parts for r in p["rounds"]]
    kept = quiet_rounds(rounds)
    phases = summarise(kept)
    setups = [s for p in parts for s in p["setups"]]
    counts = {k: sum(p["tally"][k] for p in parts) for k in parts[0]["tally"]}
    metrics = {
        "setup_s": statistics.fmean(
            statistics.median(p["setups"]) for p in parts
        ),
        "req_per_s": phases["closed"]["req_per_s"],
        "p50_ms.light": phases["light"]["p50_ms"],
        "p90_ms.light": phases["light"]["p90_ms"],
        "p50_ms.busy": phases["busy"]["p50_ms"],
        "p90_ms.busy": phases["busy"]["p90_ms"],
        "ok_frac": counts["ok"] / counts["attempted"],
        "rss_mb": max(p["rss_mb"] for p in parts),
    }
    every_round = summarise(rounds)
    validity = {
        "phases": phases,
        "all_rounds": every_round,
        "round_steal": [[r["steal"] for r in p["rounds"]] for p in parts],
        "rounds_kept": len(kept),
        "kept_steal_max": max(r["steal"] for r in kept),
        "per_part": [
            {
                "phases": summarise(p["rounds"]),
                "setup_s": statistics.median(p["setups"]),
                "rss_mb": p["rss_mb"],
            }
            for p in parts
        ],
        "setup_samples_s": setups,
        "closed_sheds": every_round["closed"]["sheds"],
        "transport": parts[0]["transport"],
    }
    return metrics, validity, counts


def main(workload: str, seed: int, seconds: float, trace: bool,
         out_dir: Path) -> int:
    shm_before = host.shm_segments()
    start = time.monotonic()
    count = 1 if trace else PARTS
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = out_dir / f"reference-{workload}-{seed}-{os.getpid()}.npz"
    parts = []
    try:
        for part in range(count):
            parts.append(run_part(
                workload, seed, seconds if trace else seconds / count, trace,
                part, reference,
                timeout=start + RUN_BUDGET_S - time.monotonic(),
            ))
    finally:
        reference.unlink(missing_ok=True)
    if trace:
        metrics = parts[0]["layers"]
        counts = parts[0]["tally"]
        validity = {k: v for k, v in parts[0].items()
                    if k not in ("layers", "tally", "leaks")}
        table = PER_LAYER
    else:
        metrics, validity, counts = pool_parts(parts)
        table = END_TO_END
    leaks = {
        "shm": sorted(
            set(s for p in parts for s in p["leaks"]["shm"])
            | (host.shm_segments() - shm_before)
        ),
        "processes": sorted(
            set(q for p in parts for q in p["leaks"]["processes"])
            | set(host.child_pids())
        ),
    }
    line = {
        "correct": counts["mismatches"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["attempted"] - counts["ok"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": metric.unit}
            for name, metric in table.items()
        },
    }
    w = WORKLOADS[workload]
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "parts": count,
        "host": host.fingerprint(),
        "settings": {
            "backend": w.backend, "n_bits": w.n_bits, "window": w.window,
            "light_rps": w.light_rps, "busy_rps": w.busy_rps,
            "set_size": w.set_size,
        },
        "tally": counts,
        "leaks": leaks,
        "validity": validity,
    }
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**detail, "result": line}, indent=2)
    )
    print(json.dumps(detail))
    print(json.dumps(line))
    if counts["mismatches"]:
        return 1
    if leaks["shm"] or leaks["processes"]:
        return 3
    return 0
