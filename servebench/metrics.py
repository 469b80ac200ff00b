"""Every metric the benchmark emits: unit, direction, and what it explains.

``BENCHMARK.json`` lists the same names, units and directions (its
schema has no room for more, so the reasoning lives here). For each
per-layer metric, ``moves`` records the prediction a later change is
judged against: which end-to-end metric it should move, on which
workload. The self-tests hold the two in step.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    unit: str
    better: str
    #: End-to-end: the regression bound as a share of the parent's
    #: median. Per-layer: ``None``.
    bound: object
    #: What the metric is (end-to-end) or what it should move (per-layer).
    moves: str


END_TO_END = {
    "setup_s": Metric(
        "s", "lower", 0.25,
        "construction to the first correct response in every mode, from "
        "cold table and LUT caches; mean over the run's processes of each "
        "one's median set-up"),
    "req_per_s": Metric(
        "1/s", "higher", 0.25,
        "completed requests per second in the closed loop"),
    "p50_ms.light": Metric(
        "ms", "lower", 0.25, "median latency at the light rate, from due"),
    "p90_ms.light": Metric(
        "ms", "lower", 0.25, "p90 latency at the light rate, from due"),
    "p50_ms.busy": Metric(
        "ms", "lower", 0.25, "median latency at the busy rate, from due"),
    "p90_ms.busy": Metric(
        "ms", "lower", 0.25, "p90 latency at the busy rate, from due"),
    "ok_frac": Metric(
        "fraction", "higher", 0.01,
        "byte-identical responses over requests attempted"),
    "rss_mb": Metric(
        "MiB", "lower", 0.1, "peak resident memory, parent plus worker"),
}

_FRONT = ("req_per_s and p50_ms.busy on scalar_server, then scalar_pool; "
          "not bulk_pool")
_QUANT = ("req_per_s on scalar_server and scalar_pool (per call) and on "
          "bulk_pool (per element)")
_BATCH = "p50_ms.* and p90_ms.* on scalar_server and scalar_pool"
_TRANSPORT = ("req_per_s and p50_ms.* on bulk_pool, a little on "
              "scalar_pool; cannot move scalar_server (0 there)")
_SETUP = "setup_s (mostly bulk_pool) and rss_mb on both pool workloads"
_VALID = "nothing: validity of the run (generator, samples, tracing)"

PER_LAYER = {
    "submit.us_per_call": Metric("us", "lower", None, _FRONT),
    "resolve.ms_p50": Metric("ms", "lower", None, _FRONT),
    "residual.ms_mean": Metric(
        "ms", "lower", None,
        "resolve minus queue wait, ship and kernel: the part no program "
        "timer explains yet; reported, never asserted"),
    "build_request.us_per_call": Metric("us", "lower", None, _QUANT),
    "quantise.ns_per_element": Metric("ns", "lower", None, _QUANT),
    "batch.fill_mean": Metric("count", "higher", None, _BATCH),
    "batch.elements_mean": Metric("count", "higher", None, _BATCH),
    "queue_wait.mean_us": Metric("us", "lower", None, _BATCH),
    **{
        f"kernel.ns_per_element.{mode}": Metric(
            "ns", "lower", None,
            "req_per_s on bulk_pool; barely the scalar workloads")
        for mode in ("sigmoid", "tanh", "exp", "softmax")
    },
    **{
        f"kernel.us_per_batch.{mode}": Metric(
            "us", "lower", None,
            "req_per_s on bulk_pool; barely the scalar workloads")
        for mode in ("sigmoid", "tanh", "exp", "softmax")
    },
    "ship.us_per_batch": Metric("us", "lower", None, _TRANSPORT),
    "ring.share": Metric("fraction", "higher", None, _TRANSPORT),
    "ring.oversize": Metric("count", "lower", None, _TRANSPORT),
    "ring.full": Metric("count", "lower", None, _TRANSPORT),
    "ipc.bytes_per_request": Metric("B", "lower", None, _TRANSPORT),
    "setup.compile_s": Metric("s", "lower", None, _SETUP),
    "setup.publish_s": Metric("s", "lower", None, _SETUP),
    "setup.rest_s": Metric("s", "lower", None, _SETUP),
    "store.published_bytes": Metric("B", "lower", None, _SETUP),
    "store.ring_bytes": Metric("B", "lower", None, _SETUP),
    "gen.late_p50_ms": Metric("ms", "lower", None, _VALID),
    "gen.late_p99_ms": Metric("ms", "lower", None, _VALID),
    "p99_ms.light": Metric(
        "ms", "lower", None, "reported, not gated: p99 is not steady here"),
    "p99_ms.busy": Metric(
        "ms", "lower", None, "reported, not gated: p99 is not steady here"),
    "samples.closed": Metric("count", "higher", None, _VALID),
    "samples.light": Metric("count", "higher", None, _VALID),
    "samples.busy": Metric("count", "higher", None, _VALID),
    "samples.setup": Metric("count", "higher", None, _VALID),
    "trace.overhead": Metric(
        "ratio", "higher", None,
        "traced over untraced req_per_s; 1.0 means tracing costs nothing"),
}


def benchmark_entries(table: dict, with_bound: bool) -> list:
    """The ``BENCHMARK.json`` rows for one table."""
    rows = []
    for name, metric in table.items():
        row = {"name": name, "unit": metric.unit, "better": metric.better}
        if with_bound:
            row["bound"] = metric.bound
        rows.append(row)
    return rows
