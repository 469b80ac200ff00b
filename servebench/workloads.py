"""The three serving workloads and their seeded, bounded input sets.

Each workload names a backend (the in-process ``InferenceServer`` or a
one-worker ``WorkerPool``: the parent plus one worker is two processes,
which is what a 2-CPU host can run without oversubscribing), a bit
width, a traffic shape, the closed-loop window and the two fixed
open-loop rates.

The rates are absolute. They were fixed from closed-loop capacity
measured on a 2-vCPU Xeon (Python 3.11, numpy 2.4): scalar_server
11k-20k req/s, scalar_pool 12k-17k, bulk_pool 530-2,100 (the low end
during a stretch of about 30% CPU steal). ``busy`` sits at or below half
the lowest capacity seen, because latency near the knee is not steady.
The closed-loop windows keep the outstanding elements far below the
server's 1,048,576-element pending pool (8 x 65,536 at most), so the
capacity phase never sheds.

Inputs cycle through a bounded seeded set, so memory measures the server
rather than the generator. Two choices keep the set's *cost* independent
of the seed while its *values* change with it: every mode gets exactly a
quarter of the set, and bulk sizes are drawn stratified over the
log-uniform range (one draw per stratum), so the mean request size does
not wander from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.loadgen import RequestMix, make_requests

MODES = ("sigmoid", "tanh", "exp", "softmax")

#: Per-mode input domains, the same as ``repro.loadgen``'s request mix:
#: exp only sees x <= 0 (Eq. 13), softmax rows span both signs.
DOMAINS = {
    "sigmoid": (-6.0, 6.0),
    "tanh": (-6.0, 6.0),
    "exp": (-8.0, 0.0),
    "softmax": (-4.0, 4.0),
}

#: Bulk request sizes are log-uniform over [BULK_MIN, BULK_MAX] elements;
#: softmax requests are stacks of SOFTMAX_ROW-wide rows.
BULK_MIN = 1024
BULK_MAX = 65536
SOFTMAX_ROW = 64

Request = Tuple[str, np.ndarray]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str        # "server" or "pool"
    n_bits: int
    traffic: str        # "scalar" or "bulk"
    set_size: int       # distinct requests the run cycles through
    window: int         # closed-loop requests outstanding
    light_rps: float    # open-loop Poisson rates (absolute)
    busy_rps: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scalar_server",
            why=(
                "single-value requests into the in-process server at 12 "
                "bits: the per-request submit path (quantise, admission, "
                "coalescing, scatter, future resolution) dominates"
            ),
            backend="server", n_bits=12, traffic="scalar",
            set_size=4096, window=64, light_rps=1000.0, busy_rps=3000.0,
        ),
        Workload(
            name="scalar_pool",
            why=(
                "the same traffic into a one-worker pool on the ring "
                "transport: the submit path plus gather, doorbell, worker "
                "wake and receive"
            ),
            backend="pool", n_bits=12, traffic="scalar",
            set_size=4096, window=64, light_rps=1000.0, busy_rps=3000.0,
        ),
        Workload(
            name="bulk_pool",
            why=(
                "1k-64k element requests into a one-worker pool at 16 "
                "bits: per-element quantise, ring or pipe copies and the "
                "table gather dominate, per-request costs do not"
            ),
            backend="pool", n_bits=16, traffic="bulk",
            set_size=128, window=8, light_rps=150.0, busy_rps=250.0,
        ),
    )
}


def make_inputs(workload: Workload, seed: int) -> List[Request]:
    """The workload's bounded request set; same seed, same bytes."""
    rng = np.random.default_rng(seed)
    per_mode = workload.set_size // len(MODES)
    requests: List[Request] = []
    for mode in MODES:
        if workload.traffic == "scalar":
            mix = RequestMix(
                weights={mode: 1.0}, max_elements=1, min_row=8, max_row=8
            )
            requests.extend(make_requests(per_mode, mix, rng=rng))
        else:
            requests.extend(_bulk_requests(mode, per_mode, rng))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def _bulk_requests(mode: str, count: int,
                   rng: np.random.Generator) -> List[Request]:
    """``count`` log-uniform sizes, one draw per stratum, then values."""
    u = (np.arange(count) + rng.random(count)) / count
    sizes = np.rint(BULK_MIN * (BULK_MAX / BULK_MIN) ** u).astype(int)
    low, high = DOMAINS[mode]
    out: List[Request] = []
    for size in sizes:
        if mode == "softmax":
            rows = max(1, int(size) // SOFTMAX_ROW)
            x = rng.uniform(low, high, size=(rows, SOFTMAX_ROW))
        else:
            x = rng.uniform(low, high, size=int(size))
        out.append((mode, x))
    return out


def probe_requests() -> List[Request]:
    """One small request per mode: what set-up waits on."""
    return [
        ("sigmoid", np.array([0.5])),
        ("tanh", np.array([-0.5])),
        ("exp", np.array([-0.5])),
        ("softmax", np.linspace(-1.0, 1.0, 8)),
    ]
