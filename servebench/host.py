"""Host facts a result must carry, peak memory, and the leak check."""

from __future__ import annotations

import os
import platform
from typing import Iterable, List, Set, Tuple

import numpy as np

SHM_DIR = "/dev/shm"


def fingerprint() -> dict:
    """CPU model, usable CPUs, Python and numpy versions."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def cpu_ticks() -> Tuple[int, int]:
    """Busy and stolen CPU ticks of the whole host so far (``/proc/stat``)."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """The share of wanted CPU time the hypervisor gave to someone else.

    A VM's vCPU that has work but is not scheduled accrues steal; on a
    shared host this comes in episodes of a minute or two in which every
    timing stretches, whatever the program does.
    """
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def child_pids() -> List[int]:
    """Live processes whose parent is this one.

    Python's shared-memory resource tracker is a helper that lives as
    long as this process by design; it is not a leak and is skipped.
    """
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        # fields[0] is the state, fields[1] the parent pid; a zombie has
        # exited and only waits to be reaped.
        if int(fields[1]) != me or fields[0] == "Z":
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                if b"resource_tracker" in cmdline.read():
                    continue
        except OSError:
            continue
        children.append(int(entry))
    return children


def stop_resource_tracker() -> None:
    """Stop and reap the helper that tracks shared-memory segments.

    The program's shared memory starts it on first use; stopping it here
    means the run leaves no process behind when it exits.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def leaks(shm_before: Set[str]) -> dict:
    """Shared-memory segments and processes this run left behind."""
    return {
        "shm": sorted(shm_segments() - shm_before),
        "processes": child_pids(),
    }
