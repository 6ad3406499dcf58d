"""Shared helpers: statistics, host-speed scaling and process accounting."""

from __future__ import annotations

import heapq
import math
import os
import platform
import resource
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
_TICK = os.sysconf("SC_CLK_TCK")


class GateFailure(Exception):
    """A correctness gate failed: the run's output is wrong, not slow."""


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (not necessarily sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def latency_summary(latencies: list[float]) -> dict:
    """p50/p99 in ms plus the highest percentile with >= 10 samples beyond it."""
    count = len(latencies)
    tail_q = max(0.5, 1.0 - 10.0 / count) if count else 0.5
    return {
        "samples": count,
        "p50_ms": 1e3 * quantile(latencies, 0.5),
        "p99_ms": 1e3 * quantile(latencies, 0.99),
        "p99_has_10_beyond": count >= 1000,
        "tail_quantile": tail_q,
        "tail_ms": 1e3 * quantile(latencies, tail_q),
    }


#: End-to-end metrics every pool of segments yields.
POOLED_METRICS = ("ops_per_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_op")

# Host speed.  On a small shared virtual machine (measured on a 2-vCPU KVM
# guest) the neighbours slow fixed pure-Python work by 1.1x to 2x for seconds
# to minutes at a time, which swamps any change worth measuring.  So every measured
# stretch of a run is bracketed by a fixed reference kernel that uses no
# repro code, and each time is scaled by how much slower than the idle
# reference host the kernel ran: figures are in reference-host seconds.  The
# kernel (a heap and a dict) tracked the event core and the measure
# dispatcher to within about 8% while the host's speed varied twofold.  The
# unscaled figures and the slowdowns stay in each run's record.

#: The kernel's time on the idle reference host (2-vCPU KVM guest on an
#: Intel Xeon, CPython 3.11).
REFERENCE_KERNEL_S = 1.72e-3


def _reference_kernel() -> None:
    for _ in range(6):
        heap: list = []
        table: dict = {}
        for i in range(400):
            heapq.heappush(heap, ((i * 7919) % 1000, i))
            table[(i, i % 7)] = [i]
        while heap:
            heapq.heappop(heap)


def host_slowdown() -> float:
    """How many times slower than the idle reference host the host runs now."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - started)
    return best / REFERENCE_KERNEL_S


# A *segment* is one measured stretch of a run: a dict with its wall time
# ``wall``, the CPU it used ``cpu``, the latencies of the operations that
# completed in it ``latencies``, how many of those failed ``failed`` and the
# host's ``slowdown`` while it ran.


def pooled(segments: list[dict], *, scaled: bool = True) -> dict:
    """End-to-end figures over segments, in reference-host time when ``scaled``."""
    def scale(segment: dict) -> float:
        return segment["slowdown"] if scaled else 1.0

    latencies = [
        latency / scale(segment) for segment in segments for latency in segment["latencies"]
    ]
    failed = sum(segment["failed"] for segment in segments)
    wall = sum(segment["wall"] / scale(segment) for segment in segments)
    cpu = sum(segment["cpu"] / scale(segment) for segment in segments)
    summary = latency_summary(latencies)
    return {
        "ops_per_s": (len(latencies) - failed) / wall,
        "latency_p50_ms": summary["p50_ms"],
        "latency_p99_ms": summary["p99_ms"],
        "cpu_ms_per_op": 1e3 * cpu / len(latencies),
        "latency": summary,
    }


def run_record(segments: list[dict]) -> dict:
    """What a run's record keeps about its segments."""
    slowdowns = [segment["slowdown"] for segment in segments]
    return {
        "scaled": pooled(segments),
        "unscaled": pooled(segments, scaled=False),
        "segments": len(segments),
        "host_slowdown": {
            "min": min(slowdowns),
            "median": median(slowdowns),
            "max": max(slowdowns),
        },
    }


def timed_in_reference(call) -> tuple[object, float]:
    """Run ``call()``; return its result and its duration in reference-host seconds."""
    before = host_slowdown()
    started = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - started
    return result, elapsed / ((before + host_slowdown()) / 2.0)


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def setup_seconds(prepare, samples: int, batch: int) -> list[float]:
    """Seconds per ``prepare()`` call on the reference host, one figure per batch of calls.

    A set-up of a millisecond or two is too short to time alone against a
    host that stalls for as long, so each sample times ``batch`` calls.
    """
    def calls() -> None:
        for _ in range(batch):
            prepare()

    return [timed_in_reference(calls)[1] / batch for _ in range(samples)]


def machine_stamp(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "host_slowdown_at_start": host_slowdown(),
        "seed": seed,
    }
