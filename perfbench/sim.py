"""Workload ``sim-event-long``: the event core with no sockets.

``run_event_workload`` on threshold(13, 3) with 8 simulated closed-loop
clients and ``LatencyModel.uniform(1.0, 0.5)``.  A run is one call that
simulates 1600 operations per second of the run's budget (48k at the
thirty seconds ``BENCHMARK.json`` sets, about that many seconds of work on
the reference host): long enough that the growing history slows the later
operations, which short runs hide.  The host-speed probe runs every 500
completions, outside the timed segments (see ``common.py``).  Reads retry when an interleaved write
splits their votes, so no operation fails.  ``setup_s`` is the time of one
``prepare()`` call (system build and strategy resolve), in this process
after the imports: the median over 21 samples of a batch of calls each.

An operation's latency here is wall-clock time from the client starting it
to its completion callback, so it grows with the per-event cost and with
the number of events in flight.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    POOLED_METRICS,
    GateFailure,
    host_slowdown,
    median,
    own_peak_rss_mb,
    pooled,
    run_record,
    setup_seconds,
    timed_in_reference,
)
from tracer import Tracer

from repro.api.registry import SystemSpec, build
from repro.simulation.client import AsyncQuorumClient
from repro.simulation.engine import resolve_strategy
from repro.simulation.events import EventNetwork, EventScheduler, LatencyModel
from repro.simulation.history import HistoryRecorder
from repro.simulation.runner import run_event_workload
from repro.simulation.server import ReplicaServer

SPEC = SystemSpec("threshold", {"n": 13, "b": 3})
B = 3
CLIENTS = 8
OPS_PER_SECOND = 1600
SEGMENT_OPS = 500
SETUPS = 21
#: ``prepare()`` calls per set-up sample, about 25 ms on the reference host.
SETUP_BATCH = 20
LATENCY = LatencyModel.uniform(1.0, 0.5)
WRITE_FRACTION = 0.5


def prepare():
    system = build(SPEC)
    resolve_strategy(system, None)
    return system


def _check(result) -> None:
    if not result.check.ok:
        raise GateFailure(f"sim-event-long history check failed: {result.check.violations[:3]}")


class _LatencyProbe:
    """Wall-clock latency of every simulated operation, via the public client API.

    Every SEGMENT_OPS completions it runs the host-speed probe and marks the
    wall clock and the process's CPU time.  The probe's own time is taken
    out of every latency it interrupted and out of every segment.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.marks: list[tuple[tuple, tuple, int, float]] = []
        self._probing = 0.0
        self._patches = Tracer()

    def mark(self) -> None:
        """End the current segment, probe the host, start the next segment."""
        ended = (time.perf_counter(), time.process_time())
        slowdown = host_slowdown()
        begun = (time.perf_counter(), time.process_time())
        self._probing += begun[0] - ended[0]
        self.marks.append((ended, begun, len(self.latencies), slowdown))

    def install(self) -> None:
        latencies = self.latencies
        clock = time.perf_counter
        read = AsyncQuorumClient.read
        write = AsyncQuorumClient.write
        probe = self

        def timed(on_complete):
            started = clock()
            probing = probe._probing

            def done(result):
                latencies.append(clock() - started - (probe._probing - probing))
                if len(latencies) % SEGMENT_OPS == 0:
                    probe.mark()
                if on_complete is not None:
                    on_complete(result)

            return done

        def timed_read(client, on_complete=None):
            return read(client, timed(on_complete))

        def timed_write(client, value, on_complete=None):
            return write(client, value, timed(on_complete))

        self._patches.patch(AsyncQuorumClient, "read", timed_read)
        self._patches.patch(AsyncQuorumClient, "write", timed_write)

    def segments(self, failed: int) -> list[dict]:
        """Segments between marks; the last one holds the history check."""
        segments = [
            {
                "wall": ended[0] - begun[0],
                "cpu": ended[1] - begun[1],
                "latencies": self.latencies[first:last],
                "failed": 0,
                "slowdown": (slow_before + slow_after) / 2.0,
            }
            for (_e, begun, first, slow_before), (ended, _b, last, slow_after) in zip(
                self.marks, self.marks[1:]
            )
        ]
        segments[0]["failed"] = failed
        return segments

    def restore(self) -> None:
        self._patches.restore()


def _callback_layer(callback) -> str:
    qualname = getattr(callback, "__qualname__", "")
    if qualname.startswith("EventNetwork.send."):
        return "simulation.network.deliver"
    if qualname.startswith("EventNetwork._deliver."):
        return "simulation.client.reply"
    if getattr(callback, "__module__", "") == "repro.simulation.client":
        return "simulation.client.timeout"
    return "simulation.client.next_op"


class _EventTrace:
    """Per-layer spans and counters over the event core's public surface."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.record_times: list[float] = []
        self.pending_at_end = 0
        self._scheduler: EventScheduler | None = None

    def install(self) -> None:
        tracer = self.tracer
        counters = tracer.counters
        trace = self

        schedule = tracer.traced(EventScheduler.schedule, "simulation.events.schedule")

        def traced_schedule(scheduler, delay, callback):
            counters["scheduled"] += 1
            return schedule(scheduler, delay, tracer.wrap_callback(callback, _callback_layer(callback)))

        run = tracer.traced(EventScheduler.run, "simulation.events.run")

        def traced_run(scheduler, **kwargs):
            trace._scheduler = scheduler
            before = scheduler.events_processed
            try:
                return run(scheduler, **kwargs)
            finally:
                counters["fired"] += scheduler.events_processed - before

        record = tracer.traced(HistoryRecorder.record, "simulation.history.record")

        def traced_record(recorder, **kwargs):
            trace.record_times.append(time.perf_counter())
            result = record(recorder, **kwargs)
            scheduler = trace._scheduler
            if scheduler is not None:
                # Heap entries still queued, cancelled timeouts included.
                trace.pending_at_end = len(getattr(scheduler, "_heap", ()))
            return result

        tracer.patch(EventScheduler, "schedule", traced_schedule)
        tracer.patch(EventScheduler, "run", traced_run)
        tracer.patch(HistoryRecorder, "record", traced_record)
        tracer.wrap(HistoryRecorder, "check", "simulation.history.check")
        tracer.wrap(EventNetwork, "send", "simulation.network.send")
        for attribute in ("handle_timestamp", "handle_read", "handle_write"):
            tracer.wrap(ReplicaServer, attribute, "simulation.server.handle")
        tracer.wrap(AsyncQuorumClient, "read", "simulation.client.op", new_op=True)
        tracer.wrap(AsyncQuorumClient, "write", "simulation.client.op", new_op=True)

    def metrics(self, ops: int) -> dict:
        tracer = self.tracer
        self_times = tracer.self_times()
        counters = tracer.counters
        times = self.record_times
        quarter = (times[-1] - times[0]) / 4.0
        early = sum(1 for t in times if t <= times[0] + quarter)
        late = sum(1 for t in times if t >= times[-1] - quarter)
        handle = tracer.durations("simulation.server.handle")
        roots = tracer.durations("simulation.runner.run")
        return {
            "simulation.events.scheduled_per_op": counters["scheduled"] / ops,
            "simulation.events.fired_per_op": counters["fired"] / ops,
            "simulation.events.fired_over_scheduled": counters["fired"] / counters["scheduled"],
            "simulation.events.pending_at_end": self.pending_at_end,
            "simulation.events.self_us_per_op": 1e6
            * tracer.self_total({"simulation.events.run", "simulation.events.schedule"}, self_times)
            / ops,
            "simulation.network.messages_per_op": len(tracer.spans_named("simulation.network.send")) / ops,
            "simulation.server.handle_us": 1e6 * sum(handle) / len(handle),
            "simulation.client.self_us_per_op": 1e6
            * tracer.self_total(
                {
                    "simulation.client.op",
                    "simulation.client.reply",
                    "simulation.client.timeout",
                    "simulation.client.next_op",
                },
                self_times,
            )
            / ops,
            "simulation.history.check_s": median(tracer.durations("simulation.history.check")),
            "simulation.history.late_over_early": late / early,
            "trace.unaccounted_frac": tracer.self_total({"simulation.runner.run"}, self_times)
            / sum(roots),
        }


def _one_run(system, seed: int, ops_per_client: int, runner=run_event_workload):
    return runner(
        system,
        b=B,
        num_clients=CLIENTS,
        operations_per_client=ops_per_client,
        latency=LATENCY,
        write_fraction=WRITE_FRACTION,
        retry_unvouched_reads=True,
        rng=np.random.default_rng(seed),
    )


def run(seed: int, seconds: float, *, trace: bool, smoke: bool) -> dict:
    ops_per_client = max(1, round(seconds * OPS_PER_SECOND / CLIENTS))
    if trace:
        # Half size: the pass runs the workload twice and tracing nearly
        # doubles the second run's time.
        return _run_traced(prepare(), seed, max(1, ops_per_client // 2))

    setups = setup_seconds(prepare, 3 if smoke else SETUPS, SETUP_BATCH)
    system = prepare()
    probe = _LatencyProbe()
    probe.install()
    try:
        probe.mark()
        result = _one_run(system, seed, ops_per_client)
        probe.mark()
    finally:
        probe.restore()
    _check(result)
    if len(probe.latencies) != result.operations:
        raise GateFailure("sim-event-long: not every operation completed")
    segments = probe.segments(result.failed_operations)
    figures = pooled(segments)
    return {
        "attempted": result.operations,
        "failed": result.failed_operations,
        "metrics": {
            **{name: figures[name] for name in POOLED_METRICS},
            "setup_s": median(setups),
            "peak_rss_mb": own_peak_rss_mb(),
        },
        "detail": {
            **run_record(segments),
            "failed_frac": result.failed_operations / result.operations,
            "check_violations": 0,
            "setup_samples": setups,
        },
    }


def _run_traced(system, seed: int, ops_per_client: int) -> dict:
    """One untraced and one traced call on the same inputs; layers from the traced one."""
    event_trace = _EventTrace()
    runner = event_trace.tracer.traced(run_event_workload, "simulation.runner.run")
    plain, plain_s = timed_in_reference(lambda: _one_run(system, seed, ops_per_client))
    _check(plain)
    event_trace.install()
    try:
        traced, traced_s = timed_in_reference(
            lambda: _one_run(system, seed, ops_per_client, runner)
        )
    finally:
        event_trace.tracer.restore()
    _check(traced)
    layers = event_trace.metrics(traced.operations)
    layers["trace.overhead_frac"] = 1.0 - plain_s / traced_s
    return {
        "attempted": plain.operations + traced.operations,
        "failed": plain.failed_operations + traced.failed_operations,
        "layers": layers,
        "tracer": event_trace.tracer,
        "detail": {"plain_s": plain_s, "traced_s": traced_s},
    }
