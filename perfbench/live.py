"""Traced layers of a real cluster: the service and storage layers.

A threshold(5, b=1) cluster of honest replica processes on loopback, with
``fsync=always`` on a fresh, empty data root, driven by two closed-loop
:class:`ServiceQuorumClient` coroutines in one asyncio thread with 90%
writes.  Each write runs two quorum phases and every accepted WRITE is
journalled and fsynced before its ack.  The traced run of every listed
workload borrows its ``service.*``, ``storage.*``, ``service.harness.*``
and ``import.*`` figures from a short run of this (see ``run.py``).  It is
not a workload of its own: its end-to-end figures did not repeat within the
benchmark's bounds on a shared 2-vCPU host, where six processes contend for
two cores and fsync waits on a shared disk.

The set-up starts a fresh cluster, checks that state discovery finds no
inherited register, opens the clients' connections and warms them up; the
measured phases start after that.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    OUT,
    GateFailure,
    cpu_seconds,
    host_slowdown,
    median,
    subprocess_env,
)
from tracer import Tracer

from repro.api.registry import SystemSpec
from repro.service import wire
from repro.service.client import ServiceQuorumClient
from repro.service.harness import ClusterSpec, ServiceCluster
from repro.simulation.client import RetryPolicy
from repro.simulation.engine import resolve_strategy
from repro.simulation.history import HistoryRecorder
from repro.simulation.messages import Timestamp, ValueTimestampPair
from repro.storage import DurableStore
from repro.storage.wal import MAGIC

SPEC = SystemSpec("threshold", {"n": 5, "b": 1})
B = 1
CLIENTS = 2
WRITE_FRACTION = 0.9
WARMUP_OPS = 4
POLICY = RetryPolicy(request_timeout=2.0, retry_unvouched_reads=True)
JOURNAL_SAMPLES = 200


class _Session:
    """One fresh cluster with connected, warmed-up clients."""

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.cluster = ServiceCluster(
            ClusterSpec(SPEC, b=B, seed=seed, data_root=str(run_dir / "data"), fsync="always"),
            run_dir / "ready",
        )
        self.seed = seed
        self.history = HistoryRecorder()
        self.clients: list[ServiceQuorumClient] = []
        self.ready_s_max = 0.0

    async def open(self) -> None:
        spawned = time.time()
        self.cluster.start()
        self.ready_s_max = max(
            handle.ready_file.stat().st_mtime for handle in self.cluster.replicas
        ) - spawned
        # A never-written cluster answers with its initial zero-timestamp
        # pair; anything newer would be state inherited from an earlier run.
        inherited = await self.cluster.discover_pair()
        if inherited is not None and inherited.timestamp != Timestamp.zero():
            raise GateFailure(f"fresh cluster already holds register state {inherited}")
        system = self.cluster.system
        strategy = resolve_strategy(system, None)
        self.clients = [
            ServiceQuorumClient(
                client_id,
                system,
                self.cluster.endpoints(),
                b=B,
                policy=POLICY,
                rng=np.random.default_rng([self.seed, client_id]),
                strategy=strategy,
                history=self.history,
            )
            for client_id in range(CLIENTS)
        ]
        self.kinds = [np.random.default_rng([self.seed, 100 + i]) for i in range(CLIENTS)]
        self.written = [0] * CLIENTS
        for client in self.clients:
            for _ in range(WARMUP_OPS // 2):
                await self._op(client, "write")
                await self._op(client, "read")

    async def _op(self, client: ServiceQuorumClient, kind: str):
        if kind == "write":
            self.written[client.client_id] += 1
            return await client.write((f"client-{client.client_id}", self.written[client.client_id]))
        return await client.read()

    def replica_cpu(self) -> float:
        return sum(cpu_seconds(handle.process.pid) for handle in self.cluster.replicas)

    async def phase(self, seconds: float) -> list[tuple[float, bool, int]]:
        """Closed loop on every client for ``seconds``; (latency, success, attempts) per op."""
        samples: list[tuple[float, bool, int]] = []
        clock = time.perf_counter
        deadline = clock() + seconds

        async def loop(client: ServiceQuorumClient) -> None:
            kinds = self.kinds[client.client_id]
            while clock() < deadline:
                kind = "write" if kinds.random() < WRITE_FRACTION else "read"
                started = clock()
                result = await self._op(client, kind)
                samples.append((clock() - started, result.success, result.attempts))

        await asyncio.gather(*(loop(client) for client in self.clients))
        return samples

    async def replica_frames(self, kind: str) -> list[dict]:
        fetch = self.cluster.status if kind == "STATUS" else self.cluster.metrics
        return [await fetch(index) for index in range(len(self.cluster.replicas))]

    def check_history(self) -> None:
        check = self.history.check()
        if not check.ok:
            raise GateFailure(f"live history check failed: {check.violations[:3]}")

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.cluster.terminate()


def run_traced(seed: int, seconds: float) -> dict:
    """Set up one fresh cluster and run the traced pass on it (``_run_traced``)."""
    base = OUT / f"live-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    session = _Session(seed, base)
    try:
        return asyncio.run(_open_and_trace(session, seconds, base))
    finally:
        # Backstop for an interrupted run: no replica process outlives it.
        session.cluster.terminate()
        shutil.rmtree(base, ignore_errors=True)


async def _open_and_trace(session: _Session, seconds: float, base: Path) -> dict:
    try:
        await session.open()
        return await _run_traced(session, seconds, base)
    finally:
        await session.close()


def _storage_counts(frames: list[dict]) -> tuple[int, int]:
    syncs = records = 0
    for frame in frames:
        storage = frame.get("storage", {})
        if storage.get("durable"):
            syncs += storage["sync_count"]
            records += storage["wal_last_seq"]
    return syncs, records


def _journal_us(base: Path) -> float:
    """Median time of DurableStore.journal (fsync=always) with the service's record shape."""
    samples = []
    with DurableStore(base / "journal-probe", fsync="always", snapshot_every=0) as store:
        for counter in range(1, JOURNAL_SAMPLES + 1):
            pair = ValueTimestampPair(
                value=wire.canonical_value(("client-0", counter)),
                timestamp=Timestamp(counter, 0),
            )
            started = time.perf_counter()
            store.journal(pair)
            samples.append(time.perf_counter() - started)
    return 1e6 * median(samples)


def _import_seconds() -> float:
    """``import repro`` in a fresh interpreter."""
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)",
        ],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.split()[-1])


#: Per-exchange scratch: set when the client converts a request, which it
#: does in the task of one replica exchange; the write and read tasks that
#: exchange spawns inherit it, so the reply wait can be paired per exchange.
_EXCHANGE: contextvars.ContextVar = contextvars.ContextVar("perfbench_exchange", default=None)


def _install(tracer: Tracer, reply_waits: list[float]) -> None:
    counters = tracer.counters
    encode = tracer.traced(wire.encode_frame, "service.wire.encode")
    decode = tracer.traced(wire.decode_frame, "service.wire.decode")
    convert = tracer.traced(wire.request_to_frame, "service.wire.convert")
    write = tracer.traced(wire.write_frame, "service.wire.write")
    read = tracer.traced(wire.read_frame, "service.wire.read")

    def counted_encode(payload):
        frame = encode(payload)
        counters["bytes"] += len(frame)
        return frame

    def counted_decode(data):
        payload, remainder = decode(data)
        counters["bytes"] += len(data) - len(remainder)
        return payload, remainder

    def exchange_start(request):
        _EXCHANGE.set({})
        return convert(request)

    async def timed_write(writer, payload):
        await write(writer, payload)
        exchange = _EXCHANGE.get()
        if exchange is not None:
            exchange["written"] = time.perf_counter()

    async def timed_read(reader):
        payload = await read(reader)
        exchange = _EXCHANGE.get()
        if exchange is not None and "written" in exchange:
            reply_waits.append(time.perf_counter() - exchange.pop("written"))
        return payload

    tracer.patch(wire, "encode_frame", counted_encode)
    tracer.patch(wire, "decode_frame", counted_decode)
    tracer.patch(wire, "request_to_frame", exchange_start)
    tracer.patch(wire, "write_frame", timed_write)
    tracer.patch(wire, "read_frame", timed_read)
    tracer.wrap(wire, "frame_to_reply", "service.wire.convert")
    tracer.wrap(ServiceQuorumClient, "read", "service.client.op", new_op=True)
    tracer.wrap(ServiceQuorumClient, "write", "service.client.op", new_op=True)


async def _run_traced(session: _Session, seconds: float, base: Path) -> dict:
    """Alternate untraced and traced quarters of the run on one cluster."""
    tracer = Tracer()
    reply_waits: list[float] = []
    loop = asyncio.get_running_loop()
    tasks = 0

    def counting_factory(loop, coro, **kwargs):
        nonlocal tasks
        tasks += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    status_before = await session.replica_frames("STATUS")
    plain: list = []
    traced: list = []
    plain_wall = traced_wall = 0.0
    client_cpu = replica_cpu = 0.0
    slowdown = host_slowdown()
    for quarter in range(4):
        if quarter % 2 == 0:
            cpu_before = time.process_time()
            replica_before = session.replica_cpu()
            started = time.perf_counter()
            plain += await session.phase(seconds / 4)
            wall = time.perf_counter() - started
            client_cpu += time.process_time() - cpu_before
            replica_cpu += session.replica_cpu() - replica_before
        else:
            _install(tracer, reply_waits)
            loop.set_task_factory(counting_factory)
            try:
                started = time.perf_counter()
                traced += await session.phase(seconds / 4)
                wall = time.perf_counter() - started
            finally:
                loop.set_task_factory(None)
                tracer.restore()
        after = host_slowdown()
        scaled_wall = wall / ((slowdown + after) / 2.0)
        if quarter % 2 == 0:
            plain_wall += scaled_wall
        else:
            traced_wall += scaled_wall
        slowdown = after
    status_after = await session.replica_frames("STATUS")
    metrics_frames = await session.replica_frames("METRICS")
    session.check_history()

    ops = len(traced)
    self_times = tracer.self_times()
    operations = tracer.durations("service.client.op")
    handle_us = 1e6 * median(
        [frame["latency_seconds"]["p50"] for frame in metrics_frames if frame["latency_seconds"]["p50"]]
    )
    reply_wait_us = 1e6 * median(reply_waits)
    syncs_before, records_before = _storage_counts(status_before)
    syncs_after, records_after = _storage_counts(status_after)
    journalled = records_after - records_before
    wal_sizes = [
        (frame["storage"]["wal_bytes"] - len(MAGIC)) / frame["storage"]["wal_records"]
        for frame in status_after
        if frame["storage"].get("durable") and frame["storage"]["wal_records"]
    ]

    def mean_us(name: str) -> float:
        durations = tracer.durations(name)
        return 1e6 * sum(durations) / len(durations)

    layers = {
        "service.client.self_us_per_op": 1e6
        * tracer.self_total({"service.client.op"}, self_times)
        / ops,
        "service.client.tasks_per_op": tasks / ops,
        "service.client.cpu_ms_per_op": 1e3 * client_cpu / len(plain),
        "service.client.attempts_per_op": statistics.fmean(a for _l, _s, a in traced),
        "service.wire.encode_us": mean_us("service.wire.encode"),
        "service.wire.decode_us": mean_us("service.wire.decode"),
        "service.wire.convert_us": mean_us("service.wire.convert"),
        "service.wire.frames_per_op": len(tracer.spans_named("service.wire.write")) / ops,
        "service.wire.bytes_per_op": tracer.counters["bytes"] / ops,
        "service.wire.reply_wait_us": reply_wait_us,
        "service.replica.handle_us_p50": handle_us,
        "service.replica.cpu_ms_per_op": 1e3 * replica_cpu / len(plain),
        "service.replica.unaccounted_us": reply_wait_us - handle_us,
        "storage.fsyncs_per_write": (syncs_after - syncs_before) / journalled if journalled else 0.0,
        "storage.wal_bytes_per_write": statistics.fmean(wal_sizes) if wal_sizes else 0.0,
        "storage.journal_us": _journal_us(base),
        "service.harness.ready_s_max": session.ready_s_max,
        "import.repro_s": _import_seconds(),
        "trace.overhead_frac": 1.0 - (ops / traced_wall) / (len(plain) / plain_wall),
        "trace.unaccounted_frac": tracer.self_total({"service.client.op"}, self_times)
        / sum(operations),
    }
    failed = sum(1 for _l, success, _a in plain + traced if not success)
    return {
        "attempted": len(plain) + ops,
        "failed": failed,
        "layers": layers,
        "tracer": tracer,
        "detail": {"plain_ops": len(plain), "traced_ops": ops, "storage_journalled": journalled},
    }
