"""Benchmark for the vectorised workload scenario engine.

Measures end-to-end workload throughput (operations per second) on the
Figure 1 system — the M-Grid over a 7×7 grid masking ``b = 3`` — and compares
three execution paths:

* the **vectorised engine** on a 10⁵-operation batch,
* the **sequential reference** path (same semantics, per-operation Python
  loop over int bitmasks), and
* the **message-level path** (the pre-engine simulator: replicas from
  ``build_replicas`` behind a ``SynchronousNetwork``, with ``QuorumClient``
  building request/reply objects per delivery), on a smaller batch
  extrapolated to ops/sec.

The acceptance bar of the engine PR is locked in here: the vectorised engine
must deliver at least 20× the message-level path's throughput, and must agree
bit-for-bit with the sequential reference for the same seed.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import format_table

from repro import MGrid
from repro.simulation import (
    FaultScenario,
    QuorumClient,
    SynchronousNetwork,
    build_replicas,
    run_scenario,
)

GRID_SIDE = 7
MASKING_B = 3
ENGINE_OPERATIONS = 100_000
MESSAGE_LEVEL_OPERATIONS = 4_000


def _message_level_workload(system, *, b, num_operations, rng, write_fraction=0.5):
    """The per-operation path: one message object per delivery."""
    servers = build_replicas(system, frozenset(), rng=np.random.default_rng(0))
    network = SynchronousNetwork(servers, FaultScenario.fault_free())
    clients = [QuorumClient(i, system, network, b=b, rng=rng) for i in range(4)]
    written = 0
    for index in range(num_operations):
        client = clients[index % len(clients)]
        if rng.random() < write_fraction or not written:
            client.write(("payload", index))
            written += 1
        else:
            client.read()


def test_engine_throughput_100k_operations(benchmark, rng, request):
    """10⁵ fault-free operations on the 7×7 M-Grid: ops/sec per execution path."""
    # The smoke pass (--benchmark-disable) checks correctness only; the
    # wall-clock speedup bar is asserted only when timing is meaningful.
    timing_enabled = not request.config.getoption("benchmark_disable")
    system = MGrid(GRID_SIDE, MASKING_B)
    # Warm the per-system caches (quorum list, incidence, strategy arrays) so
    # the timings measure the workload, not one-off setup.
    run_scenario(system, b=MASKING_B, num_operations=100, rng=np.random.default_rng(0))

    def run_vectorised():
        started = time.perf_counter()
        result = run_scenario(
            system,
            b=MASKING_B,
            num_operations=ENGINE_OPERATIONS,
            rng=np.random.default_rng(20240614),
        )
        elapsed = time.perf_counter() - started
        return result, elapsed

    result, vectorised_elapsed = benchmark.pedantic(run_vectorised, rounds=1, iterations=1)
    assert result.operations == ENGINE_OPERATIONS
    assert result.availability == 1.0
    assert result.consistency_violations == 0

    started = time.perf_counter()
    sequential = run_scenario(
        system,
        b=MASKING_B,
        num_operations=ENGINE_OPERATIONS,
        rng=np.random.default_rng(20240614),
        mode="sequential",
    )
    sequential_elapsed = time.perf_counter() - started
    assert sequential == result  # bit-for-bit mode agreement at benchmark scale

    started = time.perf_counter()
    _message_level_workload(
        system,
        b=MASKING_B,
        num_operations=MESSAGE_LEVEL_OPERATIONS,
        rng=np.random.default_rng(20240614),
    )
    message_elapsed = time.perf_counter() - started

    vectorised_rate = ENGINE_OPERATIONS / vectorised_elapsed
    sequential_rate = ENGINE_OPERATIONS / sequential_elapsed
    message_rate = MESSAGE_LEVEL_OPERATIONS / message_elapsed
    speedup = vectorised_rate / message_rate

    rows = [
        ["vectorised engine", ENGINE_OPERATIONS, f"{vectorised_rate:,.0f}", f"{speedup:.1f}x"],
        [
            "sequential reference",
            ENGINE_OPERATIONS,
            f"{sequential_rate:,.0f}",
            f"{sequential_rate / message_rate:.1f}x",
        ],
        ["message-level", MESSAGE_LEVEL_OPERATIONS, f"{message_rate:,.0f}", "1.0x"],
    ]
    print(f"\nWorkload throughput on MGrid({GRID_SIDE}, {MASKING_B}):")
    print(format_table(["path", "operations", "ops/sec", "vs message-level"], rows))

    if timing_enabled:
        assert speedup >= 20.0, (
            f"vectorised engine only {speedup:.1f}x over the message-level path"
        )


def test_scenario_suite_throughput(benchmark, rng):
    """The whole scenario suite stays fast under both access strategies."""
    from repro.simulation import scenario_suite

    system = MGrid(GRID_SIDE, MASKING_B)
    suite = scenario_suite(system.universe, b=MASKING_B, rng=rng)

    def run_suite():
        timings = []
        for scenario in suite:
            for strategy in ("uniform", "optimal"):
                started = time.perf_counter()
                result = run_scenario(
                    system,
                    b=MASKING_B,
                    num_operations=20_000,
                    scenario=scenario,
                    strategy=strategy,
                    rng=np.random.default_rng(7),
                )
                elapsed = time.perf_counter() - started
                timings.append((scenario.name, strategy, result, elapsed))
        return timings

    timings = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    rows = []
    for name, strategy, result, elapsed in timings:
        assert result.empirical_load <= 1.0
        assert result.consistency_violations == 0  # suite stays within the bound
        rows.append(
            [
                name,
                strategy,
                f"{result.availability:.3f}",
                f"{result.empirical_load:.3f}",
                f"{20_000 / elapsed:,.0f}",
            ]
        )
    print("\nScenario suite on MGrid(7, 3), 20k operations each:")
    print(format_table(["scenario", "strategy", "availability", "L_w", "ops/sec"], rows))
