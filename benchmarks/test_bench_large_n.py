"""Large-``n`` benchmarks: the implicit engine at (towards-)production scale.

The enumeration engines verify the paper's *formulas* at ``n ≈ 30``; these
benchmarks verify its *asymptotics*.  Closed-form sweeps
(:mod:`repro.analysis.asymptotics`) reproduce the Section 4–5 comparison up
to ``n = 10^4`` — load exponents ``≈ -1/2`` for the load-optimal families,
``1 - log_4 3`` for RT, the threshold/grid availability dichotomy — and the
workload engines run crash scenarios on
:class:`~repro.core.quorum_system.ImplicitQuorumSystem` deployments whose
quorum families are never enumerated (M-Grid at ``side = 64`` has
``C(64, 1)^2 = 4096`` quorums for ``b = 0`` but ``> 10^7`` already at
``b = 3``, and the sweep sizes reach families of ``> 10^{13}``).

``REPRO_BENCH_LARGE_N`` scales the workload-engine benchmark (default 4096;
CI's docs job smoke-runs it at 256).  Sweeps always run to ``n = 10^4`` —
they are closed-form and cost milliseconds.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from conftest import format_table

from repro import ImplicitQuorumSystem, MGrid, analytic_failure_probability, analytic_load
from repro.analysis.asymptotics import (
    fit_exponential_decay,
    section45_comparison,
    sweep,
)
from repro.simulation import FaultScenario, run_event_workload, run_scenario

#: Universe size of the workload-engine run (a perfect square).
LARGE_N = int(os.environ.get("REPRO_BENCH_LARGE_N", "4096"))

#: Decades the closed-form sweeps cover.
SWEEP_SIZES = (64, 256, 1024, 4096, 10000)


def test_section45_load_exponents(benchmark):
    """Load scaling across decades: the Section 4–5 comparison as fitted exponents."""
    comparison = benchmark.pedantic(
        lambda: section45_comparison(SWEEP_SIZES, p=0.1, b=1), rounds=1, iterations=1
    )

    # The paper's asymptotic load column, as measured exponents.
    expectations = {
        "Threshold": (-0.05, 0.0),  # L -> 1/2: flat
        "Grid": (-0.55, -0.42),  # Theta(1/sqrt(n))
        "M-Grid": (-0.55, -0.42),
        "M-Path": (-0.55, -0.42),
        "RT(4,3)": (-0.25, -0.15),  # n^-(1 - log_4 3) = n^-0.2075
    }
    for name, (low, high) in expectations.items():
        fit = comparison[name].load_fit
        assert low <= fit.exponent <= high, (name, fit)
        assert fit.r_squared > 0.7, (name, fit)
    # RT's exponent is exactly 1 - log_4(3); the fit should nail it.
    rt_exponent = math.log(3, 4) - 1.0
    assert abs(comparison["RT(4,3)"].load_fit.exponent - rt_exponent) < 0.01

    # Availability dichotomy (Table 2's asymptotic Fp column).
    assert comparison["Threshold"].availability_trend == "decaying"
    assert comparison["RT(4,3)"].availability_trend == "decaying"
    assert comparison["Grid"].availability_trend == "degrading"
    assert comparison["M-Grid"].availability_trend == "degrading"

    print("\nSection 4-5 comparison across n =", SWEEP_SIZES)
    print(
        format_table(
            ["family", "load exponent", "r^2", "Fp trend", "Fp at n=10^4"],
            [
                [
                    name,
                    f"{fam.load_fit.exponent:+.3f}",
                    f"{fam.load_fit.r_squared:.4f}",
                    fam.availability_trend,
                    f"{fam.points[-1].failure_probability:.3e}",
                ]
                for name, fam in comparison.items()
            ],
        )
    )


def test_availability_decay_fits(benchmark):
    """Threshold/RT availability decays exponentially; fitted rates are positive."""

    def evaluate():
        # p near enough to 1/2 that Fp stays representable across the range.
        threshold_points = sweep("Threshold", (64, 144, 256, 400), b=1, p=0.25)
        threshold_fit = fit_exponential_decay(
            [pt.n for pt in threshold_points],
            [pt.failure_probability for pt in threshold_points],
        )
        # RT(4,3) decays like exp(-Omega(n^gamma)), gamma = log_4 2 = 1/2
        # (Proposition 5.7: MT = 2^h = n^(1/2) for k=4, l=3).
        rt_points = sweep("RT(4,3)", (64, 256, 1024, 4096), b=1, p=0.2)
        rt_fit = fit_exponential_decay(
            [pt.n for pt in rt_points],
            [pt.failure_probability for pt in rt_points],
            size_exponent=0.5,
        )
        return threshold_points, threshold_fit, rt_points, rt_fit

    threshold_points, threshold_fit, rt_points, rt_fit = benchmark.pedantic(
        evaluate, rounds=1, iterations=1
    )
    assert threshold_fit.rate > 0.0 and threshold_fit.r_squared > 0.99
    assert rt_fit.rate > 0.0 and rt_fit.r_squared > 0.95
    print(
        f"\nThreshold Fp ~ exp(-{threshold_fit.rate:.3f} n)  (r^2={threshold_fit.r_squared:.5f})\n"
        f"RT(4,3)   Fp ~ exp(-{rt_fit.rate:.3f} sqrt(n))  (r^2={rt_fit.r_squared:.5f})"
    )


def test_implicit_measures_at_ten_thousand(benchmark):
    """Closed-form measures and a vectorised run at n = 10^4 (never enumerated)."""
    side = 100
    base = MGrid(side, 3)  # family size C(100, 2)^2 ≈ 2.45e7 — enumeration is out

    def evaluate():
        implicit = ImplicitQuorumSystem(base, num_samples=512, seed=20)
        load = analytic_load(implicit).load
        availability = analytic_failure_probability(implicit, 0.001).value
        started = time.perf_counter()
        result = run_scenario(
            implicit, b=3, num_operations=2000, rng=np.random.default_rng(8)
        )
        elapsed = time.perf_counter() - started
        return implicit, load, availability, result, elapsed

    implicit, load, availability, result, elapsed = benchmark.pedantic(
        evaluate, rounds=1, iterations=1
    )
    assert implicit.n == 10_000
    assert implicit.masking_bound() >= 3  # delegated closed forms, not the sample
    assert abs(load - base.load()) < 1e-12
    assert 0.0 <= availability <= 1.0
    assert result.operations == 2000 and result.failed_operations == 0
    assert result.is_consistent
    # Fault-free measured load sits near the sampled strategy's induced load,
    # which is within a small factor of L(Q) ~ 4/sqrt(n).
    assert result.empirical_load <= 3.0 * load
    print(
        f"\nn=10^4 M-Grid(b=3): L={load:.4f}, Fp(0.001)={availability:.3e}, "
        f"engine {result.operations} ops in {elapsed:.2f}s "
        f"(measured load {result.empirical_load:.4f})"
    )


def test_sampled_workload_crash_run_large_n(benchmark):
    """Acceptance: a crash-scenario run at n = LARGE_N with load within 3x of 1/sqrt(n).

    The deployment is an implicit M-Grid(b=0) driven by the sampled-LP
    strategy (:meth:`ImplicitQuorumSystem.sampled_optimal_strategy` — the LP
    over the frozen sample rebalances away the i.i.d. sampling noise); a few
    servers crash and the engine's failure-detector steering keeps every
    operation succeeding while the busiest-server frequency stays within 3x
    of the Corollary 4.2 scale ``1/sqrt(n)``.
    """
    side = math.isqrt(LARGE_N)
    assert side * side == LARGE_N, "REPRO_BENCH_LARGE_N must be a perfect square"
    base = MGrid(side, 0)
    crash_rng = np.random.default_rng(1)
    # Scale the crash count with n: each crashed cell disables a whole
    # row/column pair for the b=0 M-Grid, so the fraction matters.
    num_crashed = max(1, LARGE_N // 1024)
    crashed = frozenset(
        (int(row), int(column))
        for row, column in crash_rng.integers(side, size=(num_crashed, 2))
    )

    def evaluate():
        implicit = ImplicitQuorumSystem(base, num_samples=32 * side, seed=42)
        strategy = implicit.sampled_optimal_strategy()
        started = time.perf_counter()
        result = run_scenario(
            implicit,
            b=0,
            num_operations=8 * LARGE_N,
            scenario=FaultScenario(crashed=crashed),
            strategy=strategy,
            rng=np.random.default_rng(5),
        )
        elapsed = time.perf_counter() - started
        return implicit, strategy, result, elapsed

    implicit, strategy, result, elapsed = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    reference = 1.0 / math.sqrt(LARGE_N)
    assert result.operations == 8 * LARGE_N
    assert result.failed_operations == 0  # steering rides out the crashes
    assert result.is_consistent
    # The acceptance bound: measured load within 3x of 1/sqrt(n).
    assert result.empirical_load <= 3.0 * reference, (
        result.empirical_load,
        reference,
    )
    # And the sampled-LP strategy itself sits essentially at L(Q).
    assert strategy.induced_system_load(implicit.universe) <= 1.5 * base.load()
    throughput = result.operations / max(elapsed, 1e-9)
    print(
        f"\ncrash run at n={LARGE_N}: {result.operations} ops in {elapsed:.2f}s "
        f"({throughput:,.0f} ops/s), measured load {result.empirical_load:.5f} "
        f"= {result.empirical_load / reference:.2f} x 1/sqrt(n)"
    )


def test_event_engine_implicit_kilonode(benchmark):
    """The event-driven protocol core accepts implicit systems (n = 1024)."""
    implicit = ImplicitQuorumSystem(MGrid(32, 1), num_samples=256, seed=11)

    def evaluate():
        started = time.perf_counter()
        result = run_event_workload(
            implicit,
            b=1,
            num_clients=8,
            operations_per_client=10,
            rng=np.random.default_rng(2),
        )
        return result, time.perf_counter() - started

    result, elapsed = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    assert result.operations == 80
    assert result.failed_operations == 0
    assert result.check is not None and result.check.ok
    print(
        f"\nevent core at n=1024: {result.operations} concurrent ops in {elapsed:.2f}s, "
        f"p99 latency {result.latency_p99:.3f}, measured load {result.empirical_load:.4f}"
    )
