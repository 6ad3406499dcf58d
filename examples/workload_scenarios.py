"""Scenario-suite tour of the vectorised workload engine.

Runs the full scenario suite — crashes (independent and correlated),
Byzantine fabrication and equivocation, partitions and churn — over the
Figure 1 M-Grid, under both the uniform access strategy and the load-optimal
strategy of the ``exact_load`` LP, and closes the loop between the empirical
measures and the analytic ones:

* measured busiest-server frequency vs the induced load ``L_w`` and the LP's
  ``L(Q)`` (Definition 3.8);
* measured availability vs the exact crash probability ``Fp``
  (Definition 3.10).

The punchline worth noticing in the output: the M-Grid sails through
independent crashes and ``b``-bounded Byzantine servers, but a *correlated*
failure of one grid row (a rack) or a partition kills every quorum at once —
scenario diversity measures what the iid fault model cannot.

Run with:  PYTHONPATH=src python examples/workload_scenarios.py
"""

from __future__ import annotations

import numpy as np

from repro import MGrid
from repro.analysis import (
    empirical_availability_comparison,
    empirical_load_comparison,
)
from repro.simulation import run_scenario, scenario_suite


def print_table(headers, rows):
    widths = [
        max(len(str(header)), max((len(str(row[i])) for row in rows), default=0))
        for i, header in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def main() -> None:
    rng = np.random.default_rng(20240614)
    system = MGrid(7, 3)
    b = 3
    print(f"System: {system.name} (n={system.n}, b={b}, L(Q)={system.load():.3f})\n")

    rows = []
    for scenario in scenario_suite(system.universe, b=b, rng=rng):
        for strategy in ("uniform", "optimal"):
            result = run_scenario(
                system,
                b=b,
                num_operations=20_000,
                scenario=scenario,
                strategy=strategy,
                rng=np.random.default_rng(7),
            )
            rows.append(
                [
                    scenario.name,
                    strategy,
                    f"{result.availability:.3f}",
                    f"{result.empirical_load:.3f}",
                    result.consistency_violations,
                    result.stale_reads,
                ]
            )
    print("Scenario suite, 20k operations each:")
    print_table(
        ["scenario", "strategy", "availability", "empirical L_w", "violations", "stale"],
        rows,
    )

    print("\nEmpirical vs analytic (Definition 3.8): measured L_w vs the load LP")
    comparison = empirical_load_comparison(system, b=b, rng=rng)
    print(
        f"  L(Q) by LP = {comparison.analytic_load:.4f}, "
        f"strategy L_w = {comparison.strategy_load:.4f}, "
        f"measured = {comparison.empirical_load:.4f} "
        f"(sampling gap {comparison.sampling_gap:.4f})"
    )

    small = MGrid(4, 1)
    availability = empirical_availability_comparison(
        small, 0.15, b=1, trials=150, operations_per_trial=10, rng=rng
    )
    print("\nEmpirical vs analytic (Definition 3.10): availability under iid crashes")
    print(
        f"  {small.name}: exact Fp = {availability.analytic_failure_probability:.4f}, "
        f"measured failure rate = {availability.empirical_failure_rate:.4f} "
        f"(gap {availability.gap:.4f})"
    )


if __name__ == "__main__":
    main()
