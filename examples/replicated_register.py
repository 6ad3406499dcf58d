#!/usr/bin/env python3
"""A Byzantine-fault-tolerant replicated register over a masking quorum system.

This is the scenario the paper's introduction motivates: a shared variable
replicated over ``n`` servers, where clients read and write through quorums
and up to ``b`` servers may behave arbitrarily.  The example deploys the
masking-quorum protocol of [MR98a] over an M-Grid in two ways:

* **message by message** — one replica per server (``build_replicas``),
  ``b`` of them colluding to fabricate a huge timestamp (the strongest attack
  on the read rule), a synchronous network and two protocol clients, so
  every request and reply is a real object; and
* **as batched workloads** — ``run_scenario`` over fault-free, Byzantine,
  hybrid and beyond-the-bound fault scenarios,

and shows that

* every read still returns the last written value (consistency) while the
  Byzantine servers stay within ``b``, and fails only beyond it, and
* the busiest server's empirical access frequency matches the analytic load.

Run with::

    python examples/replicated_register.py
"""

from __future__ import annotations

import numpy as np

from repro import MGrid
from repro.simulation import (
    FaultInjector,
    QuorumClient,
    SynchronousNetwork,
    build_replicas,
    run_scenario,
)


def main() -> None:
    rng = np.random.default_rng(2024)

    side, b = 7, 3
    system = MGrid(side, b)
    print(f"Deploying a replicated register over {system.name} "
          f"({system.n} servers, masking b = {b})")

    print(f"\n--- message-level protocol, {b} colluding Byzantine servers ---")
    protocol_rng = np.random.default_rng(7)
    liars = FaultInjector(system.universe, protocol_rng).exact(num_byzantine=b)
    servers = build_replicas(
        system, liars.byzantine, byzantine_behaviour="fabricate-timestamp", rng=protocol_rng
    )
    network = SynchronousNetwork(servers, liars)
    writer, reader = (
        QuorumClient(client_id, system, network, b=b, rng=protocol_rng)
        for client_id in (0, 1)
    )
    written = writer.write("balance=100")
    read = reader.read()
    print(f"write installed on     : {len(written.quorum)} servers, {written.attempts} probe(s)")
    print(f"read returned          : {read.value!r} "
          "(the forged pairs lack b+1 vouchers)")
    assert read.value == "balance=100"

    injector = FaultInjector(system.universe, rng)

    print("\n--- fault-free run ---")
    clean = run_scenario(system, b=b, num_operations=300, rng=rng)
    print(f"availability           : {clean.availability:.3f}")
    print(f"consistency violations : {clean.consistency_violations}")
    print(f"busiest server load    : {clean.empirical_load:.3f} "
          f"(analytic L = {system.load():.3f})")

    print(f"\n--- {b} colluding Byzantine servers (fabricated timestamps) ---")
    byzantine_only = injector.exact(num_byzantine=b, num_crashed=0)
    attacked = run_scenario(
        system,
        b=b,
        num_operations=300,
        scenario=byzantine_only,
        byzantine_model="fabricate",
        rng=rng,
    )
    print(f"availability           : {attacked.availability:.3f}")
    print(f"consistency violations : {attacked.consistency_violations} "
          "(masking quorums filter the forged pairs)")

    print(f"\n--- {b} Byzantine + 4 crashed servers (hybrid fault model) ---")
    hybrid = injector.exact(num_byzantine=b, num_crashed=4)
    degraded = run_scenario(
        system,
        b=b,
        num_operations=300,
        scenario=hybrid,
        rng=rng,
    )
    print(f"availability           : {degraded.availability:.3f} "
          "(reads/writes retry around hit quorums)")
    print(f"consistency violations : {degraded.consistency_violations}")

    print("\n--- what goes wrong beyond the masking bound ---")
    # Many more colluders than the deployment masks, all behind one forged
    # pair: forged pairs now reach the b+1 vouching threshold and reads get
    # corrupted.
    overload = injector.exact(num_byzantine=4 * b, num_crashed=0)
    broken = run_scenario(
        system,
        b=b,
        num_operations=300,
        scenario=overload,
        byzantine_model="fabricate",
        rng=rng,
        allow_overload=True,
    )
    print(f"Byzantine servers       : {4 * b} (>> b = {b})")
    print(f"consistency violations : {broken.consistency_violations} "
          "(the adversary out-votes the honest intersection)")


if __name__ == "__main__":
    main()
