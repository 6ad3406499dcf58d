"""The repository benchmark: end-to-end and per-layer figures for ``repro``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (each module's docstring says why it was chosen):

* ``sim-event-long`` — the event core, no sockets (``sim.py``);
* ``model-sweep`` — ``measure()`` over the registry constructions plus a
  vectorised-engine batch (``model.py``).

``--trace 0`` measures without spans and reports the end-to-end metrics.
``--trace 1`` is a separate pass: it alternates untraced and traced
stretches of the same workload, records spans around the public functions of
each layer (``tracer.py``), writes them to ``perfbench/out/`` and reports the
per-layer metrics plus the tracing overhead.  Layers the workload does not
exercise are filled from a smoke-size traced run of the other workload, and
the service and storage layers from a short traced run on a live replica
cluster (``live.py``); the result file names the source of every figure.
Three live figures time fresh processes or an fsync (``UNSCALED``) and are
reported as measured; every other time is scaled (see below).  ``--smoke``
shrinks every size for the self-test (``selftest.py``).

Every run checks its outputs: each simulated and live history goes through
the register checker, and the model sweep compares exact against analytic
answers.  A failed check prints the reason to stderr, reports
``"correct": false`` with no metrics and exits with status 1.  The last line
of stdout is the result object.  The line before it stamps the machine, the
Python and the seed, and adds the figures the checks pin (``failed_frac``,
``check_violations``) and the model sweep's ``measure_calls_per_s``.  A full
record goes to ``perfbench/out/``.

Times are scaled to a reference host's speed, measured by a fixed kernel
between the measured stretches of a run (``common.py`` says why).
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sim-event-long", "model-sweep")

#: name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "cpu_ms_per_op": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "service.client.self_us_per_op": ("us", "lower"),
    "service.client.tasks_per_op": ("count", "lower"),
    "service.client.cpu_ms_per_op": ("ms", "lower"),
    "service.client.attempts_per_op": ("count", "lower"),
    "service.wire.encode_us": ("us", "lower"),
    "service.wire.decode_us": ("us", "lower"),
    "service.wire.convert_us": ("us", "lower"),
    "service.wire.frames_per_op": ("count", "lower"),
    "service.wire.bytes_per_op": ("B", "lower"),
    "service.wire.reply_wait_us": ("us", "lower"),
    "service.replica.handle_us_p50": ("us", "lower"),
    "service.replica.cpu_ms_per_op": ("ms", "lower"),
    "service.replica.unaccounted_us": ("us", "lower"),
    "storage.fsyncs_per_write": ("count", "lower"),
    "storage.wal_bytes_per_write": ("B", "lower"),
    "storage.journal_us": ("us", "lower"),
    "service.harness.ready_s_max": ("s", "lower"),
    "import.repro_s": ("s", "lower"),
    "simulation.events.scheduled_per_op": ("count", "lower"),
    "simulation.events.fired_per_op": ("count", "lower"),
    "simulation.events.fired_over_scheduled": ("ratio", "higher"),
    "simulation.events.pending_at_end": ("count", "lower"),
    "simulation.events.self_us_per_op": ("us", "lower"),
    "simulation.network.messages_per_op": ("count", "lower"),
    "simulation.server.handle_us": ("us", "lower"),
    "simulation.client.self_us_per_op": ("us", "lower"),
    "simulation.history.check_s": ("s", "lower"),
    "simulation.history.late_over_early": ("ratio", "higher"),
    "core.load.exact_load_ms": ("ms", "lower"),
    "core.availability.exact_fp_ms": ("ms", "lower"),
    "core.analytic.load_us": ("us", "lower"),
    "core.analytic.fp_us": ("us", "lower"),
    "api.registry.build_us": ("us", "lower"),
    "api.measures.dispatch_us": ("us", "lower"),
    "simulation.engine.ops_per_s": ("ops/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unaccounted_frac": ("ratio", "lower"),
}

#: Printed on the stamp line of an untraced run, when the workload has them.
ALSO = {"failed_frac": "ratio", "check_violations": "count", "measure_calls_per_s": "1/s"}

#: Whose traced run, at smoke size, fills the layers a traced run bypasses.
#: ``live`` is the traced cluster run of ``live.py``, not a workload.
LAYER_DONORS = ("live", "sim-event-long", "model-sweep")

#: Per-layer times taken in fresh processes or waiting on the disk, which the
#: in-process host-speed probe does not track; they are reported unscaled.
UNSCALED = {"import.repro_s", "service.harness.ready_s_max", "storage.journal_us"}


def run_workload(workload: str, seed: int, seconds: float, *, trace: bool, smoke: bool) -> dict:
    if workload == "live":
        import live

        return live.run_traced(seed, seconds)
    if workload == "sim-event-long":
        import sim

        return sim.run(seed, seconds, trace=trace, smoke=smoke)
    import model

    return model.run(seed, seconds, trace=trace, smoke=smoke)


def _traced_layers(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One traced run; its times scaled to the reference host like the end-to-end ones."""
    from common import host_slowdown

    before = host_slowdown()
    outcome = run_workload(workload, seed, seconds, trace=True, smoke=smoke)
    slowdown = (before + host_slowdown()) / 2.0
    for name, value in outcome["layers"].items():
        if name in UNSCALED:
            continue
        unit = PER_LAYER[name][0]
        if unit in ("us", "ms", "s"):
            outcome["layers"][name] = value / slowdown
        elif unit.endswith("/s"):
            outcome["layers"][name] = value * slowdown
    outcome["slowdown"] = slowdown
    return outcome


def traced_run(workload: str, seed: int, seconds: float, *, smoke: bool, out: Path) -> dict:
    outcome = _traced_layers(workload, seed, seconds, smoke)
    spans = outcome.pop("tracer").dump(out / f"trace-{workload}-seed{seed}.jsonl")
    sources = {name: workload for name in outcome["layers"]}
    slowdowns = {workload: outcome.pop("slowdown")}
    for donor in LAYER_DONORS:
        if donor == workload:
            continue
        borrowed = _traced_layers(donor, seed, 1.0, True)
        slowdowns[f"{donor} (smoke)"] = borrowed["slowdown"]
        for name, value in borrowed["layers"].items():
            if name not in outcome["layers"]:
                outcome["layers"][name] = value
                sources[name] = f"{donor} (smoke)"
    outcome["metrics"] = {name: outcome["layers"].pop(name) for name in PER_LAYER}
    outcome["detail"] = {
        **outcome.get("detail", {}),
        "sources": sources,
        "host_slowdown": slowdowns,
        "spans_written": spans,
    }
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    # A terminated run still unwinds, so replica processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from common import OUT, GateFailure, machine_stamp

    OUT.mkdir(exist_ok=True)
    stamp = {"workload": args.workload, "trace": args.trace, **machine_stamp(args.seed)}
    units = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            outcome = traced_run(args.workload, args.seed, args.seconds, smoke=args.smoke, out=OUT)
        else:
            outcome = run_workload(args.workload, args.seed, args.seconds, trace=False, smoke=args.smoke)
        bad = [name for name in units if not math.isfinite(outcome["metrics"][name])]
        if bad:
            raise GateFailure(f"non-finite metrics: {bad}")
    except GateFailure as failure:
        print(f"perfbench: correctness gate failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    result = {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": units[name][0]} for name in units
        },
    }
    detail = outcome.get("detail", {})
    record = {**result, "stamp": stamp, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")
    # Figures the gates pin (a failure or violation fails the run) or that
    # only one workload has; the result line carries the benchmark's metrics.
    stamp["also"] = {
        key: {"value": detail[key], "unit": unit} for key, unit in ALSO.items() if key in detail
    }
    print("perfbench " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
