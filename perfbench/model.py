"""Workload ``model-sweep``: the paper's own computations.

A stream of requests, one round after another.  A round asks ``measure()``
for the load and the crash probability Fp of every system below, once per
listed method, each time from its registry spec so every call builds its
system afresh and no result is served from a cache of an earlier call.
A round ends with one vectorised-engine batch on M-Grid(7x7, b=3) under
the ``iid-crash`` scenario.  The sizes are the largest at which the exact
paths (load LP, 2^n enumeration) still run, so the exact and analytic
answers can be compared on every system.  The seed orders each round's
requests and draws the crash probability and the engine's randomness.

An operation is one request: a ``measure()`` call or an engine batch.
The host-speed probe runs between rounds (see ``common.py``).  ``setup_s``
is the time of one ``prepare()`` call, which builds every system and
resolves the engine's strategy, in this process after the imports: the
median over 21 samples of a batch of calls each.
"""

from __future__ import annotations

import math
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

from repro.api import measures as measures_mod
from repro.api.registry import SystemSpec, build
from repro.api.scenarios import build_scenario
from repro.core import analytic as analytic_mod
from repro.core import availability as availability_mod
from repro.core import load as load_mod
from repro.simulation import engine as engine_mod

ALL = ("auto", "exact", "analytic")
#: (construction, params, load methods, fp methods): every method that runs
#: on the system; the others raise ComputationError by design.
SYSTEMS = (
    ("threshold", {"n": 13, "b": 3}, ALL, ALL),
    ("threshold", {"n": 16, "b": 3}, ALL, ALL),
    ("majority", {"n": 15}, ALL, ALL),
    ("grid", {"side": 4}, ALL, ALL),
    ("mgrid", {"side": 4, "b": 1}, ALL, ALL),
    ("mgrid", {"side": 7, "b": 3}, ALL, ("auto", "analytic")),
    ("masking-grid", {"side": 4, "b": 1}, ALL, ALL),
    ("fpp", {"q": 3}, ALL, ALL),
    ("boostfpp", {"q": 3, "b": 1}, ALL, ("auto", "analytic")),
    ("rt", {"k": 4, "l": 3, "depth": 2}, ALL, ALL),
    ("mpath", {"side": 4, "b": 1}, ("auto", "analytic"), ("auto", "analytic")),
    ("crumbling-wall", {"rows": (1, 2, 3, 4)}, ("auto", "exact"), ALL),
    ("tree", {"depth": 3}, ("auto", "exact"), ALL),
    ("wheel", {"n": 12}, ("auto", "exact"), ALL),
)
SMOKE_SYSTEMS = SYSTEMS[:1] + SYSTEMS[10:11]
ENGINE_SPEC = SystemSpec("mgrid", {"side": 7, "b": 3})
ENGINE_B = 3
ENGINE_OPS = 50_000
SMOKE_ENGINE_OPS = 2_000
SETUPS = 21
#: ``prepare()`` calls per set-up sample, about 25 ms on the reference host.
SETUP_BATCH = 5
#: Paths that return bounds or estimates rather than the exact value.
INEXACT = {"analytic-bound", "analytic-straight-lines", "sampled-lp", "monte-carlo"}


def prepare() -> float:
    """Build every system of the sweep; return L(Q) of the engine's system."""
    for construction, params, _load, _fp in SYSTEMS:
        build(construction, **params)
    engine_system = build(ENGINE_SPEC)
    engine_mod.resolve_strategy(engine_system, None)
    return measures_mod.measure(ENGINE_SPEC, "load", method="analytic").value


def _requests(systems) -> list[tuple]:
    requests = []
    for construction, params, load_methods, fp_methods in systems:
        spec = SystemSpec(construction, params)
        requests += [("load", spec, method) for method in load_methods]
        requests += [("fp", spec, method) for method in fp_methods]
    return requests


class _Round:
    """One round's inputs, drawn from ``(seed, index)``."""

    def __init__(self, seed: int, index: int, requests: list, engine_ops: int):
        rng = np.random.default_rng([seed, index])
        self.p = float(rng.uniform(0.05, 0.15))
        self.order = [requests[i] for i in rng.permutation(len(requests))]
        self.engine_seed = int(rng.integers(2**63))
        self.engine_ops = engine_ops


def _timed(call) -> tuple[object, dict]:
    cpu = time.process_time()
    started = time.perf_counter()
    result = call()
    wall = time.perf_counter() - started
    return result, {"wall": wall, "cpu": time.process_time() - cpu, "latencies": [wall], "failed": 0}


def _run_round(round_: _Round, engine_system, load_bound: float) -> list[dict]:
    """Run one round and check its answers; one segment per request."""
    values: dict = {}
    segments = []
    for measure_name, spec, method in round_.order:
        p = round_.p if measure_name == "fp" else None
        result, segment = _timed(
            lambda: measures_mod.measure(spec, measure_name, method=method, p=p)
        )
        segments.append(segment)
        if result.method_used not in INEXACT:
            values.setdefault((spec, measure_name), []).append((method, result.value))

    rng = np.random.default_rng(round_.engine_seed)
    scenario = build_scenario("iid-crash", engine_system.universe, b=ENGINE_B, rng=rng)
    outcome, engine_segment = _timed(
        lambda: engine_mod.run_scenario(
            engine_system, b=ENGINE_B, num_operations=round_.engine_ops, scenario=scenario, rng=rng
        )
    )

    for (spec, measure_name), answers in values.items():
        reference = answers[0][1]
        for method, value in answers:
            if abs(value - reference) > 1e-9 * max(1.0, abs(reference)):
                raise GateFailure(
                    f"{spec.construction}{spec.params} {measure_name}: {method} gives "
                    f"{value!r}, {answers[0][0]} gives {reference!r}"
                )
    if outcome.consistency_violations:
        raise GateFailure(f"engine run reported {outcome.consistency_violations} violations")
    successful = outcome.successful_reads + outcome.successful_writes
    if successful and outcome.empirical_load < load_bound - 1e-12:
        raise GateFailure(
            f"engine empirical load {outcome.empirical_load} below L(Q) = {load_bound}"
        )
    return segments + [{**engine_segment, "engine": True}]


def run(seed: int, seconds: float, *, trace: bool, smoke: bool) -> dict:
    setups = [] if trace else setup_seconds(prepare, 3 if smoke else SETUPS, SETUP_BATCH)
    load_bound = prepare()
    engine_system = build(ENGINE_SPEC)
    requests = _requests(SMOKE_SYSTEMS if smoke else SYSTEMS)
    engine_ops = SMOKE_ENGINE_OPS if smoke else ENGINE_OPS
    if trace:
        return _run_traced(seed, seconds, requests, engine_system, engine_ops, load_bound)

    segments: list[dict] = []
    rounds = 0
    slowdown = host_slowdown()
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        round_segments = _run_round(_Round(seed, rounds, requests, engine_ops), engine_system, load_bound)
        after = host_slowdown()
        for segment in round_segments:
            segment["slowdown"] = (slowdown + after) / 2.0
        segments += round_segments
        slowdown = after
        rounds += 1
    figures = pooled(segments)
    return {
        "attempted": len(segments),
        "failed": 0,
        "metrics": {
            **{name: figures[name] for name in POOLED_METRICS},
            "setup_s": median(setups),
            "peak_rss_mb": own_peak_rss_mb(),
        },
        "detail": {
            **run_record(segments),
            "measure_calls_per_s": pooled([s for s in segments if not s.get("engine")])["ops_per_s"],
            "failed_frac": 0.0,
            "check_violations": 0,
            "rounds": rounds,
            "setup_samples": setups,
        },
    }


def _install(tracer: Tracer) -> None:
    tracer.wrap(measures_mod, "measure", "api.measures.measure", new_op=True)
    tracer.wrap(engine_mod, "run_scenario", "simulation.engine.run_scenario", new_op=True)
    tracer.wrap(measures_mod, "build", "api.registry.build")
    tracer.wrap(load_mod, "exact_load", "core.load.exact_load")
    tracer.wrap(availability_mod, "exact_failure_probability", "core.availability.exact_fp")
    tracer.wrap(analytic_mod, "analytic_load", "core.analytic.load")
    tracer.wrap(analytic_mod, "analytic_failure_probability", "core.analytic.fp")


def _run_traced(seed, seconds, requests, engine_system, engine_ops, load_bound) -> dict:
    """Alternate untraced and traced rounds with the same inputs."""
    tracer = Tracer()
    plain = traced = 0.0
    attempted = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        round_ = _Round(seed, index, requests, engine_ops)
        plain += timed_in_reference(lambda: _run_round(round_, engine_system, load_bound))[1]
        _install(tracer)
        try:
            traced += timed_in_reference(lambda: _run_round(round_, engine_system, load_bound))[1]
        finally:
            tracer.restore()
        attempted += 2 * (len(requests) + 1)
        index += 1
        if time.perf_counter() >= deadline:
            break

    self_times = tracer.self_times()
    measure_calls = len(tracer.spans_named("api.measures.measure"))
    engine = tracer.durations("simulation.engine.run_scenario")
    roots = tracer.durations("api.measures.measure") + engine

    def mean(name: str, scale: float) -> float:
        durations = tracer.durations(name)
        return scale * sum(durations) / len(durations) if durations else math.nan

    layers = {
        "core.load.exact_load_ms": mean("core.load.exact_load", 1e3),
        "core.availability.exact_fp_ms": mean("core.availability.exact_fp", 1e3),
        "core.analytic.load_us": mean("core.analytic.load", 1e6),
        "core.analytic.fp_us": mean("core.analytic.fp", 1e6),
        "api.registry.build_us": mean("api.registry.build", 1e6),
        "api.measures.dispatch_us": 1e6
        * tracer.self_total({"api.measures.measure"}, self_times)
        / measure_calls,
        "simulation.engine.ops_per_s": engine_ops * len(engine) / sum(engine),
        "trace.overhead_frac": 1.0 - plain / traced,
        "trace.unaccounted_frac": tracer.self_total(
            {"api.measures.measure", "simulation.engine.run_scenario"}, self_times
        )
        / sum(roots),
    }
    return {
        "attempted": attempted,
        "failed": 0,
        "layers": layers,
        "tracer": tracer,
        "detail": {"rounds": index},
    }
