"""Self-test of the benchmark: every workload at smoke size, both passes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload and each of ``--trace 0`` and ``--trace 1`` it runs
``run.py --smoke`` and checks that the last line is a correct result that
names every metric of ``BENCHMARK.json`` for that pass, with its unit and a
finite value, and that the machine stamp was printed.  It then copies only
``BENCHMARK.json`` and the benchmark's directories to an empty directory and
checks that the benchmark refuses to run there.  Exits non-zero on the first
failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (perfbench/run.py; importing it runs nothing)


def _fail(message: str) -> None:
    print(f"selftest: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # The traced runs also cover the live cluster run that feeds the service
    # and storage layers.
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            completed = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if completed.returncode != 0:
                _fail(f"{label} exited {completed.returncode}: {completed.stderr[-1500:]}")
            lines = completed.stdout.strip().splitlines()
            if len(lines) < 2 or not lines[-2].startswith("perfbench {"):
                _fail(f"{label}: no machine stamp line")
            stamp = json.loads(lines[-2].split(" ", 1)[1])
            for key in ("nproc", "python", "platform", "seed"):
                if key not in stamp:
                    _fail(f"{label}: stamp lacks {key}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                _fail(f"{label}: result {result}")
            if set(result["metrics"]) != set(expected[trace]):
                missing = set(expected[trace]) ^ set(result["metrics"])
                _fail(f"{label}: metric names differ from BENCHMARK.json: {sorted(missing)}")
            for name, metric in result["metrics"].items():
                if metric["unit"] != expected[trace][name]:
                    _fail(f"{label}: {name} has unit {metric['unit']!r}")
                if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
                    _fail(f"{label}: {name} = {metric['value']!r}")
            print(f"selftest: ok {label} ({len(result['metrics'])} metrics)")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare_root = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare_root)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare_root / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        completed = _run(bare_root, spec["workloads"][0]["name"], 0)
        if completed.returncode == 0 or completed.stdout.strip():
            _fail("the benchmark ran without the program's sources")
    print("selftest: ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
