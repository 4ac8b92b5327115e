#!/usr/bin/env python3
"""Minimal-size self-test of the benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload, with tracing off and on, it runs ``run.py --smoke`` and
checks that the last line names exactly the metrics of ``BENCHMARK.json``
with their units, that every output check ran at least once, and that the
traced run saw every layer the workload exercises.  It also checks that the
benchmark refuses to run, without printing a result, next to no sources.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

CHECKS = {
    "sweep": ("exit_code", "sweep.rows", "sweep.rate_finite_nonnegative", "sweep.soundness_dense_grid"),
    "optimize": ("exit_code", "optimize.result_row", "optimize.eval_log_nonempty", "optimize.rate_matches_evaluate"),
    "validate": ("exit_code", "validate.rows", "validate.z_within_limit", "validate.repeat_identical"),
}
_ANALYSIS = (
    "cli.main",
    "source_model.coeff_bounds",
    "source_model.check_decoy_conditions",
    "source_model.poisson_coeff",
    "stat_bounds.chernoff",
    "stat_bounds.combo",
    "channel_sim.build_observables",
    "channel_sim.pair_yield",
    "keyrate_core.from_simulation",
    "keyrate_core.secure_key_rate",
)
LAYERS_RUN = {
    "sweep": _ANALYSIS,
    "optimize": _ANALYSIS + ("optimizer.evaluate", "optimizer.optimize"),
    "validate": ("cli.main", "channel_sim.pair_yield", "channel_sim.monte_carlo_yield"),
}


def run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for entry in spec["workloads"]:
        workload = entry["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = run(workload, trace, ROOT)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(last)}")
            if last["correct"] is not True or last["failed"] != 0 or last["attempted"] < 1:
                problems.append(f"{label}: correct={last['correct']} attempted={last['attempted']} failed={last['failed']}")
            metrics = last["metrics"]
            expected = {m["name"]: m["unit"] for m in declared}
            if set(metrics) != set(expected):
                problems.append(f"{label}: missing {sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}")
            for name, value in metrics.items():
                if name in expected and value.get("unit") != expected[name]:
                    problems.append(f"{label}: {name} has unit {value.get('unit')}, declared {expected[name]}")
                if not isinstance(value.get("value"), (int, float)) or not math.isfinite(value["value"]):
                    problems.append(f"{label}: {name} is not a finite number: {value.get('value')}")
                elif trace == 0 and value["value"] == 0:
                    problems.append(f"{label}: end-to-end metric {name} is 0")
            record = json.loads((WORK / f"result-{workload}-1-trace{trace}.json").read_text(encoding="utf-8"))
            missing = [name for name in CHECKS[workload] if not record["checks_run"].get(name)]
            if missing:
                problems.append(f"{label}: checks that never ran: {missing}")
            if trace == 1:
                silent = [layer for layer in LAYERS_RUN[workload] if not metrics.get(f"{layer}.calls", {}).get("value")]
                if silent:
                    problems.append(f"{label}: layers with no traced calls: {silent}")
            print(f"{label}: {len(metrics)} metrics, checks {record['checks_run']}")

    # Next to no sources the benchmark must fail without printing a result.
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(spec["workloads"][0]["name"], 0, bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"without sources: exit {proc.returncode}, no result printed")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
