#!/usr/bin/env python3
"""Benchmark of the mdiqkd command-line workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/selftest.py      # minimal-size check of the benchmark itself

Each workload is a closed loop with one client: it calls the public entry point
``mdiqkd.cli.main(argv)`` in this process and sends the next command only
after the previous one has returned.  The program sees nothing but the
generated config files and argv.  A run works through a fixed number of task
batches, sized from ``--seconds`` so that they take about ``RUN_SHARE`` of it
at the reference speed; every output is checked once timing has stopped.

``--trace 0`` prints the end-to-end metrics:

    setup_s        median over fresh interpreters running the command on a
                   minimal input, imports included
    wall_s         median time of one batch (task list), after a warm-up task
    task_p50_ms    median latency of one command
    task_tail_ms   highest percentile with ten tasks beyond it (printed)
    rates_per_s    results per second: key-rate rows (sweep), eval-log probes
                   (optimize), model-check rows (validate)
    opt_rate_gain  median optimized rate over the rate at the default start
                   (optimize); 1 where a workload does not search
    peak_rss_mb    max ru_maxrss of this process and of its children

``--trace 1`` alternates untraced batches with batches traced by
``tracer.py`` and prints the per-layer metrics, the tracing overhead among
them.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the same
in words.  A fuller record, with the environment, is written to
``.perfbench/result-<workload>-<seed>-trace<n>.json``, and the spans of a
traced run to ``.perfbench/spans-<workload>.csv``.

Times are reported at a reference machine speed: each timed command is
bracketed by a fixed probe of work and scaled by how long the probe took
around it (see ``speed_probe``); the unscaled figures are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Task, config_text  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_RUNS = 5
MIN_BATCHES = 5  # so wall_s is a median of at least five batches
RUN_SHARE = 0.7  # of --seconds that the planned tasks take at the reference speed
TIME_CAP = 3.0  # times --seconds after which a run stops short of its plan,
CAP_MIN_BATCHES = 4  # but not before this many batches
TAIL_BEYOND = 10  # task_tail_ms: highest percentile with this many tasks beyond it
SUBPROCESS_TIMEOUT_S = 120
# Time of one speed probe on the 2-core host the benchmark was tuned on;
# timings are reported at this speed (see ``speed_probe``).
PROBE_REF_S = 2.5e-3
_PROBE_RATES = np.linspace(0.0, 0.3, 40_000).reshape(10_000, 4)

FRESH_MAIN = "import sys\nfrom mdiqkd.cli import main\nsys.exit(main(sys.argv[1:]))"


def speed_probe() -> float:
    """Seconds a fixed piece of work takes now, best of three.

    Co-tenants on a shared host change how fast this process runs by tens of
    percent over a few seconds; such a phase slows the probe and the task
    beside it alike.  Every timed task is bracketed by probes, and its time
    is scaled by ``PROBE_REF_S`` over the mean of the two, which takes most
    of that drift out of the reported times.  The probe mixes the two kinds
    of work the workloads do, scalar interpreter work and random-number array
    work, and uses nothing of the program, so no change to it can move it.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(1, 4001):
            acc += math.exp(-1e-3 * i) * math.log(i)
        rng = np.random.default_rng(12345)
        phases = np.cos(rng.uniform(0.0, 2.0 * math.pi, _PROBE_RATES.size))
        clicks = (rng.poisson(_PROBE_RATES) > 0) | (rng.random(_PROBE_RATES.shape) < 1e-3)
        acc += float(phases.sum()) + int(clicks.sum())
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes, for the self-test only")
    return parser.parse_args(argv)


class Runner:
    """Writes a task's files, runs it in-process or in a fresh interpreter."""

    def __init__(self, cli, scratch: Path) -> None:
        self.cli = cli
        self.scratch = scratch

    def argv(self, task: Task) -> list[str]:
        config = self.scratch / f"{task.name}.cfg"
        config.write_text(config_text(task.config), encoding="utf-8")
        argv = [task.command, "--config", str(config), *task.extra]
        if task.eval_log:
            argv += ["--eval-log", str(self.scratch / f"{task.name}.log.csv")]
        return argv

    def run(self, task: Task, argv: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        main = self.cli.main  # looked up per call, so a traced run sees the wrapper
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a task that raises is a failed task, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        outcome = Outcome(task, rc, latency, out.getvalue(), err.getvalue(), error)
        if task.eval_log:
            log = self.scratch / f"{task.name}.log.csv"
            if log.exists():
                outcome.eval_log_text = log.read_text(encoding="utf-8")
                log.unlink()
        return outcome

    def rerun(self, task: Task) -> Outcome:
        return self.run(task, self.argv(task))

    def fresh(self, task: Task, importtime: bool = False) -> tuple[float, float, str]:
        """Wall time of one command in a new interpreter, scaled and raw, and its stderr."""
        argv = self.argv(task)
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", FRESH_MAIN, *argv]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        before = speed_probe()
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        after = speed_probe()
        if proc.returncode not in (0, 1) or (proc.returncode == 1 and task.command != "validate-model"):
            raise RuntimeError(f"set-up command {argv} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return scaled(elapsed, before, after), elapsed, proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms per package, from ``-X importtime``.

    A package's time is the sum over its outermost lines: scipy loads some
    subpackages lazily, and then only their submodules get a line.
    """
    wanted = {"mdiqkd": "mdiqkd_ms", "scipy.special": "scipy_special_ms", "scipy.optimize": "scipy_optimize_ms"}
    found = {name: 0.0 for name in wanted.values()}
    entries = []
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|") if line.startswith("import time:") else []
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e3))
    # Lines come children first, so walking backwards meets each parent
    # before its children; ``stack`` holds the ancestors of the current line.
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for package, key in wanted.items():
            inside = lambda module: module == package or module.startswith(package + ".")
            if inside(name) and not any(inside(ancestor) for _, ancestor in stack):
                found[key] += cumulative
        stack.append((depth, name))
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "workload_seed": seed,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND tasks beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, 1)  # 1-based rank; fewer tasks than that fall back to the minimum
    return 100.0 * k / n, ordered[k - 1]


def library(mdiqkd, optimizer):
    return types.SimpleNamespace(
        SideSources=mdiqkd.SideSources,
        SourceEnsemble=mdiqkd.SourceEnsemble,
        ChannelParams=mdiqkd.ChannelParams,
        AnalysisInputs=mdiqkd.AnalysisInputs,
        coeff_bounds=mdiqkd.coeff_bounds,
        check_decoy_conditions=mdiqkd.check_decoy_conditions,
        rate_function=mdiqkd.rate_function,
        OptimizationProblem=optimizer.OptimizationProblem,
        evaluate=optimizer.evaluate,
        DEFAULT_START=optimizer.DEFAULT_START,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mdiqkd" / "__init__.py").is_file():
        print(f"error: no mdiqkd package under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mdiqkd
    from mdiqkd import cli, optimizer

    if SRC not in Path(mdiqkd.__file__).resolve().parents:
        print(f"error: imported mdiqkd from {mdiqkd.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    scratch = WORK / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, cli, library(mdiqkd, optimizer), Runner(cli, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in result["lines"]:
        print(line)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **result}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(args, cli, lib, runner: Runner) -> dict:
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    env = environment(args.seed)
    lines = [f"environment: {json.dumps(env)}"]

    # Set-up: the workload's command on a minimal input in a fresh interpreter,
    # after one untimed run that fills the bytecode and file caches.
    setup_runs = 1 if args.smoke else SETUP_RUNS
    runner.fresh(workload.minimal(), importtime=False)
    setup = [runner.fresh(workload.minimal(), importtime=bool(args.trace)) for _ in range(setup_runs)]

    checks: Counter[str] = Counter()
    tracer = Tracer() if args.trace else None
    outcomes: list[Outcome] = []
    warmup = workload.batch(-1, lib)[0]
    warmup.name = f"{args.workload}-warmup"
    outcomes.append(runner.rerun(warmup))

    # A fixed number of batches, sized from --seconds, so every run of a
    # workload has the same task count and reports the same percentiles; a
    # slow host stretches a run, up to TIME_CAP, rather than shrinking it.
    kinds = "UTTU" if args.trace else "U"
    tasks_planned = max(workload.min_tasks, round(RUN_SHARE * args.seconds / workload.nominal_task_s))
    planned = max(MIN_BATCHES, math.ceil(tasks_planned / workload.batch_size))
    batch_times: dict[str, list[float]] = {"U": [], "T": []}  # scaled
    raw_batch_times: dict[str, list[float]] = {"U": [], "T": []}
    timed: dict[str, list[Outcome]] = {"U": [], "T": []}
    probes: list[float] = []
    loop_start = time.perf_counter()
    index = 0
    while index < planned and (index < CAP_MIN_BATCHES or time.perf_counter() - loop_start < TIME_CAP * args.seconds):
        kind = kinds[index % len(kinds)]
        tasks = workload.batch(index, lib)
        argvs = [runner.argv(task) for task in tasks]
        if kind == "T":
            tracer.install()
        batch: list[Outcome] = []
        before = speed_probe()
        start = time.perf_counter()
        for position, (task, argv) in enumerate(zip(tasks, argvs)):
            if tracer is not None:
                tracer.task = index * 1000 + position
            outcome = runner.run(task, argv)
            after = speed_probe()
            outcome.scaled_s = scaled(outcome.latency_s, before, after)
            probes.append(after)
            batch.append(outcome)
            before = after
        raw_batch_times[kind].append(time.perf_counter() - start)
        if kind == "T":
            tracer.uninstall()
        batch_times[kind].append(sum(o.scaled_s for o in batch))
        timed[kind] += batch
        index += 1
    measured_s = time.perf_counter() - loop_start
    outcomes += timed["U"] + timed["T"]
    # Peak memory of the workload itself, before the checks allocate their own.
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    # Checks, after timing has stopped.
    for outcome in outcomes:
        workload.check(outcome, checks)
    workload.post_checks(outcomes, lib, runner.rerun, checks)
    failures = [message for outcome in outcomes for message in outcome.failures]
    failed = sum(1 for outcome in outcomes if outcome.failures)
    attempted = len(outcomes)

    untraced = timed["U"]
    latencies = [o.scaled_s for o in untraced]
    raw_latencies = [o.latency_s for o in untraced]
    busy = sum(batch_times["U"])
    results = sum(o.results for o in untraced)
    trials = sum(o.trials for o in untraced)
    gains = [o.gain for o in timed["U"] + timed["T"] if o.gain is not None]
    tail_pct, tail_s = tail(latencies)

    lines += [
        f"workload {args.workload}: closed loop, 1 client, {len(batch_times['U'])} untraced batches"
        + (f" and {len(batch_times['T'])} traced batches" if args.trace else "")
        + f" in {measured_s:.1f} s" + (f", stopped at the time cap short of {planned} batches" if index < planned else ""),
        f"tasks: {attempted} attempted ({len(untraced)} timed untraced, {len(timed['T'])} timed traced, 1 warm-up),"
        + f" {failed} failed, failed_fraction {failed / attempted:.4f}",
        f"task_tail_ms is the p{tail_pct:.1f} latency of {len(latencies)} tasks ({TAIL_BEYOND} beyond it)",
        f"mc_trials_per_s {trials / busy:.6g} 1/s" if trials else "mc_trials_per_s: no Monte Carlo in this workload",
        f"opt_rate_gain over {len(gains)} tasks whose default start has a positive rate"
        + f" ({sum(1 for o in timed['U'] + timed['T'] if o.gain is None)} tasks excluded)"
        if args.workload == "optimize"
        else "opt_rate_gain is 1 by definition: this workload reports rates at its configured point",
        f"checks run: {json.dumps(checks, sort_keys=True)}",
        f"times are scaled to a speed probe of {PROBE_REF_S * 1e3:g} ms; the probe took {statistics.median(probes) * 1e3:.4f} ms"
        + f" (median; {min(probes) * 1e3:.4f} to {max(probes) * 1e3:.4f}) over {len(probes)} probes",
        f"unscaled: setup_s {statistics.median(r for _, r, _ in setup):.6g} s, wall_s {statistics.median(raw_batch_times['U']):.6g} s,"
        + f" task_p50_ms {statistics.median(raw_latencies) * 1e3:.6g} ms, task_tail_ms {tail(raw_latencies)[1] * 1e3:.6g} ms",
    ]
    lines += [f"FAILED {message}" for message in failures]

    def metric(value, unit):
        return {"value": value, "unit": unit}

    if not args.trace:
        metrics = {
            "setup_s": metric(statistics.median(t for t, _, _ in setup), "s"),
            "wall_s": metric(statistics.median(batch_times["U"]), "s"),
            "task_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "task_tail_ms": metric(tail_s * 1e3, "ms"),
            "rates_per_s": metric(results / busy, "1/s"),
            "opt_rate_gain": metric(statistics.median(gains) if args.workload == "optimize" and gains else 1.0, "ratio"),
            "peak_rss_mb": metric(usage / 1024.0, "MB"),
        }
    else:
        n_traced = len(timed["T"])
        layers = tracer.summary(n_traced)
        metrics = {}
        for group, stats in layers.items():
            metrics[f"{group}.calls"] = metric(stats["calls_per_task"], "calls/task")
            if group != "source_model.poisson_coeff":
                metrics[f"{group}.self_ms"] = metric(stats["self_ms_per_task"], "ms/task")
        mc = layers["channel_sim.monte_carlo_yield"]
        skr = layers["keyrate_core.secure_key_rate"]
        ev = layers["optimizer.evaluate"]
        metrics["channel_sim.monte_carlo_yield.trials"] = metric(mc["observed"] / max(n_traced, 1), "trials/task")
        metrics["channel_sim.monte_carlo_yield.trials_per_s"] = metric(mc["observed"] / mc["incl_s"] if mc["incl_s"] else 0.0, "1/s")
        metrics["keyrate_core.positive_rate_fraction"] = metric(skr["observed"] / skr["calls"] if skr["calls"] else 0.0, "ratio")
        metrics["optimizer.feasible_fraction"] = metric(ev["reached_analysis"] / ev["calls"] if ev["calls"] else 0.0, "ratio")
        for name, value in import_times_median([err for _, _, err in setup]).items():
            metrics[f"cli.import.{name}"] = metric(value, "ms")
        metrics["trace.overhead_ratio"] = metric(statistics.median(batch_times["T"]) / statistics.median(batch_times["U"]), "ratio")
        metrics["mc_trials_per_s"] = metric(trials / busy, "1/s")
        metrics["failed_fraction"] = metric(failed / attempted, "ratio")
        traced_busy = sum(o.latency_s for o in timed["T"])
        lines.append(f"traced wall share by layer (unscaled self time over {traced_busy:.2f} s of traced tasks):")
        lines += [f"  {group:40s} {100.0 * stats['self_s'] / traced_busy:6.2f} %" for group, stats in layers.items() if stats["self_s"]]
        if tracer.absent:
            lines.append(f"absent targets (they add nothing to their metric): {', '.join(tracer.absent)}")
        tracer.write(WORK / f"spans-{args.workload}.csv")

    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
        "checks_run": checks,
        "environment": env,
        "lines": lines,
    }


def import_times_median(stderrs: list[str]) -> dict[str, float]:
    samples = [import_times(err) for err in stderrs]
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


if __name__ == "__main__":
    raise SystemExit(main())
