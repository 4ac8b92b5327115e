"""Seeded task generators and output checks for the benchmark's workloads.

A task is one ``mdiqkd.cli.main`` invocation: a command, the ``key = value``
config file it reads, and any extra arguments.  Every input is drawn from the
workload seed, so one seed always gives the same tasks.  Tasks come in
batches, the task lists whose time is ``wall_s``.

Checks run after timing has stopped.  A failed check names the task and stays
in the workload: nothing is dropped because it fails.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

# The working point of configs/reference.cfg, copied here so that editing that
# file cannot silently change the benchmark's inputs.
REFERENCE = {
    "e_d": 0.015,
    "p_d": 6.02e-6,
    "eta_d": 0.145,
    "alpha_f": 0.2,
    "f": 1.16,
    "xi": 1e-7,
    "n_pairs": 1e11,
    "mu_x": 0.028,
    "mu_y": 0.248,
    "mu_z": 0.459,
    "p_v": 0.146,
    "p_x": 0.189,
    "p_y": 0.04,
    "p_z": 0.625,
    "vacuum_cap": 1e-6,
    "fluctuation": 0.01,
}

_SIDE_KEYS = ("mu_x", "mu_y", "mu_z", "p_v", "p_x", "p_y", "p_z", "vacuum_cap", "fluctuation")
_CHANNEL_KEYS = {"e_d": "e_d", "p_d": "p_d", "eta_d": "eta_d", "alpha_f": "alpha_f", "f": "f_ec", "xi": "xi", "n_pairs": "n_pairs"}

SOUNDNESS_TOL = 1e-8  # absolute, as acceptance criterion 7
SOUNDNESS_GRID = 1_000_000
SOUNDNESS_SAMPLES = 16
OPT_REL_TOL = 1e-9  # 13 significant digits in the CSV, minus rounding of the point
Z_LIMIT = 5.0
MIN_VALIDATION_ROWS = 20
VALIDATE_REPEATS = 2


@dataclass
class Task:
    name: str
    command: str
    config: dict
    extra: list[str] = field(default_factory=list)
    eval_log: bool = False


@dataclass
class Outcome:
    task: Task
    rc: int | None
    latency_s: float  # as measured
    stdout: str
    stderr: str
    error: str | None
    eval_log_text: str = ""
    results: int = 0  # key rates (sweep), probes (optimize) or model rows (validate)
    trials: int = 0
    failures: list[str] = field(default_factory=list)
    gain: float | None = None
    scaled_s: float = 0.0  # latency_s at the reference speed


def config_text(config: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config.items())


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV with ``#`` comments; other lines are skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, [row for row in rows if len(row) == len(header)]


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


# Steps of the Kronecker (R1, R2) low-discrepancy sequences: the first n
# points cover [0, 1) or [0, 1)^2 evenly for every n, so a run that reaches
# any number of tasks still spans each input range evenly.
_R1 = ((math.sqrt(5.0) - 1.0) / 2.0,)
_PLASTIC = 1.3247179572447460
_R2 = (1.0 / _PLASTIC, 1.0 / _PLASTIC**2)


def _kronecker(offsets: tuple[float, ...], steps: tuple[float, ...], j: int) -> tuple[float, ...]:
    return tuple((offset + j * step) % 1.0 for offset, step in zip(offsets, steps))


def _ensemble(lib, config: dict):
    side = lib.SideSources(**{key: config[key] for key in _SIDE_KEYS})
    return lib.SourceEnsemble.symmetric(side)


def _channel(lib, config: dict, distance: float):
    kwargs = {name: config[key] for key, name in _CHANNEL_KEYS.items()}
    return lib.ChannelParams(distance_km=distance, **kwargs)


def _fail(outcome: Outcome, message: str) -> None:
    outcome.failures.append(f"{outcome.task.name}: {message}")


def _basic(outcome: Outcome, allowed_rc: tuple[int, ...]) -> bool:
    if outcome.error is not None:
        _fail(outcome, f"raised {outcome.error}")
        return False
    if outcome.rc not in allowed_rc:
        _fail(outcome, f"exit code {outcome.rc}: {outcome.stderr.strip()[-200:]}")
        return False
    return True


class Sweep:
    """``scan`` over a fine distance grid, one command per source configuration."""

    name = "sweep"
    command = "scan"
    batch_size = 4
    # Scaled seconds per task at the parent commit; with --seconds it sets
    # the task count.  min_tasks keeps task_tail_ms above the minimum.
    nominal_task_s = 0.34
    min_tasks = 20
    distances = "0:150:1"
    smoke_distances = "0:40:10"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.batch_size = 2 if smoke else Sweep.batch_size

    def _grid(self) -> list[float]:
        start, stop, step = (float(p) for p in (self.smoke_distances if self.smoke else self.distances).split(":"))
        return [start + i * step for i in range(int((stop - start) / step + 1e-9) + 1)]

    def minimal(self) -> Task:
        return Task("setup", self.command, {**REFERENCE, "distances": "10"})

    def batch(self, index: int, lib) -> list[Task]:
        # Fluctuation and the data size set how much of each scan is zero-rate
        # and how small the counts get; they follow a seeded low-discrepancy
        # sequence, the source points are plain draws.
        offsets = (random.Random(f"sweep/{self.seed}").random(), random.Random(f"sweep/{self.seed}/n").random())
        rng = random.Random(f"sweep/{self.seed}/{index}")
        tasks = []
        for i in range(self.batch_size):
            u_fl, u_n = _kronecker(offsets, _R2, index * self.batch_size + i)
            while True:
                config = dict(REFERENCE)
                config["fluctuation"] = 0.05 * u_fl
                config["n_pairs"] = 10.0 ** (9.0 + 4.0 * u_n)
                for key, spread in (("mu_x", 0.15), ("mu_y", 0.1), ("mu_z", 0.1), ("p_x", 0.1), ("p_y", 0.1), ("p_z", 0.1)):
                    config[key] = REFERENCE[key] * (1.0 + spread * (2.0 * rng.random() - 1.0))
                config["p_v"] = 1.0 - config["p_x"] - config["p_y"] - config["p_z"]
                config["distances"] = self.smoke_distances if self.smoke else self.distances
                # The CLI rejects sources that fail the decoy conditions, so
                # such draws are replaced before anything is timed.
                bounds = lib.coeff_bounds(_ensemble(lib, config))
                if lib.check_decoy_conditions(bounds).passed:
                    break
            tasks.append(Task(f"sweep-{index}-{i}", self.command, config))
        return tasks

    def check(self, outcome: Outcome, checks: Counter) -> None:
        checks["exit_code"] += 1
        if not _basic(outcome, (0,)):
            return
        checks["sweep.rows"] += 1
        header, rows = csv_rows(outcome.stdout)
        grid = self._grid()
        if "rate" not in header or [_float(r[0]) for r in rows] != grid:
            _fail(outcome, f"expected {len(grid)} rows at distances {grid[0]:g}..{grid[-1]:g}, got {len(rows)}")
            return
        checks["sweep.rate_finite_nonnegative"] += 1
        col = header.index("rate")
        bad = [r[0] for r in rows if not (math.isfinite(_float(r[col])) and _float(r[col]) >= 0.0)]
        if bad:
            _fail(outcome, f"rate not finite or negative at {', '.join(bad[:5])} km")
        outcome.results = len(rows)

    def post_checks(self, outcomes: list[Outcome], lib, rerun, checks: Counter) -> None:
        """Reported rates never exceed the dense-grid minimum over H (soundness)."""
        import numpy as np

        candidates = []
        for outcome in outcomes:
            if outcome.failures or outcome.error is not None or outcome.rc != 0:
                continue
            header, rows = csv_rows(outcome.stdout)
            col = header.index("rate")
            candidates += [(outcome, float(r[0]), float(r[col])) for r in rows if _float(r[col]) > 0.0]
        rng = random.Random(f"sweep-soundness/{self.seed}")
        sample = rng.sample(candidates, min(SOUNDNESS_SAMPLES, len(candidates)))
        points = SOUNDNESS_GRID // 100 if self.smoke else SOUNDNESS_GRID
        for outcome, distance, rate in sample:
            checks["sweep.soundness_dense_grid"] += 1
            config = outcome.task.config
            inputs = lib.AnalysisInputs.from_simulation(_ensemble(lib, config), _channel(lib, config, distance))
            curve, h_lo, h_hi = lib.rate_function(inputs)
            floor = max(0.0, float(np.min(curve(np.linspace(h_lo, h_hi, points)))))
            if rate > floor + SOUNDNESS_TOL:
                _fail(outcome, f"rate {rate:.12e} at {distance:g} km exceeds dense-grid minimum {floor:.12e}")


class Optimize:
    """``optimize --eval-log`` at one distance per command, default budget."""

    name = "optimize"
    command = "optimize"
    batch_size = 2
    nominal_task_s = 1.35
    min_tasks = 14
    max_distance = 60.0
    jitter_km = 0.5

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.batch_size = 2 if smoke else Optimize.batch_size
        # The default budget and restarts are the program's; a smoke run only
        # shrinks them to keep the self-test short.
        self.search = {"budget": 40, "restarts": 2} if smoke else {}

    def minimal(self) -> Task:
        return Task("setup", self.command, {**REFERENCE, "budget": 1, "restarts": 1}, ["--distances", "10"], eval_log=True)

    def batch(self, index: int, lib) -> list[Task]:
        # opt_rate_gain grows steeply with distance, so the distances of task
        # j follow one low-discrepancy sequence for every seed, each with a
        # seeded jitter: the medians of different seeds compare like with
        # like, and any number of tasks spreads evenly over the range.
        rng = random.Random(f"optimize/{self.seed}/{index}")
        tasks = []
        for i in range(self.batch_size):
            (u,) = _kronecker((0.5,), _R1, index * self.batch_size + i)
            jitter = self.jitter_km * (2.0 * rng.random() - 1.0)
            distance = round(min(max(self.max_distance * u + jitter, 0.0), self.max_distance), 2)
            config = {**REFERENCE, **self.search, "seed": rng.randrange(1, 2**31)}
            tasks.append(Task(f"optimize-{index}-{i}", self.command, config, ["--distances", f"{distance:g}"], eval_log=True))
        return tasks

    def check(self, outcome: Outcome, checks: Counter) -> None:
        checks["exit_code"] += 1
        if not _basic(outcome, (0,)):
            return
        checks["optimize.result_row"] += 1
        header, rows = csv_rows(outcome.stdout)
        if len(rows) != 1 or "rate" not in header or not (math.isfinite(_float(rows[0][header.index("rate")]))):
            _fail(outcome, f"expected one finite result row, got {rows[:2]}")
            return
        checks["optimize.eval_log_nonempty"] += 1
        _, probes = csv_rows(outcome.eval_log_text)
        if not probes:
            _fail(outcome, "eval log is empty")
            return
        outcome.results = len(probes)

    def _problem(self, lib, config: dict, distance: float):
        return lib.OptimizationProblem(
            channel=_channel(lib, config, distance),
            vacuum_cap=config["vacuum_cap"],
            fluctuation=config["fluctuation"],
        )

    def post_checks(self, outcomes: list[Outcome], lib, rerun, checks: Counter) -> None:
        """Reported rate equals ``evaluate`` at the reported point; gain over the default start."""
        for outcome in outcomes:
            if outcome.failures or outcome.error is not None or outcome.rc != 0:
                continue
            header, rows = csv_rows(outcome.stdout)
            row = dict(zip(header, rows[0]))
            distance = float(row["distance_km"])
            rate = float(row["rate"])
            problem = self._problem(lib, outcome.task.config, distance)
            point = [float(row[key]) for key in ("mu_x", "mu_y", "mu_z", "p_x", "p_y", "p_z")]
            checks["optimize.rate_matches_evaluate"] += 1
            again = lib.evaluate(problem, point)
            if abs(again - rate) > OPT_REL_TOL * max(abs(rate), abs(again)):
                _fail(outcome, f"reported rate {rate:.12e} but evaluate gives {again:.12e}")
            start = lib.evaluate(problem, lib.DEFAULT_START)
            if start > 0.0:
                outcome.gain = rate / start


class Validate:
    """``validate-model`` with a reduced trial count and per-task seeds."""

    name = "validate"
    command = "validate-model"
    batch_size = 5
    nominal_task_s = 0.47
    min_tasks = 20
    mc_trials = 100_000

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.batch_size = 2 if smoke else Validate.batch_size
        self.mc_trials = 10_000 if smoke else Validate.mc_trials

    def minimal(self) -> Task:
        return Task("setup", self.command, {**REFERENCE, "mc_trials": 1000})

    def batch(self, index: int, lib) -> list[Task]:
        rng = random.Random(f"validate/{self.seed}/{index}")
        return [
            Task(f"validate-{index}-{i}", self.command, {**REFERENCE, "mc_trials": self.mc_trials, "seed": rng.randrange(1, 2**31)})
            for i in range(self.batch_size)
        ]

    def check(self, outcome: Outcome, checks: Counter) -> None:
        checks["exit_code"] += 1
        # Exit 1 (some |z| above 3) is a result: about one seed in ten gives it.
        if not _basic(outcome, (0, 1)):
            return
        checks["validate.rows"] += 1
        header, rows = csv_rows(outcome.stdout)
        if len(rows) < MIN_VALIDATION_ROWS or "z_gain" not in header:
            _fail(outcome, f"expected at least {MIN_VALIDATION_ROWS} rows, got {len(rows)}")
            return
        checks["validate.z_within_limit"] += 1
        for name in ("z_gain", "z_error"):
            col = header.index(name)
            worst = max((abs(_float(r[col])) if math.isfinite(_float(r[col])) else math.inf) for r in rows)
            if worst > Z_LIMIT:
                _fail(outcome, f"|{name}| reaches {worst:.3f} > {Z_LIMIT}")
        outcome.results = len(rows)
        outcome.trials = len(rows) * int(outcome.task.config["mc_trials"])

    def post_checks(self, outcomes: list[Outcome], lib, rerun, checks: Counter) -> None:
        """A repeat of the same seed gives the same Monte Carlo counts."""
        good = [o for o in outcomes if not o.failures and o.error is None]
        rng = random.Random(f"validate-repeat/{self.seed}")
        for outcome in rng.sample(good, min(VALIDATE_REPEATS, len(good))):
            checks["validate.repeat_identical"] += 1
            if _mc_columns(outcome.stdout) != _mc_columns(rerun(outcome.task).stdout):
                _fail(outcome, f"Monte Carlo counts differ on a repeat of seed {outcome.task.config['seed']}")


def _mc_columns(text: str) -> list[list[str]] | None:
    header, rows = csv_rows(text)
    if "mc_gain" not in header or "mc_error_gain" not in header:
        return None
    return [[row[header.index("mc_gain")], row[header.index("mc_error_gain")]] for row in rows]


WORKLOADS = {cls.name: cls for cls in (Sweep, Optimize, Validate)}
