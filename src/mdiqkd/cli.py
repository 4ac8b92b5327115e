"""Command-line front end.

Commands
--------
rate            Evaluate the secure key rate once at the configured distance.
scan            Sweep distances; one CSV row per distance, ascending.
optimize        Search source parameters per distance; CSV of best points.
validate-model  Compare the analytic detection model against the
                photon-level simulation; nonzero exit on disagreement.

Configuration is a flat ``key = value`` text file; every key has a documented
default and unknown keys are rejected so typos cannot silently change a run.
CSV outputs carry ``#`` provenance comments (config hash, seed, version) and
are byte-stable for identical config and seed.

Exit codes: 0 success (a zero rate is a result, not an error), 1 model
validation failure, 2 configuration or validation error, 3 internal solver
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, TypeVar

from . import __version__
from .channel_sim import ChannelParams, validate_model
from .keyrate_core import AnalysisInputs, KeyRateReport, SolverError, secure_key_rate
from .source_model import SideSources, SourceEnsemble

if TYPE_CHECKING:
    from .optimizer import OptimizationProblem, OptimizationResult


class ConfigError(ValueError):
    """Invalid configuration file or option."""


# The one config key named otherwise than the library field it sets.
_KEY_OF_FIELD = {"f_ec": "f"}
_Built = TypeVar("_Built", ChannelParams, SideSources)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text)  # exact, also past 2**53
    except ValueError:
        pass
    value = float(text)  # whole numbers written as 1e7 or 2.0
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    if not value.is_integer():
        raise ValueError(f"must be a whole number, got {text!r}")
    return int(value)


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one invocation (defaults follow the
    reference experimental parameter set)."""

    # channel / detector
    e_d: float = ChannelParams.e_d
    p_d: float = ChannelParams.p_d
    eta_d: float = ChannelParams.eta_d
    alpha_f: float = ChannelParams.alpha_f
    f: float = ChannelParams.f_ec
    xi: float = ChannelParams.xi
    n_pairs: float = ChannelParams.n_pairs
    distance_km: float = 10.0
    # sources (symmetric across sides)
    mu_x: float = 0.1
    mu_y: float = 0.4
    mu_z: float = 0.5
    p_v: float = 0.1
    p_x: float = 0.1
    p_y: float = 0.1
    p_z: float = 0.7
    vacuum_cap: float = 1e-6
    fluctuation: float = 0.0
    # run options
    distances: str = ""
    optimize: bool = False
    budget: int = 800
    restarts: int = 8
    seed: int = 1
    mc_trials: int = 10_000_000

    def __post_init__(self) -> None:
        for name in ("budget", "restarts", "mc_trials"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        # Every value is checked for every command; ensemble() adds the decoy conditions, which a search skips.
        if self.distances:
            parse_distances(self.distances)
        self._build(ChannelParams)
        # The sources build their coefficient rows when made, so they are made once, here, and ensemble() reads them.
        object.__setattr__(self, "_sources", self._build(SideSources))

    def _build(self, cls: type[_Built]) -> _Built:
        """One library dataclass from the config keys of its fields; its errors name the config key."""
        try:
            return cls(**{f_.name: getattr(self, _KEY_OF_FIELD.get(f_.name, f_.name)) for f_ in fields(cls)})
        except ValueError as exc:
            name, sep, rest = str(exc).partition(" ")
            raise ConfigError(f"{_KEY_OF_FIELD.get(name, name)}{sep}{rest}") from exc

    def channel_params(self) -> ChannelParams:
        return self._build(ChannelParams)

    def ensemble(self) -> SourceEnsemble:
        """The configured sources, refused unless they pass the decoy conditions."""
        ensemble = SourceEnsemble.symmetric(self._sources)
        if not ensemble.bounds.decoy.passed:
            raise ConfigError(f"decoy conditions fail for these sources: {ensemble.bounds.decoy.summary()}")
        return ensemble

    def canonical_text(self) -> str:
        parts = []
        for f_ in fields(self):
            parts.append(f"{f_.name}={getattr(self, f_.name)!r}")
        return "\n".join(parts)

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_PARSERS = {"float": float, "int": _parse_int, "bool": _parse_bool, "str": str}


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read a flat key = value file; ``#`` starts a comment; unknown keys and bad values are errors."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")  # an editor's byte-order mark is not part of the first key
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()  # no value contains '#'
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            overrides[key] = _PARSERS[_FIELD_TYPES[key]](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return overrides


def load_config(args: argparse.Namespace) -> RunConfig:
    overrides = parse_config_file(args.config)
    if args.seed is not None:
        overrides["seed"] = args.seed
    # A given flag overrides the config, so an empty one is an error, not a fallback.
    if getattr(args, "distances", None) is not None:
        if not args.distances.strip():
            raise ConfigError("bad value for --distances: no distances given")
        overrides["distances"] = args.distances
    if getattr(args, "optimize", None) is not None:
        try:
            overrides["optimize"] = _parse_bool(args.optimize)
        except ValueError as exc:
            raise ConfigError(f"bad value for --optimize: {exc}") from exc
    return RunConfig(**overrides)


# Most points an A:B:STEP range may expand to; a longer range is a
# configuration error, rejected before any list is built.
MAX_RANGE_POINTS = 100_000


def parse_distances(spec: str) -> list[float]:
    """Parse 'A:B:STEP' (inclusive of B when it lands on the grid) or 'a,b,c'."""
    spec = spec.strip()
    if not spec:
        raise ConfigError("no distances given; set 'distances' in the config or pass --distances")
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("range form is A:B:STEP")
            start, stop, step = (float(p) for p in parts)
            if not all(math.isfinite(v) for v in (start, stop, step)):
                raise ValueError("A, B and STEP must be finite")
            if step <= 0:
                raise ValueError("STEP must be positive")
            if stop < start:
                raise ValueError("B must not be below A")
            span = (stop - start) / step + 1e-9  # inf when the range overflows
            if span >= MAX_RANGE_POINTS:
                raise ValueError(f"range has more than {MAX_RANGE_POINTS} points")
            n = int(span)
            values = [start + i * step for i in range(n + 1)]
        else:
            values = [float(p) for p in spec.split(",") if p.strip()]
        if not values:
            raise ValueError("empty distance list")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("distances must be finite")
        if any(v < 0 for v in values):
            raise ValueError("distances must be nonnegative")
    except ValueError as exc:
        raise ConfigError(f"bad distances {spec!r}: {exc}") from exc
    return values


def _fmt(value: float) -> str:
    return f"{value:.12e}"


# One %-format per CSV row, each field as f"{v:g}", f"{v:.3f}" or _fmt(v)
# would print it, bit for bit, at half the cost of one format per field.  An
# optimize row, a result or an eval-log probe, is a distance and seven values;
# a validation row ends in its 0/1 verdict.
_SCAN_ROW = "%g,%s,%.12e,%.12e,%.12e,%.12e"
_OPTIMIZE_ROW = "%g" + ",%.12e" * 7
_VALIDATE_ROW = "%g,%g,%s,%.12e,%.12e,%.3f,%.12e,%.12e,%.3f,%d"


def _record(report: KeyRateReport) -> str:
    """The ``rate`` output: one ``name = value`` line per report field, in field order."""
    values = ((f_.name, getattr(report, f_.name)) for f_ in fields(report))
    return "".join(f"{name} = {_fmt(v) if isinstance(v, float) else v}\n" for name, v in values)


def _provenance_lines(config: RunConfig, command: str) -> list[str]:
    return [
        f"# command={command}",
        f"# config_hash={config.content_hash()}",
        f"# seed={config.seed}",
        f"# version={__version__}",
    ]


def _csv(config: RunConfig, command: str, header: list[str], rows: list[str]) -> str:
    lines = _provenance_lines(config, command) + [",".join(header)] + rows
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    sys.stdout.write(text)
    if out:
        _write(out, text)


def _report(ensemble: SourceEnsemble, params: ChannelParams) -> KeyRateReport:
    return secure_key_rate(AnalysisInputs.from_simulation(ensemble, params))


def _channels(config: RunConfig, distances: list[float]) -> list[ChannelParams]:
    """The configured channel at each distance, in the order given."""
    channel = config.channel_params()
    return [channel.at_distance(0.0 if distance == 0 else distance) for distance in distances]  # so -0 prints as "0"


def _searches(config: RunConfig, distances: list[float]) -> Iterator[tuple[ChannelParams, OptimizationProblem, OptimizationResult]]:
    """Yield each distance's channel, search problem and search result, in the order given."""
    from .optimizer import OptimizationProblem, optimize  # loaded only by a search

    for params in _channels(config, distances):
        try:
            problem = OptimizationProblem(channel=params, vacuum_cap=config.vacuum_cap, fluctuation=config.fluctuation)
            result = optimize(problem, seed=config.seed, budget=config.budget, restarts=config.restarts)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        yield params, problem, result


def cmd_rate(config: RunConfig, args: argparse.Namespace) -> int:
    (params,) = _channels(config, [config.distance_km])
    _emit(_record(_report(config.ensemble(), params)), args.out)
    return 0


def cmd_scan(config: RunConfig, args: argparse.Namespace) -> int:
    distances = sorted(parse_distances(config.distances))
    if config.optimize:
        # A positive rate needs sources, and an all-zero log's best is its first probe, DEFAULT_START.
        mode, runs = "optimized", ((params, SourceEnsemble.symmetric(problem.sources(result.point))) for params, problem, result in _searches(config, distances))
    else:
        # The configured sources, built and decoy-checked once, serve every
        # distance: the coefficient bounds depend only on the sources.
        channels, ensemble = _channels(config, distances), config.ensemble()
        mode, runs = "fixed", ((params, ensemble) for params in channels)
    rows = []
    for params, ensemble in runs:
        report = _report(ensemble, params)
        rows.append(_SCAN_ROW % (params.distance_km, mode, report.rate, report.h_star, report.s11_at_min, report.e11_at_min))
    header = ["distance_km", "mode", "rate", "h_star", "s11_lower", "e11_upper"]
    _emit(_csv(config, "scan", header, rows), args.out)
    return 0


def cmd_optimize(config: RunConfig, args: argparse.Namespace) -> int:
    distances = sorted(parse_distances(config.distances)) if config.distances else [config.distance_km]
    rows = []
    log_rows = []
    for params, _, result in _searches(config, distances):
        distance = params.distance_km
        rows.append(_OPTIMIZE_ROW % (distance, result.rate, *result.point))
        for point, rate in result.evaluations:
            log_rows.append(_OPTIMIZE_ROW % (distance, *point, rate))
    header = ["distance_km", "rate", "mu_x", "mu_y", "mu_z", "p_x", "p_y", "p_z"]
    _emit(_csv(config, "optimize", header, rows), args.out)
    if args.eval_log:
        log_header = ["distance_km", "mu_x", "mu_y", "mu_z", "p_x", "p_y", "p_z", "rate"]
        _write(args.eval_log, _csv(config, "optimize-eval-log", log_header, log_rows))
    return 0


def cmd_validate_model(config: RunConfig, args: argparse.Namespace) -> int:
    params = config.channel_params()
    report = validate_model(params, trials=config.mc_trials, seed=config.seed)
    header = ["mu", "distance_km", "basis", "analytic_gain", "mc_gain", "z_gain", "analytic_error_gain", "mc_error_gain", "z_error", "ok"]
    rows = [
        _VALIDATE_ROW
        % (r.mu, r.distance_km, r.basis, r.analytic_gain, r.mc_gain, r.z_gain, r.analytic_error_gain, r.mc_error_gain, r.z_error, r.ok)
        for r in report.rows
    ]
    _emit(_csv(config, "validate-model", header, rows), args.out)
    if report.passed:
        print(f"model validation PASSED ({len(report.rows)} checks, {config.mc_trials} trials each)")
        return 0
    bad = sum(1 for r in report.rows if not r.ok)
    print(f"model validation FAILED ({bad} of {len(report.rows)} checks outside 3 sigma)")
    return 1


def _commands() -> dict[str, Callable[[RunConfig, argparse.Namespace], int]]:
    """Each command's name and the function that runs it, read at each call, so that a rebound ``cmd_*`` is the one run."""
    return {"rate": cmd_rate, "scan": cmd_scan, "optimize": cmd_optimize, "validate-model": cmd_validate_model}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mdiqkd", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _commands():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the key = value configuration file")
        p.add_argument("--out", default=None, help="write the command's output to this path")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        if name in ("scan", "optimize"):
            p.add_argument("--distances", default=None, help="A:B:STEP or comma-separated list of km")
        if name == "scan":
            p.add_argument("--optimize", default=None, help="on/off: optimize source parameters per distance")
        if name == "optimize":
            p.add_argument("--eval-log", default=None, help="write every probed (point, rate) to this CSV")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built at its first call and kept: argparse takes most of a short command's time to build one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _commands()[args.command](load_config(args), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
