"""Protocol-parameter search maximizing the secure key rate at one distance.

The search space is six-dimensional and symmetric across the two sides:
``(mu_x, mu_y, mu_z, p_x, p_y, p_z)`` with the vacuum probability implied by
normalization; :meth:`OptimizationProblem.sources` maps a point to sources.
The rate landscape is piecewise smooth with hard cliffs (sources that fail the
decoy conditions score zero), so the search runs a derivative-free simplex
from several seeded random starts and keeps the best point.

The simplex is an in-repo adaptive Nelder-Mead (Gao & Han, Comput. Optim.
Appl. 51, 259 (2012)), so the probe sequence, and every output built from it,
depends only on numpy and not on an installed optimization library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel_sim import ChannelParams
from .keyrate_core import AnalysisInputs, secure_key_rate
from .source_model import SideSources, SourceEnsemble

# Box constraints for (mu_x, mu_y, mu_z, p_x, p_y, p_z).
BOX_LOWER = np.array([1e-4, 2e-3, 1e-3, 1e-3, 1e-3, 1e-3])
BOX_UPPER = np.array([1.0, 1.0, 1.0, 0.98, 0.98, 0.98])
_BOX_LOWER, _BOX_UPPER = BOX_LOWER.tolist(), BOX_UPPER.tolist()  # as Python floats, for one probe's check
_MIN_VACUUM_PROB = 1e-3

# Deterministic first start; the remaining restarts probe random feasible
# points and prefer ones with a nonzero rate (the landscape is a plateau of
# zeros outside the living region, which a simplex cannot climb).
DEFAULT_START = np.array([0.03, 0.25, 0.45, 0.18, 0.05, 0.6])
_START_PROBES = 40

# Simplex stopping tolerances on vertex spread and on value spread.
_XATOL = 1e-4
_FATOL = 1e-12


class _BudgetSpent(Exception):
    """The simplex asked for more evaluations than its budget allows."""


@dataclass(frozen=True)
class OptimizationProblem:
    """Fixed experimental conditions the search runs under.

    Building one builds the sources at ``DEFAULT_START``, so a ``vacuum_cap``
    or ``fluctuation`` that :class:`SideSources` refuses raises ``ValueError``.
    """

    channel: ChannelParams
    vacuum_cap: float = 0.0
    fluctuation: float = 0.0

    def __post_init__(self) -> None:
        self.sources(DEFAULT_START)

    def sources(self, point) -> SideSources | None:
        """One side's sources at ``(mu_x, mu_y, mu_z, p_x, p_y, p_z)``; None if ``p_v < _MIN_VACUUM_PROB`` or ``mu_x >= mu_y``."""
        mu_x, mu_y, mu_z, p_x, p_y, p_z = (float(v) for v in point)
        p_v = 1.0 - p_x - p_y - p_z
        if p_v < _MIN_VACUUM_PROB or mu_x >= mu_y:
            return None
        return SideSources(
            mu_x=mu_x,
            mu_y=mu_y,
            mu_z=mu_z,
            p_v=p_v,
            p_x=p_x,
            p_y=p_y,
            p_z=p_z,
            vacuum_cap=self.vacuum_cap,
            fluctuation=self.fluctuation,
        )


@dataclass(frozen=True)
class OptimizationResult:
    point: tuple[float, float, float, float, float, float]
    rate: float
    evaluations: tuple[tuple[tuple[float, ...], float], ...] = field(repr=False)


def evaluate(problem: OptimizationProblem, point) -> float:
    """Secure key rate at one parameter point; one outside the box, without sources or failing the decoy conditions scores zero."""
    arr = np.asarray(point, dtype=float)
    if arr.shape != (6,):
        raise ValueError(f"expected a 6-vector (mu_x, mu_y, mu_z, p_x, p_y, p_z), got shape {arr.shape}")
    values = arr.tolist()
    if not all(lo <= v <= hi for lo, v, hi in zip(_BOX_LOWER, values, _BOX_UPPER)):  # NaN fails too
        return 0.0
    sources = problem.sources(values)
    if sources is None:
        return 0.0
    return secure_key_rate(AnalysisInputs.from_simulation(SourceEnsemble.symmetric(sources), problem.channel)).rate


def _random_start(problem: OptimizationProblem, rng: np.random.Generator) -> np.ndarray:
    for _ in range(1000):
        mu_x = rng.uniform(0.01, 0.25)
        mu_y = rng.uniform(mu_x * 2.0 + 0.05, min(1.0, mu_x * 2.0 + 0.7))
        mu_z = rng.uniform(0.1, 0.8)
        p_x = rng.uniform(0.03, 0.3)
        p_y = rng.uniform(0.03, 0.3)
        p_z = rng.uniform(0.3, 0.8)
        point = np.array([mu_x, mu_y, mu_z, p_x, p_y, p_z])
        sources = problem.sources(point)
        if sources is not None and sources.p_v >= 0.02 and SourceEnsemble.symmetric(sources).bounds.decoy.passed:
            return point
    raise ValueError(
        f"could not sample a feasible starting point: at fluctuation {problem.fluctuation:g} "
        f"and vacuum cap {problem.vacuum_cap:g} no random start passes the decoy conditions"
    )


def _nelder_mead(func, x0, maxfev: int) -> None:
    """Minimize ``func`` over the box by adaptive Nelder-Mead, calling it at most ``maxfev`` times.

    Gao & Han's dimension-adapted coefficients, a 5 % initial simplex
    reflected into the box, every trial vertex clipped to the box, and a stop
    once the vertex spread is within ``_XATOL`` and the value spread within
    ``_FATOL``.  Each operation, its order and the re-sort after every step
    are fixed, so the calls are byte-stable; ``tests/test_optimizer.py``
    checks them bit for bit against a reference implementation, including
    budgets that run out inside an expansion or a shrink.  ``func`` receives
    copies and the caller records what it needs, so nothing is returned.
    """
    calls = 0

    def f(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(np.copy(x))

    n = len(BOX_LOWER)
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    x0 = np.clip(np.asarray(x0, dtype=float), BOX_LOWER, BOX_UPPER)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    # A vertex past the upper bound is reflected inside, so clipping cannot fold it back onto x0.
    sim = np.clip(np.where(sim > BOX_UPPER, 2 * BOX_UPPER - sim, sim), BOX_LOWER, BOX_UPPER)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
        # Sorted twice before the first step: argsort is not stable, so the
        # second sort can reorder ties, and the reference makes both.
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
        while True:
            order = np.argsort(fsim)
            sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
            if np.max(np.abs(sim[1:] - sim[0])) <= _XATOL and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL:
                return
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip((1 + rho) * xbar - rho * sim[-1], BOX_LOWER, BOX_UPPER)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], BOX_LOWER, BOX_UPPER)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], BOX_LOWER, BOX_UPPER)
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = np.clip((1 - psi) * xbar + psi * sim[-1], BOX_LOWER, BOX_UPPER)
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), BOX_LOWER, BOX_UPPER)
                        fsim[j] = f(sim[j])
    except _BudgetSpent:
        return


def optimize(
    problem: OptimizationProblem,
    seed: int = 1,
    budget: int = 800,
    restarts: int = 8,
) -> OptimizationResult:
    """Multi-start simplex search; deterministic for a given seed.

    Each restart runs the simplex for at most ``max(budget // restarts, 10)``
    rate evaluations, so the simplex calls stay within ``budget`` only when
    ``budget >= 10 * restarts``.  Every restart after the first also probes
    up to ``_START_PROBES`` random starts for a nonzero rate; those probes are
    evaluated and logged on top.  The returned point is the best over every
    evaluation made, so it dominates the whole log by construction.  Raises
    ``ValueError`` on a budget or restart count below one, and when no random
    start passes the decoy conditions.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")

    log: list[tuple[tuple[float, ...], float]] = []

    def logged_rate(point: np.ndarray) -> float:
        rate = evaluate(problem, point)
        log.append((tuple(float(v) for v in point), rate))
        return rate

    per_restart = max(budget // restarts, 10)
    root = np.random.SeedSequence(seed)
    for index, child in enumerate(root.spawn(restarts)):
        rng = np.random.default_rng(child)
        if index == 0:
            start = DEFAULT_START.copy()
        else:
            start = _random_start(problem, rng)
            for _ in range(_START_PROBES):
                if logged_rate(start) > 0.0:
                    break
                start = _random_start(problem, rng)
        _nelder_mead(lambda point: -logged_rate(point), start, per_restart)

    best_point, best_rate = max(log, key=lambda entry: entry[1])
    return OptimizationResult(point=best_point, rate=best_rate, evaluations=tuple(log))
