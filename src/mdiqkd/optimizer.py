"""Protocol-parameter search maximizing the secure key rate at one distance.

The search space is six-dimensional and symmetric across the two sides:
``(mu_x, mu_y, mu_z, p_x, p_y, p_z)`` with the vacuum probability implied by
normalization; :meth:`OptimizationProblem.sources` maps a point to sources.
The rate landscape is piecewise smooth with hard cliffs (sources that fail the
decoy conditions score zero), so the search runs a derivative-free simplex
from several seeded random starts and keeps the best point.

The simplex is an in-repo adaptive Nelder-Mead (Gao & Han, Comput. Optim.
Appl. 51, 259 (2012)) on Python floats, and the random starts come from
string-seeded ``random.Random`` draws, so the probe sequence, and every output
built from it, is the same on every CPU and needs neither numpy nor an
installed optimization library.

The restarts are independent, so on Linux they run on ``min(cores,
restarts)`` processes: this one and ``os.fork`` children, with the logs joined
in restart order.  No output depends on that count; with one core, or on a
platform without ``os.sched_getaffinity``, they run in a plain loop here.  A
tracer that rebinds this package's functions counts only the restarts run in
this process.
"""

from __future__ import annotations

import numbers
import os
import random
from dataclasses import dataclass, field

from .channel_sim import ChannelParams, _check_run, _usable_cores
from .keyrate_core import AnalysisInputs, secure_key_rate
from .source_model import SideSources, SourceEnsemble

# Box constraints for (mu_x, mu_y, mu_z, p_x, p_y, p_z).
BOX_LOWER = (1e-4, 2e-3, 1e-3, 1e-3, 1e-3, 1e-3)
BOX_UPPER = (1.0, 1.0, 1.0, 0.98, 0.98, 0.98)
_MIN_VACUUM_PROB = 1e-3

# Deterministic first start; the remaining restarts probe random feasible
# points and prefer ones with a nonzero rate (the landscape is a plateau of
# zeros outside the living region, which a simplex cannot climb).
DEFAULT_START = (0.03, 0.25, 0.45, 0.18, 0.05, 0.6)
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
        mu_x, mu_y, mu_z, p_x, p_y, p_z = map(float, point)
        p_v = 1.0 - p_x - p_y - p_z
        if p_v < _MIN_VACUUM_PROB or mu_x >= mu_y:
            return None
        # By position, in the order of the fields: that skips matching nine keywords at every probe.
        return SideSources(mu_x, mu_y, mu_z, p_v, p_x, p_y, p_z, self.vacuum_cap, self.fluctuation)


@dataclass(frozen=True)
class OptimizationResult:
    point: tuple[float, float, float, float, float, float]
    rate: float
    evaluations: tuple[tuple[tuple[float, ...], float], ...] = field(repr=False)


def evaluate(problem: OptimizationProblem, point) -> float:
    """Secure key rate at one parameter point; one outside the box, without sources or failing the decoy conditions scores zero.

    ``point`` is any sequence of six real numbers; anything else raises ``ValueError``.
    """
    try:
        values = tuple(point)
    except TypeError:
        values = ()
    # One pass checks each value's type, then its box.  A float is a Real;
    # the check of the ABC is kept for the other types.
    real, inside = len(values) == 6, True
    for lo, v, hi in zip(BOX_LOWER, values, BOX_UPPER):
        if type(v) is not float and not isinstance(v, numbers.Real):
            real = False
            break
        if not lo <= v <= hi:  # NaN fails too
            inside = False
    if not real:
        raise ValueError(f"expected six real numbers (mu_x, mu_y, mu_z, p_x, p_y, p_z), got {point!r}")
    if not inside:
        return 0.0
    sources = problem.sources(values)
    if sources is None:
        return 0.0
    return _score(problem, SourceEnsemble.symmetric(sources))


def _score(problem: OptimizationProblem, ensemble: SourceEnsemble) -> float:
    """Secure key rate of ``ensemble`` under the problem's channel."""
    return secure_key_rate(AnalysisInputs.from_simulation(ensemble, problem.channel)).rate


def _random_start(problem: OptimizationProblem, rng: random.Random) -> tuple[tuple[float, ...], SourceEnsemble]:
    """A random point inside the box whose sources pass the decoy conditions, with those sources."""
    for _ in range(1000):
        mu_x = rng.uniform(0.01, 0.25)
        mu_y = rng.uniform(mu_x * 2.0 + 0.05, min(1.0, mu_x * 2.0 + 0.7))
        mu_z = rng.uniform(0.1, 0.8)
        p_x = rng.uniform(0.03, 0.3)
        p_y = rng.uniform(0.03, 0.3)
        p_z = rng.uniform(0.3, 0.8)
        point = (mu_x, mu_y, mu_z, p_x, p_y, p_z)
        sources = problem.sources(point)
        if sources is not None and sources.p_v >= 0.02:
            ensemble = SourceEnsemble.symmetric(sources)
            if ensemble.bounds.decoy.passed:
                return point, ensemble
    raise ValueError(
        f"could not sample a feasible starting point: at fluctuation {problem.fluctuation:g} "
        f"and vacuum cap {problem.vacuum_cap:g} no random start passes the decoy conditions"
    )


def _clip(x) -> tuple[float, ...]:
    """``x`` clamped into the box, each coordinate as :func:`~mdiqkd.channel_sim._clamp` clamps it."""
    return tuple(lo if lo > v else hi if hi < v else v for v, lo, hi in zip(x, BOX_LOWER, BOX_UPPER))


def _nelder_mead(func, x0, maxfev: int) -> None:
    """Minimize ``func`` over the box by adaptive Nelder-Mead, calling it at most ``maxfev`` times.

    Gao & Han's dimension-adapted coefficients, a 5 % initial simplex
    reflected into the box, every trial vertex clipped to the box, and a stop
    once the vertex spread is within ``_XATOL`` and the value spread within
    ``_FATOL``.  The vertices are sorted by value before every step, stably,
    so tied values keep the lower vertex index first.  Each operation and its
    order are fixed, so the calls are byte-stable; ``tests/test_optimizer.py``
    checks them bit for bit against a numpy reference implementation,
    including budgets that run out inside an expansion or a shrink.  ``func``
    receives each vertex as a tuple of floats and the caller records what it
    needs, so nothing is returned.
    """
    calls = 0

    def f(x: tuple[float, ...]) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(x)

    n = len(BOX_LOWER)
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    x0 = _clip(float(v) for v in x0)
    sim = [x0]
    for k, hi in enumerate(BOX_UPPER):
        v = (1 + 0.05) * x0[k]
        # A vertex past the upper bound is reflected inside, so clipping cannot fold it back onto x0.
        sim.append(_clip(x0[:k] + (2 * hi - v if v > hi else v,) + x0[k + 1 :]))
    fsim = []
    try:
        for x in sim:
            fsim.append(f(x))
        while True:
            order = sorted(range(n + 1), key=fsim.__getitem__)
            sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
            best, worst = sim[0], sim[-1]
            flat = all(abs(fsim[0] - v) <= _FATOL for v in fsim[1:])
            if flat and all(abs(a - b) <= _XATOL for x in sim[1:] for a, b in zip(x, best)):
                return
            # The centroid of all but the worst vertex, summed left to right: sum() compensates on Python >= 3.12.
            # Those are n = 6 vertices, one per coordinate of the box; another box dimension fails this unpack.
            xbar = tuple((a + b + c + d + e + g) / n for a, b, c, d, e, g in zip(*sim[:-1]))
            # (1 + c) xbar - c worst: along the line from the worst vertex through the centroid.
            along = lambda c: _clip((1 + c) * a - c * w for a, w in zip(xbar, worst))
            xr = along(rho)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = along(rho * chi)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = along(psi * rho)
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = along(-psi)
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = _clip(b + sigma * (x - b) for b, x in zip(best, sim[j]))
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
    evaluated and logged on top.  The log is every restart's probes in restart
    order, and the returned point is the first best over it, so it dominates
    the whole log by construction.  The restarts run on ``min(cores, restarts)``
    processes on Linux (see :func:`_forked`); the result does not depend on
    that count.
    Raises ``ValueError`` on a seed that is not an integer of at least 0 (a
    bool is none), a budget or restart count that is not one of at least 1,
    and when no random start passes the decoy conditions.
    """
    _check_run(("seed", seed, 0), ("budget", budget, 1), ("restarts", restarts, 1))

    per_restart = max(budget // restarts, 10)
    run = lambda restart: _restart(problem, seed, restart, per_restart)
    # Fork only where the OS keeps an affinity set (Linux).  Elsewhere, as on
    # macOS, system libraries may start threads that a forked child cannot use.
    workers = min(_usable_cores(), restarts) if hasattr(os, "sched_getaffinity") else 1
    logs = [run(restart) for restart in range(restarts)] if workers == 1 else _forked(run, restarts, workers)
    log = [entry for restart_log in logs for entry in restart_log]
    best_point, best_rate = max(log, key=lambda entry: entry[1])
    return OptimizationResult(point=best_point, rate=best_rate, evaluations=tuple(log))


def _restart(problem: OptimizationProblem, seed: int, restart: int, maxfev: int) -> list[tuple[tuple[float, ...], float]]:
    """The probes of one restart in order: its start probes, then its simplex calls."""
    log: list[tuple[tuple[float, ...], float]] = []

    def logged(point: tuple[float, ...], rate: float) -> float:
        log.append((point, rate))
        return rate

    if restart == 0:
        start = DEFAULT_START
    else:
        # A string seed is hashed with SHA-512, so the draws are the same on every platform.
        rng = random.Random(f"{seed}/{restart}")
        # A start lies in the box and its sources are checked, so it is scored as evaluate would score it.
        start, ensemble = _random_start(problem, rng)
        for _ in range(_START_PROBES):
            if logged(start, _score(problem, ensemble)) > 0.0:
                break
            start, ensemble = _random_start(problem, rng)
    _nelder_mead(lambda point: -logged(point, evaluate(problem, point)), start, maxfev)
    return log


def _forked(run, restarts: int, workers: int) -> list:
    """``[run(r) for r in range(restarts)]``, with worker ``w`` running restarts ``w, w + workers, ...``.

    Worker 0 is this process, so a tracer installed here sees every layer; the
    others are forked children.  A child sends each restart's result as
    ``(True, result)``, or the exception the restart raised as
    ``(False, exception)``, back over a pipe in restart order, and stops at
    its first exception.  A result that cannot be pickled is sent as the
    exception that pickling raised, and an exception that cannot be pickled
    and unpickled as a ``RuntimeError`` with its type and message.  A child
    whose pipe fills waits until this process has run its own restarts and
    reads it.  The exception of the lowest failing restart is raised, as the
    loop in one process would raise it.  Once a restart fails, only lower
    restarts are read from the children, and then they are killed.  Every
    child is reaped before this returns or raises.
    """
    import pickle
    import signal

    logs: list = [None] * restarts
    failed: dict[int, BaseException] = {}
    lost: dict[int, int] = {}  # restart -> pid of the child that ended without sending it
    children: list[tuple[int, int, object]] = []  # (worker, pid, read end of its pipe)
    status: dict[int, int] = {}
    finished = False  # every child has sent all of its restarts
    try:
        for worker in range(1, workers):
            read_end, write_end = os.pipe()
            pipe = os.fdopen(read_end, "rb")
            try:
                pid = os.fork()
            except BaseException:
                pipe.close()
                os.close(write_end)
                raise
            if pid == 0:
                code = 1
                try:
                    pipe.close()
                    with os.fdopen(write_end, "wb") as out:
                        for restart in range(worker, restarts, workers):
                            try:
                                ok, data = True, pickle.dumps((True, run(restart)))
                            except Exception as exc:
                                ok, data = False, _pickled_error(exc)
                            out.write(data)
                            out.flush()
                            if not ok:
                                break
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children.append((worker, pid, pipe))

        limit = restarts  # the lowest failed restart: none from there on can change the outcome
        for restart in range(0, restarts, workers):
            try:
                logs[restart] = run(restart)
            except Exception as exc:
                failed[restart] = exc
                limit = restart
                break
        for worker, pid, pipe in children:
            for restart in range(worker, limit, workers):
                try:
                    ok, payload = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the child ended before sending it whole
                    lost[restart] = pid
                else:
                    if ok:
                        logs[restart] = payload
                        continue
                    failed[restart] = payload
                limit = restart
                break
        finished = not (failed or lost)
    finally:
        for _, pid, pipe in children:
            pipe.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            status[pid] = os.waitpid(pid, 0)[1]

    for restart, pid in lost.items():
        code = os.waitstatus_to_exitcode(status[pid])
        failed[restart] = RuntimeError(f"search worker {pid} ended with exit code {code} before sending restart {restart}")
    if failed:
        raise failed[min(failed)]
    return logs


def _pickled_error(exc: Exception) -> bytes:
    """``(False, exc)`` pickled, or, where ``exc`` does not survive the round trip, a ``RuntimeError`` with its type and message."""
    import pickle

    try:
        data = pickle.dumps((False, exc))
        pickle.loads(data)  # an exception whose __init__ takes other arguments pickles, but does not load
        return data
    except Exception:
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
