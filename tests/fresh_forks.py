"""Search calls that fork, run in a fresh interpreter that never imports numpy.

``optimize`` forks a worker per usable CPU.  A process that forks should have
one thread, since a forked child can deadlock on a lock another thread held,
and CPython 3.12 and later warn on ``os.fork()`` where there are more.
Importing numpy starts a BLAS thread unless ``OPENBLAS_NUM_THREADS`` is 1,
which ``tests/conftest.py`` sets for the tier-1 process; still,
``tests/test_optimizer.py`` runs each case that counts forks here, where no
numpy can start one.  From the repository root,

    python -m tests.fresh_forks CASE 'JSON LIST OF ARGUMENTS'

prints the result of ``CASES[CASE](*arguments)`` as one JSON value.  Here
numpy cannot be imported, and every ``os.fork`` first checks that this
process has exactly one thread.  Importing this module blocks nothing; only
running it does.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys

from mdiqkd import ChannelParams, OptimizationProblem, SolverError, optimize, optimizer
from mdiqkd.optimizer import DEFAULT_START


@contextlib.contextmanager
def one_cpu():
    """Pin this process to one CPU, so optimize runs every restart in process."""
    if not hasattr(os, "sched_setaffinity"):  # optimize forks only where it can read the affinity set
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def search_problem(distance: float, fluctuation: float) -> OptimizationProblem:
    return OptimizationProblem(
        channel=ChannelParams(n_pairs=1e11, distance_km=distance), vacuum_cap=1e-6, fluctuation=fluctuation
    )


@contextlib.contextmanager
def _counted_forks():
    """Count the ``os.fork`` calls in the block, in the yielded list; each first checks that this process has one thread."""
    fork = os.fork
    forks: list[int] = []

    def checked_fork() -> int:
        threads = len(os.listdir("/proc/self/task"))
        if threads != 1:
            raise RuntimeError(f"os.fork in a process of {threads} threads")
        forks.append(threads)
        return fork()

    os.fork = checked_fork
    try:
        yield forks
    finally:
        os.fork = fork


def _reaped() -> bool:
    """Whether this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _pinned_then_free(call) -> dict:
    """``call()`` on one CPU and then on all of them, with the forks each made."""
    with _counted_forks() as forks:
        with one_cpu():
            alone = call()
        alone_forks = len(forks)
        free = call()
    return {"alone": alone, "free": free, "forks": [alone_forks, len(forks) - alone_forks], "reaped": _reaped()}


def _raised(call) -> list[str]:
    try:
        call()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    raise AssertionError("no exception")


def search(seed: int, distance: float, fluctuation: float, budget: int, restarts: int) -> dict:
    """A search's point, rate and log by ``float.hex``, on one CPU and on all."""
    problem = search_problem(distance, fluctuation)

    def run():
        result = optimize(problem, seed=seed, budget=budget, restarts=restarts)
        return [
            [v.hex() for v in result.point],
            result.rate.hex(),
            [[[v.hex() for v in point], rate.hex()] for point, rate in result.evaluations],
        ]

    return _pinned_then_free(run)


def no_feasible_start() -> dict:
    """The error of a search at fluctuation 0.97, where no random start passes the decoy conditions."""
    problem = search_problem(10.0, 0.97)
    return _pinned_then_free(lambda: _raised(lambda: optimize(problem, budget=80, restarts=4)))


def lowest_failing(failing: list[int]) -> dict:
    """The error of a 10 km search with 4 restarts whose restarts in ``failing`` raise.

    Restart r > 0 first draws from ``random.Random(f"1/{r}")``, so that draw
    names it; restart 0 is the simplex from ``DEFAULT_START``.  With two
    workers, say, this process runs restarts 0 and 2, and a child 1 and 3.
    The functions replaced here stay replaced: this process runs one case.
    """
    named = {random.Random(f"1/{r}").random(): r for r in range(1, 4)}
    random_start, simplex = optimizer._random_start, optimizer._nelder_mead

    def start(problem, rng):
        peek = random.Random()
        peek.setstate(rng.getstate())
        restart = named.get(peek.random())
        if restart in failing:
            raise ValueError(f"no start for restart {restart}")
        return random_start(problem, rng)

    def nelder_mead(func, x0, maxfev):
        if x0 == DEFAULT_START and 0 in failing:
            raise SolverError("restart 0 failed")
        simplex(func, x0, maxfev)

    optimizer._random_start, optimizer._nelder_mead = start, nelder_mead
    problem = OptimizationProblem(channel=ChannelParams(n_pairs=1e11, distance_km=10.0))
    return _pinned_then_free(lambda: _raised(lambda: optimize(problem, budget=80, restarts=4)))


class _Unloadable(Exception):
    """An exception that pickles but does not unpickle: its ``__init__`` takes two arguments and passes one on."""

    def __init__(self, restart, why):
        super().__init__(f"restart {restart}: {why}")


def _hooked(restart):
    exc = ValueError(f"restart {restart} failed")
    exc.hook = lambda: None  # an attribute pickle cannot write
    return exc


def _failing(make):
    """A restart that returns its number, except that restart 1 raises ``make(1)``."""

    def run(restart):
        if restart == 1:
            raise make(restart)
        return restart

    return run


_THIS_PROCESS = os.getpid()


def _exit_in_a_child(restart):
    """Exit with code 7 in a forked child; in this process, return ``restart`` as the loop would."""
    if os.getpid() != _THIS_PROCESS:
        os._exit(7)
    return restart


def _at(special: int, outcome):
    """A restart that returns its number, except that restart ``special`` returns ``outcome(special)``."""
    return lambda restart: outcome(restart) if restart == special else restart


# What each restart does in :func:`forked`.  With 2 workers, restarts 1 and 3
# run in the forked child.
_RESULTS = {
    # Results of any type are results, an exception instance among them.
    "int": lambda restart: restart,
    "tuple": lambda restart: (restart, str(restart)),
    "none": lambda restart: None,
    "exception": lambda restart: KeyError(restart),
    # The child ends before it sends restart 1, or after it has sent it.
    "dies": _at(1, _exit_in_a_child),
    "dies_after_sending": _at(3, _exit_in_a_child),
    # A result pickle cannot write, and exceptions that cannot be sent as they are.
    "unpicklable": _at(1, _hooked),
    "hooked": _failing(_hooked),
    "unloadable": _failing(lambda restart: _Unloadable(restart, "no start")),
}


def _outcome(call) -> list:
    """``["result", repr(call())]``, or the type and message of the exception it raised: a form with no addresses."""
    try:
        return ["result", repr(call())]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


def forked(kind: str, restarts: int, workers: int) -> dict:
    """The outcome of ``optimizer._forked`` over restarts that do ``_RESULTS[kind]``, and of the plain loop.

    ``"here"`` lists the restarts that ``_forked`` ran in this process, in the order it ran them.
    """
    here: list[int] = []

    def run(restart):
        here.append(restart)  # in a child, to the child's own copy
        return _RESULTS[kind](restart)

    with _counted_forks() as forks:
        result = _outcome(lambda: optimizer._forked(run, restarts, workers))
    reaped, ran_here = _reaped(), here[:]
    loop = _outcome(lambda: [run(r) for r in range(restarts)])
    return {"forked": result, "loop": loop, "here": ran_here, "forks": len(forks), "reaped": reaped}


def second_fork_fails() -> dict:
    """``optimizer._forked`` over 3 restarts with 3 workers, where the first ``os.fork`` makes a child and the second raises ``OSError``.

    ``"fds_kept"`` says whether the descriptors open after the call are
    those open before it, so no pipe end was left open.
    """
    before = sorted(os.listdir("/proc/self/fd"))
    with _counted_forks() as forks:
        counted = os.fork

        def second_fails() -> int:
            if len(forks) == 1:
                raise OSError("no process for worker 2")
            return counted()

        os.fork = second_fails
        result = _outcome(lambda: optimizer._forked(lambda restart: restart, 3, 3))
    kept = sorted(os.listdir("/proc/self/fd")) == before
    return {"forked": result, "fds_kept": kept, "forks": len(forks), "reaped": _reaped()}


CASES = {case.__name__: case for case in (search, no_feasible_start, lowest_failing, forked, second_fork_fails)}


if __name__ == "__main__":
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before any case ran")
    sys.modules["numpy"] = None  # any import of numpy from here on fails
    print(json.dumps(CASES[sys.argv[1]](*json.loads(sys.argv[2]))))
