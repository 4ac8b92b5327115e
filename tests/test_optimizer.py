import inspect
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mdiqkd import ChannelParams, OptimizationProblem, SourceEnsemble, channel_sim, evaluate, keyrate_core, optimize, optimizer, source_model
from mdiqkd.cli import RunConfig
from mdiqkd.optimizer import BOX_LOWER, BOX_UPPER, DEFAULT_START
from tests import oracles
from tests.fresh_forks import one_cpu, search_problem

SANE_POINT = (0.1, 0.4, 0.5, 0.1, 0.1, 0.7)
SANE_RATE = pytest.approx(7.245334874083355e-06, rel=1e-10, abs=0.0)
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def problem_10km():
    return OptimizationProblem(channel=ChannelParams(n_pairs=1e11, distance_km=10.0))


@pytest.fixture(scope="module")
def problem_25km():
    return OptimizationProblem(channel=ChannelParams(n_pairs=1e11, distance_km=25.0))


def test_swapped_decoys_score_zero(problem_10km):
    assert evaluate(problem_10km, (0.4, 0.1, 0.5, 0.1, 0.1, 0.7)) == 0.0


def test_vanishing_signal_probability_kills_rate(problem_10km):
    rate = evaluate(problem_10km, (0.1, 0.4, 0.5, 0.1, 0.1, 1e-3))
    # Signal prefactor is p_z squared; with p_z ~ 1e-3 nothing survives the
    # error-correction cost.
    assert rate <= 1e-9


def test_out_of_box_points_score_zero(problem_10km):
    assert evaluate(problem_10km, (0.1, 0.4, 0.5, 0.5, 0.4, 0.2)) == 0.0  # no vacuum probability left
    assert evaluate(problem_10km, (0.0, 0.4, 0.5, 0.1, 0.1, 0.7)) == 0.0
    assert evaluate(problem_10km, (float("nan"), 0.4, 0.5, 0.1, 0.1, 0.7)) == 0.0


def test_sane_point_rate_regression(problem_10km):
    rate = evaluate(problem_10km, SANE_POINT)
    assert rate > 0.0
    assert rate == SANE_RATE


@pytest.mark.parametrize(
    "point, rate",
    [
        pytest.param(SANE_POINT, SANE_RATE, id="tuple"),
        pytest.param(list(SANE_POINT), SANE_RATE, id="list"),
        pytest.param(np.array(SANE_POINT), SANE_RATE, id="array"),
        # Each real type other than float scores as a float of its value.
        pytest.param(np.array(SANE_POINT, dtype=np.float32), float.fromhex("0x1.e639703257f15p-18"), id="float32-array"),
        pytest.param(
            (Fraction(1, 10), Fraction(2, 5), Fraction(1, 2), Fraction(1, 10), Fraction(1, 10), Fraction(7, 10)),
            float.fromhex("0x1.e639e7c3c8c95p-18"),
            id="fractions",
        ),
        pytest.param((0.1, 1, 0.5, 0.1, 0.1, 0.7), 0.0, id="int"),
        pytest.param(np.array([0.1, 0.4, float("nan"), 0.1, 0.1, 0.7]), 0.0, id="nan"),
        pytest.param((0.1, 0.4, 1.5, 0.1, 0.1, 0.7), 0.0, id="above-box"),
        pytest.param((0.1, 0.4, 0.5), None, id="short"),
        pytest.param(SANE_POINT + (0.1,), None, id="long"),
        pytest.param(np.array(SANE_POINT).reshape(6, 1), None, id="nested"),
        pytest.param("0.1234", None, id="string"),
        pytest.param([str(v) for v in SANE_POINT], None, id="strings"),
        pytest.param(0.5, None, id="scalar"),
        pytest.param(SANE_POINT[:5] + (0.7 + 0j,), None, id="complex"),
        # A value outside the box does not stop a later value's type check.
        pytest.param((1.5,) + SANE_POINT[1:5] + ("0.7",), None, id="above-box-then-string"),
    ],
)
def test_point_shape_is_checked(problem_10km, point, rate):
    # Any sequence of six real numbers is a point; None marks an input that is not one.
    if rate is None:
        with pytest.raises(ValueError, match="^expected six real numbers"):
            evaluate(problem_10km, point)
    else:
        assert evaluate(problem_10km, point) == rate


def test_optimize_builds_each_table_once_per_ensemble(monkeypatch):
    # Without intensity errors or a vacuum cap every random start passes the
    # decoy conditions, and at 10 km a restart finds a positive start long
    # before its 40 start probes run out, so every ensemble the search makes
    # belongs to one logged probe with sources: a simplex vertex, or a start
    # that is checked and then scored.  Each such probe also makes one table
    # of observables and one set of analysis terms over them, no more.
    problem = OptimizationProblem(channel=ChannelParams(n_pairs=1e11, distance_km=10.0))
    calls = dict.fromkeys(("coeff_bounds", "check_decoy_conditions", "build_observables", "analysis_terms"), 0)
    for name in calls:
        counted = getattr(channel_sim if name == "build_observables" else source_model, name)

        def counting(*args, name=name, counted=counted):
            calls[name] += 1
            return counted(*args)

        for module in (source_model, channel_sim, keyrate_core):  # every module that calls it by this name
            if getattr(module, name, None) is counted:
                monkeypatch.setattr(module, name, counting)
    with one_cpu():  # a forked worker's calls are not counted here
        result = optimize(problem, seed=1, budget=60, restarts=3)
    assert 3 * 20 < len(result.evaluations) < 3 * 20 + 40  # 20 simplex calls per restart, and some starts
    made = sum(1 for point, _ in result.evaluations if problem.sources(point) is not None)
    assert calls == dict.fromkeys(calls, made)


@pytest.mark.parametrize("key, value", [("fluctuation", 1.5), ("fluctuation", float("nan")), ("vacuum_cap", -1.0)])
def test_problem_rejects_sources_it_cannot_build(key, value):
    with pytest.raises(ValueError, match=key):
        OptimizationProblem(channel=ChannelParams(n_pairs=1e11, distance_km=10.0), **{key: value})


@pytest.mark.parametrize("key", ["budget", "restarts"])
def test_optimize_rejects_budget_or_restarts_below_one(problem_10km, key):
    with pytest.raises(ValueError, match=f"^{key} must be an integer of at least 1, got 0$"):
        optimize(problem_10km, **{key: 0})


def test_optimize_refuses_a_negative_seed(problem_10km):
    # As the CLI and the Monte Carlo do: no seed below 0 exists.
    with pytest.raises(ValueError, match="^seed must be an integer of at least 0, got -1$"):
        optimize(problem_10km, seed=-1, budget=20, restarts=2)


@pytest.mark.parametrize(
    "key, value",
    [("restarts", 2.5), ("restarts", True), ("budget", 60.0), ("budget", False), ("seed", True), ("seed", 1.0), ("seed", "1")],
)
def test_optimize_refuses_a_seed_or_count_that_is_not_an_integer(problem_10km, key, value):
    # A bool is refused too: restarts=True would run once, and seed=True search another stream than seed=1.
    least = 0 if key == "seed" else 1
    with pytest.raises(ValueError, match=f"^{key} must be an integer of at least {least}, got {re.escape(repr(value))}$"):
        optimize(problem_10km, **{key: value})


def test_sources_map_points_and_refuse_what_side_sources_would(problem_10km):
    side = problem_10km.sources(SANE_POINT)
    assert (side.mu_x, side.mu_y, side.mu_z, side.p_x, side.p_y, side.p_z) == SANE_POINT
    assert side.p_v == 1.0 - 0.1 - 0.1 - 0.7
    assert problem_10km.sources((0.4, 0.1, 0.5, 0.1, 0.1, 0.7)) is None  # mu_x >= mu_y
    assert problem_10km.sources((0.4, 0.4, 0.5, 0.1, 0.1, 0.7)) is None
    assert problem_10km.sources((0.1, 0.4, 0.5, 0.1, 0.1, 0.7995)) is None  # p_v below the floor


def test_optimize_is_deterministic(problem_25km):
    a = optimize(problem_25km, seed=5, budget=120, restarts=2)
    b = optimize(problem_25km, seed=5, budget=120, restarts=2)
    assert a.point == b.point
    assert a.rate == b.rate
    assert a.evaluations == b.evaluations


def test_best_rate_dominates_every_probe(problem_25km):
    result = optimize(problem_25km, seed=3, budget=150, restarts=3)
    assert result.rate >= max(rate for _, rate in result.evaluations)
    assert (result.point, result.rate) in result.evaluations


def test_optimized_beats_fixed_sane_point_at_25km(problem_25km):
    fixed = evaluate(problem_25km, SANE_POINT)
    result = optimize(problem_25km, seed=11, budget=600, restarts=4)
    assert result.rate > fixed


def test_more_data_never_hurts_optimized_rate():
    # 1e-3 relative slack absorbs optimizer noise.
    small = OptimizationProblem(channel=ChannelParams(n_pairs=1e11, distance_km=10.0))
    large = OptimizationProblem(channel=ChannelParams(n_pairs=1e13, distance_km=10.0))
    r_small = optimize(small, seed=21, budget=800, restarts=8).rate
    r_large = optimize(large, seed=21, budget=800, restarts=8).rate
    assert r_large >= r_small * (1.0 - 1e-3)
    assert r_small > 0.0


def test_fluctuation_never_helps_optimized_rate():
    steady = OptimizationProblem(channel=ChannelParams(n_pairs=1e11, distance_km=10.0), vacuum_cap=1e-6)
    fluct = OptimizationProblem(
        channel=ChannelParams(n_pairs=1e11, distance_km=10.0), vacuum_cap=1e-6, fluctuation=0.05
    )
    r_steady = optimize(steady, seed=33, budget=800, restarts=8).rate
    r_fluct = optimize(fluct, seed=33, budget=800, restarts=8).rate
    assert r_steady >= r_fluct * (1.0 - 1e-3)


def test_library_default_budget_matches_cli():
    assert inspect.signature(optimize).parameters["budget"].default == RunConfig.budget == 800


def test_each_restart_gets_budget_share_floored_at_ten_simplex_calls(problem_10km, monkeypatch):
    # The first restart starts at DEFAULT_START and probes no random starts,
    # so its log is its simplex calls alone.
    assert len(optimize(problem_10km, budget=1, restarts=1).evaluations) == 10
    caps = []
    simplex = optimizer._nelder_mead
    monkeypatch.setattr(optimizer, "_nelder_mead", lambda func, x0, maxfev: caps.append(maxfev) or simplex(func, x0, maxfev))
    with one_cpu():  # a forked worker's calls are not counted here
        optimize(problem_10km, budget=12, restarts=8)
        optimize(problem_10km, budget=100, restarts=4)
    assert caps == [10] * 8 + [25] * 4


def test_random_starts_are_pinned(problem_10km):
    # Drawn by random.Random from the string "seed/restart", so no numpy or CPU feature moves them.
    start, ensemble = optimizer._random_start(problem_10km, random.Random("1/1"))
    assert ensemble == SourceEnsemble.symmetric(problem_10km.sources(start))
    assert [v.hex() for v in start] == [
        "0x1.7614d83f7d697p-5",
        "0x1.2cb78936a6da2p-2",
        "0x1.1f53e7fd1e038p-1",
        "0x1.71ae0e277504fp-3",
        "0x1.07a729b714daap-4",
        "0x1.b462d36138ce9p-2",
    ]
    # The first probe of restart 1 is that start: 10 simplex calls of restart 0 come first.
    assert optimize(problem_10km, seed=1, budget=20, restarts=2).evaluations[10][0] == start


def _recording(objective):
    calls = []

    def func(x):
        calls.append(x)
        return objective(x)

    return func, calls


def _in_box(x) -> bool:
    return all(lo <= v <= hi for lo, v, hi in zip(BOX_LOWER, x, BOX_UPPER))


def test_simplex_stops_on_tolerances_inside_box_on_convex_quadratic():
    target = np.array([0.2, 0.5, 0.4, 0.3, 0.2, 0.4])
    quadratic = lambda x: float(np.sum((np.asarray(x) - target) ** 2))
    func, calls = _recording(quadratic)
    optimizer._nelder_mead(func, DEFAULT_START, 10_000)
    assert 7 < len(calls) < 10_000  # stopped on xatol/fatol, not on the budget
    assert all(isinstance(x, tuple) and all(type(v) is float for v in x) for x in calls)
    assert all(_in_box(x) for x in calls)
    assert min(quadratic(x) for x in calls) < 1e-7
    # A larger budget changes nothing once the tolerances stop the search.
    again, more_calls = _recording(quadratic)
    optimizer._nelder_mead(again, DEFAULT_START, 100_000)
    assert np.array_equal(np.array(calls), np.array(more_calls))


def test_simplex_stays_in_box_when_minimum_lies_outside():
    target = np.array(BOX_UPPER) + 0.5  # every step pushes past the upper bounds
    func, calls = _recording(lambda x: float(np.sum((np.asarray(x) - target) ** 2)))
    optimizer._nelder_mead(func, DEFAULT_START, 10_000)
    assert 7 < len(calls) < 10_000
    assert all(_in_box(x) for x in calls)
    assert any(v == hi for x in calls for v, hi in zip(x, BOX_UPPER))


@pytest.mark.parametrize("maxfev", [1, 6, 7, 8, 9, 12, 37])
def test_simplex_never_exceeds_its_budget(maxfev):
    # A flat-bottomed bowl keeps the simplex busy well past these budgets.
    func, calls = _recording(lambda x: float(np.sum(np.abs(np.asarray(x) - 0.5))))
    optimizer._nelder_mead(func, DEFAULT_START, maxfev)
    assert len(calls) == maxfev


def _scipy_nelder_mead(func, x0, maxfev):
    from scipy.optimize import Bounds, minimize  # callers skip when scipy is missing

    minimize(
        lambda x: func(tuple(x.tolist())),
        x0,
        method="Nelder-Mead",
        bounds=Bounds(BOX_LOWER, BOX_UPPER),
        options={"maxfev": maxfev, "xatol": 1e-4, "fatol": 1e-12, "adaptive": True},
    )


def _log_bytes(problem, simplex, monkeypatch, seed, budget, restarts):
    monkeypatch.setattr(optimizer, "_nelder_mead", simplex)
    result = optimize(problem, seed=seed, budget=budget, restarts=restarts)
    assert any(rate > 0.0 for _, rate in result.evaluations)
    return np.array([point + (rate,) for point, rate in result.evaluations]).tobytes()


# (seed, distance_km, fluctuation, budget, restarts).  The budgets cut every
# restart short; for several restarts the cut lands inside a multi-call step
# (an expansion, a contraction after its reflection, or a shrink).  At 60 km
# seeds 42 and 43 probe nothing but the zero plateau, so that case takes 44.
DIFFERENTIAL_CASES = [
    (1, 0.0, 0.01, 37, 3),
    (7, 25.0, 0.05, 37, 3),
    (44, 60.0, 0.01, 120, 2),
    (1234, 45.0, 0.0, 60, 5),
    (99, 10.0, 0.02, 400, 4),
]


@pytest.mark.parametrize("seed, distance, fluctuation, budget, restarts", DIFFERENTIAL_CASES)
def test_simplex_matches_reference_implementation_bit_for_bit(monkeypatch, seed, distance, fluctuation, budget, restarts):
    problem = search_problem(distance, fluctuation)
    run = lambda simplex: _log_bytes(problem, simplex, monkeypatch, seed, budget, restarts)
    assert run(optimizer._nelder_mead) == run(oracles.nelder_mead)


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or CORES < 2, reason="no affinity set or one usable CPU: optimize never forks"
)


def _fresh(case: str, *args):
    """The JSON result of ``tests.fresh_forks`` case ``case`` on ``args``, run in a fresh interpreter without numpy."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, "-X", "dev", "-W", "error", "-m", "tests.fresh_forks", case, json.dumps(args)]
    done = subprocess.run(command, cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


# (seed, distance_km, fluctuation, budget, restarts): the differential cases,
# the zero-plateau golden at 70 km, a budget below 10 * restarts, and fewer,
# as many and more restarts than usable CPUs.
WORKER_CASES = [
    *DIFFERENTIAL_CASES,
    (1, 70.0, 0.01, 160, 4),
    (1, 25.0, 0.01, 12, 8),
    *((3, 10.0, 0.01, 60, restarts) for restarts in sorted({1, CORES - 1, CORES, CORES + 1} - {0})),
]


@needs_two_cpus
@pytest.mark.parametrize("seed, distance, fluctuation, budget, restarts", WORKER_CASES)
def test_search_is_the_same_bit_for_bit_on_one_cpu_and_on_all(seed, distance, fluctuation, budget, restarts):
    run = _fresh("search", seed, distance, fluctuation, budget, restarts)
    assert run["alone"] == run["free"]
    assert run["forks"] == [0, min(CORES, restarts) - 1]
    assert run["reaped"]


@needs_two_cpus
def test_search_without_a_feasible_start_raises_the_same_error_on_any_worker_count():
    run = _fresh("no_feasible_start")
    assert run["alone"] == run["free"]
    assert run["alone"][0] == "ValueError" and run["alone"][1].startswith("could not sample a feasible starting point")
    assert run["forks"] == [0, min(CORES, 4) - 1]
    assert run["reaped"]


@needs_two_cpus
@pytest.mark.parametrize("failing", [{0}, {0, 1}, {1}, {1, 2, 3}, {2, 3}, {3}])
def test_the_lowest_failing_restart_raises_on_any_worker_count(failing):
    run = _fresh("lowest_failing", sorted(failing))
    assert run["alone"] == run["free"]
    lowest = min(failing)
    assert run["alone"] == (["SolverError", "restart 0 failed"] if lowest == 0 else ["ValueError", f"no start for restart {lowest}"])
    assert run["forks"] == [0, min(CORES, 4) - 1]
    assert run["reaped"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread entries to count")
def test_the_test_process_forks_from_one_thread():
    # conftest.py keeps numpy's BLAS from starting a thread, so the in-process
    # optimize tests fork from a process of one thread.
    assert "numpy" in sys.modules
    assert len(os.listdir("/proc/self/task")) == 1


# The restarts that _forked runs in this process for each case of
# tests.fresh_forks.forked, in order.  With 2 workers this process runs
# restarts 0 and 2 ahead of the loop, and the child 1 and 3.
_RUN_HERE = {
    **{kind: [0, 2] for kind in ["int", "tuple", "none", "exception"]},
    "dies": [0, 2, 1, 3],
    "dies_after_sending": [0, 2, 3],  # the restart the child sent is kept
    "unpicklable": [0, 2, 1, 3],
    "hooked": [0, 2, 1],
    "unloadable": [0, 2, 1],
}


@needs_two_cpus
@pytest.mark.parametrize("kind", _RUN_HERE)
def test_forked_gives_the_loops_outcome_and_reaps_every_child(kind):
    run = _fresh("forked", kind, 4, 2)
    assert run["forked"] == run["loop"]
    assert run["here"] == _RUN_HERE[kind]
    assert run["forks"] == 1 and run["reaped"]


# scipy sorts the vertices with numpy's default argsort, whose order of tied
# values depends on the CPU's vector extensions.  On an AVX-512 host it leaves
# the log of (7, 25 km, 0.05), whose zero plateau ties vertices, so only the
# other cases are compared with it.
@pytest.mark.parametrize("seed, distance, fluctuation, budget, restarts", [c for c in DIFFERENTIAL_CASES if c[0] != 7])
def test_simplex_matches_scipy_on_the_cases_it_reproduces(monkeypatch, seed, distance, fluctuation, budget, restarts):
    pytest.importorskip("scipy.optimize")
    problem = search_problem(distance, fluctuation)
    run = lambda simplex: _log_bytes(problem, simplex, monkeypatch, seed, budget, restarts)
    assert run(optimizer._nelder_mead) == run(_scipy_nelder_mead)


# Staircase objectives tie often, which exercises every tie-break comparison.
STAIRCASES = {
    "coarse": lambda x: float(np.sum(np.round(4.0 * np.asarray(x)))),
    "plateau": lambda x: 0.0 if x[0] > 0.05 else -float(np.round(x[1], 2)),
    "bowl": lambda x: float(np.round(np.sum((np.asarray(x) - 0.3) ** 2), 3)),
}


@pytest.mark.parametrize("name", sorted(STAIRCASES))
@pytest.mark.parametrize("maxfev", [9, 37, 400])
def test_simplex_matches_reference_on_tied_objectives(name, maxfev):
    starts = np.random.default_rng(2012).uniform(BOX_LOWER, BOX_UPPER, size=(8, 6))
    for start in starts:
        shipped, shipped_calls = _recording(STAIRCASES[name])
        reference, reference_calls = _recording(STAIRCASES[name])
        optimizer._nelder_mead(shipped, start, maxfev)
        oracles.nelder_mead(reference, start, maxfev)
        assert np.array(shipped_calls).tobytes() == np.array(reference_calls).tobytes()
