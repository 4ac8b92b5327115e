import pytest

from mdiqkd import ChannelParams, OptimizationProblem, evaluate, optimize

SANE_POINT = (0.1, 0.4, 0.5, 0.1, 0.1, 0.7)


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
    assert rate == pytest.approx(7.245334874083355e-06, rel=1e-10)


def test_point_shape_is_checked(problem_10km):
    with pytest.raises(ValueError):
        evaluate(problem_10km, (0.1, 0.4, 0.5))


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
