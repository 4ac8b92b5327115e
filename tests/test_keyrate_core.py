import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdiqkd import (
    AnalysisInfeasible,
    AnalysisInputs,
    ChannelParams,
    ChernoffConfig,
    PhotonCoeffBounds,
    SideSources,
    SolverError,
    SourceEnsemble,
    binary_entropy,
    check_decoy_conditions,
    chernoff_lower,
    coeff_bounds,
    e11_upper,
    expectation_envelopes,
    h_range,
    key_rate_at,
    rate_function,
    s11_lower,
    s_minus_upper,
    s_plus_lower,
    secure_key_rate,
    sigma_factors,
    vacuum_error_component,
)
from mdiqkd.channel_sim import PairObservables

from .oracles import plugin_asymptotic_rate


def _with_errors_zeroed(observables: PairObservables) -> PairObservables:
    pairs = {key: replace(entry, errors=0) for key, entry in observables.pairs.items()}
    return PairObservables(pairs=pairs, n_pairs=observables.n_pairs)


def _scaled(observables: PairObservables, factor: float) -> PairObservables:
    pairs = {
        key: replace(
            entry,
            emitted=entry.emitted * factor,
            counts=int(entry.counts * factor),
            errors=int(entry.errors * factor),
        )
        for key, entry in observables.pairs.items()
    }
    return PairObservables(pairs=pairs, n_pairs=observables.n_pairs * factor)


# --- contamination factors -------------------------------------------------


def test_sigma_vanishes_for_exact_vacuum(exact_ensemble):
    sigma = sigma_factors(coeff_bounds(exact_ensemble))
    assert sigma.x_alice == sigma.x_bob == sigma.y_alice == sigma.y_bob == 0.0


def test_sigma_reference_value():
    # cap 1e-6 with mu_x = 0.1 and no fluctuation: everything cancels except
    # cap / mu_x = 1e-5.
    side = SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=1e-6)
    sigma = sigma_factors(coeff_bounds(SourceEnsemble.symmetric(side)))
    assert sigma.x_alice == pytest.approx(1e-5, rel=1e-12)


def test_sigma_monotone_in_vacuum_cap():
    values = []
    for cap in (0.0, 1e-6, 1e-4, 1e-2):
        side = SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=cap)
        values.append(sigma_factors(coeff_bounds(SourceEnsemble.symmetric(side))).x_alice)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_sigma_infeasible_when_vacuum_too_unstable():
    side = SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=0.09)
    with pytest.raises(AnalysisInfeasible, match="contamination"):
        sigma_factors(coeff_bounds(SourceEnsemble.symmetric(side)))


# --- envelopes --------------------------------------------------------------


def test_envelopes_contain_observed_rates(inputs_10km):
    env = expectation_envelopes(inputs_10km)
    for pair, envelope_ in env.count_rate.items():
        rate = inputs_10km.observables.entry(*pair).rate
        assert envelope_.lower <= rate <= envelope_.upper
    for pair, upper in env.error_rate_upper.items():
        assert inputs_10km.observables.entry(*pair).error_rate <= upper
    assert env.chernoff_calls > 0


def test_envelope_relative_width_shrinks_with_more_data(inputs_10km):
    env = expectation_envelopes(inputs_10km)
    scaled_inputs = AnalysisInputs(
        bounds=inputs_10km.bounds,
        observables=_scaled(inputs_10km.observables, 100.0),
        chernoff=inputs_10km.chernoff,
        f_ec=inputs_10km.f_ec,
    )
    env_scaled = expectation_envelopes(scaled_inputs)
    for pair, envelope_ in env.count_rate.items():
        rate = inputs_10km.observables.entry(*pair).rate
        if rate == 0.0:
            continue
        rel = envelope_.width / rate
        rel_scaled = env_scaled.count_rate[pair].width / scaled_inputs.observables.entry(*pair).rate
        assert rel_scaled < rel


def test_joint_envelopes_dominate_per_source(inputs_10km):
    env = expectation_envelopes(inputs_10km)
    for group, joint in env.joint_count_lower.items():
        split = sum(env.count_rate[pair].lower for pair in group)
        assert joint >= split - 1e-12
    for group, joint in env.joint_count_upper.items():
        split = sum(env.count_rate[pair].upper for pair in group)
        assert joint <= split + 1e-12


# --- yield combination bounds ----------------------------------------------


def test_collapsed_bounds_reproduce_plugin_values(exact_ensemble, exact_side):
    params = ChannelParams(n_pairs=1e11, distance_km=10.0)
    inputs = AnalysisInputs.from_simulation(exact_ensemble, params, disabled=True)
    sigma = sigma_factors(inputs.bounds)
    obs = inputs.observables
    a1y = math.exp(-0.4) * 0.4
    a2y = math.exp(-0.4) * 0.08
    a1x = math.exp(-0.1) * 0.1
    a2x = math.exp(-0.1) * 0.005
    a0y = math.exp(-0.4)
    expected_plus = a1y * a2y * obs.entry("x", "x").rate + a1x * a2x * (
        a0y * obs.entry("v", "y").rate + a0y * obs.entry("y", "v").rate
    )
    expected_minus = a1x * a2x * (obs.entry("y", "y").rate + a0y * a0y * obs.entry("v", "v").rate)
    assert s_plus_lower(inputs, sigma) == pytest.approx(expected_plus, rel=1e-12)
    assert s_minus_upper(inputs, sigma) == pytest.approx(expected_minus, rel=1e-12)


def test_finite_data_bounds_bracket_plugin_values(inputs_10km):
    sigma = sigma_factors(inputs_10km.bounds)
    collapsed = AnalysisInputs(
        bounds=inputs_10km.bounds,
        observables=inputs_10km.observables,
        chernoff=ChernoffConfig(xi=inputs_10km.chernoff.xi, disabled=True),
        f_ec=inputs_10km.f_ec,
    )
    assert s_plus_lower(inputs_10km, sigma) <= s_plus_lower(collapsed, sigma)
    assert s_minus_upper(inputs_10km, sigma) >= s_minus_upper(collapsed, sigma)


def test_joint_splus_dominates_per_term_composition(inputs_10km):
    sigma = sigma_factors(inputs_10km.bounds)
    a, b = inputs_10km.bounds.alice, inputs_10km.bounds.bob
    obs = inputs_10km.observables
    cfg = inputs_10km.chernoff
    scale = a.hi("x", 1) * b.hi("x", 2) / (1.0 - sigma.y_total)
    per_term = (
        a.lo("y", 1) * b.lo("y", 2) / obs.emitted("x", "x") * chernoff_lower(obs.counts("x", "x"), cfg)
        + scale * (a.lo("y", 0) / a.hi("v", 0)) / obs.emitted("v", "y") * chernoff_lower(obs.counts("v", "y"), cfg)
        + scale * (b.lo("y", 0) / b.hi("v", 0)) / obs.emitted("y", "v") * chernoff_lower(obs.counts("y", "v"), cfg)
    )
    assert s_plus_lower(inputs_10km, sigma) >= per_term - 1e-15


# --- nuisance interval -------------------------------------------------------


def test_h_lower_zero_when_no_errors(inputs_10km):
    silent = AnalysisInputs(
        bounds=inputs_10km.bounds,
        observables=_with_errors_zeroed(inputs_10km.observables),
        chernoff=inputs_10km.chernoff,
        f_ec=inputs_10km.f_ec,
    )
    sigma = sigma_factors(silent.bounds)
    h_lo, h_hi = h_range(silent, sigma)
    assert h_lo == 0.0
    assert h_hi > 0.0


def test_h_interval_is_ordered(inputs_10km):
    sigma = sigma_factors(inputs_10km.bounds)
    h_lo, h_hi = h_range(inputs_10km, sigma)
    assert 0.0 <= h_lo <= h_hi


def test_h_interval_contains_model_truth(noisy_side, inputs_10km, params_10km):
    sigma = sigma_factors(inputs_10km.bounds)
    h_lo, h_hi = h_range(inputs_10km, sigma)
    h_true = 2.0 * vacuum_error_component(noisy_side.mu_x, noisy_side.mu_x, params_10km)
    assert h_lo <= h_true <= h_hi


# --- pointwise bound formulas ------------------------------------------------


def test_s11_is_affine_and_decreasing_in_h(inputs_10km):
    sigma = sigma_factors(inputs_10km.bounds)
    s_plus = s_plus_lower(inputs_10km, sigma)
    s_minus = s_minus_upper(inputs_10km, sigma)
    hs = [0.0, 1e-5, 2e-5, 3e-5]
    values = [s11_lower(h, s_plus, s_minus, inputs_10km.bounds) for h in hs]
    assert all(a > b for a, b in zip(values, values[1:]))
    deltas = np.diff(values)
    assert np.allclose(deltas, deltas[0], rtol=1e-9)


def test_s11_zero_when_combinations_cancel(inputs_10km):
    assert s11_lower(0.0, 1e-3, 1e-3, inputs_10km.bounds) == 0.0


def test_s11_rejects_degenerate_denominator():
    bounds = PhotonCoeffBounds.from_intervals(
        {"v": (0.0, 0.0), "x": (0.4, 0.4), "y": (0.1, 0.1), "z": (0.5, 0.5)},
        {"v": (0.0, 0.0), "x": (0.4, 0.4), "y": (0.1, 0.1), "z": (0.5, 0.5)},
    )
    with pytest.raises(AnalysisInfeasible, match="denominator"):
        s11_lower(0.0, 1.0, 0.0, bounds)


def test_e11_vanishes_at_interval_top(inputs_10km):
    txx_upper = 3e-5
    assert e11_upper(2.0 * txx_upper, txx_upper, 5e-3, inputs_10km.bounds) == 0.0


def test_e11_decreasing_in_h_at_fixed_s11(inputs_10km):
    txx_upper = 3e-5
    values = [e11_upper(h, txx_upper, 5e-3, inputs_10km.bounds) for h in (0.0, 1e-5, 2e-5)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_e11_signals_no_single_photon_signal(inputs_10km):
    assert e11_upper(0.0, 3e-5, 0.0, inputs_10km.bounds) is None


# --- entropy ------------------------------------------------------------------


def test_binary_entropy_reference_points():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # H2(0.11), 25 significant digits: 0.4999159581645279956404996
    assert binary_entropy(0.11) == pytest.approx(0.4999159581645279956404996, rel=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


# --- rate curve and minimization ----------------------------------------------


def test_rate_with_no_single_photon_floor_is_pure_cost(inputs_10km):
    # Far beyond the admissible interval s11 clamps to zero and only the
    # error-correction cost remains.
    obs = inputs_10km.observables
    pz2 = obs.emitted("z", "z") / obs.n_pairs
    expected = -pz2 * inputs_10km.f_ec * obs.signal_rate * binary_entropy(obs.signal_error_rate)
    assert key_rate_at(1.0, inputs_10km) == pytest.approx(expected, rel=1e-12)


def test_privacy_term_vanishes_beyond_half_error(exact_ensemble):
    params = ChannelParams(n_pairs=1e11, distance_km=10.0)
    inputs = AnalysisInputs.from_simulation(exact_ensemble, params)
    sigma = sigma_factors(inputs.bounds)
    s_plus = s_plus_lower(inputs, sigma)
    s_minus = s_minus_upper(inputs, sigma)
    a, b = inputs.bounds.alice, inputs.bounds.bob
    # Just below the h where s11 reaches zero: s11 is tiny but positive, so
    # the phase-error ceiling saturates and only the correction cost remains.
    h_zero = (s_plus - s_minus) / (a.lo("y", 1) * b.lo("y", 2))
    probe = h_zero * (1.0 - 1e-9)
    assert s11_lower(probe, s_plus, s_minus, inputs.bounds) > 0.0
    rate, _, _ = rate_function(inputs)
    obs = inputs.observables
    pz2 = obs.emitted("z", "z") / obs.n_pairs
    cost = pz2 * inputs.f_ec * obs.signal_rate * binary_entropy(obs.signal_error_rate)
    assert float(rate(probe)) == pytest.approx(-cost, rel=1e-9)


def test_secure_key_rate_exact_point_regression(exact_ensemble):
    params = ChannelParams(n_pairs=1e11, distance_km=10.0)
    report = secure_key_rate(AnalysisInputs.from_simulation(exact_ensemble, params))
    assert report.reason == "ok"
    assert report.rate == pytest.approx(7.245334874083355e-06, rel=1e-10)
    assert report.h_star == report.h_lower
    assert report.chernoff_invocations == 8
    assert 0.0 < report.e11_at_min < 0.5
    assert report.h_lower <= report.h_star <= report.h_upper


def test_secure_key_rate_handles_single_point_interval(inputs_10km):
    silent = AnalysisInputs(
        bounds=inputs_10km.bounds,
        observables=_with_errors_zeroed(inputs_10km.observables),
        chernoff=replace(inputs_10km.chernoff, disabled=True),
        f_ec=inputs_10km.f_ec,
    )
    report = secure_key_rate(silent)
    assert report.reason == "ok"
    assert report.h_lower == report.h_upper == 0.0
    assert report.h_star == report.h_lower
    assert report.trace_samples == 1


def test_refinement_never_worse_than_grid(inputs_10km):
    report = secure_key_rate(inputs_10km)
    rate, h_lo, h_hi = rate_function(inputs_10km)
    grid_min = float(np.min(rate(np.linspace(h_lo, h_hi, 41))))
    assert float(rate(report.h_star)) <= grid_min + 1e-18


@st.composite
def _random_inputs(draw):
    """Simulated analysis inputs at a random source point that passes the decoy conditions."""
    mu_x = draw(st.floats(0.01, 0.2))
    p_x, p_y, p_z = draw(st.floats(0.03, 0.3)), draw(st.floats(0.03, 0.3)), draw(st.floats(0.3, 0.8))
    assume(p_x + p_y + p_z <= 0.98)
    side = SideSources(
        mu_x=mu_x,
        mu_y=draw(st.floats(2.0 * mu_x + 0.05, 2.0 * mu_x + 0.7)),
        mu_z=draw(st.floats(0.1, 0.8)),
        p_v=1.0 - p_x - p_y - p_z,
        p_x=p_x,
        p_y=p_y,
        p_z=p_z,
        vacuum_cap=10.0 ** draw(st.floats(-8.0, -4.0)),
        fluctuation=draw(st.floats(0.0, 0.05)),
    )
    params = ChannelParams(n_pairs=10.0 ** draw(st.floats(9.0, 13.0)), distance_km=draw(st.floats(0.0, 100.0)))
    inputs = AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params)
    assume(check_decoy_conditions(inputs.bounds).passed)
    return inputs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_random_inputs())
def test_convex_search_never_above_dense_grid(inputs):
    report = secure_key_rate(inputs)
    assert math.isfinite(report.rate)
    assume(report.reason == "ok")
    assert report.h_lower <= report.h_star <= report.h_upper
    assert report.trace_samples <= 1 + 8 * 65
    rate, h_lo, h_hi = rate_function(inputs)
    grid_min = float(np.min(rate(np.linspace(h_lo, h_hi, 20001))))
    assert report.rate <= max(0.0, grid_min) + 1e-12


def test_non_finite_minimum_raises_solver_error(inputs_10km):
    with pytest.raises(SolverError, match="not finite"):
        secure_key_rate(replace(inputs_10km, f_ec=math.nan))


def test_collapse_matches_straight_line_oracle(exact_ensemble, exact_side):
    for distance in (0.0, 25.0):
        params = ChannelParams(n_pairs=1e11, distance_km=distance)
        inputs = AnalysisInputs.from_simulation(exact_ensemble, params, disabled=True)
        report = secure_key_rate(inputs)
        oracle = plugin_asymptotic_rate(inputs.observables, exact_side, params.f_ec)
        assert report.rate == pytest.approx(oracle, rel=1e-9)


def test_decoy_failure_reported_not_raised():
    side = SideSources(mu_x=0.3, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, fluctuation=0.2)
    params = ChannelParams(n_pairs=1e9, distance_km=10.0)
    report = secure_key_rate(AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params))
    assert report.rate == 0.0
    assert report.reason.startswith("decoy-conditions-failed")


def test_sigma_infeasibility_reported_not_raised():
    side = SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=0.09)
    params = ChannelParams(n_pairs=1e9, distance_km=10.0)
    report = secure_key_rate(AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params))
    assert report.rate == 0.0
    assert report.reason.startswith("infeasible")


def test_report_record_has_all_fields(inputs_10km):
    record = secure_key_rate(inputs_10km).to_record()
    for name in (
        "rate",
        "h_lower",
        "h_upper",
        "h_star",
        "s11_at_min",
        "e11_at_min",
        "signal_rate",
        "signal_error_rate",
        "chernoff_invocations",
        "reason",
        "trace_samples",
    ):
        assert f"{name} = " in record


# --- monotone degradation ------------------------------------------------------


def _rate_for(side: SideSources, params: ChannelParams, disabled: bool = False) -> float:
    inputs = AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params, disabled=disabled)
    return secure_key_rate(inputs).rate


def test_rate_degrades_with_fluctuation(sweep_side):
    params = ChannelParams(n_pairs=1e11, distance_km=5.0)
    rates = [
        _rate_for(replace(sweep_side, fluctuation=fluctuation), params)
        for fluctuation in (0.0, 0.01, 0.05)
    ]
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[0] > 0.0


def test_rate_degrades_with_vacuum_cap(sweep_side):
    params = ChannelParams(n_pairs=1e11, distance_km=5.0)
    rates = [_rate_for(replace(sweep_side, vacuum_cap=cap), params) for cap in (0.0, 1e-6, 1e-3)]
    assert rates[0] >= rates[1] >= rates[2]


def test_rate_improves_with_data(sweep_side):
    rates = [
        _rate_for(sweep_side, ChannelParams(n_pairs=n, distance_km=5.0))
        for n in (1e10, 1e11, 1e13)
    ]
    assert rates[0] <= rates[1] <= rates[2]


def test_rate_degrades_with_stricter_failure_probability(sweep_side):
    rates = [
        _rate_for(sweep_side, ChannelParams(n_pairs=1e11, distance_km=5.0, xi=xi))
        for xi in (1e-7, 1e-10)
    ]
    assert rates[1] <= rates[0]
