import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mdiqkd import (
    AnalysisInfeasible,
    AnalysisInputs,
    ChannelParams,
    ChernoffConfig,
    SideSources,
    SolverError,
    SourceEnsemble,
    binary_entropy,
    check_decoy_conditions,
    chernoff_lower,
    chernoff_upper,
    coeff_bounds,
    rate_function,
    secure_key_rate,
)
from mdiqkd import channel_sim, source_model
from mdiqkd.channel_sim import PairObservables
from mdiqkd.keyrate_core import KeyRateReport, RateCurve, _convex_minimum

from .oracles import (
    dense_rate,
    plugin_asymptotic_rate,
    product_rule_slope,
    single_photon_pair_truth,
    vacuum_error_component,
)


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
    factors = coeff_bounds(exact_ensemble).factors
    assert factors.sigma_x == factors.sigma_y == 0.0


def test_sigma_reference_value():
    # cap 1e-6 with mu_x = 0.1 and no fluctuation: everything cancels except
    # cap / mu_x = 1e-5 per side.
    side = SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=1e-6)
    x_total = coeff_bounds(SourceEnsemble.symmetric(side)).factors.sigma_x
    assert x_total == pytest.approx(2e-5, rel=1e-12, abs=0.0)


def test_sigma_monotone_in_vacuum_cap():
    values = []
    for cap in (0.0, 1e-6, 1e-4, 1e-2):
        side = SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=cap)
        values.append(coeff_bounds(SourceEnsemble.symmetric(side)).factors.sigma_x)
    assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("key, other, pair", [("p_v", "p_z", "v-v"), ("p_x", "p_z", "x-x"), ("p_y", "p_z", "y-y"), ("p_z", "p_v", "z-z")])
def test_pair_with_zero_expected_emissions_is_zero_report(sweep_side, params_10km, key, other, pair):
    # The key's square, 1e-330, underflows to 0, so that pair expects no emissions.
    side = replace(sweep_side, **{key: 1e-165, other: getattr(sweep_side, other) + getattr(sweep_side, key)})
    inputs = AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params_10km)
    assert inputs.observables.entry(*pair.split("-")).emitted == 0.0
    report = secure_key_rate(inputs)
    assert report.rate == 0.0 and math.isfinite(report.signal_rate)
    assert report.reason == f"infeasible: no expected emissions from source pair {pair}; {key} {key} n_pairs underflows to zero"
    with pytest.raises(AnalysisInfeasible, match="no expected emissions"):
        rate_function(inputs)


@pytest.mark.parametrize("key, value", [("p_v", 1e-160), ("p_y", 1e-160), ("p_x", 1e-158), ("p_x", 1e-161)])
def test_tiny_expected_emissions_overflowing_the_yield_floor_is_zero_report(sweep_side, params_10km, key, value):
    # p_v = 1e-160 leaves about 1e-309 expected v-v emissions, a subnormal whose
    # count weight drives s11(0) past the float range; p_x = 1e-158 does the
    # same to s11(h_upper), and p_x = 1e-161 makes h_upper infinite.
    side = replace(sweep_side, **{key: value, "p_z": sweep_side.p_z + getattr(sweep_side, key)})
    inputs = AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params_10km)
    report = secure_key_rate(inputs)
    assert report.rate == 0.0
    assert report.reason.startswith("infeasible: single-photon yield floor s11 overflows on H in [")
    with pytest.raises(AnalysisInfeasible, match="s11 overflows"):
        rate_function(inputs)


def test_sigma_infeasible_when_vacuum_too_unstable(params_10km):
    side = SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=0.09)
    ensemble = SourceEnsemble.symmetric(side)
    assert ensemble.bounds.factors.infeasible.startswith("vacuum contamination too large")
    with pytest.raises(AnalysisInfeasible, match="contamination"):
        rate_function(AnalysisInputs.from_simulation(ensemble, params_10km))


# --- envelopes --------------------------------------------------------------


def test_envelope_relative_width_shrinks_with_more_data(inputs_10km):
    # The count sources the yield bounds read, at 10 km and with 100x the data.
    cfg = inputs_10km.chernoff
    scaled = _scaled(inputs_10km.observables, 100.0)
    for pair in (("v", "v"), ("v", "x"), ("x", "v"), ("v", "y"), ("y", "v"), ("x", "x"), ("y", "y")):
        counts = inputs_10km.observables.entry(*pair).counts
        if counts == 0:
            continue
        rel = (chernoff_upper(counts, cfg) - chernoff_lower(counts, cfg)) / counts
        counts_scaled = scaled.entry(*pair).counts
        rel_scaled = (chernoff_upper(counts_scaled, cfg) - chernoff_lower(counts_scaled, cfg)) / counts_scaled
        assert rel_scaled < rel


# --- yield combination bounds ----------------------------------------------


def test_collapsed_bounds_reproduce_plugin_values(exact_ensemble, exact_side):
    params = ChannelParams(n_pairs=1e11, distance_km=10.0)
    inputs = AnalysisInputs.from_simulation(exact_ensemble, params)
    inputs = replace(inputs, chernoff=replace(inputs.chernoff, disabled=True))
    curve, _, _ = rate_function(inputs)
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
    assert curve.s_plus == pytest.approx(expected_plus, rel=1e-12, abs=0.0)
    assert curve.s_minus == pytest.approx(expected_minus, rel=1e-12, abs=0.0)


def test_finite_data_bounds_bracket_plugin_values(inputs_10km):
    collapsed = AnalysisInputs(
        bounds=inputs_10km.bounds,
        observables=inputs_10km.observables,
        chernoff=ChernoffConfig(xi=inputs_10km.chernoff.xi, disabled=True),
        f_ec=inputs_10km.f_ec,
    )
    finite, _, _ = rate_function(inputs_10km)
    plugin, _, _ = rate_function(collapsed)
    assert finite.s_plus <= plugin.s_plus
    assert finite.s_minus >= plugin.s_minus


def test_joint_splus_dominates_per_term_composition(inputs_10km):
    y_total = inputs_10km.bounds.factors.sigma_y
    a, b = inputs_10km.bounds.alice, inputs_10km.bounds.bob
    xx, vy, yv = (inputs_10km.observables.entry(*pair) for pair in (("x", "x"), ("v", "y"), ("y", "v")))
    cfg = inputs_10km.chernoff
    scale = a.hi("x", 1) * b.hi("x", 2) / (1.0 - y_total)
    per_term = (
        a.lo("y", 1) * b.lo("y", 2) / xx.emitted * chernoff_lower(xx.counts, cfg)
        + scale * (a.lo("y", 0) / a.hi("v", 0)) / vy.emitted * chernoff_lower(vy.counts, cfg)
        + scale * (b.lo("y", 0) / b.hi("v", 0)) / yv.emitted * chernoff_lower(yv.counts, cfg)
    )
    curve, _, _ = rate_function(inputs_10km)
    assert curve.s_plus >= per_term - 1e-15


# --- nuisance interval -------------------------------------------------------


def test_h_lower_zero_when_no_errors(inputs_10km):
    silent = AnalysisInputs(
        bounds=inputs_10km.bounds,
        observables=_with_errors_zeroed(inputs_10km.observables),
        chernoff=inputs_10km.chernoff,
        f_ec=inputs_10km.f_ec,
    )
    _, h_lo, h_hi = rate_function(silent)
    assert h_lo == 0.0
    assert h_hi > 0.0


def test_h_interval_is_ordered(inputs_10km):
    _, h_lo, h_hi = rate_function(inputs_10km)
    assert 0.0 <= h_lo <= h_hi


def test_h_interval_contains_model_truth(noisy_side, inputs_10km, params_10km):
    _, h_lo, h_hi = rate_function(inputs_10km)
    h_true = 2.0 * vacuum_error_component(noisy_side.mu_x, noisy_side.mu_x, params_10km)
    assert h_lo <= h_true <= h_hi


def test_empty_h_range_is_zero_report(sweep_side, params_10km):
    # Every v-x and x-v detection an error and no x-x error puts h_lower above h_upper.
    inputs = AnalysisInputs.from_simulation(SourceEnsemble.symmetric(replace(sweep_side, fluctuation=0.01)), params_10km)
    pairs = dict(inputs.observables.pairs)
    for pair in (("v", "x"), ("x", "v")):
        pairs[pair] = replace(pairs[pair], errors=pairs[pair].counts)
    pairs["x", "x"] = replace(pairs["x", "x"], errors=0)
    inputs = replace(inputs, observables=PairObservables(pairs=pairs, n_pairs=inputs.observables.n_pairs))
    _, h_lo, h_hi = rate_function(inputs)
    assert h_lo > h_hi
    report = secure_key_rate(inputs)
    assert report.rate == 0.0 and report.reason == "h-range-empty" and math.isnan(report.h_star)


# --- pointwise bound formulas ------------------------------------------------


def test_s11_is_affine_and_decreasing_in_h(inputs_10km):
    curve, _, _ = rate_function(inputs_10km)
    values = [curve.s11(h) for h in (0.0, 1e-5, 2e-5, 3e-5)]
    assert all(a > b for a, b in zip(values, values[1:]))
    deltas = [b - a for a, b in zip(values, values[1:])]
    assert all(d == pytest.approx(deltas[0], rel=1e-9, abs=0.0) for d in deltas)


def test_s11_zero_when_combinations_cancel(inputs_10km):
    curve, _, _ = rate_function(inputs_10km)
    assert replace(curve, s_plus=1e-3, s_minus=1e-3).s11(0.0) == 0.0


def test_s11_rejects_degenerate_denominator(inputs_10km):
    # x spans [0.24, 0.36] and y [0.32, 0.48]: they overlap.
    side = SideSources(mu_x=0.3, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, fluctuation=0.2)
    bounds = coeff_bounds(SourceEnsemble.symmetric(side))
    with pytest.raises(AnalysisInfeasible, match="denominator"):
        rate_function(replace(inputs_10km, bounds=bounds))


def _fixed_s11_curve(inputs, txx_upper):
    """The curve of ``inputs`` with s11 held at its h = 0 value and a given txx_upper."""
    curve, _, _ = rate_function(inputs)
    return replace(curve, c_y=0.0, txx_upper=txx_upper)


def test_e11_vanishes_at_interval_top(inputs_10km):
    txx_upper = 3e-5
    assert _fixed_s11_curve(inputs_10km, txx_upper).e11(2.0 * txx_upper) == 0.0


def test_e11_decreasing_in_h_at_fixed_s11(inputs_10km):
    curve = _fixed_s11_curve(inputs_10km, 3e-5)
    values = [curve.e11(h) for h in (0.0, 1e-5, 2e-5)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_e11_signals_no_single_photon_signal(inputs_10km):
    curve, _, _ = rate_function(inputs_10km)
    assert math.isnan(replace(curve, s_plus=1e-3, s_minus=1e-3).e11(0.0))


# --- entropy ------------------------------------------------------------------


def test_binary_entropy_reference_points():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # H2(0.11), 25 significant digits: 0.4999159581645279956404996
    assert binary_entropy(0.11) == pytest.approx(0.4999159581645279956404996, rel=1e-12, abs=0.0)


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
    pz2 = obs.entry("z", "z").emitted / obs.n_pairs
    expected = -pz2 * inputs_10km.f_ec * obs.signal_rate * binary_entropy(obs.signal_error_rate)
    curve, _, _ = rate_function(inputs_10km)
    assert float(curve(1.0)) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_privacy_term_vanishes_beyond_half_error(exact_ensemble):
    params = ChannelParams(n_pairs=1e11, distance_km=10.0)
    inputs = AnalysisInputs.from_simulation(exact_ensemble, params)
    curve, _, _ = rate_function(inputs)
    a, b = inputs.bounds.alice, inputs.bounds.bob
    # Just below the h where s11 reaches zero: s11 is tiny but positive.  The
    # probe lies above h_upper, so e11 clips to 0 and the privacy term is the
    # whole tiny yield floor, pz2 gamma s11.
    h_zero = (curve.s_plus - curve.s_minus) / (a.lo("y", 1) * b.lo("y", 2))
    probe = h_zero * (1.0 - 1e-9)
    assert curve.s11(probe) > 0.0 and curve.e11(probe) == 0.0
    obs = inputs.observables
    pz2 = obs.entry("z", "z").emitted / obs.n_pairs
    cost = pz2 * inputs.f_ec * obs.signal_rate * binary_entropy(obs.signal_error_rate)
    privacy = pz2 * curve.gamma * curve.s11(probe)
    assert float(curve(probe)) == pytest.approx(-cost + privacy, rel=1e-12, abs=0.0)
    # With the error ceiling raised, e11 saturates instead and the privacy
    # term is exactly 0, leaving only the correction cost.
    saturated = replace(curve, txx_upper=probe)
    assert saturated.e11(probe) == 1.0
    assert float(saturated(probe)) == pytest.approx(-cost, rel=1e-12, abs=0.0)


def test_secure_key_rate_exact_point_regression(exact_ensemble):
    params = ChannelParams(n_pairs=1e11, distance_km=10.0)
    report = secure_key_rate(AnalysisInputs.from_simulation(exact_ensemble, params))
    assert report.reason == "ok"
    assert report.rate == pytest.approx(7.245334874083355e-06, rel=1e-10, abs=0.0)
    assert report.h_star == report.h_lower
    assert report.chernoff_invocations == 7
    assert 0.0 < report.e11_at_min < 0.5
    assert report.h_lower <= report.h_star <= report.h_upper


_SIDE_A = SideSources(
    mu_x=0.028, mu_y=0.248, mu_z=0.459, p_v=0.146, p_x=0.189, p_y=0.04, p_z=0.625, vacuum_cap=1e-6, fluctuation=0.01
)
_SIDE_B = SideSources(
    mu_x=0.04, mu_y=0.3, mu_z=0.5, p_v=0.15, p_x=0.15, p_y=0.05, p_z=0.65, vacuum_cap=2e-6, fluctuation=0.02
)


@pytest.mark.parametrize(
    "alice, bob, distance_km, expected",
    [
        # (rate, h_lower, h_upper, s11_at_min, e11_at_min)
        (_SIDE_A, _SIDE_B, 0.0, (6.392200160402921e-05, 1.1593456350742413e-05, 1.3469198014669568e-05, 0.00952361661386507, 0.09690023252347142)),
        (_SIDE_A, _SIDE_B, 10.0, (2.7304623018368993e-05, 7.239544955751564e-06, 8.623970189659635e-06, 0.00599803661462264, 0.11355704746007572)),
        # Negative at its minimum, so clamped to 0 with reason ok.
        (_SIDE_A, _SIDE_B, 30.0, (0.0, 2.7922372985393187e-06, 3.571007265294252e-06, 0.0023846847259216784, 0.1606689378625578)),
        (_SIDE_B, _SIDE_A, 0.0, (7.407864906987617e-05, 1.1593456350742413e-05, 1.3469198014669568e-05, 0.009861041797301476, 0.09358449982439593)),
        (_SIDE_B, _SIDE_A, 10.0, (3.3722162140298705e-05, 7.239544955751564e-06, 8.623970189659635e-06, 0.006217983510548724, 0.10954022752850107)),
        (_SIDE_B, _SIDE_A, 30.0, (1.3981635214117903e-06, 2.7922372985393187e-06, 3.571007265294252e-06, 0.0024773853229502177, 0.1546569112610344)),
    ],
)
def test_secure_key_rate_asymmetric_sources_regression(alice, bob, distance_km, expected):
    # With a is not b, each single-side ratio term must take its own side's bounds:
    # reading Bob's for Alice's, or the reverse, in any one of them moves these values.
    params = ChannelParams(distance_km=distance_km)
    report = secure_key_rate(AnalysisInputs.from_simulation(SourceEnsemble(alice=alice, bob=bob), params))
    assert report.reason == "ok"
    assert report.chernoff_invocations == 10
    got = (report.rate, report.h_lower, report.h_upper, report.s11_at_min, report.e11_at_min)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_scalar_curve_reads_equal_the_report():
    # At this h_star np.log2 and math.log2 differ in a last bit (numpy 2.4.6):
    # an array read gives R = 8.372558804600281e-06, the report 8.372558804600285e-06.
    side = SideSources(
        mu_x=0.029402065625609205, mu_y=0.24782890145267464, mu_z=0.49845826533741716,
        p_v=0.1160079533570384, p_x=0.17361507795288614, p_y=0.03987794442653649, p_z=0.670499024263539,
        vacuum_cap=1e-06, fluctuation=0.029888849922980916,
    )
    inputs = AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), ChannelParams(n_pairs=4993756114984.6875, distance_km=49))
    report = secure_key_rate(inputs)
    curve, _, _ = rate_function(inputs)
    assert report.reason == "ok" and report.rate > 0.0
    h = report.h_star
    assert (curve(h), curve.s11(h), curve.e11(h)) == (report.rate, report.s11_at_min, report.e11_at_min)
    assert all(type(v) is float for v in (curve(h), curve.s11(h), curve.e11(h)))


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
    grid_min = float(np.min(dense_rate(rate, np.linspace(h_lo, h_hi, 41))))
    assert float(rate(report.h_star)) <= grid_min + 1e-18


@st.composite
def _random_setup(draw):
    """A random ``(side, params)`` whose sources pass the decoy conditions."""
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
    assume(check_decoy_conditions(coeff_bounds(SourceEnsemble.symmetric(side))).passed)
    return side, params


def _random_inputs():
    """Simulated analysis inputs at a random source point that passes the decoy conditions."""
    return _random_setup().map(lambda setup: AnalysisInputs.from_simulation(SourceEnsemble.symmetric(setup[0]), setup[1]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_random_inputs())
def test_convex_search_never_above_dense_grid(inputs):
    report = secure_key_rate(inputs)
    assert math.isfinite(report.rate)
    assume(report.reason == "ok")
    assert report.h_lower <= report.h_star <= report.h_upper
    assert report.trace_samples <= 1 + 8 * 65
    rate, h_lo, h_hi = rate_function(inputs)
    grid_min = float(np.min(dense_rate(rate, np.linspace(h_lo, h_hi, 20001))))
    assert report.rate <= max(0.0, grid_min) + 1e-12


# c_y txx_upper = 0.4 < A/2 = 0.5, so s11 stays positive up to h_upper = 0.8,
# and e11(0) = 0.2: the minimum is interior.
_TRAP_CURVE = RateCurve(
    s_plus=1.0, s_minus=0.0, txx_upper=0.4, c_y=1.0, denominator=1.0, beta=2.0, gamma=1.0, pz2=1.0, correction=0.15
)


@st.composite
def _interior_minimum_curve(draw):
    """A rate curve with ``c_y txx_upper < A/2`` whose minimum lies inside ``[lo, 2 txx_upper]``.

    With ``A = s_plus - s_minus`` and ``k = 2 c_y txx_upper / A < 1`` the
    yield floor stays positive up to ``h_upper``, where ``e11 = 0`` and the
    slope is ``+inf``.  The curve's shape depends only on ``k`` and on
    ``e11(0)``; the ranges drawn are where its minimum is interior.  That
    minimum is kept a thousandth of the interval off the top: on a steeper
    curve the slope turns positive only within an ulp of it.
    """
    log_uniform = lambda lo, hi: 10.0 ** draw(st.floats(lo, hi))
    a, c_y, denominator = log_uniform(-6.0, 0.0), log_uniform(-3.0, 1.0), log_uniform(-3.0, 0.0)
    k, e11_at_zero = draw(st.floats(0.4, 0.999)), draw(st.floats(0.05, 0.45))
    s_minus = a * draw(st.floats(0.0, 3.0))
    curve = RateCurve(
        s_plus=s_minus + a,
        s_minus=s_minus,
        txx_upper=k * a / (2.0 * c_y),
        c_y=c_y,
        denominator=denominator,
        beta=denominator * k / (2.0 * c_y * e11_at_zero),
        gamma=log_uniform(-3.0, 0.0),
        pz2=draw(st.floats(0.01, 1.0)),
        correction=log_uniform(-12.0, -3.0),
    )
    hi = 2.0 * curve.txx_upper
    lo = draw(st.floats(0.0, 0.5)) * hi
    assume(curve.slope(lo) < 0.0 < curve.slope(hi - 1e-3 * (hi - lo)))
    return curve, lo, hi


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_interior_minimum_curve())
def test_slope_search_finds_interior_minima(case):
    curve, lo, hi = case
    assert curve.slope(hi) == math.inf
    h, _, _, rate, samples = _convex_minimum(curve, lo, hi)
    assert lo < h < hi
    assert samples <= 2 + 64
    grid = dense_rate(curve, np.linspace(lo, hi, 20001))
    assert rate <= float(np.min(grid)) + 1e-12 * float(np.max(np.abs(grid)))


def test_slope_search_does_not_stop_at_top_where_e11_vanishes():
    # Regression: at h_upper e11 = 0 and phi'(0) = -inf, so the slope there is
    # +inf.  Reading phi'(0) as 0 makes the top look like a descent end and
    # returns it, nearly doubling this curve's rate.
    curve = _TRAP_CURVE
    h, _, _, rate, _ = _convex_minimum(curve, 0.0, 0.8)
    assert curve.slope(0.0) < 0.0 and curve.slope(0.8) == math.inf
    assert h == pytest.approx(0.7052640621, abs=1e-9)
    assert rate == pytest.approx(0.0258292843, abs=1e-9)
    assert float(curve(0.8)) == pytest.approx(0.05, rel=1e-12, abs=0.0)
    assert rate <= float(np.min(dense_rate(curve, np.linspace(0.0, 0.8, 20001))))


def test_bisection_ends_on_adjacent_floats(noisy_ensemble, monkeypatch):
    # At 60 km the slope at h_lower is negative, so the search bisects; it
    # stops only when no float lies between the ends it reads R at.
    inputs = AnalysisInputs.from_simulation(noisy_ensemble, ChannelParams(n_pairs=1e11, distance_km=60.0))
    read, point = [], RateCurve._point
    monkeypatch.setattr(RateCurve, "_point", lambda self, h: read.append(h) or point(self, h))
    report = secure_key_rate(inputs)
    assert report.trace_samples > 1
    left, right = read
    assert math.nextafter(left, math.inf) == right


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_slope_matches_central_difference(inputs_10km, fraction):
    for curve, lo, hi in (
        rate_function(inputs_10km),
        (_TRAP_CURVE, 0.0, 0.8),
    ):
        h = lo + fraction * (hi - lo)
        step = 1e-6 * (hi - lo)
        difference = (float(curve(h + step)) - float(curve(h - step))) / (2.0 * step)
        assert curve.slope(h) == pytest.approx(difference, rel=1e-6, abs=0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_interior_minimum_curve(), st.floats(0.0, 1.0, exclude_max=True))
def test_slope_matches_product_rule_reference(case, fraction):
    # The closed form in e11 alone against pz2 gamma (s' phi(e) + s phi'(e) e').
    curve, lo, hi = case
    h = lo + fraction * (hi - lo)
    assume(curve.s11(h) > 0.0 and 0.0 < curve.e11(h) < 0.5)
    reference, scale = product_rule_slope(curve, h)
    assert abs(curve.slope(h) - reference) <= 1e-12 * scale


@pytest.mark.parametrize("bad_slope", [math.nan, -math.inf, math.inf], ids=["nan", "minus-inf", "plus-inf"])
def test_unusable_slope_raises_solver_error(inputs_10km, monkeypatch, bad_slope):
    # An infinite slope is legitimate only at h_upper, where e11 = 0; the
    # search must fail loudly rather than bisect on anything else.
    monkeypatch.setattr(RateCurve, "slope", lambda self, h: bad_slope)
    with pytest.raises(SolverError, match="slope"):
        secure_key_rate(inputs_10km)


def test_slope_of_nan_curve_is_nan(inputs_10km):
    curve, h_lo, _ = rate_function(inputs_10km)
    assert math.isnan(replace(curve, txx_upper=math.nan).slope(h_lo))
    assert math.isnan(curve.slope(math.nan))


def _assert_point_matches_array(curve: RateCurve, h: float) -> None:
    """R from ``RateCurve._point`` against the array read of the curve: bit for bit, or up to log2's last bit."""
    s11, e11, rate = curve._point(h)
    array_rate = float(curve(np.array([h]))[0])
    logs_agree = not 0.0 < e11 < 0.5 or all(math.log2(x) == float(np.log2(np.array([x]))[0]) for x in (e11, 1.0 - e11))
    if logs_agree:
        assert rate.hex() == array_rate.hex()
    else:
        # A last-bit change in log2 moves 1 - H2(e) by about an ulp of 1, so
        # R by about an ulp of pz2 gamma s11; R itself can nearly cancel.
        assert abs(rate - array_rate) <= 2.0 * math.ulp(curve.pz2 * curve.gamma * s11)


@st.composite
def _curve_and_h(draw):
    """A random rate curve and an h around its interval ``[0, 2 txx_upper]``.

    ``c_y`` puts the zero of the yield floor anywhere from a fifth of the
    interval to three times it, and ``beta`` sets ``e11(0)`` from 1e-3 to 10,
    so an h drawn past both ends reaches every branch: s11 clamped, e11 at 0,
    inside (0, 1/2), and at or beyond 1/2.
    """
    log_uniform = lambda lo, hi: 10.0 ** draw(st.floats(lo, hi))
    a, txx_upper, denominator = log_uniform(-6.0, 0.0), log_uniform(-8.0, 0.0), log_uniform(-3.0, 0.0)
    s_minus = a * draw(st.floats(0.0, 3.0))
    curve = RateCurve(
        s_plus=s_minus + a,
        s_minus=s_minus,
        txx_upper=txx_upper,
        c_y=a / (2.0 * txx_upper * draw(st.floats(0.2, 3.0))),
        denominator=denominator,
        beta=txx_upper * denominator / (a * log_uniform(-3.0, 1.0)),
        gamma=log_uniform(-3.0, 0.0),
        pz2=draw(st.floats(0.01, 1.0)),
        correction=log_uniform(-12.0, -3.0),
    )
    return curve, draw(st.floats(-0.2, 2.5)) * 2.0 * txx_upper


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_curve_and_h())
def test_scalar_point_matches_array_form(case):
    curve, h = case
    _assert_point_matches_array(curve, h)
    # The clamps: s11 is at least +0.0; e11 is NaN where s11 vanishes, and in [+0.0, 1] elsewhere.
    s11, e11 = curve.s11(h), curve.e11(h)
    assert s11 >= 0.0 and math.copysign(1.0, s11) == 1.0
    assert math.isnan(e11) if s11 == 0.0 else 0.0 <= e11 <= 1.0 and math.copysign(1.0, e11) == 1.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_curve_and_h())
def test_dense_rate_oracle_matches_point(case):
    # The dense-grid checks read R from the oracle; it must be R.
    curve, h = case
    s11, _, rate = curve._point(h)
    scale = curve.pz2 * (curve.gamma * s11 + curve.correction)
    assert float(dense_rate(curve, np.array([h]))[0]) == pytest.approx(rate, rel=0.0, abs=1e-12 * scale)


# h = 0, s11 = 1 and beta = 1, so e11 = txx_upper.
_UNIT_CURVE = RateCurve(
    s_plus=1.0, s_minus=0.0, txx_upper=0.1, c_y=1.0, denominator=1.0, beta=1.0, gamma=1.0, pz2=1.0, correction=0.1
)
_LAST_BIT_E = 0.18123377742646968  # log2 of it differs in the last bit between math and numpy 2.4.6


@pytest.mark.parametrize(
    "changes, h, s11, e11",
    [
        ({"s_minus": 1.0}, 0.5, 0.0, math.nan),  # s11 clamped: e11 NaN, R = -pz2 correction
        ({"s_plus": -0.0, "s_minus": 0.0}, 0.0, 0.0, math.nan),  # s11 numerator -0.0
        ({"txx_upper": -0.0}, 0.0, 1.0, 0.0),  # e11 numerator -0.0
        ({"txx_upper": 0.25}, 0.5, 0.5, 0.0),  # e11 = 0 at h = 2 txx_upper
        ({"txx_upper": 0.5}, 0.0, 1.0, 0.5),  # e11 = 1/2
        ({"txx_upper": 3.0}, 0.0, 1.0, 1.0),  # e11 clipped at 1
        ({"txx_upper": math.nan}, 0.0, 1.0, math.nan),  # NaN quotient with s11 > 0
        ({"txx_upper": _LAST_BIT_E}, 0.0, 1.0, _LAST_BIT_E),
    ],
    ids=["s11-clamped", "s11-minus-zero", "e11-minus-zero", "e11-zero", "e11-half", "e11-one", "nan-quotient", "log2-last-bit"],
)
def test_scalar_point_edge_cases_match_array_form(changes, h, s11, e11):
    curve = replace(_UNIT_CURVE, **changes)
    # float.hex tells -0.0 from 0.0, and reads "nan" for every NaN.
    assert (curve.s11(h).hex(), curve.e11(h).hex()) == (s11.hex(), e11.hex())
    _assert_point_matches_array(curve, h)
    if s11 == 0.0:
        assert curve(h) == -curve.pz2 * curve.correction


def test_s11_and_e11_refuse_arrays(inputs_10km):
    # Only a call of the curve has an array form, and it gives R alone.
    curve, h_lo, h_hi = rate_function(inputs_10km)
    for h in (np.array([h_lo, h_hi]), np.array([h_lo]), np.array(h_lo), [h_lo]):
        for read in (curve.s11, curve.e11):
            with pytest.raises(TypeError, match="Python scalar"):
                read(h)
    assert curve(np.array([h_lo, h_hi])).shape == (2,)


# Observed counts are whole numbers, so a small increase in n_pairs can round
# an error count up by more than the Chernoff margin shrinks.  At this source
# point, 1 km and 1e11 pairs, 6.1e-5 more decades (1.4e-4 more pairs) move the
# x-x errors from 31,308 to 31,313, e11 at the minimum from 0.097937 to
# 0.097951, and the rate down by 2.6e-4 of itself.  Over 6,000 random
# positive-rate points the rate fell at 13 increments drawn from 1e-3 to 3e-3
# decades and at none from 3e-3 to 0.1, so the data clause is claimed from
# 1e-2 decades (2.3 % more pairs) up.
_ROUNDING_CASE = (
    SideSources(mu_x=0.0625, mu_y=0.5, mu_z=0.5, p_v=0.125, p_x=0.125, p_y=0.25, p_z=0.5, vacuum_cap=1e-4),
    ChannelParams(n_pairs=1e11, distance_km=1.0),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_random_setup(), st.floats(0.0, 0.05), st.floats(0.0, 50.0), st.floats(0.01, 2.0))
@example(setup=_ROUNDING_CASE, more_fluctuation=0.0, more_km=0.0, more_decades=0.01)
def test_rate_monotone_in_fluctuation_distance_and_data(setup, more_fluctuation, more_km, more_decades):
    side, params = setup
    rate = _rate_for(side, params)
    assert _rate_for(replace(side, fluctuation=side.fluctuation + more_fluctuation), params) <= rate
    assert _rate_for(side, replace(params, distance_km=params.distance_km + more_km)) <= rate
    assert _rate_for(side, replace(params, n_pairs=params.n_pairs * 10.0**more_decades)) >= rate


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_random_setup())
def test_bounds_contain_model_truth_on_random_honest_data(setup):
    # Acceptance 5 on random configurations: the true nuisance value, yield
    # and phase error lie inside their bounds.
    side, params = setup
    try:
        curve, h_lo, h_hi = rate_function(AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params))
    except AnalysisInfeasible:
        assume(False)
    y11_true, e11_true = single_photon_pair_truth("X", params)
    h_true = 2.0 * vacuum_error_component(side.mu_x, side.mu_x, params)
    assert h_lo <= h_true <= h_hi
    assert curve.s11(h_true) <= y11_true
    if curve.s11(h_true) > 0.0:
        assert curve.e11(h_true) >= e11_true


def test_non_finite_minimum_raises_solver_error(inputs_10km):
    with pytest.raises(SolverError, match="not finite"):
        secure_key_rate(replace(inputs_10km, f_ec=math.nan))


def test_collapse_matches_straight_line_oracle(exact_ensemble, exact_side):
    for distance in (0.0, 25.0):
        params = ChannelParams(n_pairs=1e11, distance_km=distance)
        inputs = AnalysisInputs.from_simulation(exact_ensemble, params)
        inputs = replace(inputs, chernoff=replace(inputs.chernoff, disabled=True))
        report = secure_key_rate(inputs)
        oracle = plugin_asymptotic_rate(inputs.observables, exact_side, params.f_ec)
        assert report.rate == pytest.approx(oracle, rel=1e-9, abs=0.0)


def test_decoy_failure_reported_not_raised():
    side = SideSources(mu_x=0.3, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, fluctuation=0.2)
    params = ChannelParams(n_pairs=1e9, distance_km=10.0)
    report = secure_key_rate(AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params))
    assert report.rate == 0.0
    assert report.reason.startswith("decoy-conditions-failed")


def test_secure_key_rate_checks_fresh_bounds_once(noisy_side, params_10km, monkeypatch):
    calls = []
    counted = source_model.check_decoy_conditions
    monkeypatch.setattr(source_model, "check_decoy_conditions", lambda bounds: calls.append(1) or counted(bounds))
    # A new ensemble: the shared fixture's table, and so its verdict, may already be cached.
    inputs = AnalysisInputs.from_simulation(SourceEnsemble.symmetric(noisy_side), params_10km)
    assert secure_key_rate(inputs).reason == "ok"
    assert len(calls) == 1


def test_sigma_infeasibility_reported_not_raised():
    side = SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=0.09)
    params = ChannelParams(n_pairs=1e9, distance_km=10.0)
    report = secure_key_rate(AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params))
    assert report.rate == 0.0
    assert report.reason.startswith("infeasible")


# --- monotone degradation ------------------------------------------------------


def _rate_for(side: SideSources, params: ChannelParams) -> float:
    return secure_key_rate(AnalysisInputs.from_simulation(SourceEnsemble.symmetric(side), params)).rate


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


# --- a scan's shared sources and channel ------------------------------------


def _exact(report: KeyRateReport) -> list:
    """Every field of a report, each float by ``float.hex``."""
    return [v.hex() if isinstance(v, float) else v for v in (getattr(report, f.name) for f in fields(report))]


def _scan_matches_fresh_runs(side: SideSources, distances: list[float], **channel) -> set[str]:
    """Check a scan over one ensemble and one channel against a fresh ensemble and channel at each distance; its reasons."""
    ensemble = SourceEnsemble.symmetric(side)
    scanned = ChannelParams(**channel)
    reasons = set()
    for distance in distances:
        report = secure_key_rate(AnalysisInputs.from_simulation(ensemble, scanned.at_distance(distance)))
        fresh = AnalysisInputs.from_simulation(SourceEnsemble.symmetric(replace(side)), ChannelParams(**channel, distance_km=distance))
        assert _exact(report) == _exact(secure_key_rate(fresh))
        reasons.add(report.reason)
    return reasons


@st.composite
def _random_scan(draw):
    """Random valid sources, channel keys, a second ``xi`` and distances in any order, repeats included."""
    mu_x = 10.0 ** draw(st.floats(-2.5, -0.3))
    p_x, p_y, p_z = draw(st.floats(0.01, 0.4)), draw(st.floats(0.01, 0.4)), draw(st.floats(0.1, 0.8))
    assume(p_x + p_y + p_z < 0.99)
    side = SideSources(
        mu_x=mu_x,
        mu_y=mu_x * draw(st.floats(1.5, 20.0)),
        mu_z=draw(st.floats(0.05, 1.0)),
        p_v=1.0 - p_x - p_y - p_z,
        p_x=p_x,
        p_y=p_y,
        p_z=p_z,
        vacuum_cap=draw(st.sampled_from([0.0, mu_x * 10.0 ** draw(st.floats(-7.0, 0.0))])),
        fluctuation=draw(st.floats(0.0, 0.2)),
    )
    channel = {"n_pairs": 10.0 ** draw(st.floats(6.0, 14.0)), "xi": 10.0 ** draw(st.floats(-15.0, -1.0))}
    xi = 10.0 ** draw(st.floats(-15.0, -1.0))
    distances = draw(st.lists(st.floats(0.0, 150.0), min_size=1, max_size=6))
    return side, channel, xi, distances


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_random_scan())
def test_a_scan_that_reuses_its_sources_and_channel_reports_as_fresh_ones_do(scan):
    side, channel, xi, distances = scan
    _scan_matches_fresh_runs(side, distances, **channel)
    # replace() makes the channel anew, with the Chernoff configuration of the new xi.
    moved = replace(ChannelParams(**channel), xi=xi)
    assert moved._chernoff == ChernoffConfig(xi=xi) and moved._chernoff._log_two_over_xi == ChernoffConfig(xi=xi)._log_two_over_xi
    _scan_matches_fresh_runs(side, distances, **{**channel, "xi": xi})


def test_at_distance_shares_the_chernoff_config_and_replace_makes_its_own(sweep_side):
    channel = ChannelParams(n_pairs=1e11, xi=1e-7)
    assert channel.at_distance(20.0)._chernoff is channel._chernoff
    moved = replace(channel.at_distance(20.0), xi=1e-3)
    assert moved._chernoff is not channel._chernoff and moved._chernoff.xi == 1e-3
    ensemble = SourceEnsemble.symmetric(sweep_side)
    rate = lambda params: secure_key_rate(AnalysisInputs.from_simulation(ensemble, params)).rate
    assert rate(moved) == rate(ChannelParams(n_pairs=1e11, xi=1e-3, distance_km=20.0)) > rate(channel.at_distance(20.0)) > 0.0


_CORNERS = {
    "contamination": (
        SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=0.06),
        "infeasible: vacuum contamination too large (x: 1.2, y: 0.3)",
    ),
    # The denominator underflows to zero: a1_y^L is about 700 e^-700.
    "denominator": (
        SideSources(mu_x=0.1, mu_y=700.0, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7),
        "infeasible: single-photon denominator is not positive",
    ),
    "emissions": (
        SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=1e-165, p_x=0.1, p_y=0.1, p_z=0.8),
        "infeasible: no expected emissions from source pair v-v",
    ),
    "overflow": (
        SideSources(mu_x=0.028, mu_y=0.248, mu_z=0.459, p_v=1e-160, p_x=0.189, p_y=0.04, p_z=0.771),
        "infeasible: single-photon yield floor s11 overflows",
    ),
    "decoy": (
        SideSources(mu_x=0.3, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, fluctuation=0.2),
        "decoy-conditions-failed: alice:intensity-intervals-disjoint",
    ),
}


@pytest.mark.parametrize("corner", sorted(_CORNERS))
def test_a_scan_that_reuses_its_sources_reports_each_infeasibility_as_fresh_ones_do(corner):
    side, reason = _CORNERS[corner]
    reasons = _scan_matches_fresh_runs(side, [0.0, 50.0, 25.0, 0.0, 150.0], n_pairs=1e11)
    assert reasons and all(r.startswith(reason) for r in reasons)


def test_a_scan_that_reuses_its_sources_reports_an_empty_h_range_as_fresh_ones_do(monkeypatch, sweep_side):
    # Every X-basis detection with exactly one vacuum side an error, and no x-x
    # error, puts h_lower above h_upper (as in test_empty_h_range_is_zero_report).
    honest = channel_sim.pair_yield

    def pair_yield(mu_a, mu_b, basis, params):
        q, eq = honest(mu_a, mu_b, basis, params)
        if basis == "X" and (mu_a == 0.0) != (mu_b == 0.0):
            return q, q
        return (q, 0.0) if basis == "X" and mu_a == mu_b == sweep_side.mu_x else (q, eq)

    monkeypatch.setattr(channel_sim, "pair_yield", pair_yield)
    side = replace(sweep_side, vacuum_cap=0.0)
    assert _scan_matches_fresh_runs(side, [0.0, 50.0, 25.0, 0.0], n_pairs=1e11) == {"h-range-empty"}


# --- records built per distance ---------------------------------------------


def _records(inputs: AnalysisInputs) -> dict[str, object]:
    """Each kind of record the analysis builds per distance, as built on the way to a report."""
    decoy_failed = SourceEnsemble.symmetric(_CORNERS["decoy"][0])
    return {
        "SourceCounts": inputs.observables.entry("x", "x"),
        "PairObservables": inputs.observables,
        "AnalysisInputs": inputs,
        "RateCurve": rate_function(inputs)[0],
        "KeyRateReport": secure_key_rate(inputs),
        "KeyRateReport-zero": secure_key_rate(AnalysisInputs.from_simulation(decoy_failed, ChannelParams())),
    }


def _hash_or_error(record) -> object:
    try:
        return hash(record)
    except TypeError as exc:  # a record holding a dict
        return str(exc)


@pytest.mark.parametrize("kind", ["SourceCounts", "PairObservables", "AnalysisInputs", "RateCurve", "KeyRateReport", "KeyRateReport-zero"])
def test_a_record_built_in_one_update_is_the_constructors(inputs_10km, kind):
    record = _records(inputs_10km)[kind]
    cls = type(record)
    assert cls.__name__ == kind.split("-")[0]
    assert not hasattr(cls, "__post_init__")  # which the one update would skip
    built = cls(**{f.name: getattr(record, f.name) for f in fields(cls)})
    assert record == built and repr(record) == repr(built) and vars(record) == vars(built)
    assert _hash_or_error(record) == _hash_or_error(built)
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
