"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each criterion is independent; a failure prints the offending
numbers through the assertion message.
"""

import math
from dataclasses import replace

import numpy as np

from mdiqkd import (
    AnalysisInputs,
    ChannelParams,
    ChernoffConfig,
    SourceEnsemble,
    chernoff_lower,
    chernoff_upper,
    combo_group,
    combo_lower,
    combo_upper,
    rate_function,
    secure_key_rate,
    validate_model,
)
from mdiqkd.cli import main as cli_main

from .oracles import dense_rate, plugin_asymptotic_rate, single_photon_pair_truth, vacuum_error_component


def test_criterion_1_chernoff_round_trip():
    """Solved deviations reproduce ln(xi/2) to 1e-9 relative; bounds bracket."""
    for x in (1, 100, 10**4, 10**6, 10**9):
        for xi in (1e-7, 1e-10):
            cfg = ChernoffConfig(xi=xi)
            target = math.log(xi / 2.0)
            d1 = x / chernoff_lower(x, cfg) - 1.0
            d2 = 1.0 - x / chernoff_upper(x, cfg)
            back1 = (d1 - (1 + d1) * math.log1p(d1)) * x / (1 + d1)
            back2 = (-d2 - (1 - d2) * math.log1p(-d2)) * x / (1 - d2)
            assert abs(back1 - target) <= 1e-9 * abs(target), (x, xi, back1, target)
            assert abs(back2 - target) <= 1e-9 * abs(target), (x, xi, back2, target)
            assert chernoff_lower(x, cfg) < x < chernoff_upper(x, cfg)
    print("ACCEPTANCE 1 PASS: Chernoff round trip within 1e-9 relative on all 10 cases")


def test_criterion_2_joint_bound_dominance():
    """Joint bounds never looser than per-term sums on 10^4 random instances."""
    cfg = ChernoffConfig(xi=1e-7)
    rng = np.random.default_rng(987654321)
    unequal = 0
    strict = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 4))
        coefficients = np.round(10 ** rng.uniform(-2, 1, n), 6)
        counts = np.floor(10 ** rng.uniform(0, 6, n))
        terms = list(zip(coefficients, counts))
        group = combo_group([(c, i) for i, c in enumerate(coefficients)])
        joint_lower = combo_lower(group, counts, cfg)
        split_lower = sum(c * chernoff_lower(x, cfg) for c, x in terms)
        joint_upper = combo_upper(group, counts, cfg)
        split_upper = sum(c * chernoff_upper(x, cfg) for c, x in terms)
        assert joint_lower >= split_lower - 1e-9 * max(split_lower, 1.0)
        assert joint_upper <= split_upper + 1e-9 * max(split_upper, 1.0)
        if len(set(coefficients)) > 1:
            unequal += 1
            if joint_lower > split_lower and joint_upper < split_upper:
                strict += 1
    assert unequal > 0
    fraction = strict / unequal
    assert fraction >= 0.95, f"strict improvement on only {fraction:.1%} of unequal-coefficient instances"
    print(f"ACCEPTANCE 2 PASS: joint dominance on 10^4 instances, strict on {fraction:.1%} of unequal ones")


def test_criterion_3_asymptotic_collapse(exact_ensemble, exact_side):
    """Exact sources + collapsed envelopes reproduce the plug-in evaluation."""
    worst = 0.0
    for distance in (0.0, 25.0, 50.0):
        params = ChannelParams(n_pairs=1e11, distance_km=distance)
        inputs = AnalysisInputs.from_simulation(exact_ensemble, params)
        inputs = replace(inputs, chernoff=replace(inputs.chernoff, disabled=True))
        report = secure_key_rate(inputs)
        oracle = plugin_asymptotic_rate(inputs.observables, exact_side, params.f_ec)
        rel = abs(report.rate - oracle) / abs(oracle)
        worst = max(worst, rel)
        assert rel <= 1e-9, (distance, report.rate, oracle)
    print(f"ACCEPTANCE 3 PASS: asymptotic collapse matches plug-in oracle, worst relative {worst:.2e}")


def test_criterion_4_channel_model_oracle():
    """Analytic yields agree with the photon-level simulation within 3 sigma."""
    params = ChannelParams()
    report = validate_model(params, trials=10_000_000, seed=20240501)
    worst = max(max(abs(r.z_gain), abs(r.z_error)) for r in report.rows)
    assert report.passed, [r for r in report.rows if not r.ok]
    print(f"ACCEPTANCE 4 PASS: 10-point grid x 2 bases within 3 sigma at 1e7 trials (worst |z| = {worst:.2f})")


def test_criterion_5_soundness_on_honest_data(noisy_ensemble, noisy_side):
    """True model quantities lie inside their computed bounds."""
    for distance in (10.0, 50.0):
        params = ChannelParams(n_pairs=1e11, distance_km=distance)
        inputs = AnalysisInputs.from_simulation(noisy_ensemble, params)
        y11_true, e11_true = single_photon_pair_truth("X", params)
        h_true = 2.0 * vacuum_error_component(noisy_side.mu_x, noisy_side.mu_x, params)
        # Evaluate the pointwise bounds at the true nuisance value.
        curve, h_lo, h_hi = rate_function(inputs)
        assert h_lo <= h_true <= h_hi, (distance, h_lo, h_true, h_hi)
        s11_at_truth, e11_at_truth, _ = curve.point(h_true)
        assert s11_at_truth <= y11_true, (distance, s11_at_truth, y11_true)
        assert not math.isnan(e11_at_truth) and e11_at_truth >= e11_true, (distance, e11_at_truth, e11_true)
    print("ACCEPTANCE 5 PASS: true yield, phase error, and nuisance value inside their bounds at 10 and 50 km")


def _sweep(side, n_pairs: float, eta_d: float, fluctuation: float, distances) -> list[float]:
    swept_side = replace(side, fluctuation=fluctuation)
    ensemble = SourceEnsemble.symmetric(swept_side)
    rates = []
    for distance in distances:
        params = ChannelParams(n_pairs=n_pairs, eta_d=eta_d, distance_km=distance)
        inputs = AnalysisInputs.from_simulation(ensemble, params)
        rates.append(secure_key_rate(inputs).rate)
    return rates


def _cutoff(distances, rates) -> float:
    positive = [d for d, r in zip(distances, rates) if r > 0.0]
    return max(positive) if positive else -1.0


def test_criterion_6_figure_shape(sweep_side):
    """Qualitative sweep behavior: monotone curves, fluctuation ordering, cutoffs."""
    distances = [0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0]
    fluctuations = (0.0, 0.01, 0.05)
    configs = {
        "small-data": dict(n_pairs=1e11, eta_d=0.145),
        "large-data": dict(n_pairs=1e13, eta_d=0.40),
    }
    curves: dict[tuple[str, float], list[float]] = {}
    for name, kwargs in configs.items():
        for fluctuation in fluctuations:
            curve = _sweep(sweep_side, fluctuation=fluctuation, distances=distances, **kwargs)
            curves[(name, fluctuation)] = curve
            # (a) non-increasing in distance
            assert all(a >= b for a, b in zip(curve, curve[1:])), (name, fluctuation, curve)
        # (b) pointwise ordering in the fluctuation amplitude
        for low, high in zip(fluctuations, fluctuations[1:]):
            pairs = zip(curves[(name, low)], curves[(name, high)])
            assert all(a >= b for a, b in pairs), (name, low, high)
        # (c) cutoff distance non-increasing in the fluctuation amplitude
        cutoffs = [_cutoff(distances, curves[(name, f)]) for f in fluctuations]
        assert all(a >= b for a, b in zip(cutoffs, cutoffs[1:])), (name, cutoffs)
        assert curves[(name, 0.0)][0] > 0.0
    # Better detectors and more data dominate pointwise at zero fluctuation.
    pairs = zip(curves[("large-data", 0.0)], curves[("small-data", 0.0)])
    assert all(a >= b for a, b in pairs)
    print("ACCEPTANCE 6 PASS: sweep curves monotone, ordered in fluctuation, cutoffs ordered, configs ordered")


def test_criterion_7_minimizer_fidelity(sweep_side, exact_ensemble):
    """Grid + refinement minimum within 1e-8 absolute of a 1e6-point scan."""
    fixtures = [
        (SourceEnsemble.symmetric(sweep_side), ChannelParams(n_pairs=1e11, distance_km=0.0)),
        (SourceEnsemble.symmetric(sweep_side), ChannelParams(n_pairs=1e11, distance_km=5.0)),
        (SourceEnsemble.symmetric(replace(sweep_side, fluctuation=0.01)), ChannelParams(n_pairs=1e11, distance_km=5.0)),
        (SourceEnsemble.symmetric(sweep_side), ChannelParams(n_pairs=1e13, distance_km=20.0)),
        (exact_ensemble, ChannelParams(n_pairs=1e11, distance_km=10.0)),
    ]
    worst = 0.0
    for ensemble, params in fixtures:
        inputs = AnalysisInputs.from_simulation(ensemble, params)
        report = secure_key_rate(inputs)
        curve, h_lo, h_hi = rate_function(inputs)
        brute = float(np.min(dense_rate(curve, np.linspace(h_lo, h_hi, 1_000_000))))
        assert report.rate > 0.0
        diff = abs(report.rate - brute)
        worst = max(worst, diff)
        assert diff <= 1e-8, (params.distance_km, report.rate, brute)
    print(f"ACCEPTANCE 7 PASS: refined minimum within 1e-8 of 1e6-point scans (worst gap {worst:.2e})")


def test_criterion_8_scan_determinism(tmp_path, capsys):
    """Identical config and seed give byte-identical scan output."""
    config = tmp_path / "scan.cfg"
    config.write_text(
        "mu_x = 0.028\nmu_y = 0.248\nmu_z = 0.459\n"
        "p_v = 0.146\np_x = 0.189\np_y = 0.04\np_z = 0.625\n"
        "vacuum_cap = 1e-6\nfluctuation = 0.01\n"
        "distances = 0:20:5\nseed = 12\n",
        encoding="utf-8",
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["scan", "--config", str(config), "--out", str(first)]) == 0
    capsys.readouterr()
    assert cli_main(["scan", "--config", str(config), "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    print("ACCEPTANCE 8 PASS: repeated scans are byte-identical")
