import math
from dataclasses import replace

import pytest

from mdiqkd import source_model

from mdiqkd import (
    PhotonCoeffBounds,
    SideSources,
    SourceEnsemble,
    check_decoy_conditions,
    coeff_bounds,
    coeff_interval,
    poisson_coeff,
)

from .oracles import grid_scan_coeff_extrema


def test_vacuum_is_pure_zero_photon():
    assert poisson_coeff(0.0, 0) == 1.0
    assert poisson_coeff(0.0, 3) == 0.0


def test_coefficients_normalize():
    total = sum(poisson_coeff(0.5, k) for k in range(80))
    assert abs(total - 1.0) <= 1e-12


def test_single_photon_reference_value():
    # 0.1 * exp(-0.1), 25 significant digits: 0.09048374180359595731642491
    assert abs(poisson_coeff(0.1, 1) - 0.09048374180359595731642491) <= 1e-14


def test_log_space_survives_large_k():
    # exp(-5) 5^40 / 40! = 7.510739438659513847547913e-23
    value = poisson_coeff(5.0, 40)
    assert value == pytest.approx(7.510739438659514e-23, rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        poisson_coeff(-0.1, 0)
    with pytest.raises(ValueError):
        poisson_coeff(0.1, -1)
    with pytest.raises(ValueError):
        poisson_coeff(0.1, 1.5)


def test_zero_width_interval_is_degenerate():
    lo, hi = coeff_interval(0.1, 0.1, 0)
    assert lo == hi == poisson_coeff(0.1, 0)


def test_vacuum_interval_zero_photon_bounds():
    lo, hi = coeff_interval(0.0, 1e-3, 0)
    assert hi == 1.0
    assert lo == pytest.approx(math.exp(-1e-3), rel=1e-15)


def test_vacuum_interval_one_photon_bounds():
    lo, hi = coeff_interval(0.0, 1e-3, 1)
    assert lo == 0.0
    # mu e^-mu at mu = 1e-3: 0.0009990004998333749916680554
    assert hi == pytest.approx(0.0009990004998333749916680554, rel=1e-14)


def test_interior_critical_point():
    # mu_y = 1, 10% fluctuation: the one-photon coefficient peaks at mu = 1.
    lo, hi = coeff_interval(0.9, 1.1, 1)
    assert hi == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert lo == min(poisson_coeff(0.9, 1), poisson_coeff(1.1, 1))
    scan_lo, scan_hi = grid_scan_coeff_extrema(0.9, 1.1, 1)
    assert lo <= scan_lo + 1e-12 and hi >= scan_hi - 1e-12


@pytest.mark.parametrize("source", ["v", "x", "y", "z"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_grid_scan_stays_inside_bounds(noisy_ensemble, source, k):
    bounds = coeff_bounds(noisy_ensemble)
    mu_lo, mu_hi = bounds.alice.intervals[source]
    scan_lo, scan_hi = grid_scan_coeff_extrema(mu_lo, mu_hi, k)
    assert bounds.alice.lo(source, k) - 1e-12 <= scan_lo
    assert scan_hi <= bounds.alice.hi(source, k) + 1e-12


def test_exact_sources_give_degenerate_intervals(exact_ensemble, exact_side):
    bounds = coeff_bounds(exact_ensemble)
    for k in range(3):
        assert bounds.alice.lo("x", k) == bounds.alice.hi("x", k) == poisson_coeff(exact_side.mu_x, k)
    assert bounds.alice.lo("v", 0) == bounds.alice.hi("v", 0) == 1.0
    assert bounds.alice.hi("v", 1) == 0.0


def test_shrinking_fluctuation_never_widens_bounds(noisy_side):
    wide = coeff_bounds(SourceEnsemble.symmetric(noisy_side))
    narrow_side = SideSources(
        mu_x=noisy_side.mu_x, mu_y=noisy_side.mu_y, mu_z=noisy_side.mu_z,
        p_v=noisy_side.p_v, p_x=noisy_side.p_x, p_y=noisy_side.p_y, p_z=noisy_side.p_z,
        vacuum_cap=noisy_side.vacuum_cap, fluctuation=noisy_side.fluctuation / 2,
    )
    narrow = coeff_bounds(SourceEnsemble.symmetric(narrow_side))
    for source in ("x", "y", "z"):
        for k in range(3):
            assert wide.alice.lo(source, k) <= narrow.alice.lo(source, k)
            assert narrow.alice.hi(source, k) <= wide.alice.hi(source, k)


def test_symmetric_ensemble_builds_its_side_bounds_once(noisy_side, monkeypatch):
    calls = []
    counted = source_model.poisson_coeff
    monkeypatch.setattr(source_model, "poisson_coeff", lambda mu, k: calls.append(k) or counted(mu, k))
    symmetric = coeff_bounds(SourceEnsemble.symmetric(noisy_side))
    one_side = len(calls)
    other = replace(noisy_side, fluctuation=0.02)
    asymmetric = coeff_bounds(SourceEnsemble(alice=noisy_side, bob=other))
    assert symmetric.alice is symmetric.bob
    assert len(calls) - one_side == 2 * one_side
    # The shared table is the one each side builds for itself.
    mirrored = coeff_bounds(SourceEnsemble(alice=other, bob=noisy_side))
    assert asymmetric.alice == symmetric.alice == mirrored.bob
    assert asymmetric.bob == mirrored.alice != symmetric.alice


def test_partial_sums_of_lower_bounds_stay_below_one(noisy_ensemble):
    bounds = coeff_bounds(noisy_ensemble)
    for source in ("v", "x", "y", "z"):
        assert sum(bounds.alice.lower[source]) <= 1.0
        assert sum(bounds.alice.upper[source]) >= 1.0 - 1e-12


def test_probabilities_must_normalize():
    with pytest.raises(ValueError, match="sum to 1"):
        SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.2, p_x=0.1, p_y=0.1, p_z=0.7)


def test_decoy_order_enforced_at_construction():
    with pytest.raises(ValueError, match="mu_x < mu_y"):
        SideSources(mu_x=0.4, mu_y=0.1, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7)


def test_decoy_conditions_pass_for_clean_settings():
    bounds = PhotonCoeffBounds.from_intervals(
        {"v": (0.0, 0.0), "x": (0.1, 0.1), "y": (0.4, 0.4), "z": (0.5, 0.5)},
        {"v": (0.0, 0.0), "x": (0.1, 0.1), "y": (0.4, 0.4), "z": (0.5, 0.5)},
    )
    report = check_decoy_conditions(bounds)
    assert report.passed, report.summary()
    # Direct ratio evaluation: e^(mu_x - mu_y) (mu_y / mu_x)^k increases in k.
    ratios = [poisson_coeff(0.4, k) / poisson_coeff(0.1, k) for k in range(1, 21)]
    assert all(r2 >= r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_swapped_decoys_fail_at_k2():
    bounds = PhotonCoeffBounds.from_intervals(
        {"v": (0.0, 0.0), "x": (0.4, 0.4), "y": (0.1, 0.1), "z": (0.5, 0.5)},
        {"v": (0.0, 0.0), "x": (0.4, 0.4), "y": (0.1, 0.1), "z": (0.5, 0.5)},
    )
    report = check_decoy_conditions(bounds)
    assert not report.passed
    assert any(":decoy-ratio-step:" in failure for failure in report.failures)


def test_exact_vacuum_satisfies_vacuum_ratio_by_convention(exact_ensemble):
    report = check_decoy_conditions(coeff_bounds(exact_ensemble))
    assert not any(":vacuum-ratio:" in failure for failure in report.failures)


def test_unstable_vacuum_still_passes(noisy_ensemble):
    assert check_decoy_conditions(coeff_bounds(noisy_ensemble)).passed


def test_overlapping_decoy_intervals_fail():
    side = SideSources(
        mu_x=0.3, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7,
        fluctuation=0.2,  # 0.3*1.2 = 0.36 > 0.4*0.8 = 0.32
    )
    report = check_decoy_conditions(coeff_bounds(SourceEnsemble.symmetric(side)))
    assert not report.passed
    assert any(":intensity-intervals-disjoint:" in failure for failure in report.failures)
