import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd import source_model

from mdiqkd import (
    PhotonCoeffBounds,
    SideSources,
    SourceEnsemble,
    check_decoy_conditions,
    coeff_bounds,
    poisson_coeff,
)
from mdiqkd.source_model import coeff_interval

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
    for mu, k in [(0.1, math.inf), (0.1, math.nan), (math.inf, 1), (math.nan, 0)]:
        with pytest.raises(ValueError):
            poisson_coeff(mu, k)
    for mu_lo, mu_hi in [(math.nan, 1.0), (0.1, math.nan), (0.1, math.inf), (0.2, 0.1), (-0.1, 0.1)]:
        with pytest.raises(ValueError, match="invalid intensity interval"):
            coeff_interval(mu_lo, mu_hi, 1)


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
    for source in ("v", "x", "y", "z"):
        pairs = [coeff_interval(*noisy_ensemble.alice.intensity_interval(source), k) for k in range(61)]
        assert sum(lo for lo, _ in pairs) <= 1.0
        assert sum(hi for _, hi in pairs) >= 1.0 - 1e-12


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


def test_swapped_decoys_fail_only_disjointness():
    bounds = PhotonCoeffBounds.from_intervals(
        {"v": (0.0, 0.0), "x": (0.4, 0.4), "y": (0.1, 0.1), "z": (0.5, 0.5)},
        {"v": (0.0, 0.0), "x": (0.4, 0.4), "y": (0.1, 0.1), "z": (0.5, 0.5)},
    )
    report = check_decoy_conditions(bounds)
    assert [f.split(": ")[0] for f in report.failures] == ["alice:intensity-intervals-disjoint", "bob:intensity-intervals-disjoint"]


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


def test_table_depth_follows_the_vacuum_cap():
    low = coeff_bounds(SourceEnsemble.symmetric(SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7)))
    assert all(len(low.alice.lower[s]) == len(low.alice.upper[s]) == 3 for s in "vxyz")
    # The depth is max(2, ceil(vacuum_cap)), however far the other intervals reach.
    bounds = PhotonCoeffBounds.from_intervals(
        {"v": (0.0, 3.3), "x": (3.4, 3.5), "y": (5.0, 5.2), "z": (0.4, 0.6)},
        {"v": (0.0, 1e-6), "x": (0.5, 0.5), "y": (3.0, 3.3), "z": (4.0, 4.6)},
    )
    for side, entries in ((bounds.alice, 5), (bounds.bob, 3)):
        assert all(len(side.lower[s]) == len(side.upper[s]) == entries for s in "vxyz")


@pytest.mark.parametrize("key", ["mu_y", "mu_z", "vacuum_cap"])
def test_interval_end_at_the_underflow_limit_rejected(key):
    values = dict(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7)
    SideSources(**{**values, key: 700.0})
    with pytest.raises(ValueError, match="underflows"):
        SideSources(**{**values, key: source_model.MAX_INTENSITY})


def test_widened_or_raw_interval_past_the_underflow_limit_rejected(monkeypatch):
    with pytest.raises(ValueError, match="underflows"):  # mu_y 700 reaches 714 at the top of its interval
        SideSources(mu_x=0.1, mu_y=700.0, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, fluctuation=0.02)
    built = []
    monkeypatch.setattr(source_model, "coeff_interval", lambda *args: built.append(args))
    clean = {"v": (0.0, 0.0), "x": (0.1, 0.1), "y": (0.4, 0.4), "z": (0.5, 0.5)}
    for source, interval, match in [
        ("y", (0.4, 1e9), "underflows"),
        ("y", (0.4, math.inf), "underflows"),
        ("x", (math.nan, 0.1), "invalid intensity interval"),
        ("z", (0.5, math.nan), "invalid intensity interval"),
    ]:
        intervals = {**clean, source: interval}
        with pytest.raises(ValueError, match=match):
            PhotonCoeffBounds.from_intervals(intervals, intervals)
    assert built == []  # rejected before any coefficient is computed


def test_vacuum_ratio_failing_beyond_depth_twenty_is_caught():
    # The vacuum cap sits above x's intensity, so x's vacuum ratio
    # e^(c - x) (x / c)^k * a_1^{v,U} / a_1^{x,U} falls below 1 at k = 21.
    intervals = {"v": (0.0, 2.25), "x": (2.2, 2.2), "y": (3.2, 3.2), "z": (0.5, 0.5)}
    bounds = PhotonCoeffBounds.from_intervals(intervals, intervals)
    ratios = [
        poisson_coeff(2.2, k) * bounds.alice.hi("v", 1) / (bounds.alice.hi("x", 1) * poisson_coeff(2.25, k))
        for k in range(2, 22)
    ]
    assert min(ratios[:-1]) >= 1.0 > ratios[-1]  # holds for k <= 20, fails at k = 21
    report = check_decoy_conditions(bounds)
    assert not report.passed
    assert [f.split(": ")[0] for f in report.failures] == ["alice:vacuum-ratio", "bob:vacuum-ratio"]
    assert "source x" in report.failures[0]


def _brute_force_coeffs(mu_lo, mu_hi, k):
    """Min and max of e^-mu mu^k / k! over [mu_lo, mu_hi], from its endpoints and its peak at mu = k."""

    def coeff(mu):
        if mu == 0.0:
            return 1.0 if k == 0 else 0.0
        return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))

    values = [coeff(mu_lo), coeff(mu_hi)] + ([coeff(float(k))] if mu_lo < k < mu_hi else [])
    return min(values), max(values)


def _brute_force_decoy_check(intervals, depth=200):
    """The decoy conditions of one side at every k = 2 .. depth, evaluated one by one."""
    lo = {s: [_brute_force_coeffs(*intervals[s], k)[0] for k in range(depth + 1)] for s in "vxy"}
    hi = {s: [_brute_force_coeffs(*intervals[s], k)[1] for k in range(depth + 1)] for s in "vxy"}
    ks = range(2, depth + 1)
    return (
        intervals["x"][1] < intervals["y"][0]
        and lo["y"][2] * hi["x"][1] >= lo["y"][1] * hi["x"][2]
        and all(lo["y"][k] * hi["x"][2] >= lo["y"][2] * hi["x"][k] for k in ks)
        and (hi["v"][1] == 0.0 or all(lo[s][k] * hi["v"][1] >= hi[s][1] * hi["v"][k] for s in "xy" for k in ks))
    )


@st.composite
def _decoy_intervals(draw):
    fluctuation = draw(st.floats(0.0, 0.3))
    interval = {
        s: (mu * (1.0 - fluctuation), mu * (1.0 + fluctuation))
        for s, mu in zip("xyz", (draw(st.floats(0.001, 50.0)) for _ in range(3)))
    }
    interval["v"] = (0.0, interval["x"][0] * draw(st.sampled_from([0.0, 1e-6]) | st.floats(0.0, 1.5)))
    return interval


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_decoy_intervals())
def test_decoy_check_agrees_with_depth_200_brute_force(intervals):
    report = check_decoy_conditions(PhotonCoeffBounds.from_intervals(intervals, intervals))
    if report.passed:
        assert _brute_force_decoy_check(intervals)
    elif _brute_force_decoy_check(intervals):
        # The one failure a check at a fixed depth can miss: a vacuum ratio
        # that falls below its bound only past depth 200, or only where the
        # products have underflowed.
        cap = intervals["v"][1]
        for failure in report.failures:
            assert ":vacuum-ratio: " in failure and "at large k" in failure
            assert intervals[failure.split("source ")[1][0]][0] < cap
