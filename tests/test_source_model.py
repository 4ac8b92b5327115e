import copy
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd import source_model

from mdiqkd import (
    SideSources,
    SourceEnsemble,
    check_decoy_conditions,
    coeff_bounds,
    poisson_coeff,
)
from mdiqkd.source_model import SOURCES, coeff_rows

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
    assert value == pytest.approx(7.510739438659514e-23, rel=1e-12, abs=0.0)


_LOG_UNIFORM_MU = st.floats(-8.0, math.log10(300.0)).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_LOG_UNIFORM_MU, st.sampled_from([1, 2]))
def test_k_one_and_two_equal_the_log_space_form_bit_for_bit(mu, k):
    # The goldens rest on this: the k = 1 and k = 2 forms drop only exact
    # steps (1 * log mu, and subtracting lgamma(2) = 0) and hoist lgamma(3).
    assert poisson_coeff(mu, k).hex() == _brute_force_coeffs(mu, mu, k)[0].hex()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_LOG_UNIFORM_MU, st.floats(0.0, 3.0), st.integers(0, 3))
def test_coeff_interval_equals_brute_force_bit_for_bit(mu_lo, width, k):
    (lo,), (hi,) = coeff_rows(mu_lo, mu_lo * (1.0 + width), (k,))
    assert [lo.hex(), hi.hex()] == [v.hex() for v in _brute_force_coeffs(mu_lo, mu_lo * (1.0 + width), k)]


@pytest.mark.parametrize("k, same_as", [(2.0, 2), (0.0, 0), (True, 1), (False, 0)])
def test_whole_photon_number_of_another_type_counts_as_its_int(k, same_as):
    assert poisson_coeff(0.3, k).hex() == poisson_coeff(0.3, same_as).hex()


@pytest.mark.parametrize("k", [-1, -1.0, 1.5, math.inf, math.nan])
def test_photon_number_error_names_the_value(k):
    with pytest.raises(ValueError) as error:
        poisson_coeff(0.3, k)
    assert str(error.value) == f"photon number must be a nonnegative integer, got {k!r}"


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
            coeff_rows(mu_lo, mu_hi)


def test_zero_width_interval_is_degenerate():
    (lo,), (hi,) = coeff_rows(0.1, 0.1, (0,))
    assert lo == hi == poisson_coeff(0.1, 0)


def test_vacuum_interval_zero_photon_bounds():
    (lo,), (hi,) = coeff_rows(0.0, 1e-3, (0,))
    assert hi == 1.0
    assert lo == pytest.approx(math.exp(-1e-3), rel=1e-15, abs=0.0)


def test_vacuum_interval_one_photon_bounds():
    (lo,), (hi,) = coeff_rows(0.0, 1e-3, (1,))
    assert lo == 0.0
    # mu e^-mu at mu = 1e-3: 0.0009990004998333749916680554
    assert hi == pytest.approx(0.0009990004998333749916680554, rel=1e-14, abs=0.0)


def test_interior_critical_point():
    # mu_y = 1, 10% fluctuation: the one-photon coefficient peaks at mu = 1.
    (lo,), (hi,) = coeff_rows(0.9, 1.1, (1,))
    assert hi == pytest.approx(math.exp(-1.0), rel=1e-15, abs=0.0)
    assert lo == min(poisson_coeff(0.9, 1), poisson_coeff(1.1, 1))
    scan_lo, scan_hi = grid_scan_coeff_extrema(0.9, 1.1, 1)
    assert lo <= scan_lo + 1e-12 and hi >= scan_hi - 1e-12


@pytest.mark.parametrize("source", ["v", "x", "y", "z"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_grid_scan_stays_inside_bounds(noisy_ensemble, source, k):
    bounds = coeff_bounds(noisy_ensemble)
    mu_lo, mu_hi = bounds.alice.intervals[source]
    scan_lo, scan_hi = grid_scan_coeff_extrema(mu_lo, mu_hi, k)
    assert bounds.alice.lower[source][k] - 1e-12 <= scan_lo
    assert scan_hi <= bounds.alice.upper[source][k] + 1e-12


def test_exact_sources_give_degenerate_intervals(exact_ensemble, exact_side):
    bounds = coeff_bounds(exact_ensemble)
    for k in range(3):
        assert bounds.alice.lower["x"][k] == bounds.alice.upper["x"][k] == poisson_coeff(exact_side.mu_x, k)
    assert bounds.alice.lower["v"][0] == bounds.alice.upper["v"][0] == 1.0
    assert bounds.alice.upper["v"][1] == 0.0


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
            assert wide.alice.lower[source][k] <= narrow.alice.lower[source][k]
            assert narrow.alice.upper[source][k] <= wide.alice.upper[source][k]


def test_symmetric_ensemble_builds_its_side_bounds_once(noisy_side, monkeypatch):
    calls = []
    counted = source_model.poisson_coeff
    monkeypatch.setattr(source_model, "poisson_coeff", lambda mu, k: calls.append(k) or counted(mu, k))
    other = replace(noisy_side, fluctuation=0.02)
    made = len(calls)
    for mu_lo, mu_hi in other.intervals.values():
        coeff_rows(mu_lo, mu_hi)
    assert made > 0 and len(calls) == 2 * made  # making the side built each of its rows once
    calls.clear()
    ensembles = (
        SourceEnsemble.symmetric(noisy_side),
        SourceEnsemble(alice=noisy_side, bob=other),
        SourceEnsemble(alice=other, bob=noisy_side),
    )
    symmetric, asymmetric, mirrored = (coeff_bounds(ensemble) for ensemble in ensembles)
    assert calls == []  # neither the ensembles nor coeff_bounds build a row
    for ensemble, bounds in zip(ensembles, (symmetric, asymmetric, mirrored)):
        assert bounds.alice is ensemble.alice and bounds.bob is ensemble.bob
        assert bounds == ensemble.bounds
    assert symmetric.alice is symmetric.bob
    assert asymmetric.alice == symmetric.alice == mirrored.bob
    assert asymmetric.bob == mirrored.alice != symmetric.alice
    assert asymmetric.bob.upper != symmetric.alice.upper


def test_partial_sums_of_lower_bounds_stay_below_one(noisy_ensemble):
    for source in ("v", "x", "y", "z"):
        lower, upper = coeff_rows(*noisy_ensemble.alice.intervals[source], range(61))
        assert sum(lower) <= 1.0
        assert sum(upper) >= 1.0 - 1e-12


def test_probabilities_must_normalize():
    with pytest.raises(ValueError, match="sum to 1"):
        SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.2, p_x=0.1, p_y=0.1, p_z=0.7)


def test_decoy_order_enforced_at_construction():
    with pytest.raises(ValueError, match="mu_x < mu_y"):
        SideSources(mu_x=0.4, mu_y=0.1, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7)


def test_decoy_conditions_pass_for_clean_settings():
    side = SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, vacuum_cap=0.0)
    report = check_decoy_conditions(coeff_bounds(SourceEnsemble.symmetric(side)))
    assert report.passed, report.summary()
    # Direct ratio evaluation: e^(mu_x - mu_y) (mu_y / mu_x)^k increases in k.
    ratios = [poisson_coeff(0.4, k) / poisson_coeff(0.1, k) for k in range(1, 21)]
    assert all(r2 >= r1 for r1, r2 in zip(ratios, ratios[1:]))


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


def _side_with_cap(mu_x, mu_y, vacuum_cap, fluctuation=0.0):
    return SideSources(
        mu_x=mu_x, mu_y=mu_y, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7,
        vacuum_cap=vacuum_cap, fluctuation=fluctuation,
    )


def test_table_holds_k_up_to_two_whatever_the_vacuum_cap():
    for cap in (0.0, 1e-6, 3.3):
        bounds = coeff_bounds(SourceEnsemble.symmetric(_side_with_cap(3.4, 5.1, cap)))
        assert all(len(bounds.alice.lower[s]) == len(bounds.alice.upper[s]) == 3 for s in "vxyz")


def test_decoys_at_or_above_a_cap_past_two_pass():
    # x starts at 3.4, above the cap 3.3: k = 2 decides every k >= 2.
    report = check_decoy_conditions(coeff_bounds(SourceEnsemble.symmetric(_side_with_cap(3.4, 5.1, 3.3))))
    assert report.passed, report.summary()
    assert _brute_force_decoy_check(_side_with_cap(3.4, 5.1, 3.3))


def test_vacuum_ratio_past_a_cap_of_two_fails_at_k_two():
    # x spans [2.6019, 9.9981], above the cap 2.5, but a_2^{x,L} at its top is too small.
    side = _side_with_cap(6.3, 30.0, 2.5, fluctuation=0.587)
    report = check_decoy_conditions(coeff_bounds(SourceEnsemble.symmetric(side)))
    assert report.failures == (
        "alice:vacuum-ratio: source x violates the vacuum ratio at k=2",
        "bob:vacuum-ratio: source x violates the vacuum ratio at k=2",
    )
    assert not _brute_force_decoy_check(side)


@pytest.mark.parametrize("key", ["mu_y", "mu_z", "vacuum_cap"])
def test_interval_end_at_the_underflow_limit_rejected(key):
    values = dict(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7)
    SideSources(**{**values, key: 700.0})
    with pytest.raises(ValueError, match="underflows"):
        SideSources(**{**values, key: source_model.MAX_INTENSITY})


def test_widened_interval_past_the_underflow_limit_rejected():
    with pytest.raises(ValueError, match="underflows"):  # mu_y 700 reaches 714 at the top of its interval
        SideSources(mu_x=0.1, mu_y=700.0, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7, fluctuation=0.02)


def test_vacuum_ratio_failing_beyond_depth_twenty_is_caught():
    # The vacuum cap sits above x's intensity, so x's vacuum ratio
    # e^(c - x) (x / c)^k * a_1^{v,U} / a_1^{x,U} falls below 1 at k = 21.
    bounds = coeff_bounds(SourceEnsemble.symmetric(_side_with_cap(2.2, 3.2, 2.25)))
    ratios = [
        poisson_coeff(2.2, k) * bounds.alice.upper["v"][1] / (bounds.alice.upper["x"][1] * poisson_coeff(2.25, k))
        for k in range(2, 22)
    ]
    assert min(ratios[:-1]) >= 1.0 > ratios[-1]  # holds for k <= 20, fails at k = 21
    report = check_decoy_conditions(bounds)
    assert not report.passed
    assert [f.split(": ")[0] for f in report.failures] == ["alice:vacuum-ratio", "bob:vacuum-ratio"]
    assert "source x" in report.failures[0] and "at large k" in report.failures[0]


def _brute_force_coeffs(mu_lo, mu_hi, k):
    """Min and max of e^-mu mu^k / k! over [mu_lo, mu_hi], from its endpoints and its peak at mu = k."""

    def coeff(mu):
        if mu == 0.0:
            return 1.0 if k == 0 else 0.0
        return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))

    values = [coeff(mu_lo), coeff(mu_hi)] + ([coeff(float(k))] if mu_lo < k < mu_hi else [])
    return min(values), max(values)


def _brute_force_decoy_check(side, depth=200):
    """The decoy conditions of one side at every k = 2 .. depth, evaluated one by one."""
    intervals = {s: side.intervals[s] for s in "vxy"}
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
def _decoy_sides(draw):
    fluctuation = draw(st.floats(0.0, 0.3))
    mu_x = draw(st.floats(0.001, 50.0))
    x_lo = mu_x * (1.0 - fluctuation)
    # Caps from exact vacuum up to 1.5 times x's lower end; with these draws
    # 46 of the 300 examples pass with a cap above 2 (Hypothesis 6.155).
    cap = x_lo * draw(st.sampled_from([0.0, 1e-6, 1.0]) | st.floats(0.5, 1.0) | st.floats(0.0, 1.5))
    return _side_with_cap(mu_x, mu_x + draw(st.floats(0.001, 50.0)), cap, fluctuation)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_decoy_sides())
def test_decoy_check_agrees_with_depth_200_brute_force(side):
    report = check_decoy_conditions(coeff_bounds(SourceEnsemble.symmetric(side)))
    if report.passed:
        assert _brute_force_decoy_check(side)
    elif _brute_force_decoy_check(side):
        # The one failure a check at a fixed depth can miss: a vacuum ratio
        # that falls below its bound only past depth 200, or only where the
        # products have underflowed.
        for failure in report.failures:
            assert ":vacuum-ratio: " in failure and "at large k" in failure
            assert side.intervals[failure.split("source ")[1][0]][0] < side.vacuum_cap


@st.composite
def _valid_sides(draw):
    """Any :class:`SideSources` its checks accept, intensities from 1e-4 to 100 and each probability from 1e-3."""
    mu_x = draw(st.floats(1e-4, 50.0))
    p_x, p_y, p_z = (draw(st.floats(1e-3, 0.33)) for _ in range(3))
    return SideSources(
        mu_x=mu_x,
        mu_y=mu_x + draw(st.floats(1e-4, 50.0)),
        mu_z=draw(st.floats(1e-4, 100.0)),
        p_v=1.0 - p_x - p_y - p_z,
        p_x=p_x,
        p_y=p_y,
        p_z=p_z,
        vacuum_cap=draw(st.just(0.0) | st.floats(0.0, 100.0)),
        fluctuation=draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_valid_sides())
def test_side_tables_hold_the_field_formulas_and_stay_out_of_equality(side):
    # The oracles read the simulation intensities off the table, so this pins them to the fields too.
    f = side.fluctuation
    for source in SOURCES:
        if source == "v":
            interval, simulated = (0.0, side.vacuum_cap), side.vacuum_cap / 2.0
        else:
            mu = getattr(side, f"mu_{source}")
            interval, simulated = (mu * (1.0 - f), mu * (1.0 + f)), mu
        assert [v.hex() for v in side.intervals[source]] == [v.hex() for v in interval]
        assert side.table[source][0].hex() == getattr(side, f"p_{source}").hex()
        assert side.table[source][1].hex() == simulated.hex()
    assert list(side.intervals) == list(side.table) == list(SOURCES)

    # Not fields: equality, hashing and repr see the fields alone.
    other = SideSources(**{name: getattr(side, name) for name in side.__dataclass_fields__})
    object.__setattr__(other, "intervals", {})
    object.__setattr__(other, "table", {})
    assert other == side and hash(other) == hash(side)
    assert "intervals" not in repr(side) and "table" not in repr(side)

    # Rebuilt by replace, carried over by a copy and by a pickle round trip, as SourceEnsemble.bounds is.
    ensemble = SourceEnsemble.symmetric(side)
    for made in (replace(side), copy.deepcopy(side), pickle.loads(pickle.dumps(side))):
        assert made == side and made.intervals == side.intervals and made.table == side.table
    for made in (replace(ensemble), copy.deepcopy(ensemble), pickle.loads(pickle.dumps(ensemble))):
        assert made.alice.table == side.table and made.bounds == ensemble.bounds
