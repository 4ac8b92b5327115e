import math
import random
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mdiqkd import (
    ChernoffConfig,
    chernoff_lower,
    chernoff_upper,
    combo_lower,
    combo_upper,
)
from mdiqkd.stat_bounds import InvocationCounter

from .oracles import brentq_lower_deviation, brentq_upper_deviation

CFG = ChernoffConfig(xi=1e-7)


def deviations(x: float, cfg: ChernoffConfig) -> tuple[float, float]:
    """The envelope deviations d1, d2 read back from the public bounds at ``x > 0``."""
    return x / chernoff_lower(x, cfg) - 1.0, 1.0 - x / chernoff_upper(x, cfg)


def test_zero_counts_edge_cases():
    assert chernoff_lower(0, CFG) == 0.0
    assert chernoff_upper(0, CFG) == pytest.approx(math.log(2.0 / CFG.xi), rel=1e-15, abs=0.0)


def test_zero_observation_upper_is_small_count_limit():
    # The solved upper bound X/(1 - d2(X)) tends to ln(2/xi) as X -> 0.
    limits = [chernoff_upper(x, CFG) for x in (1e-4, 1e-6, 1e-8)]
    target = math.log(2.0 / CFG.xi)
    diffs = [abs(v - target) for v in limits]
    assert diffs[2] < diffs[1] < diffs[0]
    assert diffs[2] <= 1e-6 * target


def test_reference_point_against_independent_solver():
    x, xi = 10**6, 1e-7
    cfg = ChernoffConfig(xi=xi)
    d1, d2 = deviations(x, cfg)
    assert d1 == pytest.approx(brentq_lower_deviation(x, xi), rel=1e-10, abs=0.0)
    assert d2 == pytest.approx(brentq_upper_deviation(x, xi), rel=1e-10, abs=0.0)
    # Frozen values from the independent solver:
    assert chernoff_lower(x, cfg) == pytest.approx(994212.7121286959, rel=1e-10, abs=0.0)
    assert chernoff_upper(x, cfg) == pytest.approx(1005809.7028533723, rel=1e-10, abs=0.0)


def test_gaussian_regime_sanity():
    x, xi = 10**6, 1e-7
    delta, _ = deviations(x, ChernoffConfig(xi=xi))
    approx = math.sqrt(2.0 * math.log(2.0 / xi) / x)
    assert abs(delta - approx) / approx <= 0.10


@pytest.mark.parametrize("x", [1, 10, 10**3, 10**6])
def test_bounds_bracket_the_observation(x):
    assert chernoff_lower(x, CFG) < x < chernoff_upper(x, CFG)


@pytest.mark.parametrize("x", [1, 100, 10**4, 10**6, 10**9])
@pytest.mark.parametrize("xi", [1e-7, 1e-10])
def test_round_trip_recovers_failure_probability(x, xi):
    cfg = ChernoffConfig(xi=xi)
    target = math.log(xi / 2.0)
    d1, d2 = deviations(x, cfg)
    back1 = (d1 - (1 + d1) * math.log1p(d1)) * x / (1 + d1)
    back2 = (-d2 - (1 - d2) * math.log1p(-d2)) * x / (1 - d2)
    assert abs(back1 - target) <= 1e-9 * abs(target)
    assert abs(back2 - target) <= 1e-9 * abs(target)


def test_upper_bound_tightens_at_large_counts():
    assert chernoff_upper(10**10, CFG) / 10**10 < 1.0 + 1e-4


def test_smaller_failure_probability_widens_envelope():
    loose, tight = ChernoffConfig(xi=1e-5), ChernoffConfig(xi=1e-10)
    assert chernoff_lower(10**4, tight) < chernoff_lower(10**4, loose)
    assert chernoff_upper(10**4, tight) > chernoff_upper(10**4, loose)


def test_pooled_counts_dominate_split_counts():
    # Needed for the telescoping combination bounds to be valid.
    for x1, x2 in [(1, 1), (10, 10**3), (10**4, 10**6), (0, 10**2)]:
        assert chernoff_lower(x1 + x2, CFG) >= chernoff_lower(x1, CFG) + chernoff_lower(x2, CFG) - 1e-9
        assert chernoff_upper(x1 + x2, CFG) <= chernoff_upper(x1, CFG) + chernoff_upper(x2, CFG) + 1e-9


def test_single_term_reduces_to_plain_bound():
    assert combo_lower([(0.3, 1000.0)], CFG) == pytest.approx(0.3 * chernoff_lower(1000, CFG), rel=1e-14, abs=0.0)
    assert combo_upper([(0.3, 1000.0)], CFG) == pytest.approx(0.3 * chernoff_upper(1000, CFG), rel=1e-14, abs=0.0)


def test_equal_coefficients_collapse_to_pooled_bound():
    terms = [(0.2, 500.0), (0.2, 1500.0)]
    assert combo_lower(terms, CFG) == pytest.approx(0.2 * chernoff_lower(2000, CFG), rel=1e-14, abs=0.0)
    assert combo_upper(terms, CFG) == pytest.approx(0.2 * chernoff_upper(2000, CFG), rel=1e-14, abs=0.0)


def test_joint_bounds_dominate_per_term_bounds():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        coeffs = rng.uniform(0.1, 5.0, n)
        counts = np.floor(10 ** rng.uniform(0, 6, n))
        terms = list(zip(coeffs, counts))
        joint_lo = combo_lower(terms, CFG)
        split_lo = sum(c * chernoff_lower(x, CFG) for c, x in terms)
        joint_hi = combo_upper(terms, CFG)
        split_hi = sum(c * chernoff_upper(x, CFG) for c, x in terms)
        assert joint_lo >= split_lo - 1e-9 * max(split_lo, 1.0)
        assert joint_hi <= split_hi + 1e-9 * max(split_hi, 1.0)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        chernoff_lower(-1, CFG)
    with pytest.raises(ValueError):
        combo_lower([(-0.1, 10.0)], CFG)
    with pytest.raises(ValueError):
        combo_upper([(0.1, -10.0)], CFG)
    # Non-finite counts too, also where a zero coefficient leaves them out of every pooled bound.
    for count in (math.nan, math.inf):
        for cfg in (CFG, ChernoffConfig(xi=CFG.xi, disabled=True)):
            for bound in (chernoff_lower, chernoff_upper):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    bound(count, cfg)
            for combo in (combo_lower, combo_upper):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    combo([(1.0, 10.0), (0.0, count)], cfg)


@pytest.mark.parametrize("combo", [combo_lower, combo_upper])
def test_nan_coefficient_rejected(combo):
    # A NaN passes `c < 0`; in the telescope it then dropped its own term and the one sorted before it.
    for terms in ([(math.nan, 5000.0)], [(1.0, 5000.0), (math.nan, 7000.0)]):
        with pytest.raises(ValueError, match="^combination coefficients must be nonnegative, got nan$"):
            combo(terms, ChernoffConfig(xi=1e-7))


@pytest.mark.parametrize("xi", [0.0, 1.0, -1e-7, 2.0])
def test_failure_probability_outside_unit_interval_rejected(xi):
    with pytest.raises(ValueError, match="failure probability must lie in"):
        ChernoffConfig(xi=xi)


@pytest.mark.parametrize("combo", [combo_lower, combo_upper])
def test_combination_without_terms_rejected(combo):
    with pytest.raises(ValueError, match="at least one"):
        combo([], CFG)


def test_bounds_are_conservative_and_within_1e_12_of_exact_roots():
    # Both envelopes are x s at the roots of s - ln s = 1 + ln(2/xi)/x.  In
    # 50-digit arithmetic each returned s must lie on the outer side, where
    # s - ln s >= the right side, and tightening it by 1e-12 relative must
    # cross the root.  At x = 0 the upper bound is the tail ln(2/xi).
    rng = random.Random(20261018)
    cases = [(0, 1e-7), (0, 1e-300), (0, 5e-324), (0, 0.5)]
    cases += [(rng.randint(1, 10**13), 10 ** rng.uniform(-300, math.log10(0.5))) for _ in range(2000)]
    tighten = Decimal("1e-12")
    with localcontext() as ctx:
        ctx.prec = 50
        for x, xi in cases:
            cfg = ChernoffConfig(xi=xi)
            log_two_over_xi = (2 / Decimal(xi)).ln()
            lower, upper = chernoff_lower(x, cfg), chernoff_upper(x, cfg)
            if x == 0:
                assert lower == 0.0
                assert log_two_over_xi <= Decimal(upper) < log_two_over_xi * (1 + tighten), (xi, upper)
                continue
            rhs = 1 + log_two_over_xi / x
            for bound, tighter in ((lower, 1 + tighten), (upper, 1 - tighten)):
                s = Decimal(bound) / x
                assert s - s.ln() >= rhs, (x, xi, bound)
                s *= tighter
                assert s - s.ln() < rhs, (x, xi, bound)


@pytest.mark.parametrize("xi", [1e-310, 1e-315, 1e-320])
def test_lower_bound_below_the_normal_range_is_zero(xi):
    # There the outward nudge is lost to subnormal rounding, so a bound that
    # small is returned as 0, which is sound.  Checked in 60 digits.
    lower = chernoff_lower(1, ChernoffConfig(xi=xi))
    assert lower == 0.0 or lower >= sys.float_info.min
    with localcontext() as ctx:
        ctx.prec = 60
        s = Decimal(lower)
        assert s - s.ln() >= 1 + (2 / Decimal(xi)).ln(), (xi, lower)


def test_disabled_mode_collapses_envelopes():
    cfg = ChernoffConfig(xi=1e-7, disabled=True)
    counter = InvocationCounter()
    assert chernoff_lower(123, cfg, counter) == 123.0
    assert chernoff_upper(123, cfg, counter) == 123.0
    assert combo_lower([(2.0, 10.0), (1.0, 5.0)], cfg, counter) == pytest.approx(25.0, rel=1e-15, abs=0.0)
    assert counter.count == 0  # no statistical claims consumed


def test_invocation_counter_tracks_uses():
    counter = InvocationCounter()
    chernoff_lower(10, CFG, counter)
    chernoff_upper(10, CFG, counter)
    combo_lower([(2.0, 10.0), (1.0, 5.0)], CFG, counter)  # two distinct levels
    assert counter.count == 4
