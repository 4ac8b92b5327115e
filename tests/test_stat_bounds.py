import dataclasses
import math
import random
import sys
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from mdiqkd import (
    ChernoffConfig,
    chernoff_lower,
    chernoff_upper,
    combo_group,
    combo_lower,
    combo_upper,
)
from mdiqkd import stat_bounds

from .oracles import (
    brentq_lower_deviation,
    brentq_upper_deviation,
    counted_chernoff_solves,
    decimal_chernoff,
    decimal_telescope,
)

CFG = ChernoffConfig(xi=1e-7)


def joint(combo, terms, cfg) -> float:
    """``combo`` of ``(coefficient, count)`` terms, through a group keyed by each term's position."""
    return combo(combo_group([(c, i) for i, (c, _) in enumerate(terms)]), [x for _, x in terms], cfg)


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
    assert joint(combo_lower, [(0.3, 1000.0)], CFG) == pytest.approx(0.3 * chernoff_lower(1000, CFG), rel=1e-14, abs=0.0)
    assert joint(combo_upper, [(0.3, 1000.0)], CFG) == pytest.approx(0.3 * chernoff_upper(1000, CFG), rel=1e-14, abs=0.0)


def test_equal_coefficients_collapse_to_pooled_bound():
    terms = [(0.2, 500.0), (0.2, 1500.0)]
    assert joint(combo_lower, terms, CFG) == pytest.approx(0.2 * chernoff_lower(2000, CFG), rel=1e-14, abs=0.0)
    assert joint(combo_upper, terms, CFG) == pytest.approx(0.2 * chernoff_upper(2000, CFG), rel=1e-14, abs=0.0)


def test_joint_bounds_dominate_per_term_bounds():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        coeffs = rng.uniform(0.1, 5.0, n)
        counts = np.floor(10 ** rng.uniform(0, 6, n))
        terms = list(zip(coeffs, counts))
        joint_lo = joint(combo_lower, terms, CFG)
        split_lo = sum(c * chernoff_lower(x, CFG) for c, x in terms)
        joint_hi = joint(combo_upper, terms, CFG)
        split_hi = sum(c * chernoff_upper(x, CFG) for c, x in terms)
        assert joint_lo >= split_lo - 1e-9 * max(split_lo, 1.0)
        assert joint_hi <= split_hi + 1e-9 * max(split_hi, 1.0)


def test_group_levels_are_sorted_pooled_and_weighted_once():
    # Stable descending order; ties share a level; a zero coefficient joins none.
    group = combo_group([(1.0, "a"), (0.0, "b"), (2.0, "c"), (1, "d")])
    assert group.terms == ((1.0, "a"), (0.0, "b"), (2.0, "c"), (1.0, "d"))
    assert type(group.terms[3][0]) is float
    assert group.levels == ((1.0, ("c",)), (1.0, ("a", "d")))
    assert combo_group([(0.0, "a"), (-0.0, "b")]).levels == ()
    assert combo_lower(combo_group([(0.0, "a")]), {"a": 5}, CFG) == 0.0


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        chernoff_lower(-1, CFG)
    # A coefficient is refused when its group is built, before any count is seen.
    for c in (-0.1, -math.inf):
        with pytest.raises(ValueError, match=f"^combination coefficients must be nonnegative, got {c}$"):
            combo_group([(1.0, "a"), (c, "b")])
    with pytest.raises(ValueError):
        joint(combo_upper, [(0.1, -10.0)], CFG)
    # Non-finite counts too, also where a zero coefficient leaves them out of every pooled bound.
    for count in (math.nan, math.inf):
        for cfg in (CFG, ChernoffConfig(xi=CFG.xi, disabled=True)):
            for bound in (chernoff_lower, chernoff_upper):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    bound(count, cfg)
            for combo in (combo_lower, combo_upper):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    joint(combo, [(1.0, 10.0), (0.0, count)], cfg)


@pytest.mark.parametrize("combo", [combo_lower, combo_upper])
def test_nan_coefficient_rejected(combo):
    # A NaN passes `c < 0`; in the telescope it then dropped its own term and the one sorted before it.
    for terms in ([(math.nan, 5000.0)], [(1.0, 5000.0), (math.nan, 7000.0)]):
        with pytest.raises(ValueError, match="^combination coefficients must be nonnegative, got nan$"):
            joint(combo, terms, ChernoffConfig(xi=1e-7))


@pytest.mark.parametrize("disabled", [False, True])
@pytest.mark.parametrize("combo", [combo_lower, combo_upper])
def test_bad_count_refused_at_each_call_naming_the_first_in_the_order_given(combo, disabled):
    # "c" sorts first in the telescope and "b" joins no level, but "b" comes first in the order given.
    group = combo_group([(1.0, "a"), (0.0, "b"), (2.0, "c")])
    cfg = ChernoffConfig(xi=1e-7, disabled=disabled)
    for bad, worse in ((math.nan, -1.0), (math.inf, math.nan), (-1.0, math.inf), (-5, -1)):
        with counted_chernoff_solves() as counter:
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^observed counts must be finite and nonnegative, got {bad}$"):
                    combo(group, {"a": 10, "b": bad, "c": worse}, cfg)
        assert counter.count == 0  # refused before any bound is solved
    assert combo(group, {"a": 10, "b": 0, "c": 3}, cfg) > 0.0


@pytest.mark.parametrize("xi", [0.0, 1.0, -1e-7, 2.0])
def test_failure_probability_outside_unit_interval_rejected(xi):
    with pytest.raises(ValueError, match="failure probability must lie in"):
        ChernoffConfig(xi=xi)


@pytest.mark.parametrize("combo", [combo_lower, combo_upper])
def test_combination_without_terms_rejected(combo):
    # Refused when the group is built, so no call sees it.
    for empty in ([], iter(())):
        with pytest.raises(ValueError, match="^at least one"):
            combo(combo_group(empty), [], CFG)


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
    with counted_chernoff_solves() as counter:
        assert stat_bounds.chernoff_lower(123, cfg) == 123.0
        assert stat_bounds.chernoff_upper(123, cfg) == 123.0
        assert joint(combo_lower, [(2.0, 10.0), (1.0, 5.0)], cfg) == pytest.approx(25.0, rel=1e-15, abs=0.0)
    assert counter.count == 0  # no statistical claims consumed


# Coefficients drawn from a few fixed values tie often, zero among them.
_COEFFICIENTS = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]), st.floats(0.0, 1e6))
_COUNTS = st.one_of(st.integers(0, 10**13), st.floats(0.0, 1e13))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    terms=st.lists(st.tuples(_COEFFICIENTS, _COUNTS), min_size=1, max_size=4),
    xi=st.floats(1e-300, 0.5),
    disabled=st.booleans(),
)
def test_built_groups_match_the_decimal_telescope(terms, xi, disabled):
    # Each level's bound lies within twice its margin, 2^-49 (2 + |t|), of the
    # exact one (module docstring).  |t| < 760 wherever a bound is not below
    # the smallest normal float, where a lower bound is 0, and so within
    # 1.4e-12.  The weights and pooled counts round by a few u.
    cfg = ChernoffConfig(xi=xi, disabled=disabled)
    group = combo_group([(c, i) for i, (c, _) in enumerate(terms)])
    counts = [x for _, x in terms]
    exact_terms = [(Decimal(c), Decimal(x)) for c, x in terms]
    for combo, upper in ((combo_lower, False), (combo_upper, True)):
        exact = float(decimal_telescope(exact_terms, (lambda x: x) if disabled else lambda x: decimal_chernoff(x, xi, upper)))
        with counted_chernoff_solves() as counter:
            assert abs(combo(group, counts, cfg) - exact) <= 1.4e-12 * exact + max(c for c, _ in terms) * sys.float_info.min
        assert counter.count == (0 if disabled else len(group.levels))


def _first_count(above, lo: int) -> int:
    """The least integer count from ``lo`` up where the nondecreasing ``above(k)`` holds; false at ``lo``."""
    step = 1
    while not above(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("xi", [1e-7, 1e-3, 0.05, 0.5])
def test_each_envelope_misses_a_poisson_mean_with_probability_at_most_half_xi(xi):
    # Exact coverage of X ~ Poisson(mu): both envelopes grow with the count, so
    # each misses mu exactly beyond one threshold count, found by bisection.
    # The lower envelope misses where chernoff_lower(X) > mu, the upper where
    # chernoff_upper(X) < mu.  Measured worst cases over these 400 means: the
    # lower side at most 0.14 xi, at means near 1, and the upper at most 0.48 xi,
    # at means 1.4-17 and xi = 0.5.
    cfg = ChernoffConfig(xi=xi)
    means = np.geomspace(0.5, 1e7, 400)
    first_above = [_first_count(lambda k: chernoff_lower(k, cfg) > mu, math.floor(mu)) for mu in means]
    lower_miss = poisson.sf(np.array(first_above) - 1, means)
    # No count is below the mean where even chernoff_upper(0) = ln(2/xi) is not.
    last_below = [
        _first_count(lambda k: chernoff_upper(k, cfg) >= mu, 0) - 1 if chernoff_upper(0, cfg) < mu else -1 for mu in means
    ]
    upper_miss = poisson.cdf(np.array(last_below), means)
    assert lower_miss.max() <= xi / 2.0, means[lower_miss.argmax()]
    assert upper_miss.max() <= xi / 2.0, means[upper_miss.argmax()]


_CUT_OFFS = (stat_bounds._HALLEY_FROM, stat_bounds._NEWTON_FROM)


@pytest.mark.parametrize("xi", [0.5, 1e-3, 1e-7, 1e-300])
def test_bounds_do_not_decrease_as_the_count_grows_across_each_cut_off(xi):
    # The root's method changes where eps = ln(2/xi) / x crosses a cut-off, so
    # a window of counts around each, and random counts, each against the next.
    cfg = ChernoffConfig(xi=xi)
    counts = set()
    for cut_off in _CUT_OFFS:
        middle = round(cfg._log_two_over_xi / cut_off)
        counts.update(range(max(0, middle - 200), middle + 200))
    rng = random.Random(20261020)
    counts.update(rng.randint(1, 10**14) for _ in range(1000))
    for x in counts:
        assert chernoff_lower(x, cfg) <= chernoff_lower(x + 1, cfg), x
        assert chernoff_upper(x, cfg) <= chernoff_upper(x + 1, cfg), x


def test_bounds_lie_outside_the_exact_roots_in_each_eps_range_and_at_each_cut_off():
    # In 50 digits, against ln(2/xi) of the float xi: s - ln s falls below 1 and
    # rises above it, so a bound x s lies outside its root exactly where
    # s - ln s >= 1 + ln(2/xi) / x.  Counts x = ln(2/xi) / eps at eps drawn
    # log-uniformly in each range (series, series and Halley step, Newton), and
    # the integer counts within 20 of each cut-off, at each xi: over 20,000 in all.
    ranges = ((1e-16, _CUT_OFFS[0]), _CUT_OFFS, (_CUT_OFFS[1], 1e4))
    rng = random.Random(20261020)
    with localcontext() as ctx:
        ctx.prec = 50
        checked = 0
        for xi in (0.5, 0.05, 1e-3, 1e-7, 1e-10, 1e-20, 1e-50, 1e-100, 1e-300):
            cfg = ChernoffConfig(xi=xi)
            log_two_over_xi = (2 / Decimal(xi)).ln()
            counts = [cfg._log_two_over_xi / (lo * (hi / lo) ** rng.random()) for lo, hi in ranges for _ in range(740)]
            for cut_off in _CUT_OFFS:
                middle = round(cfg._log_two_over_xi / cut_off)
                counts += range(max(1, middle - 20), middle + 21)
            for x in counts:
                rhs = 1 + log_two_over_xi / Decimal(x)
                for bound in (chernoff_lower(x, cfg), chernoff_upper(x, cfg)):
                    s = Decimal(bound) / Decimal(x)
                    assert s - s.ln() >= rhs, (x, xi, bound)
                checked += 1
    assert checked > 20_000


_XI = ChernoffConfig(xi=1e-10)
_L = _XI._log_two_over_xi


def _excess(t: float) -> Decimal:
    """``expm1(t) - t`` in 50 digits; infinite at an infinite ``t``, as its limit is on either side."""
    if math.isinf(t):
        return Decimal("Infinity")
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal(t).exp() - 1 - Decimal(t)


# Newton runs only where eps = ln(2/xi) / x >= stat_bounds._NEWTON_FROM = 1/2.
# The counts give an infinite eps, eps of 8, 1/2 and ln(2/xi); the last two
# take the branch-point series, and no Newton start.
@pytest.mark.parametrize("x", [5e-324, _L / 8.0, 2.0 * _L, 1.0, 1e6, 1e300])
@pytest.mark.parametrize("bound", ["lower", "upper"])
def test_chernoff_newton_starts_lie_outside_their_roots(monkeypatch, bound, x):
    # _log_root's margin holds only from a start t0 outside the root of the
    # convex f(t) = expm1(t) - t = eps on the bound's side of zero: there f(t0) >= eps.
    starts = []
    honest = stat_bounds._log_root

    def log_root(eps, t):
        starts.append((eps, t))
        return honest(eps, t)

    monkeypatch.setattr(stat_bounds, "_log_root", log_root)
    getattr(stat_bounds, f"chernoff_{bound}")(x, _XI)
    if _L / x < stat_bounds._NEWTON_FROM:
        assert starts == []
        return
    [(eps, t)] = starts
    assert t < 0.0 if bound == "lower" else t > 0.0
    assert _excess(t) >= Decimal(eps), (eps, t)


# --- small counts solved once per configuration ----------------------------------------


def _newton_counts(cfg: ChernoffConfig) -> int:
    """``floor(2 ln(2/xi))``: the most integer counts with ``eps = ln(2/xi)/x`` at or above ``_NEWTON_FROM``."""
    return math.floor(cfg._log_two_over_xi / stat_bounds._NEWTON_FROM)


@pytest.mark.parametrize("xi", [1e-7, 1e-3, 0.05, 0.5])
def test_each_small_integer_count_is_solved_once_with_the_bits_of_a_fresh_solve(monkeypatch, xi):
    # Every integer count up to 3 past the Newton range, on each side: the
    # first call, a repeat and the count as a float each give the bits of a
    # solve on a configuration that has solved nothing, and only the first
    # call reaches Newton's method.
    solves = []
    honest = stat_bounds._log_root
    monkeypatch.setattr(stat_bounds, "_log_root", lambda eps, t: solves.append(eps) or honest(eps, t))
    cfg = ChernoffConfig(xi=xi)
    kept = _newton_counts(cfg)
    for bound in (chernoff_lower, chernoff_upper):
        for k in range(1, kept + 4):
            fresh = float.hex(bound(k, ChernoffConfig(xi=xi)))
            del solves[:]
            first = float.hex(bound(k, cfg))
            solved = len(solves)
            assert (first, float.hex(bound(k, cfg)), float.hex(bound(float(k), cfg))) == (fresh,) * 3, (bound, k)
            assert len(solves) == solved <= 1, (bound, k)
    assert 1 <= len(cfg._lower_solved) <= kept and 1 <= len(cfg._upper_solved) <= kept
    assert all(type(v) is float for v in [*cfg._lower_solved.values(), *cfg._upper_solved.values()])


@pytest.mark.parametrize("xi", [1e-7, 1e-3, 0.05, 0.5])
def test_a_full_pass_keeps_at_most_the_newton_counts(xi):
    cfg = ChernoffConfig(xi=xi)
    for k in range(0, 4 * _newton_counts(cfg) + 10):
        chernoff_lower(k, cfg)
        chernoff_upper(k, cfg)
    assert len(cfg._lower_solved) <= _newton_counts(cfg) and len(cfg._upper_solved) <= _newton_counts(cfg)


def test_a_count_that_is_not_an_integer_keeps_nothing():
    cfg = ChernoffConfig(xi=1e-7)
    for k in (1, 5, 33):
        chernoff_lower(k, cfg)
        chernoff_upper(k, cfg)
    kept = dict(cfg._lower_solved), dict(cfg._upper_solved)
    # Counts in the Newton range that are not integers, below the normal range
    # included, a zero count, and the configuration switched off.
    for x in (0.5, 2.5, 7.25, 33.000001, 1e-300, 5e-324, 0, 0.0):
        chernoff_lower(x, cfg)
        chernoff_upper(x, cfg)
    for k in (1, 5, 33):
        chernoff_lower(k, dataclasses.replace(cfg, disabled=True))
    assert (cfg._lower_solved, cfg._upper_solved) == kept


def test_solved_counts_change_neither_equality_hash_nor_repr():
    used, fresh = ChernoffConfig(xi=1e-7), ChernoffConfig(xi=1e-7)
    before = hash(used), repr(used)
    for k in range(1, 40):
        chernoff_lower(k, used)
        chernoff_upper(k, used)
    assert used._lower_solved and used._upper_solved
    assert used == fresh and (hash(used), repr(used)) == before == (hash(fresh), repr(fresh))
    copy = dataclasses.replace(used)
    assert copy == used and copy._lower_solved == {} and copy._upper_solved == {}


def test_threads_sharing_a_configuration_read_the_bits_of_a_serial_pass():
    # More threads than cores, switching often, each bounding every count of
    # the Newton range on both sides, half of them from the top down; every
    # result and the kept dicts must equal those of one serial pass on a
    # configuration of its own.
    xi, counts = 1e-7, range(1, 40)
    serial = ChernoffConfig(xi=xi)
    expected = [(float.hex(chernoff_lower(k, serial)), float.hex(chernoff_upper(k, serial))) for k in counts]
    shared = ChernoffConfig(xi=xi)
    results: list[list[tuple[str, str]]] = []

    def work(order):
        seen = {k: (float.hex(chernoff_lower(k, shared)), float.hex(chernoff_upper(k, shared))) for k in order}
        results.append([seen[k] for k in counts])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(counts[:: 1 if i % 2 else -1],)) for i in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
    assert (shared._lower_solved, shared._upper_solved) == (serial._lower_solved, serial._upper_solved)


# --- counts too small for Newton's upper start ------------------------------------------


def _decimal_upper_root(x: float, xi: float) -> Decimal:
    """``x s`` at the root ``s > 1`` of ``s - ln s = 1 + ln(2/xi)/x``, in the current context.

    From ``s = 1 + eps`` below it, ``s <- 1 + eps + ln s`` rises to the root,
    by a factor ``1/s`` of the distance at each step.
    """
    eps = (2 / Decimal(xi)).ln() / Decimal(x)
    s = 1 + eps
    for _ in range(60):
        s = 1 + eps + s.ln()
    return Decimal(x) * s


@pytest.mark.parametrize("xi", [1e-7, 1e-300])
def test_upper_bound_of_a_count_too_small_for_newton_is_finite_and_sound(xi):
    # Below 2 ln(2/xi) / DBL_MAX the Newton start ln(2 (1 + eps)) overflows,
    # and below ln(2/xi) / DBL_MAX eps itself; those counts take the
    # zero-count tail, at or above the 50-digit root, and no larger count
    # falls below it.  (Far below a count of 1 the bound need not grow with
    # the count: its margin 2^-50 (2 + ln s) shrinks as ln s does, by more than
    # the root grows, so 1e-300 gets a bound 1e-13 relative above 1e-250's.)
    cfg = ChernoffConfig(xi=xi)
    tiny = [5e-324, 1e-320, 1e-310, 1e-307, 1e-306, 1e-300]
    uppers = [chernoff_upper(x, cfg) for x in tiny]
    assert all(math.isfinite(u) for u in uppers), uppers
    with localcontext() as ctx:
        ctx.prec = 50
        for x, upper in zip(tiny, uppers):
            assert Decimal(upper) >= _decimal_upper_root(x, xi), (x, upper)
    tail = chernoff_upper(0.0, cfg)
    assert all(tail <= chernoff_upper(x, cfg) for x in [*tiny, 1e-250, 1e-100, 1e-10, 1.0])
    assert chernoff_upper(5e-324, cfg) == tail
