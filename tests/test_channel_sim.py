import math
import sys
import threading
from dataclasses import replace
from decimal import Context, Decimal, localcontext
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import i0

from mdiqkd import (
    ChannelParams,
    SideSources,
    SourceEnsemble,
    build_observables,
    monte_carlo_yield,
    pair_yield,
    side_transmittance,
    validate_model,
)
from mdiqkd import channel_sim, source_model
from mdiqkd.channel_sim import PairObservables, _i0m1

from .oracles import (
    DETECTORS,
    announced_error,
    contract_weights,
    detector_intensities,
    full_observables,
    quadrature_yield,
    single_photon_pair_truth,
    trial_by_trial_chunk_counts,
    vacuum_error_component,
    write_observables_csv,
)
from .test_keyrate_core import _random_side

DATA_DIR = Path(__file__).parent / "data"


def test_transmittance_at_zero_distance_is_detector_efficiency():
    params = ChannelParams(distance_km=0.0)
    assert side_transmittance(params) == params.eta_d


def test_i0m1_series_matches_bessel_oracle_at_large_argument():
    # Below 0.5 the series is what the gains use; above it, where direct
    # subtraction no longer cancels, it must still agree with a library I0.
    for z in np.linspace(0.5, 700.0, 2001):
        assert _i0m1(float(z)) == pytest.approx(float(i0(z)) - 1.0, rel=1e-12, abs=0.0)


def test_i0m1_keeps_relative_precision_at_tiny_argument():
    # I0(z) - 1 = z^2/4 (1 + z^2/16 + ...); no tolerance on the terms cuts it to 0.
    assert _i0m1(1e-11) == pytest.approx(2.5e-23, rel=1e-15, abs=0.0)


def _i0m1_series(z: float) -> Decimal:
    """``I0(z) - 1 = sum_{m >= 1} (z^2/4)^m / (m!)^2`` in 50-digit decimal arithmetic, summed until a term is below 1e-50 of the sum."""
    with localcontext(Context(prec=50)):
        q = Decimal(z) ** 2 / 4
        term = total = q
        m = 1
        while term > total * Decimal("1e-50"):
            m += 1
            term *= q / (m * m)
            total += term
        return total


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.floats(-720.0, 720.0) | st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(1e-162)
@example(1.5e-162)
@example(sys.float_info.min)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_i0m1_is_the_power_series_of_i0_less_one(z):
    # Term m is formed by m - 1 products and quotients, about 3m u, and the
    # terms that weigh most have m near |z|/2; each addition adds u.  So the
    # sum of positive terms lies within about 4 + 2|z| ulps.  I0 rises with
    # |z|, and I0(720) - 1 exceeds the largest float, so past 720 it is inf.
    value = _i0m1(z)
    if not z * z / 4.0 > 0.0:
        # The documented edge rule: 0 where the first term is zero or NaN.
        assert float.hex(value) == float.hex(0.0)
        return
    expected = float(_i0m1_series(min(abs(z), 720.0)))
    if expected == math.inf:
        assert value == math.inf
    else:
        assert abs(value - expected) <= (4.0 + 2.0 * abs(z)) * math.ulp(expected), (z, value, expected)


def test_transmittance_exact_arithmetic():
    params = ChannelParams(alpha_f=0.2, eta_d=0.145, distance_km=100.0)
    assert side_transmittance(params) == pytest.approx(0.0145, rel=1e-12, abs=0.0)
    params = ChannelParams(alpha_f=0.2, eta_d=0.4, distance_km=50.0)
    assert side_transmittance(params) == pytest.approx(0.4 * 10 ** (-0.5), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_no_light_no_dark_counts_means_no_gain(basis):
    params = ChannelParams(p_d=0.0)
    q, eq = pair_yield(0.0, 0.0, basis, params)
    assert q == 0.0 and eq == 0.0


def test_dark_counts_alone_are_uncorrelated():
    params = ChannelParams(p_d=1e-5)
    q, eq = pair_yield(0.0, 0.0, "X", params)
    assert q > 0.0
    assert eq / q == pytest.approx(0.5, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_error_ratio_tends_to_one_half_at_vanishing_intensity(basis):
    params = ChannelParams(p_d=6.02e-6)
    q, eq = pair_yield(1e-9, 1e-9, basis, params)
    assert eq / q == pytest.approx(0.5, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("distance", [-1.0, -1e-300, -1, math.nan, math.inf, -math.inf])
def test_at_distance_rejects_what_the_constructor_rejects(distance):
    with pytest.raises(ValueError) as built:
        ChannelParams(eta_d=0.3, distance_km=distance)
    with pytest.raises(ValueError) as moved:
        ChannelParams(eta_d=0.3, distance_km=40.0).at_distance(distance)
    assert str(moved.value) == str(built.value)


@pytest.mark.parametrize("distance", [0, 0.0, -0.0, 7.5, 25, 150.0, 1e300])
def test_at_distance_equals_replace(distance):
    params = ChannelParams(eta_d=0.3, alpha_f=0.17, p_d=1e-5, distance_km=40.0)
    moved, replaced = params.at_distance(distance), replace(params, distance_km=distance)
    # vars() holds the fields and the transmittance pair_yield reads.
    assert moved == replaced and vars(moved) == vars(replaced)
    assert type(moved.distance_km) is type(distance) and params.distance_km == 40.0
    assert side_transmittance(moved).hex() == side_transmittance(replaced).hex()
    for basis in ("X", "Z"):
        assert pair_yield(0.3, 0.2, basis, moved) == pair_yield(0.3, 0.2, basis, replaced)


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_yields_decrease_with_distance(basis):
    qs, eqs = [], []
    for distance in (0.0, 25.0, 50.0, 100.0):
        q, eq = pair_yield(0.2, 0.2, basis, ChannelParams(distance_km=distance))
        assert eq <= q
        qs.append(q)
        eqs.append(eq)
    assert all(a > b for a, b in zip(qs, qs[1:]))
    assert all(a >= b for a, b in zip(eqs, eqs[1:]))


def test_monte_carlo_is_deterministic():
    params = ChannelParams(distance_km=10.0)
    a = monte_carlo_yield(0.1, 0.1, "X", params, trials=50_000, seed=7)
    b = monte_carlo_yield(0.1, 0.1, "X", params, trials=50_000, seed=7)
    assert (a.successes, a.errors) == (b.successes, b.errors)
    c = monte_carlo_yield(0.1, 0.1, "X", params, trials=50_000, seed=8)
    assert (a.successes, a.errors) != (c.successes, c.errors)


# (successes, errors) recorded from the threshold-click kernel, which draws
# a phase and one uniform per detector only for the trials with two or more
# candidate detectors.
# Any change to the draws, their order or the classification moves these
# counts; test_golden_counts_agree_with_the_closed_form checks them against
# the closed-form gains, which share no draw with them.
MONTE_CARLO_GOLDEN = [
    # id, mu_a, mu_b, basis, ChannelParams overrides, trials, seed, successes, errors
    ("x-equal", 0.3, 0.3, "X", {"distance_km": 10.0, "p_d": 1e-3}, 20_000, 7, 27, 11),
    ("z-equal", 0.3, 0.3, "Z", {"distance_km": 10.0, "p_d": 1e-3}, 20_000, 7, 12, 1),
    ("x-unequal", 0.5, 0.2, "X", {"p_d": 1e-2}, 20_000, 11, 95, 38),
    ("z-unequal", 0.5, 0.35, "Z", {"p_d": 1e-2}, 20_000, 11, 78, 21),
    ("x-zero-intensity", 0.0, 0.0, "X", {"p_d": 0.05}, 20_000, 3, 178, 89),
    ("z-zero-intensity", 0.0, 0.0, "Z", {"p_d": 0.05}, 20_000, 3, 178, 86),
    ("z-one-side-dark", 0.4, 0.0, "Z", {"p_d": 0.05}, 20_000, 5, 230, 108),
    ("x-ed-0", 0.4, 0.4, "X", {"e_d": 0.0, "p_d": 0.02}, 20_000, 13, 153, 64),
    ("z-ed-1", 0.4, 0.28, "Z", {"e_d": 1.0, "p_d": 0.02}, 20_000, 13, 103, 57),
    ("x-pd-0", 0.6, 0.6, "X", {"p_d": 0.0, "e_d": 0.1}, 20_000, 17, 136, 50),
    ("z-pd-0", 0.6, 0.42, "Z", {"p_d": 0.0, "e_d": 0.1}, 20_000, 17, 32, 3),
    ("x-all-patterns", 1.5, 0.9, "X", {"eta_d": 1.0, "p_d": 0.2}, 20_000, 29, 6483, 1884),
    ("z-all-patterns", 1.5, 0.9, "Z", {"eta_d": 1.0, "p_d": 0.2}, 20_000, 29, 4041, 1731),
    ("x-trials-1", 2.0, 2.0, "X", {"eta_d": 1.0, "p_d": 0.3}, 1, 19, 0, 0),
    ("z-trials-1", 2.0, 2.0, "Z", {"eta_d": 1.0, "p_d": 0.3}, 1, 19, 0, 0),
    # At trial counts on, just past and just short of multiples of 16384,
    # the kernel's block size.  Its blocks hold drawn trials only, whose
    # count is drawn; _CONTRACT_CELLS puts drawn counts on the block boundaries.
    ("x-block16k-minus-one", 0.6, 0.45, "X", {"eta_d": 0.7, "p_d": 0.03}, 16384 - 1, 47, 1755, 534),
    ("z-block16k-minus-one", 0.6, 0.45, "Z", {"eta_d": 0.7, "p_d": 0.03}, 16384 - 1, 47, 1017, 258),
    ("x-block16k-multiple", 1.2, 1.2, "X", {"distance_km": 20.0, "p_d": 0.1}, 2 * 16384, 53, 2073, 1001),
    ("z-block16k-multiple", 1.2, 1.2, "Z", {"distance_km": 20.0, "p_d": 0.1}, 2 * 16384, 53, 1954, 964),
    ("x-block16k-plus-one", 0.3, 0.9, "X", {"p_d": 0.01, "e_d": 0.05}, 2 * 16384 + 1, 59, 330, 118),
    ("z-block16k-plus-one", 0.3, 0.9, "Z", {"p_d": 0.01, "e_d": 0.05}, 2 * 16384 + 1, 59, 181, 55),
    # The same around multiples of 8192, half the block size, where a
    # chunk's draws end inside a block.  The last six cases also run at
    # other block sizes below.
    ("x-block-multiple", 1.5, 0.9, "X", {"eta_d": 1.0, "p_d": 0.2}, 3 * 8192, 37, 8054, 2375),
    ("z-block-multiple", 1.5, 0.9, "Z", {"eta_d": 1.0, "p_d": 0.2}, 3 * 8192, 37, 5034, 2207),
    ("x-block-plus-one", 0.5, 0.35, "X", {"distance_km": 5.0, "p_d": 1e-2}, 3 * 8192 + 1, 41, 134, 41),
    ("z-block-plus-one", 0.5, 0.35, "Z", {"distance_km": 5.0, "p_d": 1e-2}, 3 * 8192 + 1, 41, 103, 26),
    ("x-block-minus-one", 0.8, 0.8, "X", {"eta_d": 0.5, "p_d": 0.05}, 8192 - 1, 43, 1091, 359),
    ("z-block-minus-one", 0.8, 0.8, "Z", {"eta_d": 0.5, "p_d": 0.05}, 8192 - 1, 43, 684, 196),
]


@pytest.mark.parametrize(
    "mu_a, mu_b, basis, overrides, trials, seed, successes, errors",
    [pytest.param(*case[1:], id=case[0]) for case in MONTE_CARLO_GOLDEN],
)
def test_monte_carlo_counts_match_golden(mu_a, mu_b, basis, overrides, trials, seed, successes, errors):
    result = monte_carlo_yield(mu_a, mu_b, basis, ChannelParams(**overrides), trials=trials, seed=seed)
    assert (result.successes, result.errors) == (successes, errors)


@pytest.mark.parametrize(
    "mu_a, mu_b, basis, overrides, trials, successes, errors",
    [pytest.param(*case[1:6], *case[7:], id=case[0]) for case in MONTE_CARLO_GOLDEN if case[5] >= 8191],
)
def test_golden_counts_agree_with_the_closed_form(mu_a, mu_b, basis, overrides, trials, successes, errors):
    # A stream-independent check of the recorded counts: each lies within 4
    # binomial standard deviations of the closed-form expectation.
    q, eq = pair_yield(mu_a, mu_b, basis, ChannelParams(**overrides))
    for count, p in ((successes, q), (errors, eq)):
        assert abs(count - p * trials) <= 4.0 * math.sqrt(p * (1.0 - p) * trials), (count, p * trials)


@pytest.mark.parametrize("basis", ["X", "Z"])
@pytest.mark.parametrize("mu, seed", [(0.0, 1), (0.3, 2), (5.0, 3)])
def test_every_detector_clicking_gives_no_success(basis, mu, seed):
    # At p_d = 1 all four detectors click in every trial, and four clicks are
    # never an accepted coincidence.
    result = monte_carlo_yield(mu, mu, basis, ChannelParams(p_d=1.0), trials=20_000, seed=seed)
    assert (result.successes, result.errors) == (0, 0)


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_intensity_table_matches_beam_splitter_amplitudes(basis):
    # Exact, unlike the statistical count tests: every row of the kernel's
    # table against the optics, to 1e-15 of the total intensity (an entry
    # can cancel to near zero, where a relative bound would not hold).
    for ea, eb in ((0.3, 0.3), (0.7, 0.05), (0.0, 0.4), (1.3, 2.9)):
        offset, slope = channel_sim._intensity_table(basis, ea, eb)
        for phi, (bit_a, bit_b) in product(np.linspace(0.0, 2.0 * np.pi, 13), product((0, 1), repeat=2)):
            pattern = 2 * bit_a + bit_b
            kernel = offset[pattern] + slope[pattern] * math.cos(phi)
            expected = detector_intensities(basis, bit_a, bit_b, ea, eb, float(phi))
            assert kernel.tolist() == pytest.approx(expected, rel=1e-15, abs=1e-15 * (ea + eb)), (ea, eb, phi, pattern)


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_no_click_floor_lies_below_every_no_click_probability(basis):
    # The kernel's own float operations for each row of the table, over a
    # phase grid whose cosine reaches 1 and -1 exactly.
    cos_phi = np.cos(np.append(np.linspace(0.0, 2.0 * np.pi, 2001), np.pi))
    assert cos_phi.max() == 1.0 and cos_phi.min() == -1.0
    # The last two reach subnormal and underflowing no-click probabilities.
    intensities = ((0.0, 0.0), (1e-7, 3e-6), (0.07, 0.07), (0.7, 0.05), (0.0, 0.4), (1.3, 2.9), (5.0, 5.0), (730.0, 725.0), (1500.0, 3.0))
    for (ea, eb), p_d in product(intensities, (0.0, 6.02e-6, 0.2, 1.0)):
        offset, slope = channel_sim._intensity_table(basis, ea, eb)
        keep = 1.0 - p_d
        floor = channel_sim._no_click_floor(offset, slope, keep)
        for pattern in range(4):
            lam = offset[pattern] + slope[pattern] * cos_phi[:, None]
            no_click = np.exp(np.negative(lam)) * keep
            assert (floor[pattern] <= no_click).all(), (ea, eb, p_d, pattern)
            assert (floor[pattern] < no_click)[no_click > 0].all(), (ea, eb, p_d, pattern)


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_contract_weights_sum_to_one(basis):
    # The 24 categories of two or more candidates and the remainder of at
    # most one partition each pattern's trials, on the floor test's grid.
    intensities = ((0.0, 0.0), (1e-7, 3e-6), (0.07, 0.07), (0.7, 0.05), (0.0, 0.4), (1.3, 2.9), (5.0, 5.0), (730.0, 725.0), (1500.0, 3.0))
    for (ea, eb), p_d in product(intensities, (0.0, 6.02e-6, 0.2, 1.0)):
        weights = contract_weights(basis, ea, eb, ChannelParams(p_d=p_d))
        assert len(weights) == 25 and min(weights) >= 0.0
        assert math.fsum(weights) == pytest.approx(1.0, rel=0.0, abs=1e-15), (ea, eb, p_d)


@pytest.mark.parametrize("basis", ["X", "Z"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    mu_a=st.floats(0.0, 5.0),
    mu_b=st.floats(0.0, 5.0),
    eta_d=st.floats(0.0, 1.0),
    distance=st.floats(0.0, 200.0),
    p_d=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(1.0)),
    seed=st.integers(0, 2**64 - 1),
    m=st.sampled_from([1, 2, 7, 1000, 16385]),
)
def test_kernel_counts_match_the_contract_run_trial_by_trial(basis, mu_a, mu_b, eta_d, distance, p_d, seed, m):
    params = ChannelParams(eta_d=eta_d, p_d=p_d, distance_km=distance)
    eta = params._transmittance
    run = lambda kernel: kernel(np.random.default_rng(seed), m, basis, eta * mu_a, eta * mu_b, params)
    assert run(channel_sim._chunk_counts) == run(trial_by_trial_chunk_counts)


# (mu_a, mu_b, channel, m): dark counts 0, 6e-6 and 1, detector efficiency 0
# and 1, unequal intensities, mu = 5, one and two trials, a cell at 60 km
# where most trials with a candidate have only one, and 16383, 16384 and
# 16385 drawn trials, once at p_d = 1, where every detector of every trial
# is a candidate and no trial succeeds, and once at mu = 40, where all but
# about 1e-30 of the trials have two or more candidates.
_CONTRACT_CELLS = [
    (0.5, 0.5, ChannelParams(), 20_000),
    (0.1, 0.1, ChannelParams(distance_km=60.0), 20_000),
    (0.7, 0.1, ChannelParams(p_d=0.0), 20_000),
    (0.3, 0.3, ChannelParams(p_d=1.0), 2_000),
    (0.4, 0.4, ChannelParams(eta_d=0.0, p_d=0.01), 20_000),
    (5.0, 5.0, ChannelParams(eta_d=1.0), 5_000),
    (0.7, 0.05, ChannelParams(eta_d=1.0, p_d=0.02), 20_000),
    (1.5, 0.9, ChannelParams(eta_d=1.0, p_d=0.2), 1),
    (1.5, 0.9, ChannelParams(eta_d=1.0, p_d=0.2), 2),
    *((0.5, 0.3, ChannelParams(p_d=1.0), m) for m in (16383, 16384, 16385)),
    *((40.0, 40.0, ChannelParams(eta_d=1.0), m) for m in (16383, 16384, 16385)),
]


@pytest.mark.parametrize("basis", ["X", "Z"])
@pytest.mark.parametrize("mu_a, mu_b, params, m", _CONTRACT_CELLS)
def test_kernel_counts_match_the_contract_on_its_edge_cells(basis, mu_a, mu_b, params, m):
    eta = params._transmittance
    run = lambda kernel: kernel(np.random.default_rng([m, 47]), m, basis, eta * mu_a, eta * mu_b, params)
    assert run(channel_sim._chunk_counts) == run(trial_by_trial_chunk_counts)


@pytest.mark.parametrize("basis", ["X", "Z"])
@pytest.mark.parametrize("ea, eb, p_d", [(1.5, 0.9, 0.2), (40.0, 40.0, 6e-6)])
@pytest.mark.parametrize("m", [1, 7, 8191, 8192, 8193, 16383, 16384, 16385, 2 * 16384 + 1])
def test_kernel_reads_the_stream_of_the_contract_calls(basis, ea, eb, p_d, m):
    # Equal counts could hide a kernel that draws more or less than the
    # listed calls: after a chunk, its generator must stand where a twin
    # stands that made those calls.  At ea = eb = 40 every trial has four
    # candidates, so the blocks of drawn trials end where m puts them.
    params = ChannelParams(p_d=p_d)
    rng, twin = np.random.default_rng(m), np.random.default_rng(m)
    successes, _ = channel_sim._chunk_counts(rng, m, basis, ea, eb, params)
    drawn = int(twin.multinomial(m, contract_weights(basis, ea, eb, params))[:24].sum())
    twin.random(drawn)
    for start in range(0, drawn, channel_sim._BLOCK_SIZE):
        twin.random((min(channel_sim._BLOCK_SIZE, drawn - start), 4))
    twin.random(successes)
    state, expected = rng.bit_generator.state, twin.bit_generator.state
    assert (state["state"], state["has_uint32"]) == (expected["state"], expected["has_uint32"])


def test_kernel_counts_agree_with_the_closed_form_from_rare_to_certain_clicks():
    # Stream-independent: cells whose share of trials with two or more
    # candidate detectors spans about 1 % to 100 %, 10^7 trials each.  Each
    # of the 24 counts lies within 4.5 binomial standard deviations of the
    # closed form, which an exact sampler misses with probability about
    # 1.6e-4 over all of them.
    cells = [
        (0.1, 0.1, ChannelParams(distance_km=60.0)),
        (0.5, 0.5, ChannelParams()),
        (0.3, 0.3, ChannelParams(distance_km=30.0, p_d=1e-3)),
        (0.0, 0.0, ChannelParams(p_d=0.05)),
        (0.7, 0.05, ChannelParams(eta_d=1.0, p_d=0.02)),
        (5.0, 5.0, ChannelParams(eta_d=1.0)),
    ]
    trials = 10_000_000
    candidate_shares = []
    for (mu_a, mu_b, params), basis in product(cells, ("X", "Z")):
        eta = params._transmittance
        candidate_shares.append(1.0 - contract_weights(basis, eta * mu_a, eta * mu_b, params)[-1])
        result = monte_carlo_yield(mu_a, mu_b, basis, params, trials=trials, seed=4747)
        q, eq = pair_yield(mu_a, mu_b, basis, params)
        for count, p in ((result.successes, q), (result.errors, eq)):
            assert abs(count - p * trials) <= 4.5 * math.sqrt(p * (1.0 - p) * trials), (mu_a, mu_b, basis, params, count, p * trials)
    assert min(candidate_shares) < 0.02 and max(candidate_shares) > 0.99, candidate_shares


def test_success_and_error_lookups_follow_the_announcement_rules():
    success, error = channel_sim._lookup_tables()
    clicks = np.array([[code >> k & 1 for k in range(4)] for code in range(16)], dtype=bool)
    assert channel_sim._click_codes(clicks).tolist() == list(range(16))  # bit k of a click code is detector k
    for code, basis, (bit_a, bit_b) in product(range(16), ("X", "Z"), product((0, 1), repeat=2)):
        clicked = {name for k, name in enumerate(DETECTORS) if code >> k & 1}
        expected = announced_error(basis, bit_a, bit_b, clicked)
        assert success[code] == (expected is not None), clicked
        if expected is not None:
            assert error[basis][16 * (2 * bit_a + bit_b) + code] == expected, (basis, bit_a, bit_b, clicked)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_random_side(), _random_side(), st.floats(0.0, 1.0), st.floats(0.0, 200.0), st.floats(0.0, 0.1), st.floats(0.0, 0.3))
def test_gains_match_the_phase_quadrature_of_the_relay_optics(alice, bob, eta_d, distance, p_d, e_d):
    # Every analysed pair of two independent sides, the unequal intensities
    # of v-x, x-v, v-y and y-v included, in both bases.  Over 20,000 random
    # channels with mu 1e-6 to 10, the 64-node quadrature met the closed form
    # to 2e-15 relative at worst, so 1e-12 leaves a margin of about 500; a
    # zero must be exact.
    params = ChannelParams(eta_d=eta_d, p_d=p_d, e_d=e_d, distance_km=distance)
    for _, _, mu_l, mu_r, _, _ in SourceEnsemble(alice=alice, bob=bob).pair_table:
        for basis in ("X", "Z"):
            expected = quadrature_yield(mu_l, mu_r, basis, params)
            assert pair_yield(mu_l, mu_r, basis, params) == pytest.approx(expected, rel=1e-12, abs=0.0), (mu_l, mu_r, basis)


def test_monte_carlo_chunking_does_not_change_results(monkeypatch):
    # Three chunks, the last one short: the counts depend on (seed, trials) only.
    monkeypatch.setattr(channel_sim, "_CHUNK_SIZE", 10_000)
    params = ChannelParams(distance_km=5.0, p_d=1e-2)
    for basis, counts in (("X", (125, 45)), ("Z", (87, 36))):
        a = monte_carlo_yield(0.5, 0.35, basis, params, trials=25_000, seed=11)
        b = monte_carlo_yield(0.5, 0.35, basis, params, trials=25_000, seed=11)
        assert (a.successes, a.errors) == (b.successes, b.errors) == counts


@pytest.mark.parametrize("block_size", [1, 7, 1000])
def test_monte_carlo_counts_do_not_depend_on_block_size(monkeypatch, block_size):
    monkeypatch.setattr(channel_sim, "_BLOCK_SIZE", block_size)
    for _, mu_a, mu_b, basis, overrides, trials, seed, successes, errors in MONTE_CARLO_GOLDEN[-6:]:
        result = monte_carlo_yield(mu_a, mu_b, basis, ChannelParams(**overrides), trials=trials, seed=seed)
        assert (result.successes, result.errors) == (successes, errors)


def test_validation_rows_do_not_depend_on_worker_count(monkeypatch):
    # Three chunks per cell, the last one short, run one after another on
    # the calling thread: a rerun gives the same rows.
    monkeypatch.setattr(channel_sim, "_CHUNK_SIZE", 10_000)
    reports = [validate_model(ChannelParams(), trials=25_000, seed=5) for _ in range(2)]
    assert reports[0] == reports[1]
    assert len(reports[0].rows) == 2 * len(channel_sim.DEFAULT_VALIDATION_GRID)


def test_chunk_seeds_are_the_spawned_children(monkeypatch):
    seen = []

    def record(rng, m, basis, ea, eb, params):
        seen.append(rng.bit_generator.seed_seq)
        return 0, 0

    monkeypatch.setattr(channel_sim, "_CHUNK_SIZE", 10)
    monkeypatch.setattr(channel_sim, "_chunk_counts", record)
    seed = 20240501
    monte_carlo_yield(0.1, 0.1, "X", ChannelParams(), trials=95, seed=seed)
    children = np.random.SeedSequence(seed).spawn(10)
    seen.sort(key=lambda child: child.spawn_key)
    assert [child.spawn_key for child in seen] == [child.spawn_key for child in children]
    for lazy, spawned in zip(seen, children):
        assert lazy.entropy == spawned.entropy
        assert np.array_equal(lazy.generate_state(8), spawned.generate_state(8))


def test_worker_error_propagates_and_threads_are_joined(monkeypatch):
    class ChunkFailure(Exception):
        pass

    failure = ChunkFailure("chunk failed")
    calls = []

    def fail(*args):
        calls.append(args)
        raise failure

    monkeypatch.setattr(channel_sim, "_CHUNK_SIZE", 1)
    monkeypatch.setattr(channel_sim, "_chunk_counts", fail)
    threads_before = threading.active_count()
    with pytest.raises(ChunkFailure) as caught:
        validate_model(ChannelParams(), trials=1000, seed=1)
    assert caught.value is failure
    assert threading.active_count() == threads_before
    # 20,000 one-trial chunks, but the first failure ends the run.
    assert len(calls) == 1


def test_validation_cells_get_their_own_counts(monkeypatch):
    # Three chunks per cell, the last one short; each cell must get its own
    # counts, those of one monte_carlo_yield call with the cell's seed.
    monkeypatch.setattr(channel_sim, "_CHUNK_SIZE", 1000)
    params, trials, seed = ChannelParams(eta_d=1.0, p_d=1e-2), 2500, 17
    grid = ((0.2, 0.0), (0.5, 20.0), (0.05, 40.0))
    seen = []
    original = channel_sim.monte_carlo_yield

    def record(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(channel_sim, "monte_carlo_yield", record)
    threads_before = threading.active_count()
    validate_model(params, trials=trials, seed=seed, grid=grid)
    assert threading.active_count() == threads_before
    expected = [
        original(mu, mu, basis, params.at_distance(distance), trials, seed + 1000 * i + j)
        for i, (mu, distance) in enumerate(grid)
        for j, basis in enumerate(("X", "Z"))
    ]
    assert threading.active_count() == threads_before
    assert [(mc.successes, mc.errors) for mc in seen] == [(mc.successes, mc.errors) for mc in expected]
    assert len(set((mc.successes, mc.errors) for mc in expected)) == len(expected)


def test_empty_validation_grid_is_rejected():
    with pytest.raises(ValueError, match="at least one"):
        validate_model(ChannelParams(), trials=100, seed=1, grid=())


@pytest.mark.parametrize(
    "trials, seed, name",
    [
        (0, 1, "trials"),
        (1e5, 1, "trials"),
        (2.5, 1, "trials"),
        ("100", 1, "trials"),
        (True, False, "trials"),
        (100, -1, "seed"),
        (100, 1.5, "seed"),
        (100, None, "seed"),
        (100, False, "seed"),
        (100, True, "seed"),
    ],
)
def test_trials_and_seed_must_be_integers_in_range(trials, seed, name):
    # Rejected before any chunk is drawn, with the argument named.
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
        monte_carlo_yield(0.1, 0.1, "X", ChannelParams(), trials=trials, seed=seed)
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
        validate_model(ChannelParams(), trials=trials, seed=seed, grid=((0.1, 0.0),))
    assert monte_carlo_yield(0.1, 0.1, "X", ChannelParams(), trials=np.int64(100), seed=np.int64(1)).trials == 100


def test_traced_functions_run_on_the_calling_thread(monkeypatch):
    # A tracer that keeps one span stack needs every public call on one
    # thread, and sees validate_model's simulation as one call per cell.
    calls = []
    for name in ("pair_yield", "monte_carlo_yield"):
        original = getattr(channel_sim, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, threading.current_thread()))
            return _original(*args, **kwargs)

        monkeypatch.setattr(channel_sim, name, wrapper)
    monkeypatch.setattr(channel_sim, "_CHUNK_SIZE", 1000)
    validate_model(ChannelParams(), trials=3000, seed=3, grid=((0.2, 0.0), (0.4, 10.0)))
    channel_sim.monte_carlo_yield(0.2, 0.2, "Z", ChannelParams(), trials=3000, seed=3)
    assert sorted(name for name, _ in calls) == ["monte_carlo_yield"] * 5 + ["pair_yield"] * 4
    assert {thread for _, thread in calls} == {threading.current_thread()}


@pytest.mark.parametrize("mu_a, mu_b", [(float("nan"), 0.1), (0.1, -0.1), (float("inf"), 0.1), (0.1, float("nan"))])
def test_bad_intensities_raise_one_clear_error(monkeypatch, mu_a, mu_b):
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was built before the intensities were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    params = ChannelParams()
    for basis in ("X", "Z"):
        with pytest.raises(ValueError, match="intensities must be finite and nonnegative"):
            pair_yield(mu_a, mu_b, basis, params)
        with pytest.raises(ValueError, match="intensities must be finite and nonnegative"):
            monte_carlo_yield(mu_a, mu_b, basis, params, trials=10, seed=1)


@pytest.mark.parametrize("basis", ["x", "Y", ""])
def test_unknown_basis_rejected(basis):
    params = ChannelParams()
    with pytest.raises(ValueError, match="basis must be 'X' or 'Z'"):
        pair_yield(0.1, 0.1, basis, params)
    with pytest.raises(ValueError, match="basis must be 'X' or 'Z'"):
        monte_carlo_yield(0.1, 0.1, basis, params, trials=10, seed=1)


def test_monte_carlo_exact_zero_without_light_or_darks():
    params = ChannelParams(p_d=0.0)
    result = monte_carlo_yield(0.0, 0.0, "X", params, trials=10_000, seed=3)
    assert result.gain == 0.0 and result.error_gain == 0.0


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_analytic_model_matches_monte_carlo(basis):
    params = ChannelParams(distance_km=50.0)
    report = validate_model(params, trials=2_000_000, seed=1234, grid=((0.1, 50.0),))
    row = next(r for r in report.rows if r.basis == basis)
    assert row.ok, row


def _entry(observables: PairObservables, pair: tuple[str, str]) -> tuple[float, int, int]:
    """``(emitted, counts, errors)`` of one pair."""
    return observables.emitted[pair], observables.counts[pair], observables.errors[pair]


def test_emitted_pairs_sum_to_total(noisy_ensemble, params_10km):
    total = sum(full_observables(noisy_ensemble, params_10km).emitted.values())
    assert total == pytest.approx(params_10km.n_pairs, rel=1e-12, abs=0.0)


def test_all_sixteen_pairs_present_with_bases(noisy_ensemble, params_10km, observables_10km):
    # The package builds the eight pairs the analysis reads, each equal to
    # its entry in the full sixteen-pair table.
    full = full_observables(noisy_ensemble, params_10km)
    assert len(full.emitted) == len(full.counts) == len(full.errors) == 16
    analysed = [("v", "v"), ("v", "x"), ("x", "v"), ("x", "x"), ("v", "y"), ("y", "v"), ("y", "y"), ("z", "z")]
    for table in (observables_10km.emitted, observables_10km.counts, observables_10km.errors):
        assert list(table) == analysed
    for pair in analysed:
        assert _entry(observables_10km, pair) == _entry(full, pair)


def test_a_distance_builds_its_own_emissions_and_counts(noisy_ensemble, noisy_side, sweep_side, params_10km):
    # The expected emissions are p_l p_r n_pairs of the pair table, bit for bit, in a dict of each distance's own.
    near, far = (build_observables(noisy_ensemble, params_10km.at_distance(d)) for d in (10.0, 60.0))
    assert near.emitted is not far.emitted and near.emitted == far.emitted
    assert near.counts is not far.counts and near.counts != far.counts
    two_sided = SourceEnsemble(alice=noisy_side, bob=sweep_side)
    for ensemble, n_pairs in product((noisy_ensemble, two_sided), (params_10km.n_pairs, 1e12)):
        emitted = build_observables(ensemble, replace(params_10km, n_pairs=n_pairs)).emitted
        expected = [(pair, (p_lr * n_pairs).hex()) for pair, _, _, _, p_lr, _ in ensemble.pair_table]
        assert [(pair, value.hex()) for pair, value in emitted.items()] == expected
    # The pair table's p_l p_r of two sides is each side's own probability product.
    assert dict(expected)["v", "y"] == (noisy_side.p_v * sweep_side.p_y * 1e12).hex()


_INTENSITY = st.just(0.0) | st.floats(-9.0, 0.5).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_INTENSITY, _INTENSITY, st.floats(0.0, 200.0), st.floats(0.0, 1e-3), st.floats(0.0, 0.1))
def test_x_basis_yield_is_bit_symmetric(mu_a, mu_b, distance, p_d, e_d):
    # build_observables shares one call between swapped X-basis intensities on this.
    params = ChannelParams(p_d=p_d, e_d=e_d, distance_km=distance)
    forward, backward = pair_yield(mu_a, mu_b, "X", params), pair_yield(mu_b, mu_a, "X", params)
    assert [v.hex() for v in forward] == [v.hex() for v in backward]


def _recorded_pair_yield_calls(monkeypatch) -> list[tuple]:
    calls = []
    true_pair_yield = channel_sim.pair_yield

    def recorded(*args):
        calls.append(args)
        return true_pair_yield(*args)

    monkeypatch.setattr(channel_sim, "pair_yield", recorded)
    return calls


# Differs from the fixtures' sides in every intensity and probability.
_OTHER_SIDE = SideSources(mu_x=0.12, mu_y=0.35, mu_z=0.45, p_v=0.15, p_x=0.1, p_y=0.05, p_z=0.7, vacuum_cap=2e-6, fluctuation=0.02)


@pytest.mark.parametrize("symmetric, calls_made", [(True, 6), (False, 8)], ids=["symmetric", "asymmetric"])
def test_observables_share_only_mirrored_x_basis_yields(monkeypatch, noisy_side, params_10km, symmetric, calls_made):
    # Symmetric sources: v-x and x-v share a call, and so do v-y and y-v.
    ensemble = SourceEnsemble(alice=noisy_side, bob=noisy_side if symmetric else _OTHER_SIDE)
    calls = _recorded_pair_yield_calls(monkeypatch)
    observables = build_observables(ensemble, params_10km)
    assert len(calls) == calls_made
    monkeypatch.undo()
    full = full_observables(ensemble, params_10km)
    for pair in observables.emitted:
        assert _entry(observables, pair) == _entry(full, pair)


def test_z_basis_yield_is_not_shared_across_swapped_intensities(monkeypatch, params_10km):
    # The Z-basis gain multiplies its two click factors in argument order, so
    # swapping unequal intensities moves its last bit here.
    a, b = 0.07745773842747755, 0.2664509487769251
    assert pair_yield(a, b, "Z", params_10km) != pair_yield(b, a, "Z", params_10km)
    side = SideSources(mu_x=a, mu_y=b, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7)
    monkeypatch.setattr(source_model, "_ANALYSED_PAIRS", source_model._with_mirrors((("x", "y", "Z"), ("y", "x", "Z"))))
    ensemble = SourceEnsemble.symmetric(side)
    # y-x has x-y as its mirror, so only the basis stops the two from sharing a yield.
    assert [row[5] for row in ensemble.pair_table] == [-1, 0]
    calls = _recorded_pair_yield_calls(monkeypatch)
    build_observables(ensemble, params_10km)
    assert [call[:3] for call in calls] == [(a, b, "Z"), (b, a, "Z")]


def test_vacuum_pair_records_nothing_without_darks(noisy_ensemble):
    params = ChannelParams(p_d=0.0, distance_km=0.0, n_pairs=1e11)
    observables = build_observables(noisy_ensemble, params)
    assert observables.counts["v", "v"] == 0


def test_count_ordering_invariants(observables_10km):
    for pair in observables_10km.emitted:
        emitted, counts, errors = _entry(observables_10km, pair)
        assert 0 <= errors <= counts <= emitted


def test_observables_regression_fixture(noisy_ensemble, params_10km, observables_10km, tmp_path):
    # The fixture holds all sixteen pairs; the ones the package builds must
    # match it exactly.
    fixture = DATA_DIR / "observables_L10.csv"
    regenerated = tmp_path / "observables.csv"
    full = full_observables(noisy_ensemble, params_10km)
    merged = PairObservables(
        emitted={**full.emitted, **observables_10km.emitted},
        counts={**full.counts, **observables_10km.counts},
        errors={**full.errors, **observables_10km.errors},
        n_pairs=observables_10km.n_pairs,
    )
    write_observables_csv(merged, regenerated)
    assert regenerated.read_text() == fixture.read_text()


def test_fixture_counts_agree_with_monte_carlo(noisy_ensemble, params_10km, observables_10km):
    # Spot-check three pairs of the stored table against the photon-level
    # simulation; expected counts must sit within 3 sigma of the MC rate.
    trials = 2_000_000
    for i, (l, r, basis) in enumerate([("x", "x", "X"), ("v", "y", "X"), ("z", "z", "Z")]):
        emitted, counts, errors = _entry(observables_10km, (l, r))
        mu_a, mu_b = noisy_ensemble.alice.table[l][1], noisy_ensemble.bob.table[r][1]
        mc = monte_carlo_yield(mu_a, mu_b, basis, params_10km, trials=trials, seed=500 + i)
        assert abs(mc.gain - counts / emitted) <= 3.0 * mc.gain_se
        assert abs(mc.error_gain - errors / emitted) <= 3.0 * mc.error_se


def test_vacuum_error_component_is_small_part_of_total():
    params = ChannelParams(distance_km=10.0)
    q, eq = pair_yield(0.1, 0.1, "X", params)
    vac = vacuum_error_component(0.1, 0.1, params)
    assert 0.0 < vac < eq


def test_single_photon_truth_ideal_detector_has_no_error():
    params = ChannelParams(p_d=0.0, e_d=0.0, distance_km=10.0)
    y11, e11 = single_photon_pair_truth("X", params)
    eta = side_transmittance(params)
    assert y11 == pytest.approx(eta * eta / 2.0, rel=1e-6, abs=0.0)
    assert e11 <= 1e-7  # extraction noise floor; physically zero


def test_single_photon_truth_misalignment_sets_error_floor():
    params = ChannelParams(p_d=0.0, e_d=0.015, distance_km=10.0)
    _, e11 = single_photon_pair_truth("X", params)
    assert e11 == pytest.approx(0.015, rel=1e-4, abs=0.0)


def test_single_photon_truth_step_insensitive():
    params = ChannelParams(distance_km=25.0)
    y_a, e_a = single_photon_pair_truth("X", params, step=4e-3)
    y_b, e_b = single_photon_pair_truth("X", params, step=2e-3)
    assert y_a == pytest.approx(y_b, rel=1e-7, abs=0.0)
    assert e_a == pytest.approx(e_b, rel=1e-5, abs=0.0)


def test_validation_report_catches_corrupted_model(monkeypatch):
    # The analytic side runs on corrupted parameters, the simulation on the true ones.
    params = ChannelParams(distance_km=0.0)
    corrupted = ChannelParams(p_d=5e-3, distance_km=0.0)
    true_pair_yield = channel_sim.pair_yield
    monkeypatch.setattr(
        channel_sim,
        "pair_yield",
        lambda mu_a, mu_b, basis, run_params: true_pair_yield(mu_a, mu_b, basis, corrupted.at_distance(run_params.distance_km)),
    )
    report = validate_model(params, trials=200_000, seed=99, grid=((0.1, 0.0), (0.3, 0.0)))
    assert not report.passed


def test_validation_report_passes_small_grid():
    params = ChannelParams()
    report = validate_model(params, trials=300_000, seed=42, grid=((0.2, 0.0), (0.4, 10.0)))
    assert report.passed
