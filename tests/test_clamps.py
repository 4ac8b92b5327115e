"""The per-distance and per-probe path clamps by comparison, with the bits of the ``min``/``max`` it replaced.

A ``min``/``max`` builtin call costs several times the comparisons it makes,
so the functions that run once per distance or per search probe, the source
side of a probe included, pick by plain comparisons: two-sided clamps through
``channel_sim._clamp`` or its two comparisons inline, one-sided picks
inline.  Both builtins keep their first argument unless the second compares
strictly past it, so each comparison is written to keep the same argument on
NaN and on signed zeros.  These tests pin that, and an ``ast`` check keeps the
builtins off the path.
"""

import ast
import inspect
import math
import sys
import textwrap
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mdiqkd import channel_sim, keyrate_core, optimizer, secure_key_rate, source_model, stat_bounds
from mdiqkd.channel_sim import _clamp
from mdiqkd.keyrate_core import RateCurve
from mdiqkd.optimizer import BOX_LOWER, BOX_UPPER
from mdiqkd.source_model import PhotonCoeffBounds, SideSources, SourceEnsemble


def _same_bits(a, b) -> bool:
    """Equal by ``float.hex``, so -0.0 differs from 0.0 and a NaN matches a NaN."""
    return type(a) is type(b) and (a == b if isinstance(a, int) else float.hex(a) == float.hex(b))


# --- the two-sided clamp ----------------------------------------------------------

_EDGES = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, sys.float_info.min, 1.0, -1.0]
_ANY = st.floats() | st.sampled_from(_EDGES)  # NaN, infinities and subnormals included
# The bounds src/ clamps to: the unit interval, (0, q) for a gain q that is itself clamped, and the search box.
_USED = st.sampled_from([(0.0, 1.0), *zip(BOX_LOWER, BOX_UPPER)]) | st.tuples(st.just(0.0), st.floats(0.0, 1.0) | st.just(math.nan))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_ANY, st.tuples(_ANY, _ANY) | _USED)
@example(-0.0, (0.0, 1.0))
@example(0.0, (-0.0, 0.0))
@example(-0.0, (-0.0, -0.0))
@example(math.nan, (0.0, 1.0))
@example(0.5, (math.nan, 1.0))
@example(0.5, (0.0, math.nan))
@example(5e-324, (0.0, 5e-324))
@example(-math.inf, (-math.inf, math.inf))
def test_clamp_is_min_of_max_bit_for_bit(v, bounds):
    lo, hi = bounds
    assume(not hi < lo)
    assert _same_bits(_clamp(v, lo, hi), min(max(v, lo), hi))


# --- the one-sided picks -----------------------------------------------------------

_SIGNED = [math.nan, -0.0, 0.0, -1e-300, 1e-300, -math.inf, math.inf]


@pytest.mark.parametrize("value", _SIGNED)
def test_h_lower_clamps_at_zero_as_max_did(monkeypatch, inputs_10km, value):
    obs = inputs_10km.observables
    terms = inputs_10km.bounds.analysis_terms(obs.emitted, obs.n_pairs)
    monkeypatch.setattr(stat_bounds, "combo_lower", lambda group, counts, cfg: value)
    monkeypatch.setattr(stat_bounds, "combo_upper", lambda group, counts, cfg: 0.0)
    replaced = max(0.0, 2.0 * (value - 0.0) / (1.0 - terms.sigma_x))
    assert _same_bits(keyrate_core._h_lower(inputs_10km, terms), replaced)


@pytest.mark.parametrize("value", _SIGNED)
def test_yield_floor_clamps_at_zero_as_max_did(value):
    # s = (s_plus - s_minus - c_y h) / denominator is value itself at h = 0.
    curve = RateCurve(s_plus=value, s_minus=0.0, txx_upper=1e-3, c_y=0.0, denominator=1.0, beta=1.0, gamma=1.0, pz2=1.0, correction=0.0)
    s, _ = curve._yield_and_error(0.0)
    assert _same_bits(s, value)
    assert _same_bits(curve._point(0.0)[0], max(s, 0.0) + 0.0)


@pytest.mark.parametrize("value", [-0.0, 0.0, -1e-300, 1e-300, -1.0, 1.0])  # a minimum that is not finite raises
def test_reported_rate_clamps_at_zero_as_max_did(monkeypatch, inputs_10km, value):
    monkeypatch.setattr(keyrate_core, "_convex_minimum", lambda curve, lo, hi: (lo, 0.0, math.nan, value, 0))
    report = secure_key_rate(inputs_10km)
    assert report.reason == "ok" and _same_bits(report.rate, max(0.0, value))


@pytest.mark.parametrize("ratio", [-0.0, 0.0, 0.5, 1.0, 1.5, 1e6])
def test_error_count_is_capped_at_the_count_as_min_did(monkeypatch, noisy_ensemble, params_10km, ratio):
    honest = channel_sim.pair_yield

    def pair_yield(mu_a, mu_b, basis, params):
        q = honest(mu_a, mu_b, basis, params)[0]
        return q, ratio * q

    monkeypatch.setattr(channel_sim, "pair_yield", pair_yield)
    obs = channel_sim.build_observables(noisy_ensemble, params_10km)
    for pair, basis, mu_l, mu_r, _, _ in noisy_ensemble.pair_table:
        _, eq = pair_yield(mu_l, mu_r, basis, params_10km)
        assert _same_bits(obs.errors[pair], min(round(obs.emitted[pair] * eq), obs.counts[pair]))


# --- the contamination-factor check of analysis_terms ---------------------------------

_ZERO_DENOMINATOR = "zero denominator in contamination factors; coefficient bounds degenerate"
_CHECKED = [0.0, -0.0, 5e-324, -5e-324, math.nan, 1.0]
# Vacuum floors (a_v, b_v) whose product a_v * b_v is each checked value, by
# its repr, since 0.0 and -0.0 are one dict key; two tiny floors multiply to
# zero or to a subnormal.  A NaN product needs a NaN floor, which makes that
# side's two other products NaN too.
_VACUUM_FLOORS = {
    "0.0": (1e-200, 1e-200),
    "-0.0": (-1e-200, 1e-200),
    "5e-324": (2.0**-537, 2.0**-537),
    "-5e-324": (-(2.0**-537), 2.0**-537),
    "nan": (1.0, math.nan),
    "1.0": (1.0, 1.0),
}


def _checked_side(v0: float, x1: float, y1: float) -> SimpleNamespace:
    """A side whose vacuum floor is ``v0`` and one-photon x and y floors are ``x1`` and ``y1``; its other bounds pass every check."""
    return SimpleNamespace(
        intervals={"v": (0.0, 0.0), "x": (0.1, 0.1), "y": (0.4, 0.4), "z": (0.5, 0.5)},
        lower={"v": (v0, 0.0, 0.0), "x": (0.5, x1, 0.25), "y": (0.5, y1, 0.75), "z": (0.5, 0.5, 0.5)},
        upper={"v": (1.0, 0.0, 0.0), "x": (1.0, 1.0, 1.0), "y": (1.0, 1.0, 1.0), "z": (1.0, 1.0, 1.0)},
    )


@pytest.mark.parametrize("value", _CHECKED, ids=repr)
@pytest.mark.parametrize("position", range(5), ids=["ax", "ay", "bx", "by", "a_v*b_v"])
def test_contamination_check_keeps_the_verdict_of_min(monkeypatch, position, value):
    # analysis_terms refused where min(ax, ay, bx, by, a_v * b_v) > 0.0 failed.
    # min keeps its first argument unless a later one compares strictly below
    # it, so it ignores a NaN after its first argument: a NaN ay passes, and
    # only a NaN ax fails.  The comparisons that replace it must do the same.
    if position < 4:
        a_v = b_v = 1.0
        floors = [1.0] * 4
        floors[position] = value
    else:
        a_v, b_v = _VACUUM_FLOORS[repr(value)]
        floors = [math.copysign(1.0, a_v)] * 2 + [1.0] * 2  # keeps ax and ay positive under a negative a_v
    a_x1, a_y1, b_x1, b_y1 = floors
    products = (a_v * a_x1, a_v * a_y1, b_v * b_x1, b_v * b_y1, a_v * b_v)
    assert _same_bits(products[position], value)
    monkeypatch.setattr(source_model, "combo_group", lambda terms: None)  # the groups past the check are not the point
    bounds = PhotonCoeffBounds(alice=_checked_side(a_v, a_x1, a_y1), bob=_checked_side(b_v, b_x1, b_y1))
    emitted = {pair: 1.0 for pair, _, _ in source_model._ANALYSED_PAIRS}
    refused = source_model.analysis_terms(bounds, emitted, 8.0).infeasible == _ZERO_DENOMINATOR
    assert refused is (not min(products) > 0.0)


# --- no builtin call on the path -----------------------------------------------------

# Each function that runs once or more per distance of a scan or per probe of a search.
_PER_DISTANCE = [
    channel_sim._i0m1,
    channel_sim.pair_yield,
    channel_sim.build_observables,
    stat_bounds.chernoff_lower,
    stat_bounds.chernoff_upper,
    stat_bounds._telescope,
    stat_bounds._branch_root,
    stat_bounds._log_root,
    keyrate_core._h_lower,
    keyrate_core._curve,
    keyrate_core.rate_function,
    keyrate_core._rate_function,
    keyrate_core.secure_key_rate,
    keyrate_core._convex_minimum,
    RateCurve._yield_and_error,
    RateCurve._point,
    RateCurve.slope,
    optimizer._clip,
    optimizer.evaluate,
    optimizer.OptimizationProblem.sources,
    optimizer._nelder_mead,
    SideSources.__post_init__,
    SourceEnsemble.__post_init__,
    source_model.coeff_rows,
    source_model.analysis_terms,
    source_model._side_failures,
]


@pytest.mark.parametrize("function", _PER_DISTANCE, ids=lambda f: f"{f.__module__}.{f.__qualname__}")
def test_no_min_or_max_call_on_the_per_distance_path(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    calls = [
        f"line {node.lineno}: {node.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("min", "max")
    ]
    assert calls == [], "clamp with channel_sim._clamp or a comparison that keeps the builtin's first-argument rule"
