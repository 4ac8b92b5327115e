"""Chernoff-bound envelopes for observed counts.

Given an observed sum ``X`` of independent indicator variables and a per-use
failure probability ``xi``, the expected value of the sum lies in
``[X s_lo, X s_hi]`` except with probability ``xi`` per side, where ``s_lo``
in (0, 1) and ``s_hi > 1`` are the two roots of

    s - ln s = 1 + eps,    eps = ln(2/xi) / X

(``-W_0`` and ``-W_-1`` of ``-e^(-1-eps)`` in Lambert-W terms).  With
``t = ln s`` the equation reads ``expm1(t) - t = eps``, whose left side is
convex with its minimum at ``t = 0``.  Newton's method started on the outer
side of a root stays on that side, so both roots are found without a bracket,
and each bound is then nudged outward past the rounding error of the solve.

``combo_lower`` / ``combo_upper`` bound nonnegative linear combinations
``sum_i c_i <X_i>`` jointly: sorting coefficients descending and telescoping
over partial sums of the observed counts turns the combination into a
positive-weight sum of Chernoff bounds on pooled counts, which is never looser
(and usually strictly tighter) than bounding every term separately.  This is
the joint-constraint construction of Zhang et al., PRA 95, 012333 (2017).
The coefficients of a combination are fixed before any count is seen, so
:func:`combo_group` builds its telescope once: it checks each coefficient,
sorts them into telescope order and computes the weight of each level.  A
bound then takes that :class:`ComboGroup` with the counts, checks each count,
pools them level by level and solves one Chernoff bound per level.  So how
many bounds a combination solves is the number of levels of its group, fixed
before any count is seen, or none where ``ChernoffConfig.disabled`` is set; a
caller that budgets failure probability reads it there, and no bound counts
its own calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

# Outward nudge of a bound, relative, per unit of ``2 + |t|``.  The solved
# ``t`` is good to a few units of 2**-52 absolute, and ``exp`` turns the
# rounding of ``t`` itself, about ``|t|`` such units, into relative error.
# Half of it kept both bounds conservative in 15,000 random cases; a quarter
# did not.
_NUDGE = 4 * 2.0**-52


@dataclass(frozen=True)
class ChernoffConfig:
    """Failure probability per bound, and the switch to the infinite-data limit.

    ``disabled=True`` collapses every envelope onto the observed value, which
    turns the finite-data analysis into its infinite-data limit.  Each
    instance holds ``ln(2/xi)``, which every bound reads, computed once when
    it is made; it is not a field.
    """

    xi: float
    disabled: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.xi < 1.0):
            raise ValueError(f"failure probability must lie in (0, 1), got {self.xi}")
        # ln(2/xi), finite also where 2/xi overflows.
        object.__setattr__(self, "_log_two_over_xi", math.log(2.0) - math.log(self.xi))


def _log_root(eps: float, t: float) -> float:
    """Root of ``f(t) = expm1(t) - t = eps`` by Newton's method from ``t`` outside it.

    From the outer side of a root of the convex ``f`` every Newton step moves
    toward zero by less than the step before.  Once rounding breaks that, the
    last iterate is within a few ulps of the root.
    """
    last_gain = math.inf
    while True:
        g = math.expm1(t)
        nxt = t - (g - t - eps) / g
        gain = abs(t) - abs(nxt)
        if not 0.0 < gain < last_gain:
            return t
        t, last_gain = nxt, gain


def chernoff_lower(x: float, cfg: ChernoffConfig) -> float:
    """Lower bound on the expectation behind an observed count ``x``."""
    if not 0 <= x < math.inf:
        raise ValueError(f"observed count must be finite and nonnegative, got {x}")
    if cfg.disabled:
        return float(x)
    if x == 0:
        return 0.0
    eps = cfg._log_two_over_xi / x
    # Outside the root: f(-1-eps) = eps + e^(-1-eps), and for eps < 1/2,
    # f(-a) >= a^2/2 - a^3/6 >= eps at a = sqrt(2 eps) + eps.
    root = math.sqrt(2.0 * eps)
    t = _log_root(eps, -(eps + (root if root < 1.0 else 1.0)))
    bound = x * math.exp(t) * (1.0 - _NUDGE * (2.0 - t))
    # The relative nudge means nothing below the smallest normal float.
    return bound if bound >= sys.float_info.min else 0.0


def chernoff_upper(x: float, cfg: ChernoffConfig) -> float:
    """Upper bound on the expectation behind an observed count ``x``."""
    if not 0 <= x < math.inf:
        raise ValueError(f"observed count must be finite and nonnegative, got {x}")
    if cfg.disabled:
        return float(x)
    if x == 0:
        # Zero-observation tail: expectations above ln(2/xi) would have
        # produced at least one count except with probability xi/2.  The
        # nudge covers the rounding of the logarithms.
        return cfg._log_two_over_xi * (1.0 + _NUDGE)
    eps = cfg._log_two_over_xi / x
    # Outside the root: f(t) >= t^2/2 for t >= 0, and f(ln(2 (1 + eps))) =
    # 1 + 2 eps - ln(2 (1 + eps)) >= eps.
    root, log_start = math.sqrt(2.0 * eps), math.log(2.0 * (1.0 + eps))
    t = _log_root(eps, log_start if log_start < root else root)
    return (x + x * math.expm1(t)) * (1.0 + _NUDGE * (2.0 + t))


class ComboGroup(NamedTuple):
    """A combination ``sum_i c_i <X_i>`` built into its telescope by :func:`combo_group`.

    ``terms`` holds each ``(coefficient, key)`` in the order given, the
    coefficient as a float; a key is what the counts are indexed by.
    ``levels`` holds the ``(weight, keys)`` of each level in telescope order:
    the keys whose counts join the pool at that level, and the weight of the
    bound on the pool once they have joined.  Terms with a zero coefficient
    join no level.
    """

    terms: tuple[tuple[float, Hashable], ...]
    levels: tuple[tuple[float, tuple[Hashable, ...]], ...]


def combo_group(terms: Iterable[tuple[float, Hashable]]) -> ComboGroup:
    """The :class:`ComboGroup` of ``(coefficient, key)`` terms.

    Coefficients are sorted descending, stably, and each level pools every
    count whose coefficient is at least that level's, weighted by the drop to
    the next coefficient; ties collapse into a single level.  A level is
    closed when the coefficient drops, before the next count joins the pool,
    and the last level drops to zero.
    """
    given = []
    for c, key in terms:
        if not c >= 0:  # NaN fails too
            raise ValueError(f"combination coefficients must be nonnegative, got {c}")
        given.append((float(c), key))
    if not given:
        raise ValueError("at least one (coefficient, key) term is required")
    levels = []
    joining: list[Hashable] = []
    ordered = sorted(given, key=itemgetter(0), reverse=True)
    c = ordered[0][0]
    for c_next, key in ordered:
        if c > c_next:
            levels.append((c - c_next, tuple(joining)))
            joining = []
            c = c_next
        joining.append(key)
    if c > 0.0:
        levels.append((c, tuple(joining)))
    return ComboGroup(tuple(given), tuple(levels))


def _telescope(
    group: ComboGroup,
    counts: Mapping[Hashable, float],
    bound: Callable[[float, ChernoffConfig], float],
    cfg: ChernoffConfig,
) -> float:
    """``sum_i c_i <X_i>`` of ``group`` bounded by ``bound`` on its pooled counts, level by level.

    Every count is checked, in the order of the terms, before any is bounded.
    """
    for _, key in group.terms:
        x = counts[key]
        if not 0 <= x < math.inf:
            raise ValueError(f"observed counts must be finite and nonnegative, got {x}")
    total = cum = 0.0
    for weight, keys in group.levels:
        for key in keys:
            cum += counts[key]
        total += weight * bound(cum, cfg)
    return total


def combo_lower(group: ComboGroup, counts: Mapping[Hashable, float], cfg: ChernoffConfig) -> float:
    """Joint lower bound on ``sum_i c_i <X_i>`` of ``group``, each ``X_i`` read as ``counts[key_i]``.

    Equal coefficients reduce exactly to ``c * chernoff_lower(sum X_i)``.
    """
    return _telescope(group, counts, chernoff_lower, cfg)


def combo_upper(group: ComboGroup, counts: Mapping[Hashable, float], cfg: ChernoffConfig) -> float:
    """Joint upper bound on ``sum_i c_i <X_i>``; the same telescope as :func:`combo_lower`."""
    return _telescope(group, counts, chernoff_upper, cfg)
