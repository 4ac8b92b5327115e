"""Chernoff-bound envelopes for observed counts.

Given an observed sum ``X`` of independent indicator variables and a per-use
failure probability ``xi``, the expected value of the sum lies in
``[X s_lo, X s_hi]`` except with probability at most ``xi/2`` on each side,
where ``s_lo`` in (0, 1) and ``s_hi > 1`` are the two roots of

    s - ln s = 1 + eps,    eps = ln(2/xi) / X

(``-W_0`` and ``-W_-1`` of ``-e^(-1-eps)`` in Lambert-W terms).  With
``t = ln s`` the equation reads ``f(t) = expm1(t) - t = eps``, whose left side
is convex with its minimum 0 at ``t = 0``; at a root ``s = 1 + t + eps``.
Each root is found by one method per range of ``eps``:

* ``eps < _HALLEY_FROM`` (2e-3, counts above ``500 ln(2/xi)``): the
  branch-point series of the root in ``p = -sqrt(2 eps)`` (lower) or
  ``+sqrt(2 eps)`` (upper), ``t = p - p^2/6 + p^3/36 - p^4/270 + p^5/4320 +
  p^6/17010 - 139 p^7/5443200 + p^8/204120``, the reversion of
  ``f(t) = p^2/2`` at ``t = 0`` as for Lambert W (Corless et al., Adv. Comput.
  Math. 5, 329 (1996)), and ``s = 1 + t + eps``, with no ``exp``.  The
  series converges for ``|p| < sqrt(4 pi)``, where ``f'`` vanishes again;
  by its exact coefficients its tail past ``p^8`` is below ``0.04 u`` here,
  ``u = 2^-53``, and ``0.23 u`` at ``eps = 3e-3``.
* ``_HALLEY_FROM <= eps < _NEWTON_FROM`` (0.5, counts above
  ``2 ln(2/xi)``): the same series, one Halley step with one ``expm1``,
  then ``s = 1 + t + eps``.  The step takes the series' error, at most
  ``4e-7`` here, to below ``0.001 u`` in exact arithmetic; at ``eps = 0.7``
  it would leave ``0.02 u``, and at 1 more than ``u``.  Past 0.5 the lower
  root's derived error below would also near its margin.
* ``eps >= _NEWTON_FROM``: Newton's method from a start outside the root,
  and ``exp`` or ``expm1`` for ``s``.  On the convex ``f`` every exact
  Newton step lands outside the root and is shorter than the one before,
  so the iteration runs until rounding breaks that.

Each bound is then moved outward by the relative margin ``m = 2^-50 (2 +
|t|) = 8u (2 + |t|)``.  The margin exceeds the worst inward
relative error of the bound before it.  That error is derived here from
these rounding bounds: ``u`` for each arithmetic operation and ``sqrt``, and
one ulp, ``2u`` relative, for each ``log``, ``exp`` and ``expm1``.  Every
range shares three parts:

* ``ln(2/xi) = ln 2 - ln xi``, two logarithms and a sum of positives, is
  good to ``3u``, and ``eps = ln(2/xi) / X`` to ``4u``.  An error ``delta`` in
  ``eps`` moves ``ln s`` by ``k delta``, ``|k| = |eps / (s - 1)|``, which is
  below ``|t|`` for the lower root and below 1 for the upper.
* The last sum ``X + X (t + eps)``, or product ``X e^t``, rounds by ``u``,
  and so does the product with ``1 -/+ m``.
* The factor ``1 -/+ m`` itself rounds to a float: ``u/2`` below 1, ``u``
  above it.

Each range adds its own:

* Series alone, where ``|t| < 0.064`` and ``s`` is within 7 % of 1.  The
  truncation adds ``0.04 u``.  The rounding of ``sqrt``, carried through
  ``dt/dp <= 1.02``, adds ``0.07 u``.  The Horner sum adds ``2.1 u |t| <=
  0.14 u``, and ``t + eps`` and ``X (t + eps)`` add ``0.07 u`` each.  In all
  the error is at most ``3.5 u``.
* Series and Halley step.  Both subtractions of the residual ``expm1(t) -
  t - eps`` are exact (Sterbenz), so the residual carries only the ``2u |g|``
  of ``g = expm1(t)``.  The step, about ``residual / g``, then leaves ``t``
  within ``2u``, plus ``u |t|`` for its own rounding; the rounding of
  ``sqrt`` only moves the start.  With ``t + eps`` and ``X (t + eps)`` that is
  ``(2 + |t| + 2 |s - 1|) u / s``.  In all the error is at most ``20.6 u``
  for the lower root, at ``s = 0.30`` and ``t = -1.2``, where the margin is
  ``25.6 u``, and ``6.8 u`` for the upper.
* Newton.  Every computed iterate after the start lies at most one step's
  rounding ``nu`` inward of the root, as the exact step from it lands
  outside.  On the lower side ``|g| >= 0.698``, so ``nu <= 2.9u + 2.5u |t|``,
  and with ``exp`` the lower bound errs by at most ``7.4u + 6.5u |t|``.  On
  the upper side ``nu <= 3u + u t``, and with ``X + X expm1(t)`` the bound
  errs by at most ``13u + u t``.
* No count.  The tail ``ln(2/xi) (1 + 2^-50)`` exceeds ``ln(2/xi)`` by
  ``8u``, against ``4u`` for the logarithms and the product.  Where Newton's
  upper start ``ln(2 (1 + eps))`` overflows, at positive counts ``x < 2
  ln(2/xi) / DBL_MAX``, the upper bound overflows too and the tail replaces
  it, soundly: ``s_hi <= 2 (1 + eps)`` gives ``x s_hi <= ln(2/xi) + x (1 +
  ln 2 + ln(1 + ln(2/xi)/x))``, and below ``x = 1e-305`` the second term is
  under ``1e-300``, far inside the tail's spare ``4u ln(2/xi)``.

Newton's method serves only counts below ``2 ln(2/xi)``, and a scan meets the
same few integer counts there again and again.  So each
:class:`ChernoffConfig` keeps the bound of each integer count it has solved
there, one dict per side, and returns it when the count comes again: each
such count is solved once per configuration.  A count that is not an integer
is solved each time.  An entry is only ever added, holding the bits any solve
of its count gives, so threads that share a configuration at worst solve a
count twice.

Against 40-digit roots, in 35,000 random cases and the counts next to
each cut-off, the worst inward error found before the margin was ``2.5 u``
for the series alone, ``8.8 u`` with the Halley step, and ``64.5 u`` at ``t =
-32.4`` under Newton.  None used more than 35 % of its margin.

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

# The outward margin per unit of 2 + |t|, and the cut-offs in eps between
# the root's three methods; the module docstring derives both.
_MARGIN = 2.0**-50
_HALLEY_FROM = 2e-3
_NEWTON_FROM = 0.5
_SMALLEST_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class ChernoffConfig:
    """Failure probability per bound, and the switch that reads every count as its own expectation.

    ``disabled=True`` collapses every envelope onto the observed value, so the
    analysis reads the observed counts, which the simulation rounds to
    integers, as exact.  That is the infinite-data limit only where those
    counts are large enough for their rounding not to matter.  Each
    instance holds ``ln(2/xi)``, which every bound reads, and the upper
    bound of a zero count, both computed once when it is made.  It also keeps
    the lower and upper bound of each integer count below ``2 ln(2/xi)`` it
    has been asked for, so that each is solved once per configuration; at
    most ``2 ln(2/xi)`` counts a side.  None of these is a field, so they
    change neither equality, hashing nor ``repr``, and
    :func:`dataclasses.replace` starts with none solved.
    """

    xi: float
    disabled: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.xi < 1.0):
            raise ValueError(f"failure probability must lie in (0, 1), got {self.xi}")
        # ln(2/xi), finite also where 2/xi overflows.
        object.__setattr__(self, "_log_two_over_xi", math.log(2.0) - math.log(self.xi))
        # Zero-observation tail: expectations above ln(2/xi) would have
        # produced at least one count except with probability xi/2.
        object.__setattr__(self, "_zero_count_upper", self._log_two_over_xi * (1.0 + _MARGIN))
        object.__setattr__(self, "_lower_solved", {})
        object.__setattr__(self, "_upper_solved", {})


def _branch_root(eps: float, p: float) -> float:
    """Root ``t`` of ``expm1(t) - t = eps < _NEWTON_FROM`` with the sign of ``p = +-sqrt(2 eps)``.

    The branch-point series to ``p^8``, by Horner's rule, and from
    ``_HALLEY_FROM`` on one Halley step from it.
    """
    t = p * (1.0 + p * (-1 / 6 + p * (1 / 36 + p * (-1 / 270 + p * (1 / 4320 + p * (1 / 17010 + p * (-139 / 5443200 + p / 204120.0)))))))
    if eps < _HALLEY_FROM:
        return t
    g = math.expm1(t)
    r = g - t - eps
    return t - 2.0 * r * g / (2.0 * g * g - r * (1.0 + g))


def _log_root(eps: float, t: float) -> float:
    """Root of ``f(t) = expm1(t) - t = eps`` by Newton's method from ``t`` outside it.

    From the outer side of a root of the convex ``f`` every Newton step moves
    toward zero by less than the step before.  Once rounding breaks that, the
    last iterate is returned: at most one step's rounding inward of the root.
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
    if eps < _NEWTON_FROM:
        t = _branch_root(eps, -math.sqrt(2.0 * eps))
        bound = x + x * (t + eps)
    elif x in cfg._lower_solved:
        return cfg._lower_solved[x]
    else:
        # Outside the root: f(-1-eps) = eps + e^(-1-eps).
        t = _log_root(eps, -(eps + 1.0))
        bound = x * math.exp(t)
    bound *= 1.0 - _MARGIN * (2.0 - t)
    # The relative margin means nothing below the smallest normal float.
    bound = bound if bound >= _SMALLEST_NORMAL else 0.0
    if eps >= _NEWTON_FROM and x % 1.0 == 0.0:
        cfg._lower_solved[x] = float(bound)
    return bound


def chernoff_upper(x: float, cfg: ChernoffConfig) -> float:
    """Upper bound on the expectation behind an observed count ``x``."""
    if not 0 <= x < math.inf:
        raise ValueError(f"observed count must be finite and nonnegative, got {x}")
    if cfg.disabled:
        return float(x)
    if x == 0:
        return cfg._zero_count_upper
    eps = cfg._log_two_over_xi / x
    if eps < _NEWTON_FROM:
        t = _branch_root(eps, math.sqrt(2.0 * eps))
        bound = x + x * (t + eps)
    elif x in cfg._upper_solved:
        return cfg._upper_solved[x]
    else:
        # Outside the root: f(t) >= t^2/2 for t >= 0, and f(ln(2 (1 + eps))) =
        # 1 + 2 eps - ln(2 (1 + eps)) >= eps.
        log_start = math.log(2.0 * (1.0 + eps))
        root = math.sqrt(2.0 * eps)
        t = _log_root(eps, log_start if log_start < root else root)
        bound = x + x * math.expm1(t)
        if bound == math.inf:
            # A count so small that this start overflows (module docstring).
            return cfg._zero_count_upper
    bound *= 1.0 + _MARGIN * (2.0 + t)
    if eps >= _NEWTON_FROM and x % 1.0 == 0.0:
        cfg._upper_solved[x] = float(bound)
    return bound


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
