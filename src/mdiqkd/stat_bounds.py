"""Chernoff-bound envelopes for observed counts.

Given an observed sum ``X`` of independent indicator variables and a per-use
failure probability ``xi``, the expected value of the sum lies in
``[X/(1+d1), X/(1-d2)]`` except with probability ``xi`` per side, where
``d1 > 0`` and ``d2 in (0, 1)`` solve, in log form,

    [d1 - (1+d1) ln(1+d1)] X / (1+d1) = ln(xi/2)
    [-d2 - (1-d2) ln(1-d2)] X / (1-d2) = ln(xi/2)

Both left sides are strictly decreasing in d, so the roots are found by
bisection on a bracketing interval.

``combo_lower`` / ``combo_upper`` bound nonnegative linear combinations
``sum_i c_i <X_i>`` jointly: sorting coefficients descending and telescoping
over partial sums of the observed counts turns the combination into a
positive-weight sum of Chernoff bounds on pooled counts, which is never looser
(and usually strictly tighter) than bounding every term separately.  This is
the joint-constraint construction of Zhang et al., PRA 95, 012333 (2017).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

_BRACKET_EDGE = 1e-12
# Bisection stops once the bracket is this small relative to its end, and
# gives up loudly after this many halvings.
_REL_TOL = 1e-12
_MAX_ITER = 200


class SolverError(RuntimeError):
    """Raised when a bound equation cannot be solved to tolerance."""


@dataclass(frozen=True)
class ChernoffConfig:
    """Failure probability per bound, and the switch to the infinite-data limit.

    ``disabled=True`` collapses every envelope onto the observed value, which
    turns the finite-data analysis into its infinite-data limit.
    """

    xi: float
    disabled: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.xi < 1.0):
            raise ValueError(f"failure probability must lie in (0, 1), got {self.xi}")


class InvocationCounter:
    """Tallies Chernoff uses so a caller can budget failure probability."""

    def __init__(self) -> None:
        self.count = 0

    def bump(self, n: int = 1) -> None:
        self.count += n


def _bisect_decreasing(f, lo: float, hi: float) -> float:
    """Root of a strictly decreasing ``f`` with ``f(lo) > 0 > f(hi)``.

    Returns the upper end of the final bracket, which errs on the large-d
    (conservative) side of the bound.
    """
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _REL_TOL * hi:
            return hi
    raise SolverError(f"bisection did not reach tolerance {_REL_TOL} within {_MAX_ITER} iterations")


def lower_deviation(x: float, cfg: ChernoffConfig) -> float:
    """Solve for the lower-envelope deviation d1 at observed count ``x > 0``."""
    target = math.log(cfg.xi / 2.0)

    def g(d: float) -> float:
        return (d - (1.0 + d) * math.log1p(d)) * x / (1.0 + d) - target

    lo = _BRACKET_EDGE
    if g(lo) <= 0.0:
        # Root below the bracket floor: x is astronomically large.  Using the
        # floor shrinks the lower bound, which is the safe direction.
        return lo
    hi = 1.0
    doublings = 0
    while g(hi) > 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise SolverError("could not bracket the lower-envelope deviation")
    return _bisect_decreasing(g, lo, hi)


def _upper_complement(x: float, cfg: ChernoffConfig) -> float:
    """Solve for w = 1 - d2 at observed count ``x > 0``.

    In terms of w the log-form equation reads ``x (1 - 1/w - ln w) =
    ln(xi/2)`` with a strictly increasing left side.  Depending on the count,
    the root sits arbitrarily close to w = 0 (tiny counts) or to w = 1 (large
    counts); either way the small quantity is resolved by geometric bisection
    in its own variable so it keeps full relative precision.  Bracket-end
    choices always err toward smaller w, i.e. a larger (safe) upper bound.
    """
    target = math.log(cfg.xi / 2.0)

    def g(w: float) -> float:
        # Evaluate through the deviation d = 1 - w with log1p where w is
        # near one: the direct w-form cancels catastrophically there.
        d = 1.0 - w
        log_w = math.log(w) if w < 0.5 else math.log1p(-d)
        return (-d - w * log_w) * x / w - target

    lo = _BRACKET_EDGE
    hi = 1.0 - _BRACKET_EDGE
    if g(hi) <= 0.0:
        return hi  # deviation below the bracket floor; ceiling w is safe
    if g(lo) > 0.0:
        return lo  # deviation above the bracket ceiling; floor w is safe

    if g(0.5) >= 0.0:
        # Root at w <= 0.5: geometric bisection in w.
        w_lo, w_hi = lo, 0.5
        for _ in range(_MAX_ITER):
            mid = math.sqrt(w_lo * w_hi)
            if g(mid) > 0.0:
                w_hi = mid
            else:
                w_lo = mid
            if w_hi - w_lo <= _REL_TOL * w_lo:
                return w_lo
    else:
        # Root at w > 0.5: geometric bisection in the deviation d = 1 - w.
        d_lo, d_hi = _BRACKET_EDGE, 0.5
        for _ in range(_MAX_ITER):
            mid = math.sqrt(d_lo * d_hi)
            if g(1.0 - mid) > 0.0:
                d_lo = mid
            else:
                d_hi = mid
            if d_hi - d_lo <= _REL_TOL * d_lo:
                return 1.0 - d_hi
    raise SolverError(f"bisection did not reach tolerance {_REL_TOL} within {_MAX_ITER} iterations")


def chernoff_lower(x: float, cfg: ChernoffConfig, counter: InvocationCounter | None = None) -> float:
    """Lower bound on the expectation behind an observed count ``x``."""
    if x < 0:
        raise ValueError(f"observed count must be nonnegative, got {x}")
    if cfg.disabled:
        return float(x)
    if counter is not None:
        counter.bump()
    if x == 0:
        return 0.0
    return x / (1.0 + lower_deviation(x, cfg))


def chernoff_upper(x: float, cfg: ChernoffConfig, counter: InvocationCounter | None = None) -> float:
    """Upper bound on the expectation behind an observed count ``x``."""
    if x < 0:
        raise ValueError(f"observed count must be nonnegative, got {x}")
    if cfg.disabled:
        return float(x)
    if counter is not None:
        counter.bump()
    if x == 0:
        # Zero-observation tail: expectations above ln(2/xi) would have
        # produced at least one count except with probability xi/2.
        return math.log(2.0 / cfg.xi)
    return x / _upper_complement(x, cfg)


def _validated_terms(terms: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    out = []
    for c, x in terms:
        if c < 0:
            raise ValueError(f"combination coefficients must be nonnegative, got {c}")
        if x < 0:
            raise ValueError(f"observed counts must be nonnegative, got {x}")
        out.append((float(c), float(x)))
    if not out:
        raise ValueError("at least one (coefficient, count) term is required")
    return out


def _telescope(
    terms: Sequence[tuple[float, float]],
    bound: Callable[[float, ChernoffConfig, InvocationCounter | None], float],
    cfg: ChernoffConfig,
    counter: InvocationCounter | None,
) -> float:
    """``sum_i c_i <X_i>`` bounded by ``bound`` on coefficient-sorted partial sums.

    Each level pools every count whose coefficient is at least that level's,
    weighted by the drop to the next coefficient; ties collapse into a single
    pooled bound.
    """
    ts = sorted(_validated_terms(terms), key=lambda t: -t[0])
    total = 0.0
    cum = 0.0
    for i, (c, x) in enumerate(ts):
        cum += x
        c_next = ts[i + 1][0] if i + 1 < len(ts) else 0.0
        if c > c_next:
            total += (c - c_next) * bound(cum, cfg, counter)
    return total


def combo_lower(
    terms: Sequence[tuple[float, float]],
    cfg: ChernoffConfig,
    counter: InvocationCounter | None = None,
) -> float:
    """Joint lower bound on ``sum_i c_i <X_i>`` from observed counts.

    Equal coefficients reduce exactly to ``c * chernoff_lower(sum X_i)``.
    """
    return _telescope(terms, chernoff_lower, cfg, counter)


def combo_upper(
    terms: Sequence[tuple[float, float]],
    cfg: ChernoffConfig,
    counter: InvocationCounter | None = None,
) -> float:
    """Joint upper bound on ``sum_i c_i <X_i>``; the same telescoping as :func:`combo_lower`."""
    return _telescope(terms, chernoff_upper, cfg, counter)
