"""Weak-coherent-source model with bounded intensity errors.

Each side (Alice, Bob) runs four phase-randomized weak coherent sources: an
unstable vacuum source ``v`` whose per-pulse intensity can drift anywhere in
``[0, vacuum_cap]``, two decoy sources ``x`` and ``y``, and a signal source
``z``.  The decoy/signal intensities fluctuate multiplicatively: the i-th
pulse of source ``l`` has intensity ``mu_l * (1 + delta_i)`` with
``|delta_i| <= fluctuation``.

Per-pulse photon-number coefficients are Poissonian in the (unknowable)
per-pulse intensity, so worst-case coefficient bounds are interval extrema of
``exp(-mu) * mu**k / k!`` over the admissible intensity range.  Those bounds
are everything the downstream analysis is allowed to know about the sources.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property

SOURCES = ("v", "x", "y", "z")

# Every intensity interval must end below this: at or above it the
# zero-photon coefficient e^-mu underflows the smallest normal float.
MAX_INTENSITY = -math.log(sys.float_info.min)

_PROB_TOL = 1e-12


def poisson_coeff(mu: float, k: int) -> float:
    """Probability that a phase-randomized WCS pulse of intensity ``mu`` carries ``k`` photons.

    Evaluated in log space so large ``k`` neither overflows the factorial nor
    underflows prematurely.
    """
    if not (0 <= k < math.inf and k == int(k)):
        raise ValueError(f"photon number must be a nonnegative integer, got {k!r}")
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"intensity must be finite and nonnegative, got {mu!r}")
    k = int(k)
    if mu == 0.0:
        return 1.0 if k == 0 else 0.0
    if k == 0:
        return math.exp(-mu)
    return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))


def coeff_interval(mu_lo: float, mu_hi: float, k: int) -> tuple[float, float]:
    """Exact min/max of the k-photon Poisson coefficient over ``mu in [mu_lo, mu_hi]``.

    The coefficient is unimodal in ``mu`` with its single maximum at ``mu = k``,
    so the extrema sit at the interval endpoints or at that interior point.
    """
    if not 0.0 <= mu_lo <= mu_hi < math.inf:
        raise ValueError(f"invalid intensity interval [{mu_lo}, {mu_hi}]")
    candidates = [poisson_coeff(mu_lo, k), poisson_coeff(mu_hi, k)]
    if mu_lo < k < mu_hi:
        candidates.append(poisson_coeff(float(k), k))
    return min(candidates), max(candidates)


@dataclass(frozen=True)
class SideSources:
    """One side's four-source configuration.

    ``vacuum_cap`` bounds the unstable vacuum source's intensity from above;
    ``fluctuation`` is the relative amplitude of the multiplicative intensity
    error on the x/y/z sources.
    """

    mu_x: float
    mu_y: float
    mu_z: float
    p_v: float
    p_x: float
    p_y: float
    p_z: float
    vacuum_cap: float = 0.0
    fluctuation: float = 0.0

    def __post_init__(self) -> None:
        for f_ in fields(self):
            if not math.isfinite(getattr(self, f_.name)):
                raise ValueError(f"{f_.name} must be finite, got {getattr(self, f_.name)}")
        if not (0.0 < self.mu_x < self.mu_y):
            raise ValueError(
                f"decoy intensities must satisfy 0 < mu_x < mu_y, got mu_x={self.mu_x}, mu_y={self.mu_y}"
            )
        if self.mu_z <= 0.0:
            raise ValueError(f"signal intensity mu_z must be positive, got {self.mu_z}")
        if self.vacuum_cap < 0.0:
            raise ValueError(f"vacuum_cap must be nonnegative, got {self.vacuum_cap}")
        if not (0.0 <= self.fluctuation < 1.0):
            raise ValueError(f"fluctuation must lie in [0, 1), got {self.fluctuation}")
        probs = {"p_v": self.p_v, "p_x": self.p_x, "p_y": self.p_y, "p_z": self.p_z}
        for name, p in probs.items():
            if p <= 0.0:
                raise ValueError(f"{name} must be positive, got {p}")
        total = self.p_v + self.p_x + self.p_y + self.p_z
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"source probabilities must sum to 1, got {total!r}")
        for source in SOURCES:
            mu_hi = self.intensity_interval(source)[1]
            if not mu_hi < MAX_INTENSITY:
                raise ValueError(
                    f"source {source} intensity interval ends at {mu_hi:g}, not below {MAX_INTENSITY:.6g}, "
                    "where the zero-photon coefficient e^-mu underflows"
                )

    def probability(self, source: str) -> float:
        return {"v": self.p_v, "x": self.p_x, "y": self.p_y, "z": self.p_z}[source]

    def intensity_interval(self, source: str) -> tuple[float, float]:
        """Admissible per-pulse intensity range of one source."""
        if source == "v":
            return 0.0, self.vacuum_cap
        mu = {"x": self.mu_x, "y": self.mu_y, "z": self.mu_z}[source]
        return mu * (1.0 - self.fluctuation), mu * (1.0 + self.fluctuation)


@dataclass(frozen=True)
class SourceEnsemble:
    """Source configurations of both sides."""

    alice: SideSources
    bob: SideSources

    @classmethod
    def symmetric(cls, side: SideSources) -> "SourceEnsemble":
        return cls(alice=side, bob=side)

    @cached_property
    def bounds(self) -> PhotonCoeffBounds:
        """The worst-case coefficient bounds of these sources, built once per ensemble."""
        return coeff_bounds(self)


@dataclass(frozen=True)
class SideCoeffBounds:
    """Worst-case photon-number coefficient bounds for one side.

    ``lower[l][k]`` / ``upper[l][k]`` bound the k-photon coefficient of source
    ``l`` over that source's intensity interval, for k = 0, 1, 2: the rate
    reads nothing else, and :func:`check_decoy_conditions` decides every
    k >= 2 from the k = 2 entries.
    """

    intervals: dict[str, tuple[float, float]]
    lower: dict[str, tuple[float, ...]]
    upper: dict[str, tuple[float, ...]]

    def lo(self, source: str, k: int) -> float:
        return self.lower[source][k]

    def hi(self, source: str, k: int) -> float:
        return self.upper[source][k]


@dataclass(frozen=True)
class PhotonCoeffBounds:
    """Coefficient bounds for both sides (Alice's are the a's, Bob's the b's)."""

    alice: SideCoeffBounds
    bob: SideCoeffBounds

    @cached_property
    def decoy(self) -> DecoyConditionReport:
        """The decoy-condition verdict on these bounds, computed once per table."""
        return check_decoy_conditions(self)


def _side_bounds(side: SideSources) -> SideCoeffBounds:
    """The k = 0, 1, 2 table of one side, on the intervals its :class:`SideSources` has checked."""
    intervals = {s: side.intensity_interval(s) for s in SOURCES}
    lower: dict[str, tuple[float, ...]] = {}
    upper: dict[str, tuple[float, ...]] = {}
    for source, (mu_lo, mu_hi) in intervals.items():
        pairs = [coeff_interval(mu_lo, mu_hi, k) for k in range(3)]
        lower[source] = tuple(p[0] for p in pairs)
        upper[source] = tuple(p[1] for p in pairs)
    return SideCoeffBounds(intervals=intervals, lower=lower, upper=upper)


def coeff_bounds(ensemble: SourceEnsemble) -> PhotonCoeffBounds:
    """Worst-case coefficient bounds for every source of both sides; equal sides share one table."""
    alice = _side_bounds(ensemble.alice)
    return PhotonCoeffBounds(alice=alice, bob=alice if ensemble.bob == ensemble.alice else _side_bounds(ensemble.bob))


@dataclass(frozen=True)
class DecoyConditionReport:
    """Outcome of the decoy-state precondition checks.

    Each failure reads ``side:check: detail``, where check is
    ``intensity-intervals-disjoint`` or ``vacuum-ratio``.  A failing report
    means the single-photon bounds below are not valid for these sources; the
    key-rate analysis must refuse to run on it.
    """

    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.passed:
            return "decoy conditions satisfied"
        return "; ".join(self.failures)


def check_decoy_conditions(bounds: PhotonCoeffBounds) -> DecoyConditionReport:
    """Verify the ratio conditions the single-photon estimates rest on, for every k >= 2.

    Checked per side, with ``P_k(mu) = e^-mu mu^k / k!``.  Both conditions
    read a lower bound over an upper bound, which is the minimum, over every
    s in the numerator's interval and t in the denominator's, of
    ``P_k(s)/P_k(t) = e^(t - s) (s/t)^k``.  Where every such pair has
    s >= t, each of these ratios does not decrease in k, and so neither does
    their minimum:

    * the x and y intensity intervals must be disjoint (x strictly below y).
      That alone certifies the decoy ratio chain ``a_k^{y,L}/a_k^{x,U} >=
      a_2^{y,L}/a_2^{x,U} >= a_1^{y,L}/a_1^{x,U}`` for every k >= 2.
    * vacuum ratio: ``a_k^{l,L}/a_k^{v,U} >= a_1^{l,U}/a_1^{v,U}`` for
      l = x, y, with a right side fixed in k.  For a decoy whose interval
      starts at or above the vacuum cap c, t ranges over (0, c] (``P_k(0)``
      is 0) and s/t >= 1, so the check at k = 2 decides every k >= 2.  For
      one that starts below c, the term at its lower end and t = c falls to
      zero, so the condition fails at some k unless ``a_1^{l,U} = 0``.  That
      k grows like ``1/log(c/l_lo)``, past any fixed depth and past the
      point where both products underflow to zero and compare equal, so
      this case is decided by comparing ``l_lo`` with c.  When
      ``a_1^{v,U} = 0`` the vacuum source is exactly vacuum and the
      condition holds by convention (every downstream use enters through
      factors that vanish with it).
    """
    failures: list[str] = []
    for side_name, sb in (("alice", bounds.alice), ("bob", bounds.bob)):
        x_lo, x_hi = sb.intervals["x"]
        y_lo, y_hi = sb.intervals["y"]
        if not x_hi < y_lo:
            failures.append(
                f"{side_name}:intensity-intervals-disjoint: "
                f"x interval [{x_lo:g}, {x_hi:g}] overlaps y interval [{y_lo:g}, {y_hi:g}]"
            )

        a1v_hi = sb.hi("v", 1)
        if a1v_hi != 0.0:
            bad = next((s for s in ("x", "y") if sb.lo(s, 2) * a1v_hi < sb.hi(s, 1) * sb.hi("v", 2)), None)
            if bad is not None:
                failures.append(f"{side_name}:vacuum-ratio: source {bad} violates the vacuum ratio at k=2")
            else:
                cap = sb.intervals["v"][1]
                tail = next((s for s in ("x", "y") if sb.intervals[s][0] < cap and sb.hi(s, 1) > 0.0), None)
                if tail is not None:
                    failures.append(
                        f"{side_name}:vacuum-ratio: source {tail} violates the vacuum ratio at large k: "
                        f"its interval starts at {sb.intervals[tail][0]:g}, below the vacuum cap {cap:g}"
                    )

    return DecoyConditionReport(failures=tuple(failures))
