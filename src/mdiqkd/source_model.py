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
from dataclasses import dataclass
from typing import NamedTuple

SOURCES = ("v", "x", "y", "z")

# The field holding each source's emission probability, and each fluctuating source's nominal intensity.
_PROBABILITY = {"v": "p_v", "x": "p_x", "y": "p_y", "z": "p_z"}
_INTENSITY = {"x": "mu_x", "y": "mu_y", "z": "mu_z"}

# Every intensity interval must end below this: at or above it the
# zero-photon coefficient e^-mu underflows the smallest normal float.
MAX_INTENSITY = -math.log(sys.float_info.min)

_PROB_TOL = 1e-12

# lgamma(3) = log 2!, which is not math.log(2.0): the two differ in the last bit.
_LGAMMA_3 = math.lgamma(3.0)


def poisson_coeff(mu: float, k: int) -> float:
    """Probability that a phase-randomized WCS pulse of intensity ``mu`` carries ``k`` photons.

    ``exp(k log mu - mu - lgamma(k + 1))``, so large ``k`` neither overflows
    the factorial nor underflows prematurely.  The k = 1 and k = 2 forms
    drop the ``k *`` and call no ``lgamma``, with the same result bit for bit.
    A ``k`` that is not a plain ``int`` (a bool, or a whole float) counts as
    its integer value.
    """
    if type(k) is not int or k < 0:
        if not (0 <= k < math.inf and k == int(k)):
            raise ValueError(f"photon number must be a nonnegative integer, got {k!r}")
        k = int(k)
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"intensity must be finite and nonnegative, got {mu!r}")
    if mu == 0.0:
        return 1.0 if k == 0 else 0.0
    if k == 0:
        return math.exp(-mu)
    if k == 1:
        return math.exp(math.log(mu) - mu)  # lgamma(2.0) is exactly 0.0
    if k == 2:
        return math.exp(2 * math.log(mu) - mu - _LGAMMA_3)
    return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))


def coeff_interval(mu_lo: float, mu_hi: float, k: int) -> tuple[float, float]:
    """Exact min/max of the k-photon Poisson coefficient over ``mu in [mu_lo, mu_hi]``.

    The coefficient is unimodal in ``mu`` with its single maximum at ``mu = k``,
    so the extrema sit at the interval endpoints or at that interior point.
    """
    if not 0.0 <= mu_lo <= mu_hi < math.inf:
        raise ValueError(f"invalid intensity interval [{mu_lo}, {mu_hi}]")
    at_lo, at_hi = poisson_coeff(mu_lo, k), poisson_coeff(mu_hi, k)
    if mu_lo < k < mu_hi:
        peak = poisson_coeff(float(k), k)
        return min(at_lo, at_hi, peak), max(at_lo, at_hi, peak)
    return (at_lo, at_hi) if at_lo <= at_hi else (at_hi, at_lo)


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
        # Here vars(self) holds exactly the fields, in order; reading it is cheaper than fields().
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
        for name in _PROBABILITY.values():
            if (p := getattr(self, name)) <= 0.0:
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
        return getattr(self, _PROBABILITY[source])

    def intensity_interval(self, source: str) -> tuple[float, float]:
        """Admissible per-pulse intensity range of one source."""
        if source == "v":
            return 0.0, self.vacuum_cap
        mu = getattr(self, _INTENSITY[source])
        return mu * (1.0 - self.fluctuation), mu * (1.0 + self.fluctuation)


def simulation_intensity(side_sources: SideSources, source: str) -> float:
    """Intensity at which observables are generated for one source.

    Fluctuating sources emit at their nominal midpoint; the unstable vacuum
    source at half its cap.  The analysis side keeps using full worst-case
    intervals regardless.
    """
    if source == "v":
        return side_sources.vacuum_cap / 2.0
    return getattr(side_sources, _INTENSITY[source])


def _source_table(side_sources: SideSources) -> dict[str, tuple[float, float]]:
    """``(probability, simulation intensity)`` of each of one side's sources."""
    return {s: (side_sources.probability(s), simulation_intensity(side_sources, s)) for s in SOURCES}


# The (Alice, Bob) sources whose observables the key-rate analysis reads,
# with the basis each pair is measured in.
_ANALYSED_PAIRS = (
    ("v", "v", "X"),
    ("v", "x", "X"),
    ("x", "v", "X"),
    ("x", "x", "X"),
    ("v", "y", "X"),
    ("y", "v", "X"),
    ("y", "y", "X"),
    ("z", "z", "Z"),
)


@dataclass(frozen=True)
class SourceEnsemble:
    """Source configurations of both sides.

    Two values are built once per ensemble, when it is made: ``bounds``, the
    worst-case coefficient bounds of these sources, and ``pair_table``, the
    ``(l, r, basis, mu_l, mu_r, p_l p_r)`` of each analysed pair, with the
    simulation intensities of :func:`simulation_intensity`.  Neither is a
    field, so equality, hashing and ``repr`` see the sources alone.
    """

    alice: SideSources
    bob: SideSources

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", coeff_bounds(self))
        alice = _source_table(self.alice)
        bob = alice if self.bob is self.alice else _source_table(self.bob)
        table = tuple((l, r, basis, alice[l][1], bob[r][1], alice[l][0] * bob[r][0]) for l, r, basis in _ANALYSED_PAIRS)
        object.__setattr__(self, "pair_table", table)

    @classmethod
    def symmetric(cls, side: SideSources) -> "SourceEnsemble":
        return cls(alice=side, bob=side)


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
    """Coefficient bounds for both sides (Alice's are the a's, Bob's the b's).

    ``decoy``, the decoy-condition verdict on these bounds, and ``factors``,
    the :class:`AnalysisFactors` of the key-rate analysis, are computed once
    per coefficient table, when the table is made; like ``bounds`` of
    :class:`SourceEnsemble` neither is a field.
    """

    alice: SideCoeffBounds
    bob: SideCoeffBounds

    def __post_init__(self) -> None:
        object.__setattr__(self, "decoy", check_decoy_conditions(self))
        object.__setattr__(self, "factors", _analysis_factors(self))


class AnalysisFactors(NamedTuple):
    """The factors of the key-rate analysis that a coefficient table alone fixes.

    ``infeasible`` says why the table cannot support the single-photon
    bounds, and is empty where it can; the other fields are NaN where it
    cannot.  ``sigma_x`` and ``sigma_y`` are the vacuum-contamination factors;
    ``denominator`` that of the yield floor ``s11``; ``scale`` is
    ``a1_x^U b2_x^U / (1 - sigma_y)``; ``c_y`` is ``a1_y^L b2_y^L``, the
    coefficient of h in the ``s11`` numerator; ``beta`` is ``a1_x^L b1_x^L``
    and ``gamma`` is ``a1_z^L b1_z^L``.  The ``*_vacuum_*`` fields are the
    ratios of :func:`_vacuum_ratio` and :func:`_pair_vacuum_ratio`.

    A named tuple, not a frozen dataclass: the optimizer makes a table at
    every probe, and a tuple is built, and its class made at import, in a
    fraction of the time.
    """

    infeasible: str
    sigma_x: float = math.nan
    sigma_y: float = math.nan
    denominator: float = math.nan
    scale: float = math.nan
    c_y: float = math.nan
    beta: float = math.nan
    gamma: float = math.nan
    alice_vacuum_x: float = math.nan
    bob_vacuum_x: float = math.nan
    pair_vacuum_x: float = math.nan
    alice_vacuum_y: float = math.nan
    bob_vacuum_y: float = math.nan
    pair_vacuum_y: float = math.nan


def _vacuum_ratio(side: SideCoeffBounds, basis: str) -> float:
    """``l_0^L / v_0^U`` of one side: its basis source's zero-photon floor over the vacuum source's ceiling."""
    return side.lo(basis, 0) / side.hi("v", 0)


def _pair_vacuum_ratio(a: SideCoeffBounds, b: SideCoeffBounds, basis: str) -> float:
    """``a_0^U b_0^U / (a_v0^L b_v0^L)`` of the basis-basis pair: its zero-photon ceiling over the vacuum pair's floor."""
    return a.hi(basis, 0) * b.hi(basis, 0) / (a.lo("v", 0) * b.lo("v", 0))


def _analysis_factors(bounds: PhotonCoeffBounds) -> AnalysisFactors:
    """The :class:`AnalysisFactors` of a table, checked in order: the contamination factors, then the denominator.

    Each contamination factor measures how much of a decoy source's
    zero-photon statistics the unstable vacuum source's one-photon component
    could fake; the bounds built on them require each per-basis sum, Alice's
    factor plus Bob's, to stay below one.  The first check also guards the
    vacuum-vacuum denominator ``a0_v^L b0_v^L`` that the yield and H bounds
    divide by.  The products themselves are checked, since two tiny positive
    bounds can multiply to zero.
    """
    a, b = bounds.alice, bounds.bob
    a_v, b_v = a.lo("v", 0), b.lo("v", 0)
    ax, ay, bx, by = a_v * a.lo("x", 1), a_v * a.lo("y", 1), b_v * b.lo("x", 1), b_v * b.lo("y", 1)
    if not min(ax, ay, bx, by, a_v * b_v) > 0.0:
        return AnalysisFactors("zero denominator in contamination factors; coefficient bounds degenerate")
    sigma_x = a.hi("x", 0) * a.hi("v", 1) / ax + b.hi("x", 0) * b.hi("v", 1) / bx
    sigma_y = a.hi("y", 0) * a.hi("v", 1) / ay + b.hi("y", 0) * b.hi("v", 1) / by
    if sigma_x >= 1.0 or sigma_y >= 1.0:
        return AnalysisFactors(
            f"vacuum contamination too large (x: {sigma_x:.3g}, y: {sigma_y:.3g}); bounds require each sum below 1"
        )
    denominator = a.hi("x", 1) * a.lo("y", 1) * (b.hi("x", 1) * b.lo("y", 2) - b.hi("x", 2) * b.lo("y", 1))
    if denominator <= 0.0:
        return AnalysisFactors("single-photon denominator is not positive; decoy intensities too close for the bound")
    return AnalysisFactors(
        infeasible="",
        sigma_x=sigma_x,
        sigma_y=sigma_y,
        denominator=denominator,
        scale=a.hi("x", 1) * b.hi("x", 2) / (1.0 - sigma_y),
        c_y=a.lo("y", 1) * b.lo("y", 2),
        beta=a.lo("x", 1) * b.lo("x", 1),
        gamma=a.lo("z", 1) * b.lo("z", 1),
        alice_vacuum_x=_vacuum_ratio(a, "x"),
        bob_vacuum_x=_vacuum_ratio(b, "x"),
        pair_vacuum_x=_pair_vacuum_ratio(a, b, "x"),
        alice_vacuum_y=_vacuum_ratio(a, "y"),
        bob_vacuum_y=_vacuum_ratio(b, "y"),
        pair_vacuum_y=_pair_vacuum_ratio(a, b, "y"),
    )


def _side_bounds(side: SideSources) -> SideCoeffBounds:
    """The k = 0, 1, 2 table of one side, on the intervals its :class:`SideSources` has checked."""
    intervals = {s: side.intensity_interval(s) for s in SOURCES}
    lower: dict[str, tuple[float, ...]] = {}
    upper: dict[str, tuple[float, ...]] = {}
    for source, (mu_lo, mu_hi) in intervals.items():
        (lo0, hi0), (lo1, hi1), (lo2, hi2) = (
            coeff_interval(mu_lo, mu_hi, 0), coeff_interval(mu_lo, mu_hi, 1), coeff_interval(mu_lo, mu_hi, 2)
        )
        lower[source], upper[source] = (lo0, lo1, lo2), (hi0, hi1, hi2)
    return SideCoeffBounds(intervals=intervals, lower=lower, upper=upper)


def coeff_bounds(ensemble: SourceEnsemble) -> PhotonCoeffBounds:
    """Worst-case coefficient bounds for every source of both sides; sides given as one object share one table."""
    alice = _side_bounds(ensemble.alice)
    return PhotonCoeffBounds(alice=alice, bob=alice if ensemble.bob is ensemble.alice else _side_bounds(ensemble.bob))


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

    Sides given as one object, as in :func:`coeff_bounds`, are checked once.
    """
    alice = _side_failures(bounds.alice)
    bob = alice if bounds.bob is bounds.alice else _side_failures(bounds.bob)
    return DecoyConditionReport(failures=tuple([f"alice:{f}" for f in alice] + [f"bob:{f}" for f in bob]))


def _side_failures(sb: SideCoeffBounds) -> list[str]:
    """The ``check: detail`` failures of one side, for :func:`check_decoy_conditions`."""
    failures: list[str] = []
    x_lo, x_hi = sb.intervals["x"]
    y_lo, y_hi = sb.intervals["y"]
    if not x_hi < y_lo:
        failures.append(
            "intensity-intervals-disjoint: "
            f"x interval [{x_lo:g}, {x_hi:g}] overlaps y interval [{y_lo:g}, {y_hi:g}]"
        )

    a1v_hi = sb.hi("v", 1)
    if a1v_hi != 0.0:
        bad = next((s for s in ("x", "y") if sb.lo(s, 2) * a1v_hi < sb.hi(s, 1) * sb.hi("v", 2)), None)
        if bad is not None:
            failures.append(f"vacuum-ratio: source {bad} violates the vacuum ratio at k=2")
        else:
            cap = sb.intervals["v"][1]
            tail = next((s for s in ("x", "y") if sb.intervals[s][0] < cap and sb.hi(s, 1) > 0.0), None)
            if tail is not None:
                failures.append(
                    f"vacuum-ratio: source {tail} violates the vacuum ratio at large k: "
                    f"its interval starts at {sb.intervals[tail][0]:g}, below the vacuum cap {cap:g}"
                )
    return failures
