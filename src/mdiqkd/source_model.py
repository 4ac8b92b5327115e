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
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .stat_bounds import ComboGroup, combo_group

SOURCES = ("v", "x", "y", "z")

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


def coeff_rows(mu_lo: float, mu_hi: float, ks: Iterable[int] = (0, 1, 2)) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Exact minima and maxima of the k-photon Poisson coefficients over ``mu in [mu_lo, mu_hi]``, one per k of ``ks``.

    The interval is checked once.  Each coefficient is unimodal in ``mu`` with
    its single maximum at ``mu = k``, so its extrema sit at the interval
    endpoints or at that interior point.  They are picked by comparisons,
    with the bits ``min`` and ``max`` of those values give: no coefficient
    is NaN or ``-0.0``, so values that tie have the same bits.
    """
    if not 0.0 <= mu_lo <= mu_hi < math.inf:
        raise ValueError(f"invalid intensity interval [{mu_lo}, {mu_hi}]")
    lower, upper = [], []
    for k in ks:
        lo, hi = poisson_coeff(mu_lo, k), poisson_coeff(mu_hi, k)
        if hi < lo:
            lo, hi = hi, lo
        if mu_lo < k < mu_hi:
            peak = poisson_coeff(float(k), k)
            if peak < lo:
                lo = peak
            if peak > hi:
                hi = peak
        lower.append(lo)
        upper.append(hi)
    return tuple(lower), tuple(upper)


@dataclass(frozen=True)
class SideSources:
    """One side's four-source configuration.

    ``vacuum_cap`` bounds the unstable vacuum source's intensity from above;
    ``fluctuation`` is the relative amplitude of the multiplicative intensity
    error on the x/y/z sources.

    Four dicts are built once, when the sources are made and checked, each
    keyed by source in the order of ``SOURCES``: ``intervals``, the
    admissible per-pulse intensity range ``(lo, hi)`` of each source;
    ``table``, its ``(probability, simulation intensity)``; and ``lower``
    and ``upper``, whose ``[k]`` bound its k-photon coefficient over that
    interval for k = 0, 1, 2, all the rate and the decoy checks read.
    Observables are generated at the simulation intensity: a fluctuating
    source's nominal midpoint, and half the cap for the unstable vacuum
    source, while the analysis reads the full worst-case intervals.  No dict
    is a field, so equality, hashing and ``repr`` see the fields alone.
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
        mu_x, mu_y, mu_z, p_v, p_x, p_y, p_z, cap, fluctuation = vars(self).values()
        if not (0.0 < mu_x < mu_y):
            raise ValueError(f"decoy intensities must satisfy 0 < mu_x < mu_y, got mu_x={mu_x}, mu_y={mu_y}")
        if mu_z <= 0.0:
            raise ValueError(f"signal intensity mu_z must be positive, got {mu_z}")
        if cap < 0.0:
            raise ValueError(f"vacuum_cap must be nonnegative, got {cap}")
        if not (0.0 <= fluctuation < 1.0):
            raise ValueError(f"fluctuation must lie in [0, 1), got {fluctuation}")
        table = {"v": (p_v, cap / 2.0), "x": (p_x, mu_x), "y": (p_y, mu_y), "z": (p_z, mu_z)}
        for source, (p, _) in table.items():
            if p <= 0.0:
                raise ValueError(f"p_{source} must be positive, got {p}")
        total = p_v + p_x + p_y + p_z
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"source probabilities must sum to 1, got {total!r}")
        down, up = 1.0 - fluctuation, 1.0 + fluctuation
        intervals = {"v": (0.0, cap), "x": (mu_x * down, mu_x * up), "y": (mu_y * down, mu_y * up), "z": (mu_z * down, mu_z * up)}
        for source, (_, mu_hi) in intervals.items():
            if not mu_hi < MAX_INTENSITY:
                raise ValueError(
                    f"source {source} intensity interval ends at {mu_hi:g}, not below {MAX_INTENSITY:.6g}, "
                    "where the zero-photon coefficient e^-mu underflows"
                )
        lower, upper = {}, {}
        for source, interval in intervals.items():  # once every interval is checked
            lower[source], upper[source] = coeff_rows(*interval)
        vars(self).update(intervals=intervals, table=table, lower=lower, upper=upper)


Pair = tuple[str, str]


def _with_mirrors(pairs: Iterable[tuple[str, str, str]]) -> tuple[tuple[Pair, str, int], ...]:
    """Each ``(l, r, basis)`` of ``pairs`` as ``((l, r), basis, mirror)``, ``mirror`` the index of the earlier pair r-l, else -1."""
    index: dict[Pair, int] = {}
    rows = []
    for l, r, basis in pairs:
        mirror = index.get((r, l), -1)
        index[l, r] = len(rows)
        rows.append(((l, r), basis, mirror))
    return tuple(rows)


# The (Alice, Bob) sources whose observables the key-rate analysis reads,
# with the basis each pair is measured in and, derived here once, its mirror.
_ANALYSED_PAIRS = _with_mirrors(
    (
        ("v", "v", "X"),
        ("v", "x", "X"),
        ("x", "v", "X"),
        ("x", "x", "X"),
        ("v", "y", "X"),
        ("y", "v", "X"),
        ("y", "y", "X"),
        ("z", "z", "Z"),
    )
)


@dataclass(frozen=True)
class SourceEnsemble:
    """Source configurations of both sides.

    Two values are built once per ensemble, when it is made: ``bounds``, the
    worst-case coefficient bounds of these sources, and ``pair_table``, the
    ``(pair, basis, mu_l, mu_r, p_l p_r, mirror)`` of each analysed pair
    ``(l, r)``, read off each side's ``table``.  ``mirror`` is the index of
    the earlier entry r-l on sides given as one object, whose intensities
    are this entry's swapped, else -1.  Neither is a field, so equality,
    hashing and ``repr`` see the sources alone.
    """

    alice: SideSources
    bob: SideSources

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", coeff_bounds(self))
        shared = self.bob is self.alice
        alice, bob = self.alice.table, self.bob.table
        table = []
        for pair, basis, mirror in _ANALYSED_PAIRS:
            (p_l, mu_l), (p_r, mu_r) = alice[pair[0]], bob[pair[1]]
            table.append((pair, basis, mu_l, mu_r, p_l * p_r, mirror if shared else -1))
        object.__setattr__(self, "pair_table", tuple(table))

    @classmethod
    def symmetric(cls, side: SideSources) -> "SourceEnsemble":
        return cls(alice=side, bob=side)


@dataclass(frozen=True)
class PhotonCoeffBounds:
    """Coefficient bounds for both sides (Alice's are the a's, Bob's the b's): each side's own :class:`SideSources`.

    ``decoy``, the decoy-condition verdict on these bounds, is computed once
    per coefficient table, when the table is made.  The table also keeps the
    terms :meth:`analysis_terms` built last.  Like ``bounds`` of
    :class:`SourceEnsemble` neither is a field.
    """

    alice: SideSources
    bob: SideSources

    def __post_init__(self) -> None:
        object.__setattr__(self, "decoy", check_decoy_conditions(self))
        object.__setattr__(self, "_terms", (None, None, None))

    def analysis_terms(self, emitted: dict[Pair, float], n_pairs: float) -> "AnalysisTerms":
        """The :func:`analysis_terms` of this table over the expected emissions ``emitted``.

        The table keeps one slot: the ``n_pairs``, a copy of ``emitted`` and
        the terms built over them.  The terms are read again while both
        compare equal, so every distance of a scan reads the terms its first
        distance built, and a dict changed in place or another ``n_pairs``
        builds them anew.  Equality ignores the order of ``emitted``, which
        decides only which pair an infeasible verdict names first; a kept
        verdict's pair expects no emissions in an equal dict either.
        """
        kept_n, kept_emitted, terms = self._terms
        if kept_n != n_pairs or kept_emitted != emitted:
            terms = analysis_terms(self, emitted, n_pairs)
            object.__setattr__(self, "_terms", (n_pairs, dict(emitted), terms))
        return terms


class AnalysisTerms(NamedTuple):
    """What the key-rate analysis reads of a coefficient table and the expected emissions, apart from the counts.

    ``infeasible`` says why the analysis cannot run, and is empty where it
    can; every other field is NaN or None where it cannot.  ``pz2`` is the
    z-z emission fraction.  ``sigma_x`` is the x-basis vacuum-contamination
    factor, ``denominator`` that of the yield floor ``s11``, ``c_y`` is
    ``a1_y^L b2_y^L``, the coefficient of h in the ``s11`` numerator, ``beta``
    is ``a1_x^L b1_x^L`` and ``gamma`` is ``a1_z^L b1_z^L``.  Each group is a
    :class:`~mdiqkd.stat_bounds.ComboGroup` of ``(coefficient, (l, r))``
    terms, one per count of pair l-r that the group combines, each
    coefficient a weight over the pair's expected emissions:

    * ``yield_plus``, counts: ``c_y <S_xx> + K (a0_ratio <S_vy> + b0_ratio <S_yv>)``
    * ``yield_minus``, counts: ``K (<S_yy> + ab0_ratio <S_vv>)``
    * ``error_plus``, errors: ``a0_ratio <T_vx> + b0_ratio <T_xv>``
    * ``error_minus``, errors: ``ab0_ratio <T_vv> + sigma_x <T_xx>``

    with ``K = a1_x^U b2_x^U / (1 - sigma_y)``; the vacuum ratio of each
    side, ``a0_ratio = a0^L / a0_v^U`` and ``b0_ratio`` alike, its basis
    source's zero-photon floor over its vacuum source's ceiling; the
    basis-basis pair's ``ab0_ratio = a0^U b0^U / (a0_v^L b0_v^L)``, its
    zero-photon ceiling over the vacuum pair's floor; the ratios of the y
    basis in the yield groups and of the x basis in the error groups; and the
    pair names read with the a side first.  Each group is built into its
    telescope here, once: its coefficients checked and sorted and the weight
    of each level computed, so :func:`~mdiqkd.stat_bounds.combo_lower` and
    :func:`~mdiqkd.stat_bounds.combo_upper` only check, pool and bound the
    counts of a distance.  The terms keep the order of these formulas, in
    which a bound names the first bad count.

    A named tuple, not a frozen dataclass: the optimizer builds terms at
    every probe, and a tuple is built, and its class made at import, in a
    fraction of the time.
    """

    infeasible: str
    pz2: float = math.nan
    sigma_x: float = math.nan
    denominator: float = math.nan
    c_y: float = math.nan
    beta: float = math.nan
    gamma: float = math.nan
    yield_plus: ComboGroup | None = None
    yield_minus: ComboGroup | None = None
    error_plus: ComboGroup | None = None
    error_minus: ComboGroup | None = None


_VV, _VX, _XV, _XX, _VY, _YV, _YY, _ZZ = (("v", "v"), ("v", "x"), ("x", "v"), ("x", "x"), ("v", "y"), ("y", "v"), ("y", "y"), ("z", "z"))


def analysis_terms(bounds: PhotonCoeffBounds, emitted: dict[Pair, float], n_pairs: float) -> AnalysisTerms:
    """The :class:`AnalysisTerms` of a coefficient table and of the expected emissions ``emitted`` of each pair.

    Checked in order, and the first failure is the verdict: every pair in
    ``emitted`` must expect emissions, in its order; then the contamination
    factors; then the x ceilings that ``r12`` and ``r21`` below divide by,
    since a tiny ``mu_x`` underflows them to zero, and a zero is no upper
    bound; then the denominator.  Each contamination factor measures how
    much of a decoy source's zero-photon statistics the unstable vacuum
    source's one-photon component could fake; the bounds built on them
    require each per-basis sum, Alice's factor plus Bob's, to stay below one.
    The first factor check also guards the vacuum-vacuum denominator
    ``a0_v^L b0_v^L`` that the yield and H bounds divide by.  The products
    themselves are checked, since two tiny positive bounds can multiply to
    zero.

    The yield floor eliminates the one-two yield ``Y_12`` and drops ``Y_21``,
    whose weight has the sign of ``r12 - r21``, with
    ``r12 = (a1_y^L / a1_x^U)(b2_y^L / b2_x^U)`` and
    ``r21 = (a2_y^L / a2_x^U)(b1_y^L / b1_x^U)``.  So it holds only where
    ``r21 >= r12``.  Where ``r21 < r12`` every term is built with Bob's table
    as the a side, and with the v-x/x-v and v-y/y-v pairs exchanged, which
    eliminates ``Y_21`` and drops ``Y_12`` instead.  On sides with one table
    the two products are equal bit for bit, so nothing is exchanged.
    """
    for (l, r), expected in emitted.items():
        if not expected > 0.0:
            return AnalysisTerms(f"no expected emissions from source pair {l}-{r}; p_{l} p_{r} n_pairs underflows to zero")
    # a_lo[s][k] and a_hi[s][k] bound the k-photon coefficient of source s on the a side, b_lo and b_hi on the b side.
    a_lo, a_hi, b_lo, b_hi = bounds.alice.lower, bounds.alice.upper, bounds.bob.lower, bounds.bob.upper
    a_v, b_v = a_lo["v"][0], b_lo["v"][0]
    ax, ay, bx, by = a_v * a_lo["x"][1], a_v * a_lo["y"][1], b_v * b_lo["x"][1], b_v * b_lo["y"][1]
    # min(ax, ay, bx, by, a_v * b_v) > 0.0 by comparisons: min passes over a NaN after its first argument, and so does this.
    if not ax > 0.0 or ay <= 0.0 or bx <= 0.0 or by <= 0.0 or a_v * b_v <= 0.0:
        return AnalysisTerms("zero denominator in contamination factors; coefficient bounds degenerate")
    sigma_x = a_hi["x"][0] * a_hi["v"][1] / ax + b_hi["x"][0] * b_hi["v"][1] / bx
    sigma_y = a_hi["y"][0] * a_hi["v"][1] / ay + b_hi["y"][0] * b_hi["v"][1] / by
    if sigma_x >= 1.0 or sigma_y >= 1.0:
        return AnalysisTerms(
            f"vacuum contamination too large (x: {sigma_x:.3g}, y: {sigma_y:.3g}); bounds require each sum below 1"
        )
    if not (a_hi["x"][1] > 0.0 and a_hi["x"][2] > 0.0 and b_hi["x"][1] > 0.0 and b_hi["x"][2] > 0.0):
        return AnalysisTerms("x-source coefficient ceiling underflows to zero; mu_x too small for the bound")
    vx, xv, vy, yv = _VX, _XV, _VY, _YV
    r12 = (a_lo["y"][1] / a_hi["x"][1]) * (b_lo["y"][2] / b_hi["x"][2])
    r21 = (a_lo["y"][2] / a_hi["x"][2]) * (b_lo["y"][1] / b_hi["x"][1])
    if r21 < r12:
        a_lo, a_hi, b_lo, b_hi, a_v, b_v = b_lo, b_hi, a_lo, a_hi, b_v, a_v
        vx, xv, vy, yv = _XV, _VX, _YV, _VY
    denominator = a_hi["x"][1] * a_lo["y"][1] * (b_hi["x"][1] * b_lo["y"][2] - b_hi["x"][2] * b_lo["y"][1])
    if denominator <= 0.0:
        return AnalysisTerms("single-photon denominator is not positive; decoy intensities too close for the bound")
    scale, c_y, e = a_hi["x"][1] * b_hi["x"][2] / (1.0 - sigma_y), a_lo["y"][1] * b_lo["y"][2], emitted
    a_vu, b_vu, ab_v = a_hi["v"][0], b_hi["v"][0], a_v * b_v
    # Each term is (weight / expected emissions of its pair, pair).
    return AnalysisTerms(
        infeasible="",
        pz2=e[_ZZ] / n_pairs,
        sigma_x=sigma_x,
        denominator=denominator,
        c_y=c_y,
        beta=a_lo["x"][1] * b_lo["x"][1],
        gamma=a_lo["z"][1] * b_lo["z"][1],
        yield_plus=combo_group(
            ((c_y / e[_XX], _XX), (scale * (a_lo["y"][0] / a_vu) / e[vy], vy), (scale * (b_lo["y"][0] / b_vu) / e[yv], yv))
        ),
        yield_minus=combo_group(((scale / e[_YY], _YY), (scale * (a_hi["y"][0] * b_hi["y"][0] / ab_v) / e[_VV], _VV))),
        error_plus=combo_group((((a_lo["x"][0] / a_vu) / e[vx], vx), ((b_lo["x"][0] / b_vu) / e[xv], xv))),
        error_minus=combo_group((((a_hi["x"][0] * b_hi["x"][0] / ab_v) / e[_VV], _VV), (sigma_x / e[_XX], _XX))),
    )


def coeff_bounds(ensemble: SourceEnsemble) -> PhotonCoeffBounds:
    """Worst-case coefficient bounds for every source of both sides: the tables each side built when it was made."""
    return PhotonCoeffBounds(alice=ensemble.alice, bob=ensemble.bob)


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

    Sides given as one object are checked once.
    """
    alice = _side_failures(bounds.alice)
    bob = alice if bounds.bob is bounds.alice else _side_failures(bounds.bob)
    if not (alice or bob):
        return DecoyConditionReport(failures=())
    return DecoyConditionReport(failures=tuple([f"alice:{f}" for f in alice] + [f"bob:{f}" for f in bob]))


def _side_failures(side: SideSources) -> list[str]:
    """The ``check: detail`` failures of one side, for :func:`check_decoy_conditions`."""
    failures: list[str] = []
    intervals, lower, upper = side.intervals, side.lower, side.upper
    x_lo, x_hi = intervals["x"]
    y_lo, y_hi = intervals["y"]
    if not x_hi < y_lo:
        failures.append(
            "intensity-intervals-disjoint: "
            f"x interval [{x_lo:g}, {x_hi:g}] overlaps y interval [{y_lo:g}, {y_hi:g}]"
        )

    _, a1v_hi, a2v_hi = upper["v"]
    if a1v_hi != 0.0:
        for s in ("x", "y"):
            if lower[s][2] * a1v_hi < upper[s][1] * a2v_hi:
                failures.append(f"vacuum-ratio: source {s} violates the vacuum ratio at k=2")
                break
        else:
            cap = intervals["v"][1]
            for s in ("x", "y"):
                if intervals[s][0] < cap and upper[s][1] > 0.0:
                    failures.append(
                        f"vacuum-ratio: source {s} violates the vacuum ratio at large k: "
                        f"its interval starts at {intervals[s][0]:g}, below the vacuum cap {cap:g}"
                    )
                    break
    return failures
