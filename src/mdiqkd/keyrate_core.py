"""Secure key rate from observables, coefficient bounds, and count envelopes.

The single-photon-pair yield cannot be isolated from aggregate counts without
knowing how many of the x-decoy error counts came from pairs in which at
least one side emitted vacuum.  That nuisance quantity, scaled to

    H = 2 <m_xx_vacuum> / (p_x^2 N_t),

is unknown but boundable.  For each admissible H the analysis yields a
single-photon-pair yield floor ``s11(H)``, a phase-error ceiling ``e11(H)``,
and a candidate rate ``R(H)``; the secure rate is the minimum of ``R(H)``
over the whole interval, so the true H can only do better.  ``R(H)`` is convex
on that interval and its slope ``dR/dH`` has a closed form, so the minimum is
found by bisecting on the sign of that slope rather than by sampling a grid.

Every expected counting rate entering those formulas is replaced by its
Chernoff envelope, with positively-combined groups bounded jointly through
the telescoping combination bounds rather than term by term (Zhang et al.,
PRA 95, 012333 (2017)); the groups are those of the four-intensity joint
constraints of Zhou, Yu & Wang, PRA 93, 042324 (2016).  Every term of those
groups is formed in one function, :func:`_terms`, from weights that depend on
the coefficient table alone, held by it as
:class:`~mdiqkd.source_model.AnalysisFactors`.  The Z-basis single-photon
yield is estimated by its X-basis bound.
:class:`RateCurve` is the one implementation of ``s11(H)``, ``e11(H)`` and
``R(H)``, apart from an array form of ``R`` kept for dense-grid checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import stat_bounds
from .channel_sim import ChannelParams, PairObservables, _frozen, build_observables
from .source_model import AnalysisFactors, PhotonCoeffBounds, SourceEnsemble
from .stat_bounds import ChernoffConfig, InvocationCounter


class AnalysisInfeasible(ValueError):
    """Raised when the source configuration cannot support the bounds."""


class SolverError(RuntimeError):
    """Raised by the slope search over H on a NaN or misplaced infinite slope, or a non-finite minimum."""


@dataclass(frozen=True)
class AnalysisInputs:
    """Everything the finite-data analysis consumes."""

    bounds: PhotonCoeffBounds
    observables: PairObservables
    chernoff: ChernoffConfig
    f_ec: float

    @classmethod
    def from_simulation(cls, ensemble: SourceEnsemble, params: ChannelParams) -> "AnalysisInputs":
        """Wire the ensemble's own coefficient bounds to its simulated observables.

        The bounds are ``ensemble.bounds``, built once per ensemble, so a
        distance scan over one ensemble shares a single table, and the
        Chernoff configuration is the one ``params`` holds.
        """
        return _frozen(
            cls,
            bounds=ensemble.bounds,
            observables=build_observables(ensemble, params),
            chernoff=params._chernoff,
            f_ec=params.f_ec,
        )


def _terms(obs: PairObservables, column: str, *weighted: tuple[float, str, str]) -> list[tuple[float, float]]:
    """Combination terms ``(weight / emitted, float(count))``, one per ``(weight, l, r)``, counting field ``column`` of pair l-r."""
    terms = []
    for weight, l, r in weighted:
        entry = obs.entry(l, r)
        terms.append((weight / entry.emitted, float(getattr(entry, column))))
    return terms


def _h_lower(inputs: AnalysisInputs, f: AnalysisFactors, counter: InvocationCounter) -> float:
    """Lower end of the admissible interval for the vacuum-error nuisance H.

    Jointly lower-bounds the positive group (v-x, x-v) and jointly
    upper-bounds the subtracted group (x-x, v-v), then clamps at zero since H
    is a physical error fraction.  The upper end is twice the x-x error-rate
    envelope, ``2 txx_upper`` of the rate curve.
    """
    obs = inputs.observables
    cfg = inputs.chernoff

    positive = stat_bounds.combo_lower(
        _terms(obs, "errors", (f.alice_vacuum_x, "v", "x"), (f.bob_vacuum_x, "x", "v")),
        cfg,
        counter,
    )
    negative = stat_bounds.combo_upper(
        _terms(obs, "errors", (f.pair_vacuum_x, "v", "v"), (f.sigma_x, "x", "x")),
        cfg,
        counter,
    )
    return max(0.0, 2.0 * (positive - negative) / (1.0 - f.sigma_x))


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, with H(0) = H(1) = 0 by continuity."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"binary_entropy requires x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class RateCurve:
    """Candidate rate ``R(h)`` with its yield floor and phase-error ceiling.

    Holds the H-independent pieces.  :meth:`s11`, :meth:`e11` and a call of
    the curve at a Python scalar h read :meth:`_point`, as the search reads
    it, and give Python floats.  Calling the curve at an array of nuisance
    values gives ``R`` alone, for dense-grid checks.  The search over H reads
    :meth:`slope`, and :meth:`_point` at the ends of its final bracket.
    """

    s_plus: float
    s_minus: float
    txx_upper: float
    c_y: float  # coefficient of h in the s11 numerator
    denominator: float
    beta: float  # a1_x^L * b1_x^L
    gamma: float  # a1_z^L * b1_z^L
    pz2: float
    correction: float  # f_ec * S_zz * H2(E_zz), from observed values

    def _scalar_point(self, h: float) -> tuple[float, float, float]:
        """:meth:`_point` at a Python scalar h (``int`` or ``float``); anything else raises :class:`TypeError`."""
        if not isinstance(h, (int, float)):
            raise TypeError(f"s11 and e11 take a Python scalar h, not {type(h).__name__}; an array read of the curve gives R only")
        return self._point(float(h))

    def s11(self, h: float) -> float:
        """Single-photon-pair yield floor; affine and decreasing in h, clamped at zero."""
        return self._scalar_point(h)[0]

    def e11(self, h: float) -> float:
        """Phase-error ceiling clipped to [0, 1]; NaN where the yield floor vanishes."""
        return self._scalar_point(h)[1]

    def __call__(self, h):
        """``R(h)`` (raw; may be negative): a float at a Python scalar h, as :meth:`_point` gives it, else an array.

        ``np.log2`` and ``math.log2`` differ in the last bit for about 0.1 % of
        arguments, so an array read can differ from :meth:`_point` in its last
        bits: by 2 to 4 ulp on 3 of the 1,664 reference probes (numpy 2.4.6).
        """
        if isinstance(h, (int, float)):
            return self._point(float(h))[2]
        import numpy as np

        h = np.asarray(h, dtype=float)
        s11 = np.maximum((self.s_plus - self.s_minus - self.c_y * h) / self.denominator, 0.0)
        positive = s11 > 0.0
        e11 = np.minimum(np.maximum((self.txx_upper - h / 2.0) / (self.beta * np.where(positive, s11, 1.0)), 0.0), 1.0)
        # Phase error at or beyond one half, or undefined, leaves nothing to distill; H2(0) = 0.
        privacy = np.where(positive & (e11 < 0.5), 1.0, 0.0)
        inside = positive & (e11 > 0.0) & (e11 < 0.5)
        e = e11[inside]
        privacy[inside] = 1.0 - (-e * np.log2(e) - (1.0 - e) * np.log2(1.0 - e))
        return self.pz2 * (self.gamma * s11 * privacy - self.correction)

    def _yield_and_error(self, h: float) -> tuple[float, float]:
        """``(s, e)`` at a scalar h: the yield floor before its clamp at zero, and ``e11`` (NaN unless ``s > 0``)."""
        s = (self.s_plus - self.s_minus - self.c_y * h) / self.denominator
        if not s > 0.0:
            return s, math.nan
        # max/min in this order keep a NaN quotient NaN; adding 0.0 turns -0.0 into 0.0.
        return s, min(max((self.txx_upper - h / 2.0) / (self.beta * s), 0.0), 1.0) + 0.0

    def _point(self, h: float) -> tuple[float, float, float]:
        """``(s11, e11, R)`` at a scalar h, as Python floats."""
        s, e = self._yield_and_error(h)
        s11 = max(s, 0.0) + 0.0  # NaN stays NaN, -0.0 becomes 0.0
        # Phase error at or beyond one half, or undefined, leaves nothing to distill.
        privacy = 1.0 - binary_entropy(e) if e < 0.5 else 0.0
        return s11, e, self.pz2 * (self.gamma * s11 * privacy - self.correction)

    def slope(self, h: float) -> float:
        """Exact ``dR/dh`` at a scalar h; it depends on h only through ``e = e11(h)``.

        R is ``pz2 gamma s phi(e)`` less a constant, with ``s = s11(h)`` and
        ``phi(e) = 1 - H2(e)``.  Since ``s' = -c_y/denominator`` and
        ``s e' = -1/(2 beta) + (c_y/denominator) e``, the product rule gives
        ``-pz2 gamma ((c_y/denominator) (1 + log2(1-e)) + log2(e/(1-e)) / (2 beta))``.
        It is 0 where ``s11`` is clamped to zero or ``e >= 1/2``, since R is
        flat there, and ``+inf`` at ``e = 0`` (``h = h_upper``).  A NaN in h
        or in a field the slope uses gives NaN, not an exception.
        """
        s, e = self._yield_and_error(h)
        if s <= 0.0 or e >= 0.5:
            return 0.0
        if e == 0.0:
            return math.inf
        log_not_e = math.log2(1.0 - e)
        return -self.pz2 * self.gamma * (
            self.c_y / self.denominator * (1.0 + log_not_e) + (math.log2(e) - log_not_e) / (2.0 * self.beta)
        )


def _curve(inputs: AnalysisInputs, f: AnalysisFactors, counter: InvocationCounter) -> RateCurve:
    """The rate curve.

    ``s_plus`` jointly lower-bounds the positive yield group
    ``c_y <S_xx> + K (a0_ratio <S_vy> + b0_ratio <S_yv>)`` and ``s_minus``
    jointly upper-bounds the subtracted y-y and vacuum-vacuum group, with
    ``K = f.scale``.
    """
    obs = inputs.observables
    cfg = inputs.chernoff
    scale = f.scale
    s_plus = stat_bounds.combo_lower(
        _terms(obs, "counts", (f.c_y, "x", "x"), (scale * f.alice_vacuum_y, "v", "y"), (scale * f.bob_vacuum_y, "y", "v")),
        cfg,
        counter,
    )
    s_minus = stat_bounds.combo_upper(
        _terms(obs, "counts", (scale, "y", "y"), (scale * f.pair_vacuum_y, "v", "v")),
        cfg,
        counter,
    )
    xx = obs.entry("x", "x")
    return _frozen(
        RateCurve,
        s_plus=s_plus,
        s_minus=s_minus,
        txx_upper=stat_bounds.chernoff_upper(xx.errors, cfg, counter) / xx.emitted,
        c_y=f.c_y,
        denominator=f.denominator,
        beta=f.beta,
        gamma=f.gamma,
        pz2=obs.entry("z", "z").emitted / obs.n_pairs,
        correction=inputs.f_ec * obs.signal_rate * binary_entropy(obs.signal_error_rate),
    )


def _analysis(inputs: AnalysisInputs, counter: InvocationCounter) -> tuple[RateCurve, float, float]:
    """``(curve, h_lower, h_upper)``, with every Chernoff bound solved once."""
    for (l, r), entry in inputs.observables.pairs.items():
        if not entry.emitted > 0.0:
            raise AnalysisInfeasible(f"no expected emissions from source pair {l}-{r}; p_{l} p_{r} n_pairs underflows to zero")
    factors = inputs.bounds.factors
    if factors.infeasible:
        raise AnalysisInfeasible(factors.infeasible)
    curve = _curve(inputs, factors, counter)
    h_lower, h_upper = _h_lower(inputs, factors, counter), 2.0 * curve.txx_upper
    # Emissions near the float minimum give count weights near its maximum.  s11 is affine in h, so it is
    # finite on the interval if it is at both ends.
    if not all(math.isfinite(curve._yield_and_error(h)[0]) for h in (h_lower, h_upper)):
        raise AnalysisInfeasible(f"single-photon yield floor s11 overflows on H in [{h_lower:.3g}, {h_upper:.3g}]")
    return curve, h_lower, h_upper


def rate_function(inputs: AnalysisInputs) -> tuple[RateCurve, float, float]:
    """The candidate-rate curve and the admissible H interval.

    Returns ``(curve, h_lower, h_upper)``: the curve :func:`secure_key_rate`
    minimizes, for diagnostics and dense scans.
    """
    return _analysis(inputs, InvocationCounter())


@dataclass(frozen=True)
class KeyRateReport:
    """Result of the full analysis at one configuration."""

    rate: float
    h_lower: float
    h_upper: float
    h_star: float
    s11_at_min: float
    e11_at_min: float
    signal_rate: float
    signal_error_rate: float
    chernoff_invocations: int
    reason: str
    trace_samples: int = 0  # slope evaluations of the minimum over H


def _zero_report(reason: str, obs: PairObservables, invocations: int = 0) -> KeyRateReport:
    return _frozen(
        KeyRateReport,
        rate=0.0,
        h_lower=math.nan,
        h_upper=math.nan,
        h_star=math.nan,
        s11_at_min=0.0,
        e11_at_min=math.nan,
        signal_rate=obs.signal_rate,
        signal_error_rate=obs.signal_error_rate,
        chernoff_invocations=invocations,
        reason=reason,
        trace_samples=0,
    )


def _convex_minimum(curve: RateCurve, lo: float, hi: float) -> tuple[float, float, float, float, int]:
    """Minimum of the candidate rate on ``[lo, hi]`` as ``(h, s11, e11, rate, slope evaluations)``.

    Exact because ``R(h)`` is convex there.  ``s11(h)`` and
    ``u(h) = txx_upper - h/2`` are affine in h, and ``u >= 0`` on the interval
    since ``h_upper = 2 txx_upper``.  ``s phi(u / (beta s))`` is the perspective
    of ``phi(e) = 1 - H2(e)`` (zero for e >= 1/2), which is convex and
    non-increasing, so it is jointly convex (Boyd & Vandenberghe, *Convex
    Optimization*, section 3.2.6); it is also non-decreasing in s, so clamping
    s11 at zero keeps it convex.  Its slope :meth:`RateCurve.slope` is
    therefore non-decreasing, and never negative at ``hi``: ``u(hi) = 0`` makes
    it 0 where s11 is clamped and otherwise ``+inf``, since ``e11(hi) = 0``.
    So ``lo`` is the minimum where its slope is not negative; otherwise
    bisection on the slope's sign keeps a minimizer in ``[lo, hi]`` until its
    ends are adjacent floats; each step strictly narrows it, so the loop ends.
    The one final bracket, ``[lo, lo]`` in the first case, gives the lower of
    ``R`` at its ends, read from :meth:`RateCurve._point` once per distinct end.

    A NaN slope, or an infinite one anywhere but at ``hi`` (where ``e = 0``),
    raises :class:`SolverError` rather than steering the search.
    """
    samples = 0

    def slope(h: float) -> float:
        nonlocal samples
        samples += 1
        value = curve.slope(h)
        if math.isnan(value) or (math.isinf(value) and h != hi):
            raise SolverError(f"candidate-rate slope is {value!r} at h = {h!r} in [{lo!r}, {hi!r}]")
        return value

    left = right = lo
    if slope(lo) < 0.0:
        right = hi
        while left < (mid := 0.5 * (left + right)) < right:
            if slope(mid) < 0.0:
                left = mid
            else:
                right = mid
    h, point = left, curve._point(left)
    if right != left:
        other = curve._point(right)
        if other[2] < point[2]:
            h, point = right, other
    return (h, *point, samples)


def secure_key_rate(inputs: AnalysisInputs) -> KeyRateReport:
    """Minimize the candidate rate over the admissible nuisance interval.

    Structural infeasibilities come back as zero-rate reports with a reason
    code rather than exceptions; a merely unprofitable configuration reports
    ``reason="ok"`` with the rate clamped at zero.  A minimum that is not
    finite raises :class:`SolverError` instead of being clamped.
    """
    obs = inputs.observables
    decoy = inputs.bounds.decoy
    if not decoy.passed:
        return _zero_report(f"decoy-conditions-failed: {decoy.summary()}", obs)

    counter = InvocationCounter()
    try:
        curve, h_lo, h_hi = _analysis(inputs, counter)
    except AnalysisInfeasible as exc:
        return _zero_report(f"infeasible: {exc}", obs, counter.count)

    if h_lo > h_hi:
        return _zero_report("h-range-empty", obs, counter.count)

    best_h, s11, e11, best_rate, samples = _convex_minimum(curve, h_lo, h_hi)
    if not math.isfinite(best_rate):
        raise SolverError(f"candidate rate is not finite at its minimum (h = {best_h!r}, rate = {best_rate!r})")

    return _frozen(
        KeyRateReport,
        rate=max(0.0, best_rate),
        h_lower=h_lo,
        h_upper=h_hi,
        h_star=best_h,
        s11_at_min=s11,
        e11_at_min=e11,
        signal_rate=obs.signal_rate,
        signal_error_rate=obs.signal_error_rate,
        chernoff_invocations=counter.count,
        reason="ok",
        trace_samples=samples,
    )
