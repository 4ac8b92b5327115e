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
groups is formed in one function, :func:`~mdiqkd.source_model.analysis_terms`,
as a weight of the coefficient table over the expected emissions, and each
group is built there into its telescope.  Those groups, with the constants of
``s11(H)`` and ``e11(H)``, the emission fraction ``pz2`` and the feasibility
verdict, depend on the sources and the expected emissions alone, so the
coefficient table keeps the last it built, with the ``n_pairs`` and emissions
they were built over
(:meth:`~mdiqkd.source_model.PhotonCoeffBounds.analysis_terms`), and every
distance of a scan, whose emissions are equal, reads them; a distance makes
only its counts, pools and bounds them, and finds the minimum over H.  The
analysis solves one Chernoff bound per telescope level of the four groups
and one on the x-x errors, so the number of estimates its failure
probability is a union bound over is read off the terms.  The Z-basis single-photon yield is estimated by its
X-basis bound.
:class:`RateCurve` is the one implementation of ``s11(H)``, ``e11(H)`` and
``R(H)``, read at a scalar H by :meth:`RateCurve.point`, the search's reader,
apart from an array form of ``R`` kept for dense-grid checks.
Why a configuration has no rate is decided once, with the report's reason
string, which :func:`secure_key_rate` reports and :func:`rate_function` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import stat_bounds
from .channel_sim import ChannelParams, PairObservables, _clamp, _frozen, build_observables
from .source_model import AnalysisTerms, PhotonCoeffBounds, SourceEnsemble
from .stat_bounds import ChernoffConfig


class AnalysisInfeasible(ValueError):
    """Raised when the source configuration cannot support the bounds."""


class SolverError(RuntimeError):
    """Raised by the slope search over H on a NaN or misplaced infinite slope, or a non-finite minimum."""


@dataclass(frozen=True)
class AnalysisInputs:
    """Everything the finite-data analysis consumes.

    The analysis reads the :class:`~mdiqkd.source_model.AnalysisTerms` of
    ``bounds`` over the expected emissions and ``n_pairs`` of
    ``observables``, which the table builds again whenever either differs
    from those of its last terms, however the inputs were made.
    """

    bounds: PhotonCoeffBounds
    observables: PairObservables
    chernoff: ChernoffConfig
    f_ec: float

    @classmethod
    def from_simulation(cls, ensemble: SourceEnsemble, params: ChannelParams) -> "AnalysisInputs":
        """Wire the ensemble's own coefficient bounds to its simulated observables.

        The bounds are ``ensemble.bounds``, built once per ensemble, so a
        distance scan over one ensemble shares a single table, and the terms
        it builds at the first analysis at these ``n_pairs``.  The Chernoff
        configuration is the one ``params`` holds.
        """
        return _frozen(
            cls,
            bounds=ensemble.bounds,
            observables=build_observables(ensemble, params),
            chernoff=params._chernoff,
            f_ec=params.f_ec,
        )


def _h_lower(inputs: AnalysisInputs, terms: AnalysisTerms) -> float:
    """Lower end of the admissible interval for the vacuum-error nuisance H.

    Jointly lower-bounds the positive group (v-x, x-v) and jointly
    upper-bounds the subtracted group (x-x, v-v), then clamps at zero since H
    is a physical error fraction.  The upper end is twice the x-x error-rate
    envelope, ``2 txx_upper`` of the rate curve.
    """
    errors = inputs.observables.errors
    cfg = inputs.chernoff
    positive = stat_bounds.combo_lower(terms.error_plus, errors, cfg)
    negative = stat_bounds.combo_upper(terms.error_minus, errors, cfg)
    h = 2.0 * (positive - negative) / (1.0 - terms.sigma_x)
    return h if h > 0.0 else 0.0  # NaN gives 0.0


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

    Holds the H-independent pieces.  :meth:`point` is the one scalar reader:
    it gives ``(s11, e11, R)`` at a Python scalar h, in Python floats, as the
    search over H reads them at the ends of its final bracket, after steering
    by :meth:`slope`.  Calling the curve at an array of nuisance values gives
    ``R`` alone, for dense-grid checks.
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

    def __call__(self, h):
        """``R(h)`` (raw; may be negative) at an array-like h, read through numpy, for dense-grid checks.

        A Python scalar is read as a 0-d array, so it gives a numpy float.
        ``np.log2`` and ``math.log2`` differ in the last bit for about 0.1 % of
        arguments, so this can differ from :meth:`point` in its last bits: by
        2 to 4 ulp on 3 of the 1,664 reference probes (numpy 2.4.6).
        """
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
        # The clamp returns a NaN quotient as it is; adding 0.0 turns -0.0 into 0.0.
        return s, _clamp((self.txx_upper - h / 2.0) / (self.beta * s), 0.0, 1.0) + 0.0

    def point(self, h: float) -> tuple[float, float, float]:
        """``(s11, e11, R)`` at a Python scalar h (``int`` or ``float``), as Python floats.

        ``s11`` is affine and decreasing in h, clamped at zero; ``e11`` is
        clipped to [0, 1], and NaN where ``s11`` vanishes; ``R`` is raw and
        may be negative.  Anything but an ``int`` or a ``float`` raises
        :class:`TypeError`: the curve's call reads arrays.
        """
        if not isinstance(h, (int, float)):
            raise TypeError(f"point takes a Python scalar h, not {type(h).__name__}; the curve's call reads arrays, and gives R only")
        s, e = self._yield_and_error(float(h))
        s11 = (0.0 if 0.0 > s else s) + 0.0  # NaN stays NaN, -0.0 becomes 0.0
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


def _curve(inputs: AnalysisInputs, terms: AnalysisTerms) -> RateCurve:
    """The rate curve.

    ``s_plus`` jointly lower-bounds the positive yield group
    ``c_y <S_xx> + K (a0_ratio <S_vy> + b0_ratio <S_yv>)`` and ``s_minus``
    jointly upper-bounds the subtracted y-y and vacuum-vacuum group, with
    ``K`` of :class:`~mdiqkd.source_model.AnalysisTerms`.
    """
    obs = inputs.observables
    cfg = inputs.chernoff
    return _frozen(
        RateCurve,
        s_plus=stat_bounds.combo_lower(terms.yield_plus, obs.counts, cfg),
        s_minus=stat_bounds.combo_upper(terms.yield_minus, obs.counts, cfg),
        txx_upper=stat_bounds.chernoff_upper(obs.errors["x", "x"], cfg) / obs.emitted["x", "x"],
        c_y=terms.c_y,
        denominator=terms.denominator,
        beta=terms.beta,
        gamma=terms.gamma,
        pz2=terms.pz2,
        correction=inputs.f_ec * obs.signal_rate * binary_entropy(obs.signal_error_rate),
    )


def _analysis(inputs: AnalysisInputs) -> tuple[str, RateCurve | None, float, float, int]:
    """The one verdict on ``inputs``: ``(reason, curve, h_lower, h_upper, chernoff_invocations)``.

    The reason is the report's: ``ok``, ``h-range-empty``, or why there is no
    curve (then ``None``, with a NaN H range): failed decoy conditions or
    infeasible terms, before any bound, or an overflowing yield floor, after.
    """
    decoy = inputs.bounds.decoy
    if not decoy.passed:
        return f"decoy-conditions-failed: {decoy.summary()}", None, math.nan, math.nan, 0
    obs = inputs.observables
    terms = inputs.bounds.analysis_terms(obs.emitted, obs.n_pairs)
    if terms.infeasible:
        return f"infeasible: {terms.infeasible}", None, math.nan, math.nan, 0
    levels = (terms.yield_plus.levels, terms.yield_minus.levels, terms.error_plus.levels, terms.error_minus.levels)
    invocations = 0 if inputs.chernoff.disabled else 1 + sum(map(len, levels))
    curve = _curve(inputs, terms)
    h_lower, h_upper = _h_lower(inputs, terms), 2.0 * curve.txx_upper
    # Emissions near the float minimum give count weights near its maximum.  s11 is affine in h, so it is
    # finite on the interval if it is at both ends.
    if not (math.isfinite(curve._yield_and_error(h_lower)[0]) and math.isfinite(curve._yield_and_error(h_upper)[0])):
        return f"infeasible: single-photon yield floor s11 overflows on H in [{h_lower:.3g}, {h_upper:.3g}]", None, math.nan, math.nan, invocations
    return "h-range-empty" if h_lower > h_upper else "ok", curve, h_lower, h_upper, invocations


def rate_function(inputs: AnalysisInputs) -> tuple[RateCurve, float, float]:
    """The candidate-rate curve and the admissible H interval, ``(curve, h_lower, h_upper)``.

    The curve :func:`secure_key_rate` minimizes, every Chernoff bound solved
    once, for diagnostics and dense scans; an empty range has ``h_lower >
    h_upper``.  Where the report has no curve, decoy failures included,
    raises :class:`AnalysisInfeasible` with the report's reason as message.
    """
    reason, curve, h_lower, h_upper, _ = _analysis(inputs)
    if curve is None:
        raise AnalysisInfeasible(reason)
    return curve, h_lower, h_upper


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
    ``R`` at its ends, read from :meth:`RateCurve.point` once per distinct end.

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
    h, point = left, curve.point(left)
    if right != left:
        other = curve.point(right)
        if other[2] < point[2]:
            h, point = right, other
    return (h, *point, samples)


def secure_key_rate(inputs: AnalysisInputs) -> KeyRateReport:
    """Minimize the candidate rate over the admissible nuisance interval.

    The minimum runs only where the verdict's reason is ``ok``; any other
    reason is a zero-rate report with a NaN H range, not an exception.  An
    unprofitable configuration reports ``ok`` with the rate clamped at zero,
    and a minimum that is not finite raises :class:`SolverError`.

    The raw minimum ``R(h_star)`` is at least ``-pz2 correction``, since the
    rest of ``R``, ``pz2 gamma s11 (1 - H2(e11))``, is nonnegative; and
    ``pz2 correction`` is ``f_ec H2(E_zz)`` times the z-z count over
    ``n_pairs``, at most ``f_ec`` up to rounding, as that count is at most
    ``n_pairs``.  So a score of ``-2 f_ec`` ranks every point without a rate
    below every point with one.
    """
    reason, curve, h_lower, h_upper, invocations = _analysis(inputs)
    h_star, s11, e11, rate, samples = math.nan, 0.0, math.nan, 0.0, 0
    if reason == "ok":
        h_star, s11, e11, rate, samples = _convex_minimum(curve, h_lower, h_upper)
        if not math.isfinite(rate):
            raise SolverError(f"candidate rate is not finite at its minimum (h = {h_star!r}, rate = {rate!r})")
    else:
        h_lower = h_upper = math.nan
    return _frozen(
        KeyRateReport,
        rate=rate if rate > 0.0 else 0.0,
        h_lower=h_lower,
        h_upper=h_upper,
        h_star=h_star,
        s11_at_min=s11,
        e11_at_min=e11,
        signal_rate=inputs.observables.signal_rate,
        signal_error_rate=inputs.observables.signal_error_rate,
        chernoff_invocations=invocations,
        reason=reason,
        trace_samples=samples,
    )
