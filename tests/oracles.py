"""Independent reference implementations used only to check the package.

Everything here is written straight-line from the defining formulas with its
own arithmetic, so agreement is evidence rather than tautology.  The only
package code used is raw observables, a rate curve's fields, the search box,
and, in the model-decomposition oracles, the closed-form gain ``pair_yield``
that they take apart.  The exceptions are
``full_observables``, which extends the analysed table to all sixteen pairs
with the package's own gains, ``write_observables_csv``, the
regression-fixture writer, ``trial_by_trial_chunk_counts``, the Monte Carlo
draw contract run one trial at a time, which reads the package's intensity
table and no-click floors, and ``record_secure_key_rate``,
the per-distance analysis kept as it was before a source ensemble built its
combination terms once per ``n_pairs``, with its own copy of the factors a
coefficient table fixes and of the combination bounds as they were before
their groups were built once (``record_combo_lower`` and
``record_combo_upper``, which sort and telescope ``(coefficient, count)``
terms at each call), which reads the package's gains, Chernoff bounds, rate
curve and minimum over H.  That path counts each Chernoff bound it solves
(``InvocationCounter``), where the package reads its count off the terms;
``counted_chernoff_solves`` counts the package's own solves by rebinding its
two Chernoff bounds.
"""

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations, product
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import pytest
from scipy.optimize import brentq

from mdiqkd import ChannelParams, pair_yield
from mdiqkd import channel_sim, stat_bounds
from mdiqkd.channel_sim import PairObservables, _frozen, _intensity_table
from mdiqkd.keyrate_core import AnalysisInfeasible, KeyRateReport, RateCurve, SolverError, _convex_minimum, binary_entropy
from mdiqkd.source_model import PhotonCoeffBounds, SourceEnsemble
from mdiqkd.stat_bounds import ChernoffConfig
from mdiqkd.optimizer import BOX_LOWER, BOX_UPPER
from mdiqkd.source_model import SOURCES


def brentq_lower_deviation(x: float, xi: float) -> float:
    """Lower-envelope deviation solved with an unrelated root finder."""
    target = math.log(xi / 2.0)
    return brentq(
        lambda d: (d - (1 + d) * math.log1p(d)) * x / (1 + d) - target,
        1e-12,
        100.0,
        xtol=1e-15,
        rtol=8.882e-16,
    )


def brentq_upper_deviation(x: float, xi: float) -> float:
    target = math.log(xi / 2.0)
    return brentq(
        lambda d: (-d - (1 - d) * math.log1p(-d)) * x / (1 - d) - target,
        1e-12,
        1 - 1e-12,
        xtol=1e-15,
        rtol=8.882e-16,
    )


def grid_scan_coeff_extrema(mu_lo: float, mu_hi: float, k: int, points: int = 100_000):
    """Dense-grid min/max of exp(-mu) mu^k / k! over an intensity interval."""
    mus = np.linspace(mu_lo, mu_hi, points)
    with np.errstate(divide="ignore"):
        log_vals = np.where(mus > 0, k * np.log(np.where(mus > 0, mus, 1.0)) - mus, -np.inf if k else 0.0)
    vals = np.where((mus == 0) & (k == 0), 1.0, np.exp(log_vals - math.lgamma(k + 1)))
    if k > 0:
        vals = np.where(mus == 0, 0.0, vals)
    return float(vals.min()), float(vals.max())


def plugin_asymptotic_rate(observables, side, f_ec: float) -> float:
    """Straight-line infinite-data rate for exact sources and perfect vacuum.

    Uses the published bound formulas directly: the both-nonvacuum part of
    the x-x source through the error-side vacuum decomposition (vacuous
    counts are twice vacuous errors), the y-y part through the count-side
    decomposition, then the single-photon yield, phase-error ceiling, and
    rate formula, all at plug-in values.
    """
    ax = [math.exp(-side.mu_x) * side.mu_x**k / math.factorial(k) for k in range(3)]
    ay = [math.exp(-side.mu_y) * side.mu_y**k / math.factorial(k) for k in range(3)]
    az1 = math.exp(-side.mu_z) * side.mu_z

    S, T = {}, {}
    for pair in ("vv", "vx", "xv", "xx", "vy", "yv", "yy"):
        key = tuple(pair)
        S[pair] = observables.counts[key] / observables.emitted[key]
        T[pair] = observables.errors[key] / observables.emitted[key]

    vac_err = ax[0] * T["vx"] + ax[0] * T["xv"] - ax[0] * ax[0] * T["vv"]
    ntil_xx = S["xx"] - 2.0 * vac_err
    ntil_yy = S["yy"] - ay[0] * S["vy"] - ay[0] * S["yv"] + ay[0] * ay[0] * S["vv"]

    denominator = ax[1] * ay[1] * (ax[1] * ay[2] - ax[2] * ay[1])
    s11 = (ay[1] * ay[2] * ntil_xx - ax[1] * ax[2] * ntil_yy) / denominator
    e11 = (T["xx"] - vac_err) / (ax[1] * ax[1] * s11)

    def h2(p: float) -> float:
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return -p * math.log2(p) - (1 - p) * math.log2(1 - p)

    zz = ("z", "z")
    s_zz = observables.counts[zz] / observables.emitted[zz]
    e_zz = observables.errors[zz] / observables.counts[zz]
    pz2 = observables.emitted[zz] / observables.n_pairs
    return pz2 * (az1 * az1 * s11 * (1.0 - h2(e11)) - f_ec * s_zz * h2(e_zz))


def dense_rate(curve, h: np.ndarray) -> np.ndarray:
    """Candidate rate R at every nuisance value in ``h``, from the fields of a ``RateCurve`` only.

    The yield floor ``s11 = max((s_plus - s_minus - c_y h) / denominator, 0)``
    and the phase-error ceiling ``e11 = (txx_upper - h/2) / (beta s11)``,
    clipped to [0, 1], give ``R = pz2 (gamma s11 (1 - H2(e11)) - correction)``,
    where the privacy term ``s11 (1 - H2(e11))`` is zero once ``s11 = 0`` or
    ``e11 >= 1/2``.  H2 is taken in natural logs, unlike the package.
    """
    h = np.asarray(h, dtype=float)
    s11 = np.maximum((curve.s_plus - curve.s_minus - curve.c_y * h) / curve.denominator, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # e11 is meaningless where s11 = 0
        e11 = np.clip((curve.txx_upper - 0.5 * h) / (curve.beta * s11), 0.0, 1.0)
    inside = (s11 > 0.0) & (e11 > 0.0) & (e11 < 0.5)
    e = np.where(inside, e11, 0.25)
    entropy = np.where(inside, -(e * np.log(e) + (1.0 - e) * np.log1p(-e)) / math.log(2.0), 0.0)
    privacy = np.where((s11 > 0.0) & (e11 < 0.5), 1.0 - entropy, 0.0)
    return curve.pz2 * (curve.gamma * s11 * privacy - curve.correction)


def product_rule_slope(curve, h: float) -> tuple[float, float]:
    """``dR/dh`` of a ``RateCurve`` by the product rule, and the larger magnitude of its two terms.

    Valid where ``s11 > 0`` and ``0 < e11 < 1/2``.  With ``A = s_plus - s_minus``,
    ``s = (A - c_y h) / denominator`` and ``e = (txx_upper - h/2) / (beta s)``,
    the slope is ``pz2 gamma (s' phi(e) + s phi'(e) e')``, where
    ``s' = -c_y/denominator``, ``phi(e) = 1 - H2(e)``, ``phi'(e) = log2(e/(1-e))``
    and ``e' = denominator (c_y txx_upper - A/2) / (beta (A - c_y h)^2)``.
    """
    a = curve.s_plus - curve.s_minus
    s = (a - curve.c_y * h) / curve.denominator
    e = (curve.txx_upper - 0.5 * h) / (curve.beta * s)
    e_prime = curve.denominator * (curve.c_y * curve.txx_upper - 0.5 * a) / (curve.beta * (a - curve.c_y * h) ** 2)
    phi = 1.0 + (e * math.log(e) + (1.0 - e) * math.log1p(-e)) / math.log(2.0)
    scale = curve.pz2 * curve.gamma
    yield_term = scale * -curve.c_y / curve.denominator * phi
    error_term = scale * s * (math.log(e) - math.log1p(-e)) / math.log(2.0) * e_prime
    return yield_term + error_term, max(abs(yield_term), abs(error_term))


class _BudgetSpent(Exception):
    pass


def nelder_mead(func, x0, maxfev: int) -> None:
    """Adaptive Nelder-Mead over the search box on numpy arrays, calling ``func`` at most ``maxfev`` times.

    The same steps as ``mdiqkd.optimizer._nelder_mead``, written with numpy
    vector arithmetic: Gao & Han's coefficients, a 5 % initial simplex whose
    vertices past the upper bound are reflected inside, every trial vertex
    clipped to the box, and a stop once the vertex spread is within 1e-4 and
    the value spread within 1e-12.  The vertices are ordered once before
    every step by a stable argsort.  ``func`` receives each vertex as a tuple
    of floats.
    """
    lower, upper = np.array(BOX_LOWER), np.array(BOX_UPPER)
    calls = 0

    def f(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(tuple(x.tolist()))

    n = len(lower)
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
        while True:
            order = np.argsort(fsim, kind="stable")
            sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
            if np.max(np.abs(sim[1:] - sim[0])) <= 1e-4 and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12:
                return
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip((1 + rho) * xbar - rho * sim[-1], lower, upper)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lower, upper)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lower, upper)
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = np.clip((1 - psi) * xbar + psi * sim[-1], lower, upper)
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lower, upper)
                        fsim[j] = f(sim[j])
    except _BudgetSpent:
        return


def full_observables(ensemble, params: ChannelParams) -> PairObservables:
    """Observables for all sixteen two-pulse sources, as the fixture records them.

    Pairs within the x, y, v sources are measured in the X basis and z-z in
    the Z basis, as in ``build_observables``.  A basis-mismatched pair (one
    z source) gets the X-basis gain and a fully random error fraction, 1/2.
    """
    emitted, counts, errors = {}, {}, {}
    for l in SOURCES:
        for r in SOURCES:
            expected = emitted[l, r] = ensemble.alice.table[l][0] * ensemble.bob.table[r][0] * params.n_pairs
            mu_a, mu_b = ensemble.alice.table[l][1], ensemble.bob.table[r][1]
            q, eq = pair_yield(mu_a, mu_b, "Z" if (l, r) == ("z", "z") else "X", params)
            if "z" in (l, r) and (l, r) != ("z", "z"):
                eq = 0.5 * q
            count = counts[l, r] = round(expected * q)
            errors[l, r] = min(round(expected * eq), count)
    return PairObservables(emitted=emitted, counts=counts, errors=errors, n_pairs=float(params.n_pairs))


def write_observables_csv(observables: PairObservables, path: str | Path) -> None:
    """Write an observables table in the format of ``tests/data/observables_L10.csv``."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# n_pairs={observables.n_pairs!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["l", "r", "basis", "emitted", "counts", "errors"])
        for l in SOURCES:
            for r in SOURCES:
                # z-z is the Z basis, any other pair with a z is basis-mismatched.
                basis = "Z" if (l, r) == ("z", "z") else "mixed" if "z" in (l, r) else "X"
                pair = (l, r)
                writer.writerow([l, r, basis, repr(observables.emitted[pair]), observables.counts[pair], observables.errors[pair]])


# ---------------------------------------------------------------------------
# Model-decomposition oracles.  Conditioned on emitted photon numbers the
# channel is intensity-independent, so the weak-coherent gain is the Poisson
# mixture of Fock-pair yields:  Q(a, b) = sum_jk P_j(a) P_k(b) Y_jk.  Both
# helpers below invert that mixture without touching the detector internals.
# ---------------------------------------------------------------------------


def vacuum_error_component(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Error rate contributed by X-basis pairs where either side emitted vacuum.

    By inclusion-exclusion over the vacuum components of the two sources this
    is exactly ``b0 EQ(mu_a, 0) + a0 EQ(0, mu_b) - a0 b0 EQ(0, 0)`` with
    ``a0 = exp(-mu_a)``, ``b0 = exp(-mu_b)``.
    """
    a0 = math.exp(-mu_a)
    b0 = math.exp(-mu_b)
    _, eq_a_only = pair_yield(mu_a, 0.0, "X", params)
    _, eq_b_only = pair_yield(0.0, mu_b, "X", params)
    _, eq_none = pair_yield(0.0, 0.0, "X", params)
    return b0 * eq_a_only + a0 * eq_b_only - a0 * b0 * eq_none


def single_photon_pair_truth(basis: str, params: ChannelParams, step: float = 4e-3) -> tuple[float, float]:
    """True yield and error rate of emitted single-photon pairs.

    Extracts the (1,1) Fock coefficient of the gain's Poisson mixture via the
    mixed second difference of ``exp(a+b) Q(a, b)`` at the origin, Richardson
    extrapolated to kill the first- and second-order truncation terms.
    """

    def mixed(component: int, h: float) -> float:
        def f(a: float, b: float) -> float:
            return math.exp(a + b) * pair_yield(a, b, basis, params)[component]

        return (f(h, h) - f(h, 0.0) - f(0.0, h) + f(0.0, 0.0)) / (h * h)

    def richardson(component: int) -> float:
        d1, d2, d3 = (mixed(component, step / s) for s in (1.0, 2.0, 4.0))
        r1 = 2.0 * d2 - d1
        r2 = 2.0 * d3 - d2
        return (4.0 * r2 - r1) / 3.0

    y11 = richardson(0)
    ey11 = richardson(1)
    if y11 <= 0.0:
        raise ValueError("single-photon-pair yield is not positive; channel too lossy to extract")
    return y11, max(ey11, 0.0) / y11


# ---------------------------------------------------------------------------
# Relay oracles for the Monte Carlo kernel and the closed-form gains: the
# optics from complex amplitudes, the announcement rules case by case, and
# the gains they give, integrated over the phase.
# ---------------------------------------------------------------------------

DETECTORS = ("1H", "1V", "2H", "2V")


def detector_intensities(basis: str, bit_a: int, bit_b: int, ea: float, eb: float, phi: float) -> list[float]:
    """Mean photon numbers at detectors 1H, 1V, 2H, 2V.

    Alice's and Bob's pulses arrive with mean photon numbers ``ea`` and
    ``eb``, and Alice's carries the relative phase ``phi``.  A Z-basis bit is
    H (0) or V (1); an X-basis bit is +45 degrees (0) or -45 degrees (1).
    Per polarization component, the beam splitter sends ``(a + b)/sqrt 2``
    to port 1 and ``(a - b)/sqrt 2`` to port 2.  An array ``phi`` gives an
    array per detector.
    """

    def polarization(bit: int) -> tuple[float, float]:
        if basis == "Z":
            return (1.0, 0.0) if bit == 0 else (0.0, 1.0)
        return (math.sqrt(0.5), math.sqrt(0.5)) if bit == 0 else (math.sqrt(0.5), -math.sqrt(0.5))

    a = [math.sqrt(ea) * np.exp(1j * phi) * c for c in polarization(bit_a)]
    b = [math.sqrt(eb) * c for c in polarization(bit_b)]
    port_1 = [(a[k] + b[k]) / math.sqrt(2.0) for k in range(2)]
    port_2 = [(a[k] - b[k]) / math.sqrt(2.0) for k in range(2)]
    return [abs(amplitude) ** 2 for amplitude in port_1 + port_2]


def announced_error(basis: str, bit_a: int, bit_b: int, clicked: set[str]) -> bool | None:
    """Whether a trial whose ``clicked`` detectors fired is an error before misalignment.

    ``None`` when the clicks are not an accepted coincidence.
    """
    if clicked == {"1H", "1V"} or clicked == {"2H", "2V"}:
        same_port = True
    elif clicked == {"1H", "2V"} or clicked == {"1V", "2H"}:
        same_port = False
    else:
        return None
    if basis == "Z":
        return bit_a == bit_b  # every Z-basis success announces unequal bits
    if same_port:
        return bit_a != bit_b  # a same-port X-basis success announces equal bits
    return bit_a == bit_b  # a cross-port X-basis success announces unequal bits


def quadrature_yield(mu_a: float, mu_b: float, basis: str, params: ChannelParams) -> tuple[float, float]:
    """Gain and error gain per pulse pair, from the relay optics above averaged over 64 equispaced phases.

    The four bit patterns are equally likely.  Given a pattern and the
    relative phase, each detector sees its :func:`detector_intensities`
    ``lambda`` and independently clicks with probability
    ``-expm1(-lambda) + p_d e^-lambda``, which is ``1 - (1 - p_d) e^-lambda``
    with no digits cancelled, or stays silent with ``(1 - p_d) e^-lambda``.
    Each of the sixteen click codes that :func:`announced_error` accepts adds
    its probability to the gain, and to the error gain weighted by
    ``1 - e_d`` where the announcement was wrong and by ``e_d`` where it was
    right.  The integrand is periodic and analytic in the phase, so this
    trapezoid rule converges geometrically in the number of phases
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
    """
    eta = params.eta_d * 10.0 ** (-params.alpha_f * (params.distance_km / 2.0) / 10.0)
    phi = 2.0 * math.pi * np.arange(64) / 64
    fired = np.array([[code >> k & 1 for k in range(4)] for code in range(16)], dtype=bool)[:, :, None]
    q = eq = 0.0
    for bit_a, bit_b in product((0, 1), repeat=2):
        lam = np.array(detector_intensities(basis, bit_a, bit_b, eta * mu_a, eta * mu_b, phi))
        click = -np.expm1(-lam) + params.p_d * np.exp(-lam)
        silent = (1.0 - params.p_d) * np.exp(-lam)
        codes = np.where(fired, click, silent).prod(axis=1)  # each click code's probability at each phase
        for code in range(16):
            error = announced_error(basis, bit_a, bit_b, {name for k, name in enumerate(DETECTORS) if code >> k & 1})
            if error is not None:
                q += codes[code]
                eq += (1.0 - params.e_d if error else params.e_d) * codes[code]
    return float(np.mean(q)) / 4.0, float(np.mean(eq)) / 4.0


def contract_weights(basis: str, ea: float, eb: float, params: ChannelParams) -> list[float]:
    """The 25 category weights of the Monte Carlo draw contract, formed detector by detector.

    Category ``6 p + c``, with ``c`` the index of the pair ``(j1, j2)`` in
    ``combinations(range(4), 2)``, weighs ``(1/4) (prod_{i<j1} f_i) (1 -
    f_j1) (prod_{j1<i<j2} f_i) (1 - f_j2)`` with the package's no-click
    floors ``f`` of pattern ``p``, one factor per detector in the kernel's
    order of operations, so that ``multinomial`` draws the kernel's counts
    from them.  The last category, the trials with at most one candidate,
    weighs ``(1/4) sum_p [prod_i f_i + sum_j (1 - f_j) prod_{i!=j} f_i]``.
    """
    floor = channel_sim._no_click_floor(*_intensity_table(basis, ea, eb), 1.0 - params.p_d).tolist()
    weights, rest = [], 0.0
    for row in floor:
        for j1, j2 in combinations(range(4), 2):
            weight = 0.25
            for i, f in enumerate(row):
                weight *= 1.0 - f if i in (j1, j2) else f if i < j2 else 1.0
            weights.append(weight)
        rest += math.prod(row) + sum((1.0 - f) * math.prod(row[:j] + row[j + 1 :]) for j, f in enumerate(row))
    return weights + [0.25 * rest]


def trial_by_trial_chunk_counts(rng: np.random.Generator, m: int, basis: str, ea: float, eb: float, params: ChannelParams) -> tuple[int, int]:
    """The Monte Carlo draw contract of :func:`mdiqkd.channel_sim.monte_carlo_yield`, one drawn trial at a time.

    The generator calls are the contract's: ``multinomial(m, w)`` over the
    25 categories, ``random(k)`` for the phases of the ``k`` trials with two
    or more candidates, ``random((k, 4))`` in one call for their click
    uniforms, which reads the values the kernel reads block by block, and
    ``random(s)`` for the misalignment flips, with the weights of
    :func:`contract_weights`.  Each drawn trial of category ``6 p + c``,
    whose first two candidates are the pair ``(j1, j2)`` numbered ``c``,
    maps its uniforms onto ``[f_i, 1)`` for ``i`` in the pair, ``[0, f_i)``
    for the other ``i < j2`` and ``[0, 1)`` past ``j2``, reads its
    intensities from the package's intensity table, clicks through
    ``math.exp`` and ``math.cos``, and is classified by
    :func:`announced_error`.  Its counts can differ from the kernel's only
    where a uniform lies within an ulp or two of its threshold, where numpy's
    ``cos`` or ``exp`` may round otherwise.
    """
    offset, slope = _intensity_table(basis, ea, eb)
    keep = 1.0 - params.p_d
    floor = channel_sim._no_click_floor(offset, slope, keep).tolist()
    offset, slope = offset.tolist(), slope.tolist()
    pairs = list(combinations(range(4), 2))
    counts = rng.multinomial(m, contract_weights(basis, ea, eb, params))
    drawn = [category for category in range(24) for _ in range(counts[category])]
    phases = rng.random(len(drawn)).tolist()
    uniforms = rng.random((len(drawn), 4)).tolist()
    raw_errors = []
    for category, phase, trial_uniforms in zip(drawn, phases, uniforms):
        pattern, (j1, j2) = category // 6, pairs[category % 6]
        cos_phi = math.cos(phase * (2.0 * math.pi))
        clicked = set()
        for i, (u, f) in enumerate(zip(trial_uniforms, floor[pattern])):
            u = f + (1.0 - f) * u if i in (j1, j2) else f * u if i < j2 else u
            if u >= math.exp(-(offset[pattern][i] + slope[pattern][i] * cos_phi)) * keep:
                clicked.add(DETECTORS[i])
        error = announced_error(basis, pattern >> 1, pattern & 1, clicked)
        if error is not None:
            raw_errors.append(error)
    flipped = rng.random(len(raw_errors)).tolist()
    return len(raw_errors), sum(error != (flip < params.e_d) for error, flip in zip(raw_errors, flipped))


# ---------------------------------------------------------------------------
# The per-distance analysis as it was before a source ensemble built its
# combination terms once per n_pairs: one SourceCounts record per pair, every
# term formed from the records at each distance, and the emission check run
# at each analysis.  The functions are copied unchanged, apart from their
# names, without their docstrings; the new path must give every report field
# bit for bit as this does.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceCounts:
    """Counts recorded for one two-pulse source."""

    emitted: float  # expected emitted pairs p_l p_r N_t
    counts: int
    errors: int

    @property
    def rate(self) -> float:
        """Counts per expected emission; 0 where none is expected, and so none counted."""
        return self.counts / self.emitted if self.emitted else 0.0


@dataclass(frozen=True)
class RecordObservables:
    """Counts and error counts for the two-pulse sources the analysis reads."""

    pairs: dict[tuple[str, str], SourceCounts]
    n_pairs: float

    def entry(self, alice_source: str, bob_source: str) -> SourceCounts:
        return self.pairs[(alice_source, bob_source)]

    @property
    def signal_rate(self) -> float:
        """Observed counting rate of the signal-signal source."""
        return self.entry("z", "z").rate

    @property
    def signal_error_rate(self) -> float:
        """Observed error fraction among signal-signal counts."""
        zz = self.entry("z", "z")
        return zz.errors / zz.counts if zz.counts else 0.0


@dataclass(frozen=True)
class RecordInputs:
    """Everything the finite-data analysis consumes."""

    bounds: PhotonCoeffBounds
    observables: RecordObservables
    chernoff: ChernoffConfig
    f_ec: float

    @classmethod
    def from_simulation(cls, ensemble: SourceEnsemble, params: ChannelParams) -> "RecordInputs":
        return _frozen(
            cls,
            bounds=ensemble.bounds,
            observables=record_build_observables(ensemble, params),
            chernoff=params._chernoff,
            f_ec=params.f_ec,
        )


def record_observables(observables: PairObservables) -> RecordObservables:
    """The per-pair records of a package observables table."""
    pairs = {
        pair: SourceCounts(emitted=expected, counts=observables.counts[pair], errors=observables.errors[pair])
        for pair, expected in observables.emitted.items()
    }
    return RecordObservables(pairs=pairs, n_pairs=observables.n_pairs)


def record_build_observables(ensemble: SourceEnsemble, params: ChannelParams) -> RecordObservables:
    shared = ensemble.bob is ensemble.alice
    n_pairs = params.n_pairs
    yields: dict[tuple[str, str, str], tuple[float, float]] = {}
    pairs: dict[tuple[str, str], SourceCounts] = {}
    for (l, r), basis, mu_l, mu_r, p_lr, _ in ensemble.pair_table:
        mirror = yields.get((r, l, basis)) if shared and basis == "X" else None
        q, eq = yields[(l, r, basis)] = pair_yield(mu_l, mu_r, basis, params) if mirror is None else mirror
        emitted = p_lr * n_pairs
        counts = round(emitted * q)
        errors = min(round(emitted * eq), counts)
        pairs[(l, r)] = _frozen(SourceCounts, emitted=emitted, counts=counts, errors=errors)
    return _frozen(RecordObservables, pairs=pairs, n_pairs=float(n_pairs))


def _record_terms(obs: RecordObservables, column: str, *weighted: tuple[float, str, str]) -> list[tuple[float, float]]:
    terms = []
    for weight, l, r in weighted:
        entry = obs.entry(l, r)
        terms.append((weight / entry.emitted, float(getattr(entry, column))))
    return terms


def _record_factors(bounds: PhotonCoeffBounds) -> SimpleNamespace:
    """The factors of the analysis that a coefficient table alone fixes, checked in order: the contamination factors, then the denominator.

    ``infeasible`` says why the table cannot support the bounds, and is empty
    where it can.  The yield floor drops the two-one yield, which is sound
    only where ``r21 >= r12``; elsewhere the factors are formed with Bob's
    table as the a side.  ``vx`` and ``vy`` name the pairs in which the a side
    sends vacuum and the other x or y.
    """
    a, b = bounds.alice, bounds.bob
    a_v, b_v = a.lower["v"][0], b.lower["v"][0]
    ax, ay, bx, by = a_v * a.lower["x"][1], a_v * a.lower["y"][1], b_v * b.lower["x"][1], b_v * b.lower["y"][1]
    if not min(ax, ay, bx, by, a_v * b_v) > 0.0:
        return SimpleNamespace(infeasible="zero denominator in contamination factors; coefficient bounds degenerate")
    sigma_x = a.upper["x"][0] * a.upper["v"][1] / ax + b.upper["x"][0] * b.upper["v"][1] / bx
    sigma_y = a.upper["y"][0] * a.upper["v"][1] / ay + b.upper["y"][0] * b.upper["v"][1] / by
    if sigma_x >= 1.0 or sigma_y >= 1.0:
        return SimpleNamespace(
            infeasible=f"vacuum contamination too large (x: {sigma_x:.3g}, y: {sigma_y:.3g}); bounds require each sum below 1"
        )
    vx, vy = ("v", "x"), ("v", "y")
    r12 = (a.lower["y"][1] / a.upper["x"][1]) * (b.lower["y"][2] / b.upper["x"][2])
    r21 = (a.lower["y"][2] / a.upper["x"][2]) * (b.lower["y"][1] / b.upper["x"][1])
    if r21 < r12:
        a, b, vx, vy = b, a, ("x", "v"), ("y", "v")
    denominator = a.upper["x"][1] * a.lower["y"][1] * (b.upper["x"][1] * b.lower["y"][2] - b.upper["x"][2] * b.lower["y"][1])
    if denominator <= 0.0:
        return SimpleNamespace(infeasible="single-photon denominator is not positive; decoy intensities too close for the bound")
    return SimpleNamespace(
        infeasible="",
        vx=vx,
        vy=vy,
        sigma_x=sigma_x,
        sigma_y=sigma_y,
        denominator=denominator,
        scale=a.upper["x"][1] * b.upper["x"][2] / (1.0 - sigma_y),
        c_y=a.lower["y"][1] * b.lower["y"][2],
        beta=a.lower["x"][1] * b.lower["x"][1],
        gamma=a.lower["z"][1] * b.lower["z"][1],
        a_vacuum_x=a.lower["x"][0] / a.upper["v"][0],
        b_vacuum_x=b.lower["x"][0] / b.upper["v"][0],
        pair_vacuum_x=a.upper["x"][0] * b.upper["x"][0] / (a.lower["v"][0] * b.lower["v"][0]),
        a_vacuum_y=a.lower["y"][0] / a.upper["v"][0],
        b_vacuum_y=b.lower["y"][0] / b.upper["v"][0],
        pair_vacuum_y=a.upper["y"][0] * b.upper["y"][0] / (a.lower["v"][0] * b.lower["v"][0]),
    )


def _validated_terms(terms: Iterable[tuple[float, float]]) -> list[tuple[float, float, float]]:
    """``(-c, c, x)`` of each term as floats; ``-c`` is the sort key of :func:`_telescope`."""
    out = []
    for c, x in terms:
        if not c >= 0:  # NaN fails too
            raise ValueError(f"combination coefficients must be nonnegative, got {c}")
        if not 0 <= x < math.inf:
            raise ValueError(f"observed counts must be finite and nonnegative, got {x}")
        c = float(c)
        out.append((-c, c, float(x)))
    if not out:
        raise ValueError("at least one (coefficient, count) term is required")
    return out


class InvocationCounter:
    """Tallies, in ``count``, the Chernoff bounds solved: calls that return with a configuration not disabled."""

    def __init__(self) -> None:
        self.count = 0

    def solved(self, bound: Callable[[float, ChernoffConfig], float], x: float, cfg: ChernoffConfig) -> float:
        """``bound(x, cfg)``, counted."""
        value = bound(x, cfg)
        self.count += not cfg.disabled
        return value


@contextmanager
def counted_chernoff_solves() -> Iterator[InvocationCounter]:
    """While open, count the bounds solved through ``stat_bounds.chernoff_lower`` and ``chernoff_upper``.

    The combination bounds and the analysis look those names up at each call,
    so their solves are counted too, and so are the record path's.
    """
    counter = InvocationCounter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("chernoff_lower", "chernoff_upper"):
            honest = getattr(stat_bounds, name)
            patch.setattr(stat_bounds, name, lambda x, cfg, honest=honest: counter.solved(honest, x, cfg))
        yield counter


def _telescope(
    terms: Sequence[tuple[float, float]],
    bound: Callable[[float, ChernoffConfig], float],
    cfg: ChernoffConfig,
    counter: InvocationCounter | None,
) -> float:
    """``sum_i c_i <X_i>`` bounded by ``bound`` on coefficient-sorted partial sums.

    Each level pools every count whose coefficient is at least that level's,
    weighted by the drop to the next coefficient; ties collapse into a single
    pooled bound.  A level is closed when the coefficient drops, before the
    next count joins the pool, and the last level drops to zero.
    """
    levels = sorted(_validated_terms(terms), key=itemgetter(0))
    counter = counter or InvocationCounter()
    total = 0.0
    cum = 0.0
    c = levels[0][1]
    for _, c_next, x in levels:
        if c > c_next:
            total += (c - c_next) * counter.solved(bound, cum, cfg)
            c = c_next
        cum += x
    if c > 0.0:
        total += c * counter.solved(bound, cum, cfg)
    return total


def record_combo_lower(terms: Sequence[tuple[float, float]], cfg: ChernoffConfig, counter: InvocationCounter | None = None) -> float:
    """Joint lower bound on ``sum_i c_i <X_i>`` from ``(coefficient, count)`` terms, sorted and telescoped at each call."""
    return _telescope(terms, stat_bounds.chernoff_lower, cfg, counter)


def record_combo_upper(terms: Sequence[tuple[float, float]], cfg: ChernoffConfig, counter: InvocationCounter | None = None) -> float:
    """Joint upper bound on ``sum_i c_i <X_i>``; the same telescoping as :func:`record_combo_lower`."""
    return _telescope(terms, stat_bounds.chernoff_upper, cfg, counter)


def _record_h_lower(inputs: RecordInputs, f: SimpleNamespace, counter: InvocationCounter) -> float:
    obs = inputs.observables
    cfg = inputs.chernoff

    positive = record_combo_lower(
        _record_terms(obs, "errors", (f.a_vacuum_x, *f.vx), (f.b_vacuum_x, *f.vx[::-1])),
        cfg,
        counter,
    )
    negative = record_combo_upper(
        _record_terms(obs, "errors", (f.pair_vacuum_x, "v", "v"), (f.sigma_x, "x", "x")),
        cfg,
        counter,
    )
    return max(0.0, 2.0 * (positive - negative) / (1.0 - f.sigma_x))


def _record_curve(inputs: RecordInputs, f: SimpleNamespace, counter: InvocationCounter) -> RateCurve:
    obs = inputs.observables
    cfg = inputs.chernoff
    scale = f.scale
    s_plus = record_combo_lower(
        _record_terms(obs, "counts", (f.c_y, "x", "x"), (scale * f.a_vacuum_y, *f.vy), (scale * f.b_vacuum_y, *f.vy[::-1])),
        cfg,
        counter,
    )
    s_minus = record_combo_upper(
        _record_terms(obs, "counts", (scale, "y", "y"), (scale * f.pair_vacuum_y, "v", "v")),
        cfg,
        counter,
    )
    xx = obs.entry("x", "x")
    return _frozen(
        RateCurve,
        s_plus=s_plus,
        s_minus=s_minus,
        txx_upper=counter.solved(stat_bounds.chernoff_upper, xx.errors, cfg) / xx.emitted,
        c_y=f.c_y,
        denominator=f.denominator,
        beta=f.beta,
        gamma=f.gamma,
        pz2=obs.entry("z", "z").emitted / obs.n_pairs,
        correction=inputs.f_ec * obs.signal_rate * binary_entropy(obs.signal_error_rate),
    )


def _record_analysis(inputs: RecordInputs, counter: InvocationCounter) -> tuple[RateCurve, float, float]:
    for (l, r), entry in inputs.observables.pairs.items():
        if not entry.emitted > 0.0:
            raise AnalysisInfeasible(f"no expected emissions from source pair {l}-{r}; p_{l} p_{r} n_pairs underflows to zero")
    factors = _record_factors(inputs.bounds)
    if factors.infeasible:
        raise AnalysisInfeasible(factors.infeasible)
    curve = _record_curve(inputs, factors, counter)
    h_lower, h_upper = _record_h_lower(inputs, factors, counter), 2.0 * curve.txx_upper
    if not all(math.isfinite(curve._yield_and_error(h)[0]) for h in (h_lower, h_upper)):
        raise AnalysisInfeasible(f"single-photon yield floor s11 overflows on H in [{h_lower:.3g}, {h_upper:.3g}]")
    return curve, h_lower, h_upper


def _record_zero_report(reason: str, obs: RecordObservables, invocations: int = 0) -> KeyRateReport:
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


def record_secure_key_rate(inputs: RecordInputs) -> KeyRateReport:
    obs = inputs.observables
    decoy = inputs.bounds.decoy
    if not decoy.passed:
        return _record_zero_report(f"decoy-conditions-failed: {decoy.summary()}", obs)

    counter = InvocationCounter()
    try:
        curve, h_lo, h_hi = _record_analysis(inputs, counter)
    except AnalysisInfeasible as exc:
        return _record_zero_report(f"infeasible: {exc}", obs, counter.count)

    if h_lo > h_hi:
        return _record_zero_report("h-range-empty", obs, counter.count)

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
