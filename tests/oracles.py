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
table and no-click floors, and ``counted_chernoff_solves``, which counts the
package's own Chernoff solves by rebinding its two Chernoff bounds.
``decimal_analysis`` restates the whole finite-data analysis in 50-digit
``decimal`` arithmetic from the sources' intensity intervals and the
observables alone.
"""

import csv
import math
from contextlib import contextmanager
from decimal import Context, Decimal, localcontext
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

import numpy as np
import pytest
from scipy.optimize import brentq

from mdiqkd import ChannelParams, pair_yield
from mdiqkd import channel_sim, stat_bounds
from mdiqkd.channel_sim import PairObservables, _intensity_table
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
# The package's own Chernoff solves, counted.
# ---------------------------------------------------------------------------


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
    so their solves are counted too.
    """
    counter = InvocationCounter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("chernoff_lower", "chernoff_upper"):
            honest = getattr(stat_bounds, name)
            patch.setattr(stat_bounds, name, lambda x, cfg, honest=honest: counter.solved(honest, x, cfg))
        yield counter


# ---------------------------------------------------------------------------
# The finite-data analysis in 50-digit decimal arithmetic: the four-intensity
# bounds of Zhou, Yu & Wang, PRA 93, 042324 (2016), each positively combined
# group bounded jointly as in Zhang et al., PRA 95, 012333 (2017).  It reads
# only the float intensity intervals and the observables, each exact as a
# Decimal.  The float-range verdicts (a coefficient ceiling that underflows, a
# yield floor that overflows) are not restated: the exact values do neither.
# ---------------------------------------------------------------------------

_CONTEXT = Context(prec=50)


def decimal_chernoff(x: float | Decimal, xi: float, upper: bool) -> Decimal:
    """Envelope of the expectation behind the count ``x``: ``x e^t`` at the lower or upper root of ``e^t - 1 - t = ln(2/xi)/x``.

    Each root is found by Newton's method from a point outside it, where
    ``f(t) = e^t - 1 - t`` exceeds ``eps``: ``-(1 + eps)`` for the lower
    root, and for the upper the lesser of ``sqrt(2 eps)`` (``f(t) >= t^2/2``)
    and ``ln(2 (1 + eps))``.  On the convex ``f`` every step then stays
    outside and shrinks ``|t|`` by less than the one before, until rounding
    ends that.  A zero count has no lower envelope above 0, and the tail
    ``ln(2/xi)`` above.
    """
    with localcontext(_CONTEXT):
        x, log_term = Decimal(x), (2 / Decimal(xi)).ln()
        if x == 0:
            return log_term if upper else Decimal(0)
        eps = log_term / x
        t = min((2 * eps).sqrt(), (2 * (1 + eps)).ln()) if upper else -(1 + eps)
        last_gain = None
        while True:
            g = t.exp() - 1
            nxt = t - (g - t - eps) / g
            gain = abs(t) - abs(nxt)
            if not (gain > 0 and (last_gain is None or gain < last_gain)):
                return x * t.exp()
            t, last_gain = nxt, gain


def decimal_telescope(terms: Iterable[tuple[Decimal, Decimal]], bound: Callable[[Decimal], Decimal]) -> Decimal:
    """``sum_i c_i <X_i>`` of ``(c_i, X_i)`` terms: with the ``c_i`` sorted descending, ``sum_j (c_j - c_j+1) bound(X_1 + ... + X_j)``, ``c_n+1 = 0``."""
    with localcontext(_CONTEXT):
        ordered = sorted(terms, key=lambda term: term[0], reverse=True)
        total = pooled = Decimal(0)
        for (c, x), (c_next, _) in zip(ordered, ordered[1:] + [(0, 0)]):
            pooled += x
            if c > c_next:
                total += (c - c_next) * bound(pooled)
        return total


def _decimal_side(intervals: dict) -> tuple[dict, dict]:
    """Minima and maxima of ``P_k(mu) = e^-mu mu^k / k!``, k = 0, 1, 2, over each source's interval.

    ``P_k`` rises to its peak at ``mu = k`` and falls after it, so its extrema
    lie at the ends of the interval or at ``k`` inside it.
    """
    lower, upper = {}, {}
    for source, (lo, hi) in intervals.items():
        points = [Decimal(lo), Decimal(hi)]
        values = [[(-mu).exp() * (1, mu, mu * mu / 2)[k] for mu in points + [Decimal(k)] * (lo < k < hi)] for k in range(3)]
        lower[source], upper[source] = [min(v) for v in values], [max(v) for v in values]
    return lower, upper


def _decoy_conditions_hold(intervals: dict, lower: dict, upper: dict) -> bool:
    """The x interval lies below the y interval, and ``P_k^{l,L} / P_k^{v,U} >= P_1^{l,U} / P_1^{v,U}`` for l = x, y and every k >= 2.

    That holds at every k if it holds at k = 2 and each decoy interval starts at
    or above the vacuum cap; an interval that starts below it fails at some k.
    It holds trivially where the vacuum source is exactly vacuum.
    """
    if not intervals["x"][1] < intervals["y"][0]:
        return False
    cap = intervals["v"][1]
    return cap == 0 or all(lower[l][2] * upper["v"][1] >= upper[l][1] * upper["v"][2] and intervals[l][0] >= cap for l in "xy")


def decimal_analysis(alice: dict, bob: dict, observables, xi: float, f_ec: float, disabled: bool = False) -> SimpleNamespace:
    """The finite-data analysis of ``observables`` over the intensity intervals ``alice`` and ``bob``, in 50 digits.

    ``alice`` and ``bob`` are the ``intervals`` of each side; of
    ``observables`` only ``emitted``, ``counts``, ``errors`` and ``n_pairs``
    are read.  ``disabled`` reads every count as its own expectation.
    Returns ``reason``, one of ``decoy-conditions-failed``, ``infeasible``,
    ``h-range-empty`` and ``ok``.  Where it is ``ok`` it also holds
    ``h_lower``, ``h_upper``, the minimizer ``h_star`` and ``rate``, the
    unclamped minimum of the candidate rate ``R`` over ``[h_lower, h_upper]``;
    ``rate_at``, ``R`` at any h; and ``scale``, the size of the terms ``R``
    is formed from at ``h_star``:
    ``pz2 (gamma (s_plus + s_minus + c_y h_star) / denominator + correction)``.
    """
    with localcontext(_CONTEXT):
        (a_lo, a_hi), (b_lo, b_hi) = _decimal_side(alice), _decimal_side(bob)
        if not (_decoy_conditions_hold(alice, a_lo, a_hi) and _decoy_conditions_hold(bob, b_lo, b_hi)):
            return SimpleNamespace(reason="decoy-conditions-failed")
        emitted = {pair: Decimal(e) for pair, e in observables.emitted.items()}
        counts = {pair: Decimal(c) for pair, c in observables.counts.items()}
        errors = {pair: Decimal(c) for pair, c in observables.errors.items()}
        if min(emitted.values()) <= 0:
            return SimpleNamespace(reason="infeasible")
        # Contamination: how much of a decoy's zero-photon statistics the vacuum source's one-photon part could fake.
        sigma_x, sigma_y = (
            a_hi[l][0] * a_hi["v"][1] / (a_lo["v"][0] * a_lo[l][1]) + b_hi[l][0] * b_hi["v"][1] / (b_lo["v"][0] * b_lo[l][1]) for l in "xy"
        )
        if sigma_x >= 1 or sigma_y >= 1:
            return SimpleNamespace(reason="infeasible")
        # The floor eliminates Y_12 and drops Y_21, which is sound where r21 >= r12; else the sides swap roles.
        vx, xv, vy, yv = ("v", "x"), ("x", "v"), ("v", "y"), ("y", "v")
        r12 = a_lo["y"][1] / a_hi["x"][1] * b_lo["y"][2] / b_hi["x"][2]
        r21 = a_lo["y"][2] / a_hi["x"][2] * b_lo["y"][1] / b_hi["x"][1]
        if r21 < r12:
            a_lo, a_hi, b_lo, b_hi, vx, xv, vy, yv = b_lo, b_hi, a_lo, a_hi, xv, vx, yv, vy
        denominator = a_hi["x"][1] * a_lo["y"][1] * (b_hi["x"][1] * b_lo["y"][2] - b_hi["x"][2] * b_lo["y"][1])
        if denominator <= 0:
            return SimpleNamespace(reason="infeasible")
        scale_y = a_hi["x"][1] * b_hi["x"][2] / (1 - sigma_y)
        c_y, beta, gamma = a_lo["y"][1] * b_lo["y"][2], a_lo["x"][1] * b_lo["x"][1], a_lo["z"][1] * b_lo["z"][1]
        vacuum_v = a_lo["v"][0] * b_lo["v"][0]

        def lower(x: Decimal) -> Decimal:
            return x if disabled else decimal_chernoff(x, xi, upper=False)

        def upper(x: Decimal) -> Decimal:
            return x if disabled else decimal_chernoff(x, xi, upper=True)

        def rates(table: dict, *weighted: tuple[Decimal, tuple[str, str]]) -> list[tuple[Decimal, Decimal]]:
            return [(w / emitted[pair], table[pair]) for w, pair in weighted]

        xx, yy, vv, zz = ("x", "x"), ("y", "y"), ("v", "v"), ("z", "z")
        s_plus = decimal_telescope(
            rates(counts, (c_y, xx), (scale_y * a_lo["y"][0] / a_hi["v"][0], vy), (scale_y * b_lo["y"][0] / b_hi["v"][0], yv)), lower
        )
        s_minus = decimal_telescope(rates(counts, (scale_y, yy), (scale_y * a_hi["y"][0] * b_hi["y"][0] / vacuum_v, vv)), upper)
        positive = decimal_telescope(rates(errors, (a_lo["x"][0] / a_hi["v"][0], vx), (b_lo["x"][0] / b_hi["v"][0], xv)), lower)
        negative = decimal_telescope(rates(errors, (a_hi["x"][0] * b_hi["x"][0] / vacuum_v, vv), (sigma_x, xx)), upper)
        txx_upper = upper(errors[xx]) / emitted[xx]
        h_lower, h_upper = max(Decimal(0), 2 * (positive - negative) / (1 - sigma_x)), 2 * txx_upper
        if h_lower > h_upper:
            return SimpleNamespace(reason="h-range-empty")
        pz2 = emitted[zz] / Decimal(observables.n_pairs)
        ln2 = Decimal(2).ln()
        log2 = lambda v: v.ln() / ln2
        entropy = lambda e: 0 if e in (0, 1) else -e * log2(e) - (1 - e) * log2(1 - e)
        correction = Decimal(f_ec) * counts[zz] / emitted[zz] * entropy(errors[zz] / counts[zz] if counts[zz] else Decimal(0))

        def floor_and_error(h: Decimal) -> tuple[Decimal, Decimal | None]:
            """``s11(h)`` before its clamp at 0, and ``e11(h)`` clipped to [0, 1] where ``s11 > 0``."""
            s = (s_plus - s_minus - c_y * h) / denominator
            return s, min(max((txx_upper - h / 2) / (beta * s), Decimal(0)), Decimal(1)) if s > 0 else None

        def rate_at(h: float | Decimal) -> Decimal:
            with localcontext(_CONTEXT):
                s, e = floor_and_error(Decimal(h))
                privacy = s * (1 - entropy(e)) if s > 0 and e < Decimal("0.5") else 0
                return pz2 * (gamma * privacy - correction)

        def slope_is_negative(h: Decimal) -> bool:
            """Whether ``dR/dh < 0``; ``dR/dh = -pz2 gamma ((c_y/denominator) (1 + log2(1 - e)) + log2(e/(1 - e)) / (2 beta))`` where ``s11 > 0`` and ``0 < e11 < 1/2``, else 0 or, at ``e11 = 0``, ``+inf``."""
            s, e = floor_and_error(h)
            if not (s > 0 and 0 < e < Decimal("0.5")):
                return False
            return c_y / denominator * (1 + log2(1 - e)) + log2(e / (1 - e)) / (2 * beta) > 0

        # R is convex on the range, so its minimum lies where the slope turns nonnegative.
        left, right = h_lower, h_upper
        if slope_is_negative(left):
            for _ in range(100):
                mid = (left + right) / 2
                left, right = (mid, right) if slope_is_negative(mid) else (left, mid)
        h_star = min((left, right), key=rate_at)
        return SimpleNamespace(
            reason="ok",
            h_lower=h_lower,
            h_upper=h_upper,
            h_star=h_star,
            rate=rate_at(h_star),
            rate_at=rate_at,
            scale=pz2 * (gamma * (s_plus + s_minus + c_y * h_star) / denominator + correction),
        )
