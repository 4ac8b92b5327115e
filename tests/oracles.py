"""Independent reference implementations used only to check the package.

Everything here is written straight-line from the defining formulas with its
own arithmetic, so agreement is evidence rather than tautology.  The only
package code used is raw observables, a rate curve's fields, the search box,
and, in the model-decomposition oracles, the closed-form gain ``pair_yield``
that they take apart.  The exceptions are
``full_observables``, which extends the analysed table to all sixteen pairs
with the package's own gains, and ``write_observables_csv``, the
regression-fixture writer.
"""

import cmath
import csv
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from mdiqkd import ChannelParams, pair_yield
from mdiqkd.channel_sim import PairObservables, SourceCounts
from mdiqkd.optimizer import BOX_LOWER, BOX_UPPER
from mdiqkd.source_model import SOURCES, simulation_intensity


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
        entry = observables.entry(*pair)
        S[pair] = entry.counts / entry.emitted
        T[pair] = entry.errors / entry.emitted

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

    zz = observables.entry("z", "z")
    s_zz = zz.counts / zz.emitted
    e_zz = zz.errors / zz.counts
    pz2 = zz.emitted / observables.n_pairs
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
    z source) gets the X-basis gain and a fully random error fraction ``e0``.
    """
    pairs = {}
    for l in SOURCES:
        for r in SOURCES:
            emitted = ensemble.alice.probability(l) * ensemble.bob.probability(r) * params.n_pairs
            mu_a = simulation_intensity(ensemble.alice, l)
            mu_b = simulation_intensity(ensemble.bob, r)
            q, eq = pair_yield(mu_a, mu_b, "Z" if (l, r) == ("z", "z") else "X", params)
            if "z" in (l, r) and (l, r) != ("z", "z"):
                eq = params.e0 * q
            counts = round(emitted * q)
            pairs[(l, r)] = SourceCounts(emitted=emitted, counts=counts, errors=min(round(emitted * eq), counts))
    return PairObservables(pairs=pairs, n_pairs=float(params.n_pairs))


def write_observables_csv(observables: PairObservables, path: str | Path) -> None:
    """Write an observables table in the format of ``tests/data/observables_L10.csv``."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# n_pairs={observables.n_pairs!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["l", "r", "basis", "emitted", "counts", "errors"])
        for l in SOURCES:
            for r in SOURCES:
                e = observables.entry(l, r)
                # z-z is the Z basis, any other pair with a z is basis-mismatched.
                basis = "Z" if (l, r) == ("z", "z") else "mixed" if "z" in (l, r) else "X"
                writer.writerow([l, r, basis, repr(e.emitted), e.counts, e.errors])


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
# Relay oracles for the Monte Carlo kernel: the optics from complex
# amplitudes, and the announcement rules case by case.
# ---------------------------------------------------------------------------

DETECTORS = ("1H", "1V", "2H", "2V")


def detector_intensities(basis: str, bit_a: int, bit_b: int, ea: float, eb: float, phi: float) -> list[float]:
    """Mean photon numbers at detectors 1H, 1V, 2H, 2V.

    Alice's and Bob's pulses arrive with mean photon numbers ``ea`` and
    ``eb``, and Alice's carries the relative phase ``phi``.  A Z-basis bit is
    H (0) or V (1); an X-basis bit is +45 degrees (0) or -45 degrees (1).
    Per polarization component, the beam splitter sends ``(a + b)/sqrt 2``
    to port 1 and ``(a - b)/sqrt 2`` to port 2.
    """

    def polarization(bit: int) -> tuple[float, float]:
        if basis == "Z":
            return (1.0, 0.0) if bit == 0 else (0.0, 1.0)
        return (math.sqrt(0.5), math.sqrt(0.5)) if bit == 0 else (math.sqrt(0.5), -math.sqrt(0.5))

    a = [math.sqrt(ea) * cmath.exp(1j * phi) * c for c in polarization(bit_a)]
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
