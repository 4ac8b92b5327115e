"""Symmetric-channel detection model and simulated observables.

The untrusted relay sits midway between the two parties and interferes each
pulse pair on a 50:50 beam splitter, with one threshold detector per
polarization mode on each output port (four detectors total).  An event is
declared successful when exactly two detectors click in one of the four
accepted coincidence patterns:

* both detectors of the same output port  -> "correlated" announcement,
* the H detector of one port and the V detector of the other -> "anticorrelated".

In the X basis a correlated announcement means the encoded bits should agree
and an anticorrelated one that they should differ; in the Z basis every
successful pattern announces anticorrelated bits.  Misalignment flips the
correct/error classification of an event with probability ``e_d``; dark
counts fire each detector independently with probability ``p_d`` per gate.
A count with no signal photon carries a random bit, so it errs with
probability 1/2; the physics fixes that rate, and no parameter sets it.

The closed-form gains below are the standard linear-optics expressions for
this setup with phase-randomized weak coherent pulses.  They are not taken on
faith: :func:`monte_carlo_yield` simulates the identical physics trial by
trial, and the validation grid requires 3-sigma agreement before the model
is used.  The simulation samples each trial's bits, phase and clicks, so it
checks the closed form's phase integral and coincidence logic; the only fact
the two share is that a threshold detector seeing mean photon number
``lambda`` clicks with probability ``1 - (1 - p_d) e^-lambda``.  Given a
trial's bits, each detector's ``lambda`` is affine in ``cos(phi)``, read from
one row of a per-pattern table.  No ``lambda`` exceeds its entry's
``offset + |slope|``, so no no-click probability lies below the floor that
bound gives, so a detector whose click uniform lies below its floor stays
silent.  A success needs exactly two clicks, so a trial with fewer than two
candidate detectors, uniforms at or above their floors, cannot succeed.
One multinomial per chunk draws how many trials have two or more
candidates, with each one's bit pattern and first two candidates; only
those trials draw a phase and click uniforms, each uniform on its
conditional range, so the counts have the distribution of drawing every
trial in full (see :func:`monte_carlo_yield`).  The chunks run one after
another on the calling thread.

The closed form is also checked where the validation grid, whose cells have
equal intensities, does not reach: the tests compare every analysed pair of
random ensembles, unequal intensities included, with a phase quadrature of
the same relay optics, to 1e-12 relative.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .source_model import SourceEnsemble
from .stat_bounds import ChernoffConfig

if TYPE_CHECKING:
    import numpy as np

# Trials per Monte Carlo chunk; each chunk draws from its own spawned seed.
_CHUNK_SIZE = 1_000_000

# Drawn trials per draw block within a chunk: the detector intensities and
# the click uniforms of one block take 512 KB each.
_BLOCK_SIZE = 16384

# The candidate pairs (j1, j2), j1 < j2, in the order of their categories.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class ChannelParams:
    """Experiment-level parameters (symmetric channel, identical detectors).

    Each instance holds its :func:`side_transmittance` and the
    :class:`ChernoffConfig` of its ``xi``, computed once when it is made;
    neither is a field.
    """

    e_d: float = 0.015  # misalignment probability
    p_d: float = 6.02e-6  # dark count rate per detector per gate
    eta_d: float = 0.145  # detector efficiency
    alpha_f: float = 0.2  # fiber loss, dB/km
    f_ec: float = 1.16  # error-correction inefficiency
    xi: float = 1e-7  # failure probability per statistical estimate
    n_pairs: float = 1e11  # total emitted pulse pairs
    distance_km: float = 0.0  # Alice-Bob distance

    def __post_init__(self) -> None:
        # Here vars(self) holds exactly the fields, in order; reading it is cheaper than fields().
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("e_d", "p_d", "eta_d"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not (0.0 < self.xi < 1.0):
            raise ValueError(f"xi must lie in (0, 1), got {self.xi}")
        if self.alpha_f < 0.0:
            raise ValueError(f"alpha_f must be nonnegative, got {self.alpha_f}")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be at least 1, got {self.n_pairs}")
        if self.distance_km < 0.0:
            raise ValueError(f"distance_km must be nonnegative, got {self.distance_km}")
        if self.f_ec < 1.0:
            raise ValueError(f"f_ec must be at least 1, got {self.f_ec}")
        object.__setattr__(self, "_transmittance", side_transmittance(self))
        object.__setattr__(self, "_chernoff", ChernoffConfig(xi=self.xi))

    def at_distance(self, distance_km: float) -> "ChannelParams":
        """These parameters at another distance; equal to ``dataclasses.replace(self, distance_km=distance_km)``.

        The other fields were checked when ``self`` was made, so only the
        distance is checked again, with the errors of :meth:`__post_init__`,
        and the copy shares the Chernoff configuration of ``self``.
        """
        if not math.isfinite(distance_km):
            raise ValueError(f"distance_km must be finite, got {distance_km}")
        if distance_km < 0.0:
            raise ValueError(f"distance_km must be nonnegative, got {distance_km}")
        moved = object.__new__(type(self))
        vars(moved).update(vars(self), distance_km=distance_km)
        object.__setattr__(moved, "_transmittance", side_transmittance(moved))
        return moved


def side_transmittance(params: ChannelParams) -> float:
    """Efficiency from one party to a detector click at the midpoint relay."""
    return params.eta_d * 10.0 ** (-params.alpha_f * (params.distance_km / 2.0) / 10.0)


def _i0m1(z: float) -> float:
    """I0(z) - 1 from its power series, whose terms are all positive.

    Unlike ``I0(z) - 1`` computed directly, no term cancels; the sum runs until a
    term no longer raises it (a NaN stops it too), keeping full relative precision.
    The sum starts at the first term, and is 0 where that term is zero or NaN.
    """
    zz = z * z
    total = zz / 4.0
    if not total > 0.0:
        return 0.0
    term = total * (zz / 16.0)  # term m is term m - 1 times zz / (4 m^2), here m = 2
    m = 2
    while total + term > total:
        total += term
        m += 1
        term *= zz / (4.0 * m * m)
    return total


def _check_intensities(mu_a: float, mu_b: float) -> None:
    if not (0.0 <= mu_a < math.inf and 0.0 <= mu_b < math.inf):
        raise ValueError(f"intensities must be finite and nonnegative, got mu_a={mu_a}, mu_b={mu_b}")


def pair_yield(mu_a: float, mu_b: float, basis: str, params: ChannelParams) -> tuple[float, float]:
    """Gain and error-gain per emitted pulse pair at the given intensities.

    Returns ``(Q, EQ)`` clamped to ``0 <= EQ <= Q <= 1``.  A count with no
    signal photon errs with probability 1/2, fixed by the relay.  The tests
    check both against a phase quadrature of the relay optics to 1e-12
    relative; :func:`validate_model` checks equal intensities at 3 sigma.
    """
    _check_intensities(mu_a, mu_b)
    eta = params._transmittance
    ea, eb = eta * mu_a, eta * mu_b
    x = math.sqrt(ea * eb) / 2.0
    mu_p = (ea + eb) / 2.0
    p_d, e_d = params.p_d, params.e_d

    if basis == "X":
        y = (1.0 - p_d) * math.exp(-mu_p / 2.0)
        eps = p_d - (1.0 - p_d) * math.expm1(-mu_p / 2.0)  # = 1 - y, stably
        interference = _i0m1(2.0 * x)
        bracket = interference - 4.0 * y * _i0m1(x) + 2.0 * eps * eps
        q = 2.0 * y * y * bracket
        # A count the interference term does not tie to the bits, such as one
        # with no signal photon, carries a random bit: it errs with probability 1/2.
        eq = 0.5 * q - 2.0 * (0.5 - e_d) * y * y * interference
    elif basis == "Z":
        silent = (1.0 - p_d) * math.exp(-mu_p)  # both spectator detectors stay quiet
        click_a = -math.expm1(-ea / 2.0) + p_d * math.exp(-ea / 2.0)  # 1 - (1-p_d) e^{-ea/2}
        click_b = click_a if eb == ea else -math.expm1(-eb / 2.0) + p_d * math.exp(-eb / 2.0)
        q_correct = 2.0 * (1.0 - p_d) * silent * click_a * click_b
        q_dark = 2.0 * p_d * (1.0 - p_d) * silent * (_i0m1(2.0 * x) + p_d - (1.0 - p_d) * math.expm1(-mu_p))
        q = q_correct + q_dark
        eq = e_d * q_correct + (1.0 - e_d) * q_dark
    else:
        raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")

    q = _clamp(q, 0.0, 1.0)
    return q, _clamp(eq, 0.0, q)


@dataclass(frozen=True)
class MonteCarloYield:
    gain: float
    error_gain: float
    gain_se: float
    error_se: float
    trials: int
    successes: int
    errors: int


def _check_run(*checks: tuple[str, object, int]) -> None:
    """Raise ``ValueError`` unless each ``(name, value, least)`` has an integer ``value`` of at least ``least``.

    A bool is refused: ``True`` is an ``Integral`` of value 1, but no count.
    """
    for name, value, least in checks:
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least):
            raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def monte_carlo_yield(mu_a: float, mu_b: float, basis: str, params: ChannelParams, trials: int, seed: int) -> MonteCarloYield:
    """Photon-level simulation of the relay measurement.

    Per trial: draw the relative phase between the two (independently
    phase-randomized) pulses and both encoded bits, propagate the coherent
    amplitudes through the beam splitter, let each detector click with
    probability ``1 - (1 - p_d) e^-lambda`` at its post-loss mean photon
    number ``lambda`` (at least one photon or a dark count), and classify the
    coincidence pattern.  Given the trial's phase and bits the four
    detectors click independently, so one uniform per detector has the same
    distribution as a Poisson photon number plus a dark-count draw.

    Trials are partitioned into fixed-size chunks, which bound the memory a
    chunk takes, and chunk ``k`` draws from ``SeedSequence(seed,
    spawn_key=(k,))``, which is ``SeedSequence(seed).spawn(n)[k]``.  The
    chunks run one after another on the calling thread.  Results depend
    only on ``(seed, trials)``, not on the block size below.

    The draws are part of that contract.  Each chunk of ``m`` trials makes
    these generator calls, in this order, and changing any of them changes
    the counts:

    1. ``multinomial(m, w)`` over 25 categories.  Detector ``i`` of a trial
       with bit pattern ``p = 2 bit_a + bit_b`` stays silent where its
       uniform lies below its :func:`_no_click_floor` ``f_i``; it is a
       candidate where its uniform is at or above it.  Category ``6 p + c``
       holds the trials of pattern ``p`` whose first two candidates are
       detectors ``j1 < j2``, the pair ``c`` running over 01, 02, 03, 12,
       13, 23 (``_PAIRS``), with weight ``(1/4) (prod_{i<j1} f_i) (1 -
       f_j1) (prod_{j1<i<j2} f_i) (1 - f_j2)``.  The last category, of
       weight ``(1/4) sum_p [prod_i f_i + sum_j (1 - f_j) prod_{i!=j}
       f_i]``, holds the trials with at most one candidate, which click at
       most once, and they draw nothing more.
    2. ``random(k)`` for the phases of the ``k`` drawn trials, in category
       order, as ``2 pi`` times each value.
    3. ``random((k, 4))`` for their click uniforms, each mapped affinely onto
       its conditional range: ``[0, f_i)`` for ``i < j1`` and ``j1 < i <
       j2``, ``[f_i, 1)`` for ``i = j1`` and ``i = j2``, and ``[0, 1)`` for
       ``i > j2``.  Detector ``i`` clicks where its uniform is at least its
       no-click probability.
    4. ``random(s)`` for the misalignment flips of the chunk's ``s``
       successes.

    Every accepted coincidence has exactly two clicks, and a detector clicks
    only where it is a candidate, so a trial with at most one candidate
    never succeeds.  Given its pattern, a trial's first two candidates are
    detectors ``j1 < j2`` with the probability of the weight above, and its
    uniforms are then independent on the ranges above.  The trials of a
    chunk are exchangeable, so the counts have exactly the distribution of
    drawing every trial's phase, bits and four uniforms.  The uniforms are
    drawn in blocks of drawn trials, one call per block on the same stream;
    a generator consumes its stream in element order, so the blocks draw the
    same numbers as one call would.  Phases and uniforms stay float64.
    """
    _check_run(("trials", trials, 1), ("seed", seed, 0))
    if basis not in ("X", "Z"):
        raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")
    _check_intensities(mu_a, mu_b)
    import numpy as np

    eta = params._transmittance
    successes = errors = 0
    for k, first in enumerate(range(0, trials, _CHUNK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        chunk_successes, chunk_errors = _chunk_counts(rng, min(_CHUNK_SIZE, trials - first), basis, eta * mu_a, eta * mu_b, params)
        successes += chunk_successes
        errors += chunk_errors
    q_hat = successes / trials
    eq_hat = errors / trials
    return MonteCarloYield(
        gain=q_hat,
        error_gain=eq_hat,
        gain_se=math.sqrt(q_hat * (1.0 - q_hat) / trials),
        error_se=math.sqrt(eq_hat * (1.0 - eq_hat) / trials),
        trials=trials,
        successes=successes,
        errors=errors,
    )


@cache
def _lookup_tables() -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``(success, error)`` lookups, built once on first use.

    A trial's clicks form a 4-bit code, bit k set when detector k (1H, 1V, 2H,
    2V) fired (see :func:`_click_codes`); successes are 1H+1V, 2H+2V (same
    port) and 1H+2V, 1V+2H (cross port).  ``error[basis]``, indexed by
    16 pattern + code with pattern = 2 bit_a + bit_b, says whether a success
    is an error before misalignment.
    """
    import numpy as np

    error = {"Z": np.repeat([True, False, False, True], 16)}
    error["X"] = error["Z"] ^ np.tile(np.isin(np.arange(16), [0b0011, 0b1100]), 4)
    return np.isin(np.arange(16), [0b0011, 0b1100, 0b1001, 0b0110]), error


def _click_codes(clicks: np.ndarray) -> np.ndarray:
    """The click code of each row of a C-contiguous ``(n, 4)`` bool array: bit k set where column k is.

    A row read as one little-endian uint32 holds column k in bit 8k.  The
    product with ``2^24 + 2^17 + 2^10 + 2^3`` moves that bit to bit 24 + k;
    every other term lands in a distinct bit below 20 or at bit 32 and above,
    so nothing carries into the top byte, which is the code.
    """
    import numpy as np

    return (clicks.view("<u4")[:, 0] * np.uint32(0x01020408)) >> np.uint32(24)


def _intensity_table(basis: str, ea: float, eb: float) -> tuple[np.ndarray, np.ndarray]:
    """Each detector's mean photon number as ``offset + slope * cos(phi)``.

    Two ``(4, 4)`` arrays, with rows indexed by the bit pattern
    ``2 bit_a + bit_b`` and columns by detector (1H, 1V, 2H, 2V).
    """
    import numpy as np

    x = math.sqrt(ea * eb) / 2.0
    mu_p = (ea + eb) / 2.0
    if basis == "X":
        # The H detectors of ports 1 and 2 see mu_p/2 +- x cos(phi); the V
        # detectors see the same pair, swapped when the bits differ.
        equal, unequal = (x, x, -x, -x), (x, -x, -x, x)
        return np.full((4, 4), mu_p / 2.0), np.array((equal, unequal, unequal, equal))
    # Equal bits interfere on the two detectors of their polarization; unequal
    # bits put half of each party's intensity on both of its own.
    half_a, half_b = ea / 2.0, eb / 2.0
    offset = np.array(((mu_p, 0.0, mu_p, 0.0), (half_a, half_b, half_a, half_b), (half_b, half_a, half_b, half_a), (0.0, mu_p, 0.0, mu_p)))
    slope = np.zeros((4, 4))
    slope[0, 0::2] = slope[3, 1::2] = (2.0 * x, -2.0 * x)
    return offset, slope


def _no_click_floor(offset: np.ndarray, slope: np.ndarray, keep: float) -> np.ndarray:
    """Per ``(pattern, detector)`` entry of the table ``(offset, slope)``, a floor under every no-click probability ``keep e^-lambda``.

    The floor is ``keep e^-top (1 - 2^-40)`` with ``top = offset + |slope|``:
    since ``|cos| <= 1`` and rounding is monotone, no computed
    ``lambda = offset + slope cos`` exceeds ``top``, and the ``2^-40``
    shading covers the rounding of ``exp`` and the products many times over.
    A floor below ``2^-53`` is 0, since there ``exp`` may be subnormal, with
    no relative error bound, and only a uniform of 0 lies below it anyway.
    """
    import numpy as np

    floor = keep * np.exp(-(offset + np.abs(slope))) * (1.0 - 2.0**-40)
    floor[floor < 2.0**-53] = 0.0
    return floor


def _chunk_counts(rng: np.random.Generator, m: int, basis: str, ea: float, eb: float, params: ChannelParams) -> tuple[int, int]:
    """Successes and errors among ``m`` trials, with the draws listed in :func:`monte_carlo_yield`.

    The multinomial's first 24 counts, repeated in category order, give
    each drawn trial its category ``6 p + c``.  The tables are laid out by
    category, so one index gathers a trial's :func:`_intensity_table` rows
    and the affine map ``low + width u`` of its click uniforms: width
    ``f_i`` below the candidates' ranges, low ``f_i`` and width ``1 - f_i``
    for the two candidates, and width 1 past the second.  A category's
    weight is a quarter of the product of its four widths.  The phases are
    drawn up front; the uniforms, and the physics on them, block by block,
    into ``(block, 4)`` buffers reused across blocks.  A trial with at most
    one candidate draws nothing and costs nothing.
    """
    import numpy as np

    success_of, error_of = _lookup_tables()
    offset, slope = _intensity_table(basis, ea, eb)
    # No photon arrives with probability e^-lambda, and no dark count fires
    # with probability 1 - p_d.
    keep = 1.0 - params.p_d
    floor = _no_click_floor(offset, slope, keep)

    # Row 6 p + c of each table: pattern p's row, and the map of its
    # uniforms where the pair c holds its first two candidates.
    detector = np.arange(4)
    first, second = np.array(_PAIRS).T[:, :, None]
    candidate = (detector == first) | (detector == second)
    f = floor[:, None, :]
    low = np.where(candidate, f, 0.0).reshape(24, 4)
    width = np.where(candidate, 1.0 - f, np.where(detector > second, 1.0, f)).reshape(24, 4)
    weight = 0.25 * width[:, 0] * width[:, 1] * width[:, 2] * width[:, 3]
    # The last category: no candidate, or only detector j.
    one = np.where(np.eye(4, dtype=bool), 1.0 - f, f)
    rest = 0.25 * (floor.prod(axis=1) + one.prod(axis=2).sum(axis=1)).sum()
    counts = rng.multinomial(m, np.append(weight, rest))
    category = np.repeat(np.arange(24, dtype=np.uint8), counts[:24])
    k = category.size
    cos_phi = rng.random(k)
    np.cos(np.multiply(cos_phi, 2.0 * math.pi, out=cos_phi), out=cos_phi)

    offset, slope = offset.repeat(6, axis=0), slope.repeat(6, axis=0)
    silent, spare, uniform = np.empty((3, _BLOCK_SIZE, 4))
    above = np.empty((_BLOCK_SIZE, 4), dtype=bool)
    raw_errors = [np.empty(0, dtype=bool)]
    for start in range(0, k, _BLOCK_SIZE):
        drawn = category[start : start + _BLOCK_SIZE]
        n = drawn.size
        lam = offset.take(drawn, axis=0, out=silent[:n], mode="clip")
        lam += np.multiply(slope.take(drawn, axis=0, out=spare[:n], mode="clip"), cos_phi[start : start + n, None], out=spare[:n])
        np.exp(np.negative(lam, out=lam), out=lam)
        lam *= keep
        u = rng.random(out=uniform[:n])
        u *= width.take(drawn, axis=0, out=spare[:n], mode="clip")
        u += low.take(drawn, axis=0, out=spare[:n], mode="clip")
        code = _click_codes(np.greater_equal(u, lam, out=above[:n]))  # bit j set when detector j fired
        key = np.left_shift(drawn // 6, 4) | code  # 16 pattern + code
        raw_errors.append(error_of[basis].take(key[success_of.take(code)]))

    raw_error = np.concatenate(raw_errors)
    flipped = rng.random(raw_error.size) < params.e_d
    return raw_error.size, int(np.count_nonzero(raw_error ^ flipped))


def _clamp(v: float, lo: float, hi: float) -> float:
    """``min(max(v, lo), hi)`` bit for bit wherever ``hi < lo`` is false, in two comparisons.

    Both builtins keep their first argument unless the second compares
    strictly past it, and so does this: a NaN ``v`` comes back as itself, and
    ``-0.0`` against a bound of ``0.0`` stays ``-0.0``.  The per-distance
    analysis clamps through it, and the search's ``_clip`` writes its two
    comparisons inline, since on Python 3.11.7 ``min(max(v, 0.0), 1.0)``
    costs about 287 ns, this call 58 ns and the two comparisons inline 26 ns.
    """
    return lo if lo > v else hi if hi < v else v


def _frozen(cls, **fields):
    """``cls(**fields)`` for a frozen dataclass ``cls`` without ``__post_init__``, given every field.

    The instance's ``__dict__`` is filled in one update, as
    :meth:`ChannelParams.at_distance` fills it, instead of by one
    ``object.__setattr__`` per field, so it stays frozen and compares, hashes
    and prints as the constructor's.  The analysis builds its records per
    distance through this.  It is given the fields alone: a name that is not
    a field would be seen by neither comparison, hashing nor ``repr``, and
    :func:`dataclasses.replace` would drop it.
    """
    record = object.__new__(cls)
    vars(record).update(fields)
    return record


@dataclass(frozen=True)
class PairObservables:
    """Counts and error counts of the two-pulse sources the analysis reads, by pair ``(l, r)``.

    ``emitted`` holds the expected emitted pairs ``p_l p_r N_t`` of each pair,
    one dict per record; the analysis reads that pair's counts only where it
    expects emissions.
    """

    emitted: dict[tuple[str, str], float]
    counts: dict[tuple[str, str], int]
    errors: dict[tuple[str, str], int]
    n_pairs: float

    @property
    def signal_rate(self) -> float:
        """Observed counting rate of the signal-signal source; 0 where it expects no emissions, and so has no counts."""
        emitted = self.emitted["z", "z"]
        return self.counts["z", "z"] / emitted if emitted else 0.0

    @property
    def signal_error_rate(self) -> float:
        """Observed error fraction among signal-signal counts."""
        counts = self.counts["z", "z"]
        return self.errors["z", "z"] / counts if counts else 0.0


def build_observables(ensemble: SourceEnsemble, params: ChannelParams) -> PairObservables:
    """Expected observables at typical intensities for the pairs the analysis reads.

    The pairs, their intensities, their ``p_l p_r`` and their mirrors come
    from the ensemble's ``pair_table``; each pair's expected emissions are
    ``p_l p_r n_pairs``, in a dict of this distance's own.  Counts are
    rounded to integers (round-half-even) since any real run records
    integers.  An X-basis yield is symmetric in the two intensities bit for
    bit, so a pair and its mirror, such as v-x and x-v, share one
    :func:`pair_yield` call.  A Z-basis yield is not: its two click factors
    multiply in the order of the arguments.
    """
    yields: list[tuple[float, float]] = []
    counts: dict[tuple[str, str], int] = {}
    errors: dict[tuple[str, str], int] = {}
    emitted: dict[tuple[str, str], float] = {}
    n_pairs = params.n_pairs
    for pair, basis, mu_l, mu_r, p_lr, mirror in ensemble.pair_table:
        q, eq = yields[mirror] if mirror >= 0 and basis == "X" else pair_yield(mu_l, mu_r, basis, params)
        yields.append((q, eq))
        expected = emitted[pair] = p_lr * n_pairs
        count = counts[pair] = round(expected * q)
        error = round(expected * eq)
        errors[pair] = count if count < error else error
    return _frozen(PairObservables, emitted=emitted, counts=counts, errors=errors, n_pairs=float(n_pairs))


# ---------------------------------------------------------------------------
# Analytic-model validation against the photon-level simulation.
# ---------------------------------------------------------------------------

DEFAULT_VALIDATION_GRID: tuple[tuple[float, float], ...] = (
    (0.1, 0.0),
    (0.3, 0.0),
    (0.5, 0.0),
    (0.1, 30.0),
    (0.3, 30.0),
    (0.5, 30.0),
    (0.1, 60.0),
    (0.3, 60.0),
    (0.5, 60.0),
    (0.7, 15.0),
)


def _z_score(observed: float, predicted: float, se_observed: float, trials: int) -> float:
    """Deviation in binomial standard errors.

    Uses the larger of the empirical and model-predicted standard error so a
    zero-count observation of a rare rate is judged against the prediction's
    own spread instead of a degenerate zero.
    """
    se_predicted = math.sqrt(max(predicted * (1.0 - predicted), 0.0) / trials)
    se = max(se_observed, se_predicted)
    if se == 0.0:
        return 0.0
    return (observed - predicted) / se


@dataclass(frozen=True)
class ValidationRow:
    mu: float
    distance_km: float
    basis: str
    analytic_gain: float
    mc_gain: float
    z_gain: float
    analytic_error_gain: float
    mc_error_gain: float
    z_error: float

    @property
    def ok(self) -> bool:
        return abs(self.z_gain) <= 3.0 and abs(self.z_error) <= 3.0


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)


def validate_model(
    params: ChannelParams,
    trials: int,
    seed: int,
    grid: tuple[tuple[float, float], ...] = DEFAULT_VALIDATION_GRID,
) -> ValidationReport:
    """Compare closed-form gains against the photon-level simulation.

    Each cell's simulation is one :func:`monte_carlo_yield` call on the
    calling thread, made right after that cell's closed-form gains.
    """
    _check_run(("trials", trials, 1), ("seed", seed, 0))
    if not grid:
        raise ValueError("the validation grid must hold at least one (mu, distance_km) point")
    rows = []
    for i, (mu, distance) in enumerate(grid):
        run_params = params.at_distance(distance)  # shared by the point's two cells
        for j, basis in enumerate(("X", "Z")):
            q, eq = pair_yield(mu, mu, basis, run_params)
            mc = monte_carlo_yield(mu, mu, basis, run_params, trials, seed + 1000 * i + j)
            rows.append(
                ValidationRow(
                    mu=mu,
                    distance_km=run_params.distance_km,
                    basis=basis,
                    analytic_gain=q,
                    mc_gain=mc.gain,
                    z_gain=_z_score(mc.gain, q, mc.gain_se, trials),
                    analytic_error_gain=eq,
                    mc_error_gain=mc.error_gain,
                    z_error=_z_score(mc.error_gain, eq, mc.error_se, trials),
                )
            )
    return ValidationReport(rows=tuple(rows))
