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

The closed-form gains below are the standard linear-optics expressions for
this setup with phase-randomized weak coherent pulses.  They are not taken on
faith: :func:`monte_carlo_yield` simulates the identical physics trial by
trial, and the validation grid requires 3-sigma agreement before the model
is used.  The simulation samples each trial's phase and bits, so it checks
the closed form's phase integral and coincidence logic; the only fact the two
share is that a threshold detector seeing mean photon number ``lambda``
clicks with probability ``1 - (1 - p_d) e^-lambda``.  Given a trial's bits,
each detector's ``lambda`` is affine in ``cos(phi)``, read from one row of a
per-pattern table.  The chunks of trials run on a ``ThreadPoolExecutor``, and
one generator yields each cell's counts in the order its chunks were
submitted.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING

from .source_model import SourceEnsemble
from .stat_bounds import ChernoffConfig

if TYPE_CHECKING:
    import numpy as np

# Trials per Monte Carlo chunk; each chunk draws from its own spawned seed.
_CHUNK_SIZE = 1_000_000

# Trials per draw block within a chunk: the detector intensities and the
# click uniforms of one block take about 256 KB each.
_BLOCK_SIZE = 8192


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the OS has one, else the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# Threads that run Monte Carlo chunks at once.  Each chunk has its own seed
# and counts add up as integers, so the counts do not depend on this.
_WORKERS = min(_usable_cores(), 4)


@dataclass(frozen=True)
class ChannelParams:
    """Experiment-level parameters (symmetric channel, identical detectors).

    Each instance holds its :func:`side_transmittance` and the
    :class:`ChernoffConfig` of its ``xi``, computed once when it is made;
    neither is a field.
    """

    e0: float = 0.5  # error rate of vacuous counts
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
        for name in ("e0", "e_d", "p_d", "eta_d"):
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
    """
    term = z * z / 4.0
    total = 0.0
    m = 1
    while total + term > total:
        total += term
        m += 1
        term *= z * z / (4.0 * m * m)
    return total


def _check_intensities(mu_a: float, mu_b: float) -> None:
    if not (0.0 <= mu_a < math.inf and 0.0 <= mu_b < math.inf):
        raise ValueError(f"intensities must be finite and nonnegative, got mu_a={mu_a}, mu_b={mu_b}")


def pair_yield(mu_a: float, mu_b: float, basis: str, params: ChannelParams) -> tuple[float, float]:
    """Gain and error-gain per emitted pulse pair at the given intensities.

    Returns ``(Q, EQ)`` clamped to ``0 <= EQ <= Q <= 1``.
    """
    _check_intensities(mu_a, mu_b)
    eta = params._transmittance
    ea, eb = eta * mu_a, eta * mu_b
    x = math.sqrt(ea * eb) / 2.0
    mu_p = (ea + eb) / 2.0
    p_d, e0, e_d = params.p_d, params.e0, params.e_d

    if basis == "X":
        y = (1.0 - p_d) * math.exp(-mu_p / 2.0)
        eps = p_d - (1.0 - p_d) * math.expm1(-mu_p / 2.0)  # = 1 - y, stably
        interference = _i0m1(2.0 * x)
        bracket = interference - 4.0 * y * _i0m1(x) + 2.0 * eps * eps
        q = 2.0 * y * y * bracket
        eq = e0 * q - 2.0 * (e0 - e_d) * y * y * interference
    elif basis == "Z":
        silent = (1.0 - p_d) * math.exp(-mu_p)  # both spectator detectors stay quiet
        click_a = -math.expm1(-ea / 2.0) + p_d * math.exp(-ea / 2.0)  # 1 - (1-p_d) e^{-ea/2}
        click_b = -math.expm1(-eb / 2.0) + p_d * math.exp(-eb / 2.0)
        q_correct = 2.0 * (1.0 - p_d) * silent * click_a * click_b
        q_dark = 2.0 * p_d * (1.0 - p_d) * silent * (_i0m1(2.0 * x) + p_d - (1.0 - p_d) * math.expm1(-mu_p))
        q = q_correct + q_dark
        eq = e_d * q_correct + (1.0 - e_d) * q_dark
    else:
        raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")

    q = min(max(q, 0.0), 1.0)
    eq = min(max(eq, 0.0), q)
    return q, eq


@dataclass(frozen=True)
class MonteCarloYield:
    gain: float
    error_gain: float
    gain_se: float
    error_se: float
    trials: int
    successes: int
    errors: int


def _check_run(trials: int, seed: int) -> None:
    """Raise ``ValueError`` unless ``trials`` is an integer of at least 1 and ``seed`` one of at least 0."""
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if not (isinstance(value, numbers.Integral) and value >= least):
            raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def monte_carlo_yield(
    mu_a: float,
    mu_b: float,
    basis: str,
    params: ChannelParams,
    trials: int,
    seed: int,
    *,
    _counts: Iterator[tuple[int, int]] | None = None,
) -> MonteCarloYield:
    """Photon-level simulation of the relay measurement.

    Per trial: draw the relative phase between the two (independently
    phase-randomized) pulses and both encoded bits, propagate the coherent
    amplitudes through the beam splitter, let each detector click with
    probability ``1 - (1 - p_d) e^-lambda`` at its post-loss mean photon
    number ``lambda`` (at least one photon or a dark count), and classify the
    coincidence pattern.  Given the trial's phase and bits the four
    detectors click independently, so one uniform per detector has the same
    distribution as a Poisson photon number plus a dark-count draw.

    Trials are partitioned into fixed-size chunks with seeds spawned per
    chunk, and chunks run on a small thread pool.  Results depend only on
    ``(seed, trials)``, not on the number of threads, the order in which
    chunks finish, or the block size below.

    The draws are part of that contract.  Each chunk of ``m`` trials makes
    these generator calls, in this order: ``uniform(0, 2 pi, m)`` for the
    phase, ``integers(0, 2, m)`` for Alice's bit and again for Bob's,
    ``random((m, 4))`` for the click uniforms (detector ``k`` of a trial
    clicks where its uniform is at least its no-click probability), and
    ``random(n)`` for the misalignment flips of the chunk's ``n`` successful
    trials.  The bit and click draws are made in blocks of trials, one call
    per block on the same stream; a generator consumes its stream in element
    order, so the blocks draw the same numbers as one call would.  Changing
    any draw changes the counts.

    :func:`validate_model` passes the :func:`_cell_counts` of all its cells
    as ``_counts``, whose next item is this cell's, so that the chunks of
    later cells run while this call waits for this cell's.
    """
    _check_run(trials, seed)
    if basis not in ("X", "Z"):
        raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")
    _check_intensities(mu_a, mu_b)
    if _counts is None:
        # Imported here, so that commands without a Monte Carlo do not pay
        # for the import.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
            successes, errors = next(_cell_counts(pool, [(mu_a, mu_b, basis, params, trials, seed)]))
    else:
        successes, errors = next(_counts)
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


def _cell_counts(pool, cells: list[tuple[float, float, str, ChannelParams, int, int]]) -> Iterator[tuple[int, int]]:
    """``(successes, errors)`` of each ``(mu_a, mu_b, basis, params, trials, seed)`` cell, in order.

    The futures of all ``(cell, chunk)`` jobs wait in one window in
    submission order: each chunk is popped from the head, and the window is
    refilled to two jobs per worker.  Jobs are made only as they are
    submitted, and later cells' jobs run while an earlier cell is collected.
    Chunk ``k`` of a cell draws from ``SeedSequence(seed, spawn_key=(k,))``,
    which is ``SeedSequence(seed).spawn(n)[k]``.  Worker threads run only
    ``_chunk_counts`` and below.  After a failed chunk, the jobs in the
    window that have not started are cancelled.
    """
    import numpy as np

    jobs = (
        pool.submit(_chunk_counts, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))), min(_CHUNK_SIZE, trials - first), basis, eta * mu_a, eta * mu_b, params)
        for mu_a, mu_b, basis, params, trials, seed in cells
        for eta in (params._transmittance,)
        for k, first in enumerate(range(0, trials, _CHUNK_SIZE))
    )
    window: deque = deque()
    try:
        for cell in cells:
            counts = []
            for _ in range(0, cell[4], _CHUNK_SIZE):
                window.extend(islice(jobs, 2 * _WORKERS - len(window)))
                counts.append(window.popleft().result())
            yield tuple(map(sum, zip(*counts)))
    finally:
        for job in window:
            job.cancel()


@cache
def _lookup_tables() -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """``(click weights, success, error)`` lookups, built once on first use.

    A trial's clicks form a 4-bit code, bit k set when detector k (1H, 1V, 2H,
    2V) fired; successes are 1H+1V, 2H+2V (same port) and 1H+2V, 1V+2H (cross
    port).  ``error[basis]``, indexed by 16 pattern + code with pattern =
    2 bit_a + bit_b, says whether a success is an error before misalignment.
    """
    import numpy as np

    error = {"Z": np.repeat([True, False, False, True], 16)}
    error["X"] = error["Z"] ^ np.tile(np.isin(np.arange(16), [0b0011, 0b1100]), 4)
    return np.array([1, 2, 4, 8], dtype=np.uint8), np.isin(np.arange(16), [0b0011, 0b1100, 0b1001, 0b0110]), error


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


def _chunk_counts(rng: np.random.Generator, m: int, basis: str, ea: float, eb: float, params: ChannelParams) -> tuple[int, int]:
    """Successes and errors among ``m`` trials, with the draws listed in :func:`monte_carlo_yield`.

    The bits and the click uniforms are drawn block by block, in the listed
    order.  A block's intensities are the :func:`_intensity_table` rows of
    its bit patterns, turned in place into no-click probabilities in
    ``(block, 4)`` buffers reused across blocks; a chunk never holds an
    ``(m, 4)`` array.  One error lookup of :func:`_lookup_tables` classifies
    each success.
    """
    import numpy as np

    click_weights, success_of, error_of = _lookup_tables()
    block = min(_BLOCK_SIZE, m)
    blocks = [(start, min(start + block, m)) for start in range(0, m, block)]
    cos_phi = rng.uniform(0.0, 2.0 * np.pi, m)
    np.cos(cos_phi, out=cos_phi)
    bit_a, bit_b = np.empty((2, m), dtype=np.uint8)
    for bits in (bit_a, bit_b):
        for start, stop in blocks:
            bits[start:stop] = rng.integers(0, 2, stop - start)
    pattern = np.left_shift(bit_a, 1, out=bit_a)
    pattern |= bit_b

    offset, slope = _intensity_table(basis, ea, eb)
    silent, uniform = np.empty((2, block, 4))
    clicks = np.empty((block, 4), dtype=bool)
    code = np.empty(m, dtype=np.uint8)  # bit k set when detector k fired
    for start, stop in blocks:
        n = stop - start
        lam = offset.take(pattern[start:stop], axis=0, out=silent[:n], mode="clip")
        lam += np.multiply(slope.take(pattern[start:stop], axis=0, out=uniform[:n], mode="clip"), cos_phi[start:stop, None], out=uniform[:n])
        # No photon arrives with probability e^-lambda, and no dark count
        # fires with probability 1 - p_d.
        np.exp(np.negative(lam, out=lam), out=lam)
        lam *= 1.0 - params.p_d
        np.greater_equal(rng.random(out=uniform[:n]), lam, out=clicks[:n])
        np.matmul(clicks[:n].view(np.uint8), click_weights, out=code[start:stop])

    success = success_of.take(code)
    key = np.left_shift(pattern, 4, out=pattern)
    key |= code
    raw_error = error_of[basis].take(key[success])
    flipped = rng.random(raw_error.size) < params.e_d
    return raw_error.size, int(np.count_nonzero(raw_error ^ flipped))


def _frozen(cls, **fields):
    """``cls(**fields)`` for a frozen dataclass ``cls`` without ``__post_init__``, given every field.

    The instance's ``__dict__`` is filled in one update, as
    :meth:`ChannelParams.at_distance` fills it, instead of by one
    ``object.__setattr__`` per field, so it stays frozen and compares, hashes
    and prints as the constructor's.  The analysis builds its records per
    distance through this.
    """
    record = object.__new__(cls)
    vars(record).update(fields)
    return record


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
class PairObservables:
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


def build_observables(ensemble: SourceEnsemble, params: ChannelParams) -> PairObservables:
    """Expected observables at typical intensities for the pairs the analysis reads.

    The pairs, their intensities and their probability products come from
    ``ensemble.pair_table``.  Counts are rounded to integers
    (round-half-even) since any real run records integers.  An X-basis yield
    is symmetric in the two intensities bit for bit, so on sides given as one
    object a pair and its mirror, such as v-x and x-v, share one
    :func:`pair_yield` call.  A Z-basis yield is not: its two click factors
    multiply in the order of the arguments.
    """
    shared = ensemble.bob is ensemble.alice
    n_pairs = params.n_pairs
    yields: dict[tuple[str, str, str], tuple[float, float]] = {}
    pairs: dict[tuple[str, str], SourceCounts] = {}
    for l, r, basis, mu_l, mu_r, p_lr in ensemble.pair_table:
        mirror = yields.get((r, l, basis)) if shared and basis == "X" else None
        q, eq = yields[(l, r, basis)] = pair_yield(mu_l, mu_r, basis, params) if mirror is None else mirror
        emitted = p_lr * n_pairs
        counts = round(emitted * q)
        errors = min(round(emitted * eq), counts)
        pairs[(l, r)] = _frozen(SourceCounts, emitted=emitted, counts=counts, errors=errors)
    return _frozen(PairObservables, pairs=pairs, n_pairs=float(n_pairs))


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
    calling thread.  The calls read one :func:`_cell_counts` on one thread
    pool, so the cells' chunks run on it together.
    """
    _check_run(trials, seed)
    if not grid:
        raise ValueError("the validation grid must hold at least one (mu, distance_km) point")
    cells, analytic = [], []
    for i, (mu, distance) in enumerate(grid):
        for j, basis in enumerate(("X", "Z")):
            run_params = params.at_distance(distance)
            analytic.append(pair_yield(mu, mu, basis, run_params))
            cells.append((mu, mu, basis, run_params, trials, seed + 1000 * i + j))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        counts = _cell_counts(pool, cells)
        mcs = [monte_carlo_yield(*cell, _counts=counts) for cell in cells]
    rows = tuple(
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
        for (mu, _, basis, run_params, _, _), (q, eq), mc in zip(cells, analytic, mcs)
    )
    return ValidationReport(rows=rows)
