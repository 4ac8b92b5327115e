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
is used.  The simulation samples each trial's phase and bits, so it checks
the closed form's phase integral and coincidence logic; the only fact the two
share is that a threshold detector seeing mean photon number ``lambda``
clicks with probability ``1 - (1 - p_d) e^-lambda``.  Given a trial's bits,
each detector's ``lambda`` is affine in ``cos(phi)``, read from one row of a
per-pattern table.  No ``lambda`` exceeds its entry's ``offset + |slope|``,
so a trial whose click uniforms all lie below the no-click probabilities of
that bound clicks nowhere; the simulation skips the physics of such trials,
but none of their draws, so its counts are those of computing every trial.
Where the bound's table holds one value, as every X-basis table does, the
uniforms are compared with that value and no per-trial floor is gathered;
the trials that can click are gathered with ``take``.
Its draws are fixed as ``uniform``, ``integers`` and ``random`` calls; it
makes them as ``random`` and ``bit_generator.random_raw`` calls, which read
the same stream of the same PCG64 generator more cheaply (see
:func:`monte_carlo_yield`), so the counts do not move.  The raw words are
read as explicit little-endian 32-bit halves, one shift per bit, so the
bits do not depend on the host's byte order.
The chunks of trials run on a ``ThreadPoolExecutor``, and one generator
yields each cell's counts in the order its chunks were submitted.

The closed form is also checked where the validation grid, whose cells have
equal intensities, does not reach: the tests compare every analysed pair of
random ensembles, unequal intensities included, with a phase quadrature of
the same relay optics, to 1e-12 relative.
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
# click uniforms of one block take 512 KB each, and its raw bit draws 128 KB.
_BLOCK_SIZE = 16384


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

    The draws are part of that contract.  Each chunk of ``m`` trials reads
    its generator's stream as these calls would, in this order:
    ``uniform(0, 2 pi, m)`` for the phase, ``integers(0, 2, m)`` for Alice's
    bit and again for Bob's, ``random((m, 4))`` for the click uniforms
    (detector ``k`` of a trial clicks where its uniform is at least its
    no-click probability), and ``random(n)`` for the misalignment flips of
    the chunk's ``n`` successful trials.  Changing any draw changes the
    counts.

    The phase and bits are read through cheaper calls that give the same
    values.  ``uniform(0, 2 pi, m)`` is ``0.0 + 2 pi y`` for the doubles
    ``y`` of ``random(m)``, and ``0.0 + x == x`` for ``x >= 0``; so the
    phase is drawn by ``random(m)``, and only the phases of trials that can
    click are multiplied by ``2 pi``.  ``integers(0, 2)`` makes each bit by
    Lemire's method from one 32-bit draw; with a range of 2 it never
    rejects, and the bit is the draw's top bit.  PCG64 serves 32-bit draws
    as the low and then the high half of each 64-bit output.  So the ``2m``
    bits are the top bits of the halves of ``m`` outputs of
    ``bit_generator.random_raw``, read as explicit little-endian 32-bit
    halves with one shift each (:func:`_top_bits`), and so not by the
    host's byte order.  Each chunk's generator is new, so no half is
    buffered before the bits or left after them.  The bit and click draws
    are made in blocks of trials, one call per block on the same stream; a
    generator consumes its stream in element order, so the blocks draw the
    same numbers as one call would.

    A detector's no-click probability never lies below its
    :func:`_no_click_floor`, so a trial whose four uniforms lie below their
    floors has no click, and its cosine, intensities and ``exp`` are never
    computed; every other trial runs the same float operations on the same
    values.  This cannot change a count: it skips work, not draws.  Where
    every entry of the floor table holds one value, as in every X-basis
    table, the uniforms are compared with that value and no per-trial floor
    is gathered; the trials that can click are gathered with ``take``.

    :func:`validate_model` passes the :func:`_cell_counts` of all its cells
    as ``_counts``, whose next item is this cell's, so that the chunks of
    later cells run while this call waits for this cell's.
    """
    _check_run(("trials", trials, 1), ("seed", seed, 0))
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


def _top_bits(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, twice as long as ``raw``, filled with the top bit of the low and then of the high 32-bit half of each word.

    Those are ``raw >> 31 & 1`` and ``raw >> 63``, the bits that
    ``integers(0, 2)`` makes from the two 32-bit draws PCG64 serves from one
    64-bit output.  The words are read as explicit little-endian halves, so
    the low half comes first whatever the host's byte order and whatever
    byte order ``raw`` is held in; one right shift, cast to the uint8
    ``out``, takes each top bit.
    """
    import numpy as np

    return np.right_shift(raw.astype("<u8", copy=False).view("<u4"), 31, out=out, casting="unsafe")


def _chunk_counts(rng: np.random.Generator, m: int, basis: str, ea: float, eb: float, params: ChannelParams) -> tuple[int, int]:
    """Successes and errors among ``m`` trials, with the draws listed in :func:`monte_carlo_yield`.

    The phase is drawn by ``random(m)``, the bits block by block by
    ``random_raw`` and read by :func:`_top_bits` into one ``2m``-byte
    buffer, and the click uniforms block by block, in the listed order.  A
    trial whose four click uniforms all lie below the
    :func:`_no_click_floor` of its bit pattern clicks nowhere.  Where every
    entry of the floor table holds one value, the uniforms are compared
    with that value; otherwise with the floor rows gathered by pattern.  The
    other, hot, trials of a block are indexed by ``flatnonzero`` on one bool
    per trial, and their pattern, phase and click uniforms are gathered with
    ``take`` into buffers reused across blocks.  Only they get their phase
    scaled by ``2 pi``, its cosine, their :func:`_intensity_table` rows,
    ``exp``, the comparison and the :func:`_lookup_tables` lookups: the
    float operations of every trial on the same values, each on a
    contiguous array, so the counts are those of computing every trial.
    The hot rows are picked out only where the expected hot fraction, one
    minus the mean over the four patterns of the product of their floors,
    is at most one half; elsewhere every trial of the block is computed, on
    views of the block.  Intensities go to ``(block, 4)`` buffers reused
    across blocks.
    """
    import numpy as np

    success_of, error_of = _lookup_tables()
    block = min(_BLOCK_SIZE, m)
    blocks = [(start, min(start + block, m)) for start in range(0, m, block)]
    phase = rng.random(m)  # times 2 pi, on the hot rows only, is uniform(0, 2 pi, m)
    # The 2m halves, read in order, are Alice's m bits and then Bob's.
    bits = np.empty(2 * m, dtype=np.uint8)
    for start, stop in blocks:
        _top_bits(rng.bit_generator.random_raw(stop - start), bits[2 * start : 2 * stop])
    pattern = np.add(bits[:m], bits[:m], out=bits[:m])  # 2 bit_a; numpy's uint8 add is vectorized, its shift is not
    pattern |= bits[m:]

    offset, slope = _intensity_table(basis, ea, eb)
    # No photon arrives with probability e^-lambda, and no dark count fires
    # with probability 1 - p_d.
    keep = 1.0 - params.p_d
    floor = _no_click_floor(offset, slope, keep)
    sparse = floor.prod(axis=1).mean() >= 0.5
    # A table of one floor value is compared with that value, with no gather.
    level = floor.flat[0] if (floor == floor.flat[0]).all() else None
    silent, spare, uniform, hot_u = np.empty((4, block, 4))
    hot_pattern, hot_phase = np.empty(block, dtype=np.uint8), np.empty(block)
    above = np.empty((block, 4), dtype=bool)
    raw_errors = []
    for start, stop in blocks:
        n = stop - start
        u = rng.random(out=uniform[:n])
        hot, cos_phi, k = pattern[start:stop], phase[start:stop], n
        if sparse:
            floors = floor.take(hot, axis=0, out=silent[:n], mode="clip") if level is None else level
            rows = np.flatnonzero(np.greater_equal(u, floors, out=above[:n]).view("<u4")[:, 0] != 0)
            k = rows.size
            hot = hot.take(rows, out=hot_pattern[:k], mode="clip")
            cos_phi = cos_phi.take(rows, out=hot_phase[:k], mode="clip")
            u = u.take(rows, axis=0, out=hot_u[:k], mode="clip")
        np.cos(np.multiply(cos_phi, 2.0 * math.pi, out=cos_phi), out=cos_phi)
        lam = offset.take(hot, axis=0, out=silent[:k], mode="clip")
        lam += np.multiply(slope.take(hot, axis=0, out=spare[:k], mode="clip"), cos_phi[:, None], out=spare[:k])
        np.exp(np.negative(lam, out=lam), out=lam)
        lam *= keep
        code = _click_codes(np.greater_equal(u, lam, out=above[:k]))  # bit j set when detector j fired
        key = np.left_shift(hot, 4) | code
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
    calling thread.  The calls read one :func:`_cell_counts` on one thread
    pool, so the cells' chunks run on it together.
    """
    _check_run(("trials", trials, 1), ("seed", seed, 0))
    if not grid:
        raise ValueError("the validation grid must hold at least one (mu, distance_km) point")
    cells, analytic = [], []
    for i, (mu, distance) in enumerate(grid):
        run_params = params.at_distance(distance)  # shared by the point's two cells
        for j, basis in enumerate(("X", "Z")):
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
