"""Synthetic track generation: parameter trajectories and noisy blocks.

Speckle is simulated as multiplicative multilook noise: every sample is
scaled by an independent Gamma(L, 1/L) draw (mean 1, variance 1/L), the
standard L-look intensity model.  Averaging L looks is what lets the
downstream solver treat the noise as approximately Gaussian.

Randomness is reproducible across platforms and across serial/parallel
generation: column m draws from PCG64(SeedSequence(seed, spawn_key=(m,))),
so column streams depend only on (seed, m).  Building those objects per
column costs five times the column's draws, so `_column_streams` derives
all columns' PCG64 states from SeedSequence's hash in one vectorised pass;
test_simulate pins it byte for byte to numpy's own seeding, so a change in
numpy's algorithm fails there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .brown import BrownConstants, BrownParams, waveform_block
from .errors import BadRangeError, ShapeMismatchError

TRAJECTORY_KINDS = ("constant", "smooth-random", "file")
NOISE_MODES = ("multiplicative-speckle", "additive-gaussian")

SMOOTH_WINDOW = 50
STEP_CAP_FRAC = 0.25  # of the span, per step, for trajectories read from file


@dataclass(frozen=True)
class NoiseSpec:
    """How to corrupt a clean block.

    looks       multilook averaging factor L (finite, >= 1)
    seed        RNG seed (non-negative integer)
    mode        'multiplicative-speckle' or 'additive-gaussian'
    noise_var   per-gate variance (scalar or length-K, finite, >= 0) for the additive mode
    """

    looks: float = 90.0
    seed: int = 0
    mode: str = "multiplicative-speckle"
    noise_var: float | np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.looks) and self.looks >= 1):
            raise ValueError("looks must be finite and >= 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}")
        if self.mode == "additive-gaussian" and self.noise_var is None:
            raise ValueError("additive-gaussian mode needs an explicit noise_var")
        var = np.asarray(0.0 if self.noise_var is None else self.noise_var, dtype=float)
        if not (np.all(np.isfinite(var)) and np.all(var >= 0)):
            raise ValueError("noise_var must be finite and >= 0")


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and
# PCG64's LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32, _MASK128, _POOL_SIZE = (1 << 32) - 1, (1 << 128) - 1, 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's running hash; works on ints and uint64 arrays alike."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _column_streams(seed: int, num_columns: int):
    """Yield column m's generator, PCG64(SeedSequence(seed, spawn_key=(m,))), for
    each m: one generator re-seeded in place, so draw before advancing."""
    seed = int(seed)  # as uint32 words, zero-padded to the pool size since spawn_key is set
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 32 * _POOL_SIZE), 32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src, dst in itertools.permutations(range(_POOL_SIZE), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # Seed words past the pool, then the spawn word m, after the cross-mix.
    for word in [*words[_POOL_SIZE:], np.arange(num_columns, dtype=np.uint64)]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    # generate_state(4, uint64): eight uint32 words, paired little-endian.
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    halves = [(state[i] | state[i + 1] << 32).tolist() for i in range(0, 8, 2)]
    rng = np.random.Generator(np.random.PCG64(0))
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        # pcg64_set_seed: inc = 2·initseq + 1, two LCG steps around adding initstate.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        lcg = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0,
                                   "uinteger": 0, "state": {"state": lcg, "inc": inc}}
        yield rng


def _smooth_series(rng: np.random.Generator, length: int, lo: float, hi: float):
    """Moving-averaged Gaussian random walk mapped affinely into [lo, hi]."""
    walk = np.cumsum(rng.standard_normal(length))
    window = min(SMOOTH_WINDOW, length)
    smooth = np.convolve(walk, np.ones(window) / window, mode="same")
    span = smooth.max() - smooth.min()
    if span == 0.0:
        return np.full(length, 0.5 * (lo + hi))
    return lo + (hi - lo) * (smooth - smooth.min()) / span


def _check_range(name: str, rng_pair, lo_bound: float | None = None):
    lo, hi = float(rng_pair[0]), float(rng_pair[1])
    if not np.isfinite([lo, hi]).all() or lo > hi:
        raise BadRangeError(f"{name} range must be finite with lo <= hi")
    if lo_bound is not None and lo < lo_bound:
        raise BadRangeError(f"{name} range must stay >= {lo_bound}")
    return lo, hi


def make_trajectory(
    kind: str,
    num_signals: int,
    *,
    swh: float | None = None,
    tau: float | None = None,
    pu: float | None = None,
    swh_range=None,
    tau_range=None,
    pu_range=None,
    seed: int = 0,
    path=None,
    consts: BrownConstants | None = None,
) -> BrownParams:
    """Build a parameter trajectory: a BrownParams batch of num_signals triplets.

    kind='constant' replicates the (swh, tau, pu) triplet; 'smooth-random'
    draws one smooth series per parameter inside the given (lo, hi) ranges,
    from ``seed``; 'file' loads a trajectory CSV written by the generator
    (see blockio) and rejects one whose step exceeds STEP_CAP_FRAC of its
    span, times SMOOTH_WINDOW / num_signals on shorter tracks; generated
    tracks are smooth by construction and skip that check.
    Every value must be finite and swh, pu non-negative; with ``consts``,
    tau must lie in the observation window.  tau is in meters everywhere.
    """
    if kind not in TRAJECTORY_KINDS:
        raise ValueError(f"kind must be one of {TRAJECTORY_KINDS}")
    if num_signals < 1:
        raise ValueError("num_signals must be >= 1")

    if kind == "constant":
        if swh is None or tau is None or pu is None:
            raise ValueError("constant trajectory needs swh, tau and pu")
        ones = np.ones(num_signals)
        series = (swh * ones, tau * ones, pu * ones)
    elif kind == "smooth-random":
        if swh_range is None or tau_range is None or pu_range is None:
            raise ValueError("smooth-random trajectory needs the three ranges")
        swh_lo, swh_hi = _check_range("swh", swh_range, lo_bound=0.0)
        tau_lo, tau_hi = _check_range("tau", tau_range)
        pu_lo, pu_hi = _check_range("pu", pu_range, lo_bound=0.0)
        ss = np.random.SeedSequence(seed)
        rngs = [np.random.default_rng(child) for child in ss.spawn(3)]
        series = (
            _smooth_series(rngs[0], num_signals, swh_lo, swh_hi),
            _smooth_series(rngs[1], num_signals, tau_lo, tau_hi),
            _smooth_series(rngs[2], num_signals, pu_lo, pu_hi),
        )
    else:
        if path is None:
            raise ValueError("file trajectory needs a path")
        from .blockio import read_trajectory_csv

        series = read_trajectory_csv(path)
        if series[0].size != num_signals:
            raise BadRangeError(
                f"trajectory file holds {series[0].size} rows, expected {num_signals}"
            )

    series = np.array(series, dtype=float)  # 3 x num_signals: swh, tau, pu
    if not np.isfinite(series).all():
        raise BadRangeError("swh, tau and pu must be finite")
    if np.any(series[0] < 0) or np.any(series[2] < 0):
        raise BadRangeError("swh and pu must be non-negative")
    if consts is not None:
        if np.any(series[1] < 0) or np.any(series[1] > consts.window_meters):
            raise BadRangeError("tau leaves the observation window")
    if kind == "file":
        # Constant tracks have zero span and zero steps; keep the cap positive. Tracks
        # shorter than SMOOTH_WINDOW take larger steps; up to n = 12 their cap tops the span.
        caps = (STEP_CAP_FRAC * max(1.0, SMOOTH_WINDOW / num_signals)
                * np.maximum(np.ptp(series, axis=1), 1e-12))
        steps = np.abs(np.diff(series, axis=1)).max(axis=1, initial=0.0)
        if np.any(steps > caps):
            raise BadRangeError(
                f"trajectory steps {steps} exceed smoothness caps {caps}"
            )
    return BrownParams(*series)


def clean_block(traj: BrownParams, consts: BrownConstants) -> np.ndarray:
    """K x M block of noiseless waveforms for a trajectory."""
    return waveform_block(traj.swh, traj.tau, traj.pu, consts)


def corrupt(clean: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Apply the configured noise to a clean block, column stream by column."""
    clean = np.asarray(clean, dtype=float)
    if clean.ndim != 2:
        raise ShapeMismatchError("clean block must be 2-D (gates x signals)")
    if not np.all(np.isfinite(clean)):
        raise ValueError("clean block must be finite")
    num_gates, num_signals = clean.shape
    noisy = np.empty_like(clean)
    streams = enumerate(_column_streams(spec.seed, num_signals))
    if spec.mode == "multiplicative-speckle":
        for m, rng in streams:
            gain = rng.gamma(shape=spec.looks, scale=1.0 / spec.looks, size=num_gates)
            noisy[:, m] = clean[:, m] * gain
    else:
        std = np.sqrt(np.broadcast_to(np.asarray(spec.noise_var, dtype=float),
                                      (num_gates,)))
        for m, rng in streams:
            noisy[:, m] = clean[:, m] + rng.standard_normal(num_gates) * std
    return noisy
