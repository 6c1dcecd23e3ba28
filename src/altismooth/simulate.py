"""Synthetic track generation: parameter trajectories and noisy blocks.

Speckle is simulated as multiplicative multilook noise: every sample is
scaled by an independent Gamma(L, 1/L) draw (mean 1, variance 1/L), the
standard L-look intensity model.  Averaging L looks is what lets the
downstream solver treat the noise as approximately Gaussian.

Randomness is reproducible across platforms: a block's noise is one
default_rng(seed) stream drawn signal by signal, K draws per column, so
column m's draws depend only on (seed, m) and the first m columns of a
block do not depend on its width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockio import read_trajectory_csv
from .brown import BrownConstants, BrownParams, waveform_block
from .errors import BadRangeError, ShapeMismatchError

TRAJECTORY_KINDS = ("constant", "smooth-random", "file")
NOISE_MODES = ("multiplicative-speckle", "additive-gaussian")

SMOOTH_WINDOW = 50
NOISE_BATCH = 32  # signals drawn per call in corrupt; its scratch is NOISE_BATCH x K
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
    """Apply the configured noise to a clean block.

    The draws come from one default_rng(spec.seed) stream, signal by signal:
    the speckled block equals ``clean * default_rng(seed).gamma(L, 1/L, (N, K)).T``
    bit for bit (``standard_normal`` scaled by the per-gate std, plus clean, in
    the additive mode).  They are drawn NOISE_BATCH signals at a time straight
    into the output, so no third block-sized array is held.
    """
    clean = np.asarray(clean, dtype=float)
    if clean.ndim != 2:
        raise ShapeMismatchError("clean block must be 2-D (gates x signals)")
    if not np.all(np.isfinite(clean)):
        raise ValueError("clean block must be finite")
    num_gates, num_signals = clean.shape
    rng = np.random.default_rng(spec.seed)
    speckle = spec.mode == "multiplicative-speckle"
    noisy = np.empty_like(clean)
    for start in range(0, num_signals, NOISE_BATCH):
        batch = noisy[:, start:start + NOISE_BATCH]  # a view: the draws land in the output
        size = batch.shape[::-1]
        batch[:] = (rng.gamma(spec.looks, 1.0 / spec.looks, size) if speckle
                    else rng.standard_normal(size)).T
    if speckle:
        noisy *= clean
    else:
        noisy *= np.sqrt(np.broadcast_to(np.asarray(spec.noise_var, dtype=float),
                                         (num_gates,)))[:, None]
        noisy += clean
    return noisy
