"""Synthetic track generation: parameter trajectories and noisy blocks.

Speckle is simulated as multiplicative multilook noise: every sample is
scaled by an independent Gamma(L, 1/L) draw (mean 1, variance 1/L), the
standard L-look intensity model.  Averaging L looks is what lets the
downstream solver treat the noise as approximately Gaussian.

Randomness is reproducible across platforms and across serial/parallel
generation: every column m draws from its own PCG64 generator seeded by
SeedSequence(seed).spawn, so column streams depend only on (seed, m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .brown import BrownConstants, BrownParams, waveform_block
from .errors import BadRangeError, ShapeMismatchError

TRAJECTORY_KINDS = ("constant", "smooth-random", "file")
NOISE_MODES = ("multiplicative-speckle", "additive-gaussian")

SMOOTH_WINDOW = 50
DEFAULT_STEP_CAP_FRAC = 0.25


@dataclass(frozen=True)
class NoiseSpec:
    """How to corrupt a clean block.

    looks       multilook averaging factor L (>= 1)
    seed        RNG seed
    mode        'multiplicative-speckle' or 'additive-gaussian'
    noise_var   per-gate variance (scalar or length-K) for the additive mode
    """

    looks: float = 90.0
    seed: int = 0
    mode: str = "multiplicative-speckle"
    noise_var: float | np.ndarray | None = None

    def __post_init__(self):
        if self.looks < 1:
            raise ValueError("looks must be >= 1")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}")
        if self.mode == "additive-gaussian" and self.noise_var is None:
            raise ValueError("additive-gaussian mode needs an explicit noise_var")


class ParamTrajectory:
    """M-length sequence of waveform parameters plus the seed that made it."""

    def __init__(self, swh, tau, pu, seed: int = 0):
        self.swh = np.asarray(swh, dtype=float)
        self.tau = np.asarray(tau, dtype=float)
        self.pu = np.asarray(pu, dtype=float)
        self.seed = seed
        if not (self.swh.shape == self.tau.shape == self.pu.shape):
            raise ValueError("swh, tau, pu must have equal lengths")
        if self.swh.ndim != 1 or self.swh.size < 1:
            raise ValueError("trajectory must be a non-empty 1-D sequence")
        if np.any(self.swh < 0) or np.any(self.pu < 0):
            raise BadRangeError("swh and pu must be non-negative")

    def __len__(self) -> int:
        return self.swh.size

    def __getitem__(self, m: int) -> BrownParams:
        return BrownParams(swh=self.swh[m], tau=self.tau[m], pu=self.pu[m])

    def max_step(self) -> np.ndarray:
        """Largest per-parameter consecutive step (0 for length-1 tracks)."""
        if len(self) == 1:
            return np.zeros(3)
        return np.array(
            [np.abs(np.diff(a)).max() for a in (self.swh, self.tau, self.pu)]
        )


def _column_rng(seed: int, column: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(column,)))


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
    step_cap_frac: float = DEFAULT_STEP_CAP_FRAC,
    consts: BrownConstants | None = None,
) -> ParamTrajectory:
    """Build a parameter trajectory.

    kind='constant' replicates the (swh, tau, pu) triplet; 'smooth-random'
    draws one smooth series per parameter inside the given (lo, hi) ranges;
    'file' loads a trajectory CSV written by the generator (see blockio).
    tau is in meters everywhere.
    """
    if kind not in TRAJECTORY_KINDS:
        raise ValueError(f"kind must be one of {TRAJECTORY_KINDS}")
    if num_signals < 1:
        raise ValueError("num_signals must be >= 1")

    if kind == "constant":
        if swh is None or tau is None or pu is None:
            raise ValueError("constant trajectory needs swh, tau and pu")
        ones = np.ones(num_signals)
        traj = ParamTrajectory(swh * ones, tau * ones, pu * ones, seed=seed)
    elif kind == "smooth-random":
        if swh_range is None or tau_range is None or pu_range is None:
            raise ValueError("smooth-random trajectory needs the three ranges")
        swh_lo, swh_hi = _check_range("swh", swh_range, lo_bound=0.0)
        tau_lo, tau_hi = _check_range("tau", tau_range)
        pu_lo, pu_hi = _check_range("pu", pu_range, lo_bound=0.0)
        ss = np.random.SeedSequence(seed)
        rngs = [np.random.default_rng(child) for child in ss.spawn(3)]
        traj = ParamTrajectory(
            _smooth_series(rngs[0], num_signals, swh_lo, swh_hi),
            _smooth_series(rngs[1], num_signals, tau_lo, tau_hi),
            _smooth_series(rngs[2], num_signals, pu_lo, pu_hi),
            seed=seed,
        )
    else:
        if path is None:
            raise ValueError("file trajectory needs a path")
        from .blockio import read_trajectory_csv

        swh_arr, tau_arr, pu_arr = read_trajectory_csv(path)
        if swh_arr.size != num_signals:
            raise BadRangeError(
                f"trajectory file holds {swh_arr.size} rows, expected {num_signals}"
            )
        traj = ParamTrajectory(swh_arr, tau_arr, pu_arr, seed=seed)

    if consts is not None:
        if np.any(traj.tau < 0) or np.any(traj.tau > consts.window_meters):
            raise BadRangeError("tau leaves the observation window")

    caps = _step_caps(traj, step_cap_frac)
    steps = traj.max_step()
    if np.any(steps > caps):
        raise BadRangeError(
            f"trajectory steps {steps} exceed smoothness caps {caps}"
        )
    return traj


def _step_caps(traj: ParamTrajectory, frac: float) -> np.ndarray:
    spans = np.array(
        [a.max() - a.min() for a in (traj.swh, traj.tau, traj.pu)]
    )
    # Constant tracks have zero span and zero steps; keep the cap positive.
    return frac * np.maximum(spans, 1e-12)


def clean_block(traj: ParamTrajectory, consts: BrownConstants) -> np.ndarray:
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
    if spec.mode == "multiplicative-speckle":
        for m in range(num_signals):
            gain = _column_rng(spec.seed, m).gamma(
                shape=spec.looks, scale=1.0 / spec.looks, size=num_gates
            )
            noisy[:, m] = clean[:, m] * gain
    else:
        std = np.sqrt(np.broadcast_to(np.asarray(spec.noise_var, dtype=float),
                                      (num_gates,)))
        for m in range(num_signals):
            noise = _column_rng(spec.seed, m).standard_normal(num_gates) * std
            noisy[:, m] = clean[:, m] + noise
    return noisy


def input_rsnr(clean: np.ndarray, noisy: np.ndarray) -> float:
    """Ratio (dB) of clean energy to realised noise energy; inf when equal."""
    return metrics.rsnr(clean, noisy)
