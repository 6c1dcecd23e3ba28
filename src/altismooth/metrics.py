"""Quality criteria: reconstruction SNR and parameter error statistics.

All statistics use population (1/N) normalisation.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ShapeMismatchError

PARAM_NAMES = ("swh", "tau", "pu")
WINDOW_20HZ = 20  # samples per second of 20 Hz waveforms


def rsnr(clean: np.ndarray, estimate: np.ndarray) -> float:
    """10*log10 of clean energy over residual energy; +inf on zero residual."""
    clean = np.asarray(clean, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if clean.shape != estimate.shape:
        raise ShapeMismatchError(f"shapes differ: {clean.shape} vs {estimate.shape}")
    signal = float(np.sum(clean**2))
    if signal == 0.0:
        raise DegenerateInputError("clean block has zero energy")
    resid = clean - estimate
    resid = float(np.sum(np.square(resid, out=resid)))  # numpy does this alone from 256 KiB
    if resid == 0.0:
        return float("inf")
    return 10.0 * np.log10(signal / resid)


def rmse(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Root mean square error of a 1-D estimate series against its truth."""
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.shape != truth.shape:
        raise ShapeMismatchError("estimates and truth must have equal lengths")
    return float(np.sqrt(np.mean((estimates - truth) ** 2)))


def std(estimates: np.ndarray) -> float:
    """Population standard deviation about the global mean."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size < 2:
        raise ValueError("need at least two estimates")
    return float(np.sqrt(np.mean((estimates - estimates.mean()) ** 2)))


def std_20hz(estimates: np.ndarray) -> float:
    """Standard deviation about per-window means.

    Windows are consecutive and non-overlapping, WINDOW_20HZ samples long; a
    trailing partial window uses its own mean.  Deviations from all N samples
    are pooled with 1/N weight.
    """
    estimates = np.asarray(estimates, dtype=float)
    n = estimates.size
    if n < WINDOW_20HZ:
        raise ValueError(f"need at least {WINDOW_20HZ} samples, got {n}")
    groups = np.arange(n) // WINDOW_20HZ
    counts = np.bincount(groups)
    means = np.bincount(groups, weights=estimates) / counts
    dev = estimates - means[groups]
    return float(np.sqrt(np.mean(dev**2)))

