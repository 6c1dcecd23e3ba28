"""Reference estimators: model-fit retracking and SVD-truncation filtering.

``ls_fit`` recovers (SWH, tau, Pu) from a single waveform by damped
Gauss-Newton (Levenberg-style) least squares on the Brown model.  The cost
surface is multi-modal in (SWH, tau): from a single mid-window start a large
fraction of noisy fits converges onto a spurious swh = 0 boundary minimum.
The fit therefore runs five starts, swh = 2 m and pu = max(y) with tau at
the window fractions ``TAU_GRID_FRACTIONS``, mid-window first, and keeps
the lowest finishing cost; on a tie the earlier start wins.  A
caller-supplied ``init`` replaces the five with that single start.

``svd_filter`` reconstructs a block from the smallest leading set of
singular components whose cumulative squared-singular-value fraction
reaches the requested energy threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brown import BrownConstants, BrownParams, brown_jacobian, brown_waveform
from .errors import DivergedError

MAX_ITERATIONS = 200
STEP_TOL = 1e-8
LAMBDA_INIT = 1e-3
LAMBDA_GROW = 10.0
LAMBDA_SHRINK = 3.0
MAX_REJECTS = 10

# Mid-window first: on equal costs the earliest start wins.
TAU_GRID_FRACTIONS = (0.5, 0.1, 0.3, 0.7, 0.9)


@dataclass(frozen=True)
class FitResult:
    params: BrownParams
    residual_norm: float
    iterations: int
    converged: bool


def _project(theta: np.ndarray) -> np.ndarray:
    out = theta.copy()
    out[0] = max(out[0], 0.0)
    out[2] = max(out[2], 0.0)
    return out


def _model(theta: np.ndarray, consts: BrownConstants) -> np.ndarray:
    return brown_waveform(BrownParams(swh=theta[0], tau=theta[1], pu=theta[2]), consts)


def _fit_from(y, consts, theta0):
    """Damped Gauss-Newton from one start; returns (theta, cost, iters, converged)."""
    theta = _project(np.asarray(theta0, dtype=float))
    resid = y - _model(theta, consts)
    cost = float(resid @ resid)
    lam = LAMBDA_INIT
    for iteration in range(1, MAX_ITERATIONS + 1):
        jac = brown_jacobian(
            BrownParams(swh=theta[0], tau=theta[1], pu=theta[2]), consts
        )
        grad = jac.T @ resid
        normal = jac.T @ jac
        damping = np.diag(normal).copy()
        damping += 1e-12 * max(damping.max(), 1.0)  # keeps zero columns solvable

        rejects = 0
        while True:
            try:
                step = np.linalg.solve(normal + lam * np.diag(damping), grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                trial = _project(theta + step)
                trial_resid = y - _model(trial, consts)
                trial_cost = float(trial_resid @ trial_resid)
                if trial_cost <= cost:
                    theta, resid, cost = trial, trial_resid, trial_cost
                    lam = max(lam / LAMBDA_SHRINK, 1e-12)
                    break
            rejects += 1
            lam *= LAMBDA_GROW
            if rejects >= MAX_REJECTS:
                raise DivergedError(
                    f"no descent after {MAX_REJECTS} consecutive damped steps"
                )
        if np.linalg.norm(step) <= STEP_TOL * (np.linalg.norm(theta) + STEP_TOL):
            return theta, cost, iteration, True
    return theta, cost, MAX_ITERATIONS, False


def ls_fit(
    y: np.ndarray,
    consts: BrownConstants,
    init: BrownParams | None = None,
) -> FitResult:
    """Least-squares retracking of one waveform.

    Raises DivergedError only when every tried start fails to make progress.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (consts.num_gates,):
        raise ValueError(f"waveform must have {consts.num_gates} gates")
    if not np.all(np.isfinite(y)):
        raise ValueError("waveform must be finite")

    if init is not None:
        starts = [np.array([init.swh, init.tau, init.pu])]
    else:
        pu0 = max(float(y.max()), 1e-6)
        starts = [np.array([2.0, frac * consts.window_meters, pu0])
                  for frac in TAU_GRID_FRACTIONS]

    best = None
    for start in starts:
        try:
            cand = _fit_from(y, consts, start)
        except DivergedError:
            continue
        if best is None or cand[1] < best[1]:
            best = cand
    if best is None:
        raise DivergedError("all fit starts diverged (bad waveform?)")
    theta, cost, iters, conv = best
    return FitResult(
        params=BrownParams(swh=theta[0], tau=theta[1], pu=theta[2]),
        residual_norm=float(np.sqrt(cost)),
        iterations=iters,
        converged=conv,
    )


def fit_block(
    block: np.ndarray, consts: BrownConstants, init: BrownParams | None = None
) -> list[FitResult]:
    """ls_fit applied to every column of a block."""
    return [ls_fit(block[:, m], consts, init) for m in range(block.shape[1])]


def truncation_rank(singular_values: np.ndarray, energy_threshold: float) -> int:
    """Smallest count whose cumulative squared-value fraction reaches the threshold."""
    energies = np.asarray(singular_values, dtype=float) ** 2
    total = energies.sum()
    if total == 0.0:
        return 0
    fractions = np.cumsum(energies) / total
    rank = int(np.searchsorted(fractions, energy_threshold - 1e-12)) + 1
    return min(rank, energies.size)


def svd_filter(block: np.ndarray, energy_threshold: float) -> np.ndarray:
    """Keep the leading singular components holding the requested energy share."""
    if not 0.0 < energy_threshold <= 1.0:
        raise ValueError("energy_threshold must be in (0, 1]")
    block = np.asarray(block, dtype=float)
    left, sing, right_t = np.linalg.svd(block, full_matrices=False)
    rank = truncation_rank(sing, energy_threshold)
    if rank == 0:
        return np.zeros_like(block)
    return (left[:, :rank] * sing[:rank]) @ right_t[:rank]


def svd_filter_stream(
    block: np.ndarray, chunk_len: int, energy_threshold: float
) -> np.ndarray:
    """svd_filter applied chunk-by-chunk, mirroring the denoiser's chunking."""
    from .solver import chunk_slices

    block = np.asarray(block, dtype=float)
    out = np.empty_like(block)
    for sl in chunk_slices(block.shape[1], chunk_len):
        out[:, sl] = svd_filter(block[:, sl], energy_threshold)
    return out
