"""Reference estimators: model-fit retracking and SVD-truncation filtering.

``ls_fit`` recovers (SWH, tau, Pu) from a single waveform by
Levenberg-Marquardt least squares on the Brown model.  The cost surface is
multi-modal in (SWH, tau): from a single mid-window start a large fraction
of noisy fits converges onto a spurious swh = 0 boundary minimum.  The fit
therefore runs five starts, swh = 2 m and pu = max(y) with tau at the window
fractions ``TAU_GRID_FRACTIONS``, mid-window first, and keeps the lowest
finishing cost; on a tie the earlier start wins.

The starts run as one batch (Moré 1978, "The Levenberg-Marquardt
algorithm: implementation and theory"): each pass solves the damped
3 x 3 systems of all starts still iterating as one stack, and evaluates
the trial steps' model and jacobian together, in one
``brown._model_and_jacobian`` call on the n x K rows.  A start carries only
its 3 x 3 normal equations J^T J and J^T r into the next pass, so only the
starts go through ``BrownParams`` and the public ``brown_waveform`` and
``brown_jacobian``.  The steps are Marquardt's (SIAM J. Appl. Math. 11,
1963), scaled by D = sqrt(diag J^T J), and the stop tests MINPACK's (see
``_lm_fit``); none depends on the amplitude unit.  Scaling y by a power of
two keeps swh, tau and the iterations bit for bit and scales pu and the
residual exactly; factors from 1e-8 to 1e8 move them by a few ulps.  Each
start keeps its own damping, rejections, stop tests and iteration cap, so
its result does not depend on which other starts share its batch.  A start
that cannot descend is dropped; the fit raises DivergedError only when
every start is dropped.

``fit_block`` uses the smoothness of the track.  It fits the columns in
consecutive batches of ``FIT_BATCH``, one batched run per batch, with every
column of a batch starting from one anchor, evaluated once: the latest fit
before the batch with swh > 0.  Until there is such a fit (the first column,
or only fits on swh = 0, the spurious minimum a start there keeps) the next
column runs the grid, exactly as ``ls_fit`` alone does, and becomes the
anchor if its swh is positive.  A warm fit is kept, marked ``warm``, only if
- it converged (a diverged start never does): otherwise it found no minimum;
- it ended at swh > 0: otherwise the grid's four other starts may avoid
  that boundary minimum;
- it costs at most ``WARM_COST_RATIO`` times the anchor's cost: neighbouring
  speckle moves the cost far less, so a larger one is another minimum.
Any other column reruns the grid on its own, through ``ls_fit``.  Where
minima compete, a column's fit can depend on the visiting order; on smooth
tracks, reversing it moves swh by at most 1.1e-4 and tau and pu by at most
3.2e-6 relative (pinned by the time-reversal tests).  The fits fill one
``FitResult`` of length-N arrays.  A lone start costs mostly NumPy call
overhead, which a batch shares.  On a denoised 104 x 200 track (2-core VM),
widths 16, 32 and 64 took 24, 19 and 18 ms, but 64 would lift the CLI
estimate step's peak from about 0.6 MB, the other steps', to 1.05-1.07 MB.

``svd_filter`` reconstructs a block from the smallest leading set of
singular components whose cumulative squared-singular-value fraction
reaches the requested energy threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brown import (BrownConstants, BrownParams, _model_and_jacobian, brown_jacobian,
                    brown_waveform)
from .errors import DivergedError
from .solver import chunk_slices

MAX_ITERATIONS = 200
STEP_TOL = 1e-8
FTOL = 1e-8  # MINPACK's and SciPy's default relative-reduction tolerance
LAMBDA_INIT = 1e-3
LAMBDA_GROW = 10.0
LAMBDA_SHRINK = 3.0
MAX_REJECTS = 10

# Mid-window first: on equal costs the earliest start wins.
TAU_GRID_FRACTIONS = (0.5, 0.1, 0.3, 0.7, 0.9)

# fit_block reruns the grid above this ratio of warm to anchor cost.
WARM_COST_RATIO = 4.0
FIT_BATCH = 32  # columns per warm-started batch


@dataclass(frozen=True)
class FitResult:
    """One fit of Python scalars (``ls_fit``), or length-N arrays (``fit_block``)."""

    params: BrownParams
    residual_norm: float | np.ndarray
    iterations: int | np.ndarray
    converged: bool | np.ndarray
    warm: bool | np.ndarray = False  # a kept warm-started fit


# Lower bounds of (swh, tau, pu): a trial step is clipped back onto swh, pu >= 0.
_LOWER = np.array([0.0, -np.inf, 0.0])


def _solve(systems: np.ndarray, rhs: np.ndarray):
    """Solve the stacked 3 x 3 systems; (steps, solved), solved False where singular."""
    solved = np.ones(len(rhs), dtype=bool)
    try:
        return np.linalg.solve(systems, rhs[:, :, None])[:, :, 0], solved
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        for i, (system, b) in enumerate(zip(systems, rhs)):
            try:
                steps[i] = np.linalg.solve(system, b)
            except np.linalg.LinAlgError:
                solved[i] = False
        return steps, solved


def _normal_equations(jac: np.ndarray, resid: np.ndarray):
    """J^T J and J^T r of each C-contiguous n x K x 3 jacobian and n x K residual."""
    jac_t = jac.transpose(0, 2, 1)
    return jac_t @ jac, (jac_t @ resid[:, :, None])[:, :, 0]


def _lm_fit(y, consts, starts):
    """Levenberg-Marquardt from the m x 3 starts on the n x K waveforms y.

    Either side broadcasts: ``ls_fit`` passes one waveform and five starts, a
    warm batch n waveforms and one start, evaluated once.  A pass solves
    (C + lam I) z = D^-1 J^T r, C = D^-1 J^T J D^-1, for every active row in
    one ``_solve`` and tries theta + z / D in one ``_model_and_jacobian``
    call.  An accepted trial ends an iteration, and converges if its gain and
    the predicted 2 z.D^-1 J^T r - z.C z are both at most FTOL of the cost.
    Any trial with |z| <= STEP_TOL |D theta| converges: rejected, it is at its
    minimum, where rounding can make every step uphill.  A rejected or
    unsolvable step grows lam by LAMBDA_GROW; MAX_REJECTS in a row diverge
    the row.  MAX_ITERATIONS stops a row only between iterations.  Returns
    per row the parameters, cost, iterations and converged and diverged flags.
    """
    starts = np.maximum(np.array(starts, dtype=float), _LOWER)
    params = BrownParams(*starts.T)
    # Contiguous rows keep each row's cost, np.vecdot(resid, resid), the
    # same ddot as resid[i] @ resid[i] whatever other rows share its batch.
    resid = np.ascontiguousarray(y - brown_waveform(params, consts).T)
    n = len(resid)
    y = np.broadcast_to(y, resid.shape)
    normal, grad = _normal_equations(brown_jacobian(params, consts), resid)
    normal = np.broadcast_to(normal, (n, 3, 3)).copy()
    theta = np.broadcast_to(starts, (n, 3)).copy()
    cost = np.vecdot(resid, resid)
    lam = np.full(n, LAMBDA_INIT)
    iterations, rejects = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    converged, diverged = np.zeros((2, n), dtype=bool)
    active = np.ones(n, dtype=bool)

    while active.any():
        at = np.flatnonzero(active)
        iterations[at[rejects[at] == 0]] += 1
        scale = np.sqrt(np.diagonal(normal[at], axis1=1, axis2=2))
        scale[scale == 0.0] = 1.0  # a zero column: lam alone damps its z
        scaled = normal[at] / (scale[:, :, None] * scale[:, None, :])
        sgrad = grad[at] / scale
        z, solved = _solve(scaled + lam[at, None, None] * np.eye(3), sgrad)
        predicted = np.vecdot(z, 2.0 * sgrad - np.vecdot(scaled, z[:, None, :]))
        tried, z, scale, predicted = at[solved], z[solved], scale[solved], predicted[solved]
        trial = np.maximum(theta[tried] + z / scale, _LOWER)
        wave, trial_jac = _model_and_jacobian(trial, consts)
        trial_resid = y[tried] - wave
        trial_cost = np.vecdot(trial_resid, trial_resid)
        better = trial_cost <= cost[tried]
        flat = better & (np.maximum(cost[tried] - trial_cost, predicted) <= FTOL * cost[tried])
        won = tried[better]
        theta[won] = trial[better]
        normal[won], grad[won] = _normal_equations(trial_jac[better], trial_resid[better])
        del wave, trial_jac
        cost[won] = trial_cost[better]
        lam[won] = np.maximum(lam[won] / LAMBDA_SHRINK, 1e-12)
        short = np.vecdot(z, z) <= STEP_TOL**2 * np.square(scale * theta[tried]).sum(axis=1)
        converged[tried[flat | short]] = True

        rejects[at] += 1
        rejects[tried[better | short]] = 0
        retry = at[rejects[at] > 0]
        lam[retry] *= LAMBDA_GROW
        diverged[retry] = rejects[retry] >= MAX_REJECTS
        active &= ~(converged | diverged) & ((rejects > 0) | (iterations < MAX_ITERATIONS))
    return theta, cost, iterations, converged, diverged


def ls_fit(y: np.ndarray, consts: BrownConstants) -> FitResult:
    """Least-squares retracking of one waveform from the five grid starts.

    Raises DivergedError only when every start fails to make progress.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (consts.num_gates,):
        raise ValueError(f"waveform must have {consts.num_gates} gates")
    if not np.all(np.isfinite(y)):
        raise ValueError("waveform must be finite")

    pu0 = float(y.max()) if y.max() > 0 else 1e-6
    starts = [[2.0, frac * consts.window_meters, pu0] for frac in TAU_GRID_FRACTIONS]
    theta, cost, iterations, converged, diverged = _lm_fit(y, consts, starts)
    kept = np.flatnonzero(~diverged)
    if kept.size == 0:
        raise DivergedError("all fit starts diverged (bad waveform?)")
    best = kept[np.argmin(cost[kept])]  # the earliest of equal costs
    return FitResult(
        params=BrownParams(*theta[best].tolist()),
        residual_norm=float(np.sqrt(cost[best])),
        iterations=int(iterations[best]),
        converged=bool(converged[best]),
    )


def fit_block(block: np.ndarray, consts: BrownConstants) -> FitResult:
    """Retrack every column, batch by batch, warm-started from the latest swh > 0 fit."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != consts.num_gates:
        raise ValueError(f"waveform must have {consts.num_gates} gates")
    if not np.all(np.isfinite(block)):
        raise ValueError("waveform must be finite")
    n = block.shape[1]
    theta, norm = np.empty((n, 3)), np.empty(n)
    iterations, converged = np.empty(n, dtype=int), np.empty(n, dtype=bool)
    warm = np.zeros(n, dtype=bool)
    lo, anchor = 0, None  # anchor: the column whose fit starts the next batch
    while lo < n:
        hi = lo + 1 if anchor is None else min(lo + FIT_BATCH, n)
        y = np.ascontiguousarray(block[:, lo:hi].T)
        if anchor is not None:
            theta[lo:hi], cost, iterations[lo:hi], converged[lo:hi], _ = _lm_fit(
                y, consts, theta[anchor:anchor + 1])
            norm[lo:hi] = np.sqrt(cost)
            warm[lo:hi] = (converged[lo:hi] & (theta[lo:hi, 0] > 0)
                           & (cost <= WARM_COST_RATIO * norm[anchor]**2))
        for m in lo + np.flatnonzero(~warm[lo:hi]):  # no anchor, or a warm fit not kept
            fit = ls_fit(y[m - lo], consts)
            theta[m] = fit.params.swh, fit.params.tau, fit.params.pu
            norm[m], iterations[m], converged[m] = fit.residual_norm, fit.iterations, fit.converged
        positive = np.flatnonzero(theta[lo:hi, 0] > 0)
        if positive.size:
            anchor = lo + positive[-1]
        lo = hi
    return FitResult(BrownParams(*theta.T), norm, iterations, converged, warm)


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
    return (left[:, :rank] * sing[:rank]) @ right_t[:rank]


def svd_filter_stream(
    block: np.ndarray, chunk_len: int, energy_threshold: float
) -> np.ndarray:
    """svd_filter applied chunk-by-chunk, mirroring the denoiser's chunking."""
    block = np.asarray(block, dtype=float)
    out = np.empty_like(block)
    for sl in chunk_slices(block.shape[1], chunk_len):
        out[:, sl] = svd_filter(block[:, sl], energy_threshold)
    return out
