"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (scalar loops, extended precision,
grid searches) and never calls into the package's own fast paths, so
agreement is evidence rather than tautology.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from scipy.special import erf, erfcx

from altismooth import retrack
from altismooth.brown import BrownParams, brown_jacobian, brown_waveform
from altismooth.errors import DivergedError
from altismooth.gmrf import chain_cost_terms


def mp_sigma_c_sq(swh, sigma_p, c, dps: int = 50):
    with mp.workdps(dps):
        return (mp.mpf(swh) / (2 * mp.mpf(c))) ** 2 + mp.mpf(sigma_p) ** 2


def mp_waveform_sample(swh, tau_m, pu, consts, gate: int, dps: int = 50):
    """Extended-precision model evaluation at one gate (1-based)."""
    with mp.workdps(dps):
        t = mp.mpf(gate) * mp.mpf(consts.gate_resolution)
        tau_s = 2 * mp.mpf(tau_m) / mp.mpf(consts.c)
        sc2 = mp_sigma_c_sq(swh, consts.sigma_p, consts.c, dps)
        sc = mp.sqrt(sc2)
        a = mp.mpf(consts.alpha)
        u = (t - tau_s - a * sc2) / (mp.sqrt(2) * sc)
        v = -a * (t - tau_s - a * sc2 / 2)
        # erfc(-u) == 1 + erf(u) without cancellation on the leading-edge foot
        return float(mp.mpf(pu) / 2 * mp.erfc(-u) * mp.exp(v))


def mp_waveform(swh, tau_m, pu, consts, dps: int = 50) -> np.ndarray:
    return np.array(
        [mp_waveform_sample(swh, tau_m, pu, consts, k, dps)
         for k in range(1, consts.num_gates + 1)]
    )


def column_model_and_jacobian(swh, tau_m, pu, consts):
    """K x M model block and M x K x 3 jacobian stack in the column layout.

    The unfused form: K x M edge terms, 1 + erf(u) for every u >= 0 (no
    u >= 6 shortcut) and each partial derivative its own K x M array,
    stacked and transposed at the end.  The same float operations in the
    same order as the retracking kernel, so the two must agree bit for bit.
    """
    swh, tau, pu = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (swh, tau_m, pu))
    c, a, sqrt2 = consts.c, consts.alpha, np.sqrt(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        dt = consts.gate_times()[:, None] - 2.0 * tau / c
        sc2 = (swh / (2.0 * c)) ** 2 + consts.sigma_p**2
        sc = np.sqrt(sc2)
        u = (dt - a * sc2) / (sqrt2 * sc)
        v = -a * (dt - a * sc2 / 2.0)
        rise = np.where(u < 0.0, erfcx(-u) * np.exp(v - u**2), (1.0 + erf(u)) * np.exp(v))
    bell = 2.0 / np.sqrt(np.pi) * np.exp(v - u**2)
    half_pu = 0.5 * pu
    d_sc2 = swh / (2.0 * c**2)
    d_swh = half_pu * (bell * (-dt / (sqrt2 * sc2) - a / sqrt2) * (d_sc2 / (2.0 * sc))
                       + rise * (a**2 / 2.0) * d_sc2)
    d_tau = half_pu * (a * rise - bell / (sqrt2 * sc)) * (2.0 / c)
    return half_pu * rise, np.array([d_swh, d_tau, 0.5 * rise]).T.copy()


def dense_correlation(num_signals, lengthscale, jitter) -> np.ndarray:
    """The SE correlation matrix from the full M x M lag matrix."""
    idx = np.arange(num_signals, dtype=float)
    lag = idx[:, None] - idx[None, :]
    values = np.exp(-((lag / lengthscale) ** 2))
    values[np.diag_indices(num_signals)] += jitter
    return values


def unit(block) -> float:
    """g**2, g the power of two nearest the block's RMS (1 for a zero block)."""
    mean_square = np.mean(np.square(block))
    return 4.0 ** round(np.log2(mean_square) / 2) if mean_square else 1.0


def dense_start(block, lengthscale, jitter, cutoff):
    """The denoiser's start, in units of ``unit(block)``, from a dense eigh.

    Returns the stacked noise and energy starts: each gate's mean square in
    the kernel's dropped modes (those below ``cutoff`` times the largest
    eigenvalue; its energy start when none is dropped) and over all modes.
    """
    num_signals = block.shape[1]
    eigvals, vectors = np.linalg.eigh(dense_correlation(num_signals, lengthscale, jitter))
    kept = vectors[:, eigvals >= cutoff * eigvals.max()]
    g2 = unit(block)
    row_energy = (block**2).sum(axis=1) / g2
    energy = row_energy / num_signals
    dropped = num_signals - kept.shape[1]
    if not dropped:
        return np.stack([energy, energy])
    tail = row_energy - ((block @ kept) ** 2).sum(axis=1) / g2
    return np.stack([np.maximum(tail, 0.0) / dropped, energy])


def naive_chain_cost(variances, aux, coupling, stats, num_signals) -> float:
    """One chain's cost terms by explicit per-gate loops."""
    K = len(variances)
    total = 0.0
    for i in range(K):
        if i < K - 1:
            beta = stats[i] + 2.0 * coupling * (aux[i] + aux[i + 1])
            shape = 2.0 * coupling + num_signals / 2.0 + 1.0
        else:
            beta = stats[i] + 2.0 * coupling * aux[i]
            shape = coupling + num_signals / 2.0 + 1.0
        total += shape * np.log(variances[i]) + beta / (2.0 * variances[i])
    for j in range(K):
        total -= (2.0 * coupling - 1.0) * np.log(aux[j])
    return float(total)


def naive_variance_modes(variances, aux, coupling, stats, num_signals,
                         floor=1e-20) -> np.ndarray:
    """Closed-form conditional mode of every variance, one gate at a time."""
    K = len(variances)
    out = np.empty(K)
    for i in range(K):
        if i < K - 1:
            beta = stats[i] + 2.0 * coupling * (aux[i] + aux[i + 1])
            den = 4.0 * coupling + num_signals + 2.0
        else:
            beta = stats[i] + 2.0 * coupling * aux[i]
            den = 2.0 * coupling + num_signals + 2.0
        out[i] = max(beta / den, floor)
    return out


def naive_aux_modes(variances, coupling) -> np.ndarray:
    """Closed-form conditional mode of every auxiliary, one node at a time."""
    K = len(variances)
    out = np.empty(K)
    out[0] = (2.0 * coupling - 1.0) * variances[0] / coupling
    for j in range(1, K):
        inv = 1.0 / variances[j - 1] + 1.0 / variances[j]
        out[j] = (2.0 * coupling - 1.0) / (coupling * inv)
    return out


def naive_cost(noise_v, noise_a, zeta, resid, energy_v, energy_a, eta, quads,
               num_signals) -> float:
    return naive_chain_cost(noise_v, noise_a, zeta, resid, num_signals) + \
        naive_chain_cost(energy_v, energy_a, eta, quads, num_signals)


def prior_energy(coeffs, basis) -> np.ndarray:
    """Per-row energy under the inverse correlation, s^T C^-1 s.

    ``coeffs`` holds one row's basis coefficients (s @ basis.vectors) per
    row; the result is clipped at 0 against round-off.
    """
    return np.maximum((coeffs**2 * basis.precision_eigvals).sum(axis=1), 0.0)


def cost_from_stats(resid, quads, variances, aux, couplings, num_signals) -> float:
    """The solver's cost of its noise and energy chains, stacked 2 x K as a
    SolverState holds them, with couplings (zeta, eta), from per-gate statistics."""
    return chain_cost_terms(variances, aux, np.asarray(couplings, dtype=float),
                            np.stack((resid, quads)), num_signals)


def cost(state, block, basis, couplings) -> float:
    """The solver's cost of an arbitrary state, with couplings (zeta, eta), against a block.

    The statistics come from the dense residual and the full basis; the
    terms, and their rejection of a non-positive state, are the solver's own
    ``gmrf.chain_cost_terms``.
    """
    block = np.asarray(block, dtype=float)
    resid = ((block - state.denoised) ** 2).sum(axis=1)
    quads = prior_energy(state.denoised @ basis.vectors, basis)
    return cost_from_stats(resid, quads, state.variances, state.aux, couplings, block.shape[1])


def golden_section(fun, lo: float, hi: float, rel_tol: float = 1e-12,
                   max_iter: int = 400) -> float:
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
        mid = 0.5 * (a + b)
        if (b - a) <= rel_tol * max(abs(mid), 1e-300):
            break
    return 0.5 * (a + b)


def argmin_positive(fun, grid_lo: float = 1e-12, grid_hi: float = 1e12,
                    grid_points: int = 121) -> float:
    """Minimise over x > 0: coarse log-grid bracket, then golden section.

    Bracketing never consults any closed-form answer.
    """
    grid = np.logspace(np.log10(grid_lo), np.log10(grid_hi), grid_points)
    values = np.array([fun(x) for x in grid])
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_points - 1)]
    return golden_section(fun, lo, hi)


def dense_posterior_mean(row, noise_var, energy_var, corr_values) -> np.ndarray:
    """Direct solve of (C^-1/energy + I/noise) s = row/noise.

    Computed in the algebraically identical form
    (noise/energy * I + C) s = C row, which never forms the ill-conditioned
    inverse, so the oracle's own round-off stays far below the tolerance it
    polices.
    """
    M = corr_values.shape[0]
    lhs = (noise_var / energy_var) * np.eye(M) + corr_values
    return np.linalg.solve(lhs, corr_values @ row)


def dense_posterior_mean_raw(row, noise_var, energy_var, corr_values) -> np.ndarray:
    """Same quantity via the literal inverse; carries O(cond*eps) fuzz."""
    M = corr_values.shape[0]
    corr_inv = np.linalg.solve(corr_values, np.eye(M))
    lhs = corr_inv / energy_var + np.eye(M) / noise_var
    return np.linalg.solve(lhs, row / noise_var)


def naive_lm_fit(y, consts, theta0):
    """Damped Gauss-Newton from one start, one model call per trial.

    The scalar form of the batched core behind ``retrack.ls_fit``: Marquardt's
    scaled step, and MINPACK's relative-reduction and scaled step tests.
    Returns (theta, cost, iterations, converged); raises DivergedError after
    MAX_REJECTS consecutive rejected steps, unless a rejected step already
    passes the STEP_TOL test (converged at the current theta).
    """
    def project(theta):
        out = theta.copy()
        out[0] = max(out[0], 0.0)
        out[2] = max(out[2], 0.0)
        return out

    def model(theta):
        return brown_waveform(BrownParams(swh=theta[0], tau=theta[1], pu=theta[2]), consts)

    def short(z, scale, theta):
        return np.linalg.norm(z) <= retrack.STEP_TOL * np.linalg.norm(scale * theta)

    theta = project(np.asarray(theta0, dtype=float))
    resid = y - model(theta)
    cost = float(resid @ resid)
    lam = retrack.LAMBDA_INIT
    for iteration in range(1, retrack.MAX_ITERATIONS + 1):
        jac = brown_jacobian(BrownParams(swh=theta[0], tau=theta[1], pu=theta[2]), consts)
        normal = jac.T @ jac
        scale = np.sqrt(np.diag(normal))
        scale[scale == 0.0] = 1.0
        scaled = normal / np.outer(scale, scale)
        sgrad = (jac.T @ resid) / scale

        rejects = 0
        while True:
            try:
                z = np.linalg.solve(scaled + lam * np.eye(3), sgrad)
            except np.linalg.LinAlgError:
                z = None
            if z is not None:
                trial = project(theta + z / scale)
                trial_resid = y - model(trial)
                trial_cost = float(trial_resid @ trial_resid)
                if trial_cost <= cost:
                    predicted = 2.0 * z @ sgrad - z @ scaled @ z
                    tol = retrack.FTOL * cost
                    flat = cost - trial_cost <= tol and predicted <= tol
                    theta, resid, cost = trial, trial_resid, trial_cost
                    lam = max(lam / retrack.LAMBDA_SHRINK, 1e-12)
                    break
                if short(z, scale, theta):
                    return theta, cost, iteration, True  # already at its minimum
            rejects += 1
            lam *= retrack.LAMBDA_GROW
            if rejects >= retrack.MAX_REJECTS:
                raise DivergedError(f"no descent after {rejects} consecutive damped steps")
        if flat or short(z, scale, theta):
            return theta, cost, iteration, True
    return theta, cost, retrack.MAX_ITERATIONS, False
