"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (scalar loops, extended precision,
grid searches) and never calls into the package's own fast paths, so
agreement is evidence rather than tautology.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from altismooth import retrack
from altismooth.brown import BrownParams, brown_jacobian, brown_waveform
from altismooth.errors import DivergedError


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

    The scalar form of the batched core behind ``retrack.ls_fit``.  Returns
    (theta, cost, iterations, converged); raises DivergedError after
    MAX_REJECTS consecutive rejected steps.
    """
    def project(theta):
        out = theta.copy()
        out[0] = max(out[0], 0.0)
        out[2] = max(out[2], 0.0)
        return out

    def model(theta):
        return brown_waveform(BrownParams(swh=theta[0], tau=theta[1], pu=theta[2]), consts)

    theta = project(np.asarray(theta0, dtype=float))
    resid = y - model(theta)
    cost = float(resid @ resid)
    lam = retrack.LAMBDA_INIT
    for iteration in range(1, retrack.MAX_ITERATIONS + 1):
        jac = brown_jacobian(BrownParams(swh=theta[0], tau=theta[1], pu=theta[2]), consts)
        grad = jac.T @ resid
        normal = jac.T @ jac
        damping = np.diag(normal).copy()
        damping += 1e-12 * max(damping.max(), 1.0)

        rejects = 0
        while True:
            try:
                step = np.linalg.solve(normal + lam * np.diag(damping), grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                trial = project(theta + step)
                trial_resid = y - model(trial)
                trial_cost = float(trial_resid @ trial_resid)
                if trial_cost <= cost:
                    theta, resid, cost = trial, trial_resid, trial_cost
                    lam = max(lam / retrack.LAMBDA_SHRINK, 1e-12)
                    break
            rejects += 1
            lam *= retrack.LAMBDA_GROW
            if rejects >= retrack.MAX_REJECTS:
                raise DivergedError(f"no descent after {rejects} consecutive damped steps")
        if np.linalg.norm(step) <= retrack.STEP_TOL * (np.linalg.norm(theta) + retrack.STEP_TOL):
            return theta, cost, iteration, True
    return theta, cost, retrack.MAX_ITERATIONS, False
