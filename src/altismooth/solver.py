"""Coordinate-descent MAP denoiser for blocks of successive waveforms.

A block Y is K gates by M successive signals.  The model: each gate row
y_k = s_k + noise with per-gate noise variance, each clean row s_k is a
zero-mean Gaussian process over the signal index with an SE correlation and
per-gate energy variance, and both variance sequences are smoothed along k
by coupled auxiliary chains (see ``gmrf``).  The joint negative log
posterior is minimised one coordinate block at a time; every update has a
closed form.

The sweep runs on the basis coefficients of only the r modes whose kernel
eigenvalue is >= MODE_CUTOFF times the largest.  The cutoff is the kernel's
jitter: the dropped modes sit at it, where the shrinkage filter is ~0, and
the prior pins them to zero (exact MAP under that prior, so the cost never
rises).  With V_r the kept M x r eigenvectors and C = Y V_r computed once,
the rows' modes have coefficients F * C (F the per-gate diagonal shrinkage),
each gate's residual power is sum(((1 - F) * C)**2) plus the tail energy
|y_k|^2 - |c_k|^2 of its dropped modes, and its prior energy sum(p * (F * C)**2)
over the kept precision eigenvalues p.  (F * C) V_r^T is formed once, at the end.

Sweep order per iteration: rows s_k (all gates), noise variances, noise
auxiliaries, energy variances, energy auxiliaries.  The cost is evaluated
once per full sweep and the loop stops when its relative change falls below
``xi`` or after ``t_max`` sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gmrf
from .errors import NonFiniteError, ShapeMismatchError
from .gmrf import VarianceChain
from .kernels import (
    DEFAULT_LENGTHSCALE,
    CovarianceBasis,
    build_correlation,
    decompose,
    prior_energy,
    shrinkage_filter,
)

ENERGY_VAR_INIT = 10.0
AUX_INIT = 1e-12
MODE_CUTOFF = 1e-8  # kept modes: kernel eigenvalue >= MODE_CUTOFF * largest


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the denoiser.

    zeta / eta   coupling strengths of the noise / energy chains (> 1)
    xi           relative cost-change stopping threshold
    t_max        sweep cap
    lengthscale  SE correlation length over the signal index
    """

    zeta: float = 2.0
    eta: float = 2.0
    xi: float = 1e-3
    t_max: int = 100
    lengthscale: float = DEFAULT_LENGTHSCALE

    def __post_init__(self):
        if not (self.zeta > 1 and self.eta > 1):
            raise ValueError("zeta and eta must be > 1")
        if not (self.xi > 0 and self.t_max >= 1):
            raise ValueError("need xi > 0 and t_max >= 1")


@dataclass
class SolverState:
    """Result of one denoise call."""

    denoised: np.ndarray
    noise: VarianceChain
    energy: VarianceChain
    cost_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = "max-iterations"
    modes: int = 0  # eigenmodes kept, r


def cost_from_stats(
    resid: np.ndarray,
    quads: np.ndarray,
    noise: VarianceChain,
    energy: VarianceChain,
    num_signals: int,
) -> float:
    """Negative log posterior (constants dropped) from per-gate statistics."""
    try:
        value = gmrf.chain_cost_terms(noise, resid, num_signals) + gmrf.chain_cost_terms(
            energy, quads, num_signals
        )
    except ValueError as exc:
        raise NonFiniteError(str(exc)) from exc
    if not np.isfinite(value):
        raise NonFiniteError("cost evaluation produced a non-finite value")
    return value


def _initial_state(block: np.ndarray, config: SolverConfig) -> tuple:
    noise = gmrf.initial_chain(block.mean(axis=1), config.zeta, AUX_INIT)
    energy = gmrf.initial_chain(
        np.full(block.shape[0], ENERGY_VAR_INIT), config.eta, AUX_INIT
    )
    return noise, energy


def _sweep(coeffs, tail, kept, num_signals, noise, energy):
    """One full coordinate sweep on the kept modes' coefficients.

    ``tail`` is each row's energy in the dropped modes, all of it residual;
    the chains count all ``num_signals`` = M signals, not the r kept modes.
    Mutates the chains; returns the rows' coefficients and the cost.
    """
    filt = shrinkage_filter(noise.variances, energy.variances, kept)
    spectral = filt * coeffs
    resid = (((1.0 - filt) * coeffs) ** 2).sum(axis=1) + tail
    quads = prior_energy(spectral, kept)

    noise.variances = gmrf.variance_sweep(noise, resid, num_signals)
    noise.aux = gmrf.aux_sweep(noise)
    energy.variances = gmrf.variance_sweep(energy, quads, num_signals)
    energy.aux = gmrf.aux_sweep(energy)
    return spectral, cost_from_stats(resid, quads, noise, energy, num_signals)


def denoise(
    block: np.ndarray,
    config: SolverConfig | None = None,
    basis: CovarianceBasis | None = None,
) -> SolverState:
    """Denoise one K x M block.

    ``basis`` may be supplied to reuse a precomputed eigenbasis for this M
    (the stream driver does); otherwise it is built here.
    """
    config = config or SolverConfig()
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.size == 0:
        raise ShapeMismatchError(f"expected a non-empty K x M block, got {block.shape}")
    if not np.all(np.isfinite(block)):
        raise NonFiniteError("input block contains non-finite values")
    num_signals = block.shape[1]
    if basis is None:
        basis = decompose(build_correlation(num_signals, config.lengthscale))
    elif basis.size != num_signals:
        raise ShapeMismatchError(
            f"basis size {basis.size} does not match block width {num_signals}"
        )

    noise, energy = _initial_state(block, config)
    prec = basis.precision_eigvals  # descending, so the kept modes trail
    first = num_signals - int(np.count_nonzero(prec * MODE_CUTOFF <= prec[-1]))
    kept = CovarianceBasis(basis.vectors[:, first:], prec[first:])
    coeffs = block @ kept.vectors  # row k holds the kept coefficients of y_k
    tail = np.maximum((block**2).sum(axis=1) - (coeffs**2).sum(axis=1), 0.0)

    trace: list[float] = []
    stop_reason = "max-iterations"
    for _ in range(config.t_max):
        spectral, value = _sweep(coeffs, tail, kept, num_signals, noise, energy)
        trace.append(value)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= config.xi * abs(trace[-2]):
            stop_reason = "converged"
            break

    return SolverState(
        denoised=spectral @ kept.vectors.T,
        noise=noise,
        energy=energy,
        cost_trace=trace,
        iterations=len(trace),
        stop_reason=stop_reason,
        modes=num_signals - first,
    )


def chunk_slices(total: int, chunk_len: int) -> list[slice]:
    """Consecutive column slices of width chunk_len (last one may be shorter)."""
    if chunk_len < 1:
        raise ValueError("chunk length must be >= 1")
    return [slice(s, min(s + chunk_len, total)) for s in range(0, total, chunk_len)]


def denoise_stream(
    block: np.ndarray,
    chunk_len: int,
    config: SolverConfig | None = None,
    with_states: bool = False,
):
    """Denoise a K x N block in independent consecutive chunks of width M.

    Chunks run serially (BLAS owns the threading) and share the precomputed
    eigenbasis for their width; a shorter final chunk gets its own.
    """
    config = config or SolverConfig()
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.size == 0:
        raise ShapeMismatchError(f"expected a non-empty K x N block, got {block.shape}")
    slices = chunk_slices(block.shape[1], chunk_len)

    bases: dict[int, CovarianceBasis] = {}
    for sl in slices:
        width = sl.stop - sl.start
        if width not in bases:
            bases[width] = decompose(build_correlation(width, config.lengthscale))
    states = [denoise(block[:, sl], config, bases[sl.stop - sl.start]) for sl in slices]

    out = np.empty_like(block)
    for sl, state in zip(slices, states):
        out[:, sl] = state.denoised
    if with_states:
        return out, states
    return out
