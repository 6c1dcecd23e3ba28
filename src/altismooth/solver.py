"""Coordinate-descent MAP denoiser for blocks of successive waveforms.

A block Y is K gates by M successive signals.  The model: each gate row
y_k = s_k + noise with per-gate noise variance, each clean row s_k is a
zero-mean Gaussian process over the signal index with an SE correlation and
per-gate energy variance, and both variance sequences are smoothed along k
by coupled auxiliary chains (see ``gmrf``).  The joint negative log
posterior is minimised one coordinate block at a time; every update has a
closed form.

The sweep runs entirely on basis coefficients.  The correlation's eigenbasis
V is a full orthonormal M x M matrix, so with coefficients C = Y V computed
once, the rows' conditional modes have coefficients F * C (F the per-gate
diagonal shrinkage), each gate's residual power is sum(((1 - F) * C)**2) and
its prior energy sum(r * (F * C)**2) over the precision eigenvalues r.  No
sweep back-projects: the denoised block (F * C) V^T is formed once, after
the loop.

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


def cost(state: SolverState, block: np.ndarray, basis: CovarianceBasis) -> float:
    """Cost of an arbitrary state against a block (used mostly by tests)."""
    block = np.asarray(block, dtype=float)
    if block.shape != state.denoised.shape:
        raise ShapeMismatchError(
            f"block shape {block.shape} != state shape {state.denoised.shape}"
        )
    resid = ((block - state.denoised) ** 2).sum(axis=1)
    quads = prior_energy(state.denoised @ basis.vectors, basis)
    return cost_from_stats(resid, quads, state.noise, state.energy, block.shape[1])


def _initial_state(block: np.ndarray, config: SolverConfig) -> tuple:
    noise = gmrf.initial_chain(block.mean(axis=1), config.zeta, AUX_INIT)
    energy = gmrf.initial_chain(
        np.full(block.shape[0], ENERGY_VAR_INIT), config.eta, AUX_INIT
    )
    return noise, energy


def _sweep(coeffs, basis, noise, energy):
    """One full coordinate sweep on basis coefficients.

    Mutates the chains; returns the rows' coefficients and the cost.
    """
    num_signals = coeffs.shape[1]
    filt = shrinkage_filter(noise.variances, energy.variances, basis)
    spectral = filt * coeffs
    resid = (((1.0 - filt) * coeffs) ** 2).sum(axis=1)
    quads = prior_energy(spectral, basis)

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
    coeffs = block @ basis.vectors  # row k holds the basis coefficients of y_k

    trace: list[float] = []
    stop_reason = "max-iterations"
    for _ in range(config.t_max):
        spectral, value = _sweep(coeffs, basis, noise, energy)
        trace.append(value)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= config.xi * abs(trace[-2]):
            stop_reason = "converged"
            break

    return SolverState(
        denoised=spectral @ basis.vectors.T,
        noise=noise,
        energy=energy,
        cost_trace=trace,
        iterations=len(trace),
        stop_reason=stop_reason,
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
