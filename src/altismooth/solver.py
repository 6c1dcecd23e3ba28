"""Coordinate-descent MAP denoiser for blocks of successive waveforms.

A block Y is K gates by M successive signals.  The model: each gate row
y_k = s_k + noise with per-gate noise variance, each clean row s_k is a
zero-mean Gaussian process over the signal index with an SE correlation and
per-gate energy variance, and both variance sequences are smoothed along k
by coupled auxiliary chains (see ``gmrf``).  The joint negative log
posterior is minimised one coordinate block at a time; every update has a
closed form.

The sweep runs on the basis coefficients of only the r modes whose kernel
eigenvalue is >= MODE_CUTOFF times the largest, the kernel's jitter: the
prior pins the dropped modes to zero (exact MAP under that prior, so the
cost never rises).  With V_r the kept M x r eigenvectors, C = Y V_r, C**2,
p * C**2 (p the kept precision eigenvalues) and the row energies |y_k|^2,
which double as the finiteness check, are computed once per block.  With F
the per-gate diagonal shrinkage, each sweep gets both statistics from one
weighted reduction: a gate's residual power sum((1 - F)**2 * C**2) plus the
tail energy |y_k|^2 - |c_k|^2 of its dropped modes, and its prior energy
sum(F**2 * p * C**2).  (F * C) V_r^T is formed once, into the output.

The chains run in units of g**2, g the power of two nearest the block's RMS,
and start from these energies: a gate's energy variance at its mean square,
its noise variance at its dropped modes' mean square (they hold only noise;
the energy start when r = M), and each auxiliary at its conditional mode
given them.  denoise(a Y) = a denoise(Y), bit for bit for a power of two a.
The chains return in input units, the cost in g**2 units.

Sweep order per iteration: rows s_k (all gates), then the variances and
then the auxiliaries of the noise and energy chains, which share no node and
run stacked as one 2 x K chain (couplings zeta, eta), one ``gmrf`` call per
update.  The cost is evaluated once per full sweep and the loop stops when
its relative change falls below ``xi`` or after ``t_max`` sweeps.
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
    shrinkage_filter,
)

MODE_CUTOFF = 1e-8  # kept modes: kernel eigenvalue >= MODE_CUTOFF * largest


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the denoiser.

    zeta / eta   coupling strengths of the noise / energy chains (finite, > 1)
    xi           relative cost-change stopping threshold (finite, > 0)
    t_max        sweep cap
    lengthscale  SE correlation length over the signal index
    """

    zeta: float = 2.0
    eta: float = 2.0
    xi: float = 1e-3
    t_max: int = 100
    lengthscale: float = DEFAULT_LENGTHSCALE

    def __post_init__(self):
        if not (1 < self.zeta < np.inf and 1 < self.eta < np.inf):
            raise ValueError("zeta and eta must be finite and > 1")
        if not (0 < self.xi < np.inf and self.t_max >= 1):
            raise ValueError("need a finite xi > 0 and t_max >= 1")


@dataclass
class SolverState:
    """Result of one denoise call: chains in input units, cost_trace in units of g**2."""

    denoised: np.ndarray
    noise: VarianceChain
    energy: VarianceChain
    cost_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = "max-iterations"
    modes: int = 0  # eigenmodes kept, r


def _kept_basis(width: int, lengthscale: float) -> CovarianceBasis:
    """The kept modes of the width x width correlation: eigenvalue >= MODE_CUTOFF * largest."""
    return decompose(build_correlation(width, lengthscale), MODE_CUTOFF)


def _sweep(weighted, tail, kept, num_signals, chain):
    """One full coordinate sweep on the kept modes' squared coefficients.

    ``weighted`` stacks each row's squared coefficients c**2 and p * c**2;
    ``tail`` is each row's energy in the dropped modes, all of it residual.
    The chains count all ``num_signals`` = M signals, not the r kept modes.
    Mutates the stacked chain; returns the sweep's filter and the cost.
    """
    filt = shrinkage_filter(chain.variances[0], chain.variances[1], kept)
    factors = np.concatenate((1.0 - filt, filt)).reshape(weighted.shape)
    factors *= factors
    stats = np.vecdot(factors, weighted)  # residual power, prior energy
    stats[0] += tail
    chain.variances = gmrf.variance_sweep(chain, stats, num_signals)
    chain.aux = gmrf.aux_sweep(chain)
    return filt, gmrf.chain_cost_terms(chain, stats, num_signals)


def denoise(
    block: np.ndarray,
    config: SolverConfig | None = None,
    basis: CovarianceBasis | None = None,
    out: np.ndarray | None = None,
) -> SolverState:
    """Denoise one K x M block, into ``out`` if given.

    ``basis`` may be supplied to reuse a precomputed eigenbasis for this M;
    the sweeps run on all of its modes.  Else the kept modes are built.
    """
    config = config or SolverConfig()
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.size == 0:
        raise ShapeMismatchError(f"expected a non-empty K x M block, got {block.shape}")
    row_energy = np.vecdot(block, block)
    if not np.all(np.isfinite(row_energy)):
        raise NonFiniteError("input block has non-finite values or row energies")
    num_signals = block.shape[1]
    if basis is None:
        basis = _kept_basis(num_signals, config.lengthscale)
    elif basis.size != num_signals:
        raise ShapeMismatchError(
            f"basis size {basis.size} does not match block width {num_signals}"
        )

    unit = 4.0 ** (int(np.frexp((row_energy / block.size).sum())[1]) // 2)  # g**2
    coeffs = block @ basis.vectors  # row k holds the kept coefficients of y_k
    weighted = np.empty((2,) + coeffs.shape)  # c**2 and p * c**2, for _sweep
    np.square(coeffs, out=weighted[0])
    tail = np.maximum(row_energy - weighted[0].sum(axis=1), 0.0) / unit
    weighted[0] /= unit
    np.multiply(weighted[0], basis.precision_eigvals, out=weighted[1])
    row_energy /= num_signals * unit  # each gate's mean square
    dropped = num_signals - basis.vectors.shape[1]  # noise: the dropped modes' mean square
    chain = gmrf.initial_chain(np.array((tail / dropped if dropped else row_energy, row_energy)),
                               np.array([config.zeta, config.eta]))

    trace: list[float] = []
    stop_reason = "max-iterations"
    for _ in range(config.t_max):
        filt, value = _sweep(weighted, tail, basis, num_signals, chain)
        trace.append(value)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= config.xi * abs(trace[-2]):
            stop_reason = "converged"
            break

    del weighted  # freed before the back-projection
    for values in (chain.variances, chain.aux):  # to input units, positive near underflow
        np.maximum(values * unit, np.finfo(float).tiny, out=values)
    filt *= coeffs
    return SolverState(
        np.matmul(filt, basis.vectors.T, out=out),
        *chain,  # its noise and energy chains
        cost_trace=trace,
        iterations=len(trace),
        stop_reason=stop_reason,
        modes=basis.vectors.shape[1],
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
    kept M x r modes for their width; a shorter final chunk gets its own.  Each
    chunk is back-projected straight into its slice of the returned track, which
    its state's ``denoised`` views, so the stream holds its output, the kept
    bases and one chunk's scratch.
    """
    config = config or SolverConfig()
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.size == 0:
        raise ShapeMismatchError(f"expected a non-empty K x N block, got {block.shape}")
    slices = chunk_slices(block.shape[1], chunk_len)

    widths = {sl.stop - sl.start for sl in slices}
    bases = {w: _kept_basis(w, config.lengthscale) for w in widths}

    out = np.empty_like(block)
    states = [denoise(block[:, sl], config, bases[sl.stop - sl.start], out[:, sl])
              for sl in slices]
    if with_states:
        return out, states
    return out
