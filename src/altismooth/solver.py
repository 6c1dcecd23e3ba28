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
run stacked as two 2 x K arrays, ``variances`` and ``aux`` (row 0 noise,
row 1 energy; couplings ``COUPLING``), one ``gmrf`` call per update.  The
cost is evaluated once per full sweep and the loop stops when its relative
change falls below ``XI`` or after ``T_MAX`` sweeps.  These settings and the
SE lengthscale (``kernels.DEFAULT_LENGTHSCALE``) are the paper's, fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gmrf
from .errors import NonFiniteError, ShapeMismatchError
from .kernels import (
    DEFAULT_LENGTHSCALE,
    CovarianceBasis,
    build_correlation,
    decompose,
    shrinkage_filter,
)

MODE_CUTOFF = 1e-8  # kept modes: kernel eigenvalue >= MODE_CUTOFF * largest
COUPLING = (2.0, 2.0)  # zeta, eta: the noise and energy chains' coupling strengths
XI = 1e-3  # stop once a sweep changes the cost by at most XI of its value
T_MAX = 100  # sweep cap


@dataclass
class SolverState:
    """Result of one denoise call: chains in input units, cost_trace in units of g**2."""

    denoised: np.ndarray
    variances: np.ndarray  # 2 x K: row 0 the noise chain's, row 1 the energy chain's
    aux: np.ndarray  # 2 x K: their auxiliaries
    cost_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = "max-iterations"
    modes: int = 0  # eigenmodes kept, r


def _kept_basis(width: int) -> CovarianceBasis:
    """The kept modes of the width x width correlation: eigenvalue >= MODE_CUTOFF * largest."""
    return decompose(build_correlation(width, DEFAULT_LENGTHSCALE), MODE_CUTOFF)


def _sweep(weighted, tail, kept, variances, aux, coupling):
    """One full coordinate sweep on the kept modes' squared coefficients.

    ``weighted`` stacks each row's squared coefficients c**2 and p * c**2;
    ``tail`` is each row's energy in the dropped modes, all of it residual.
    The chains count all M = ``kept.size`` signals, not the r kept modes.
    Returns the sweep's filter, the chains' new variances and aux, and the cost.
    """
    filt = shrinkage_filter(variances[0], variances[1], kept)
    factors = np.concatenate((1.0 - filt, filt)).reshape(weighted.shape)
    factors *= factors
    stats = np.vecdot(factors, weighted)  # residual power, prior energy
    stats[0] += tail
    variances = gmrf.variance_sweep(aux, coupling, stats, kept.size)
    aux = gmrf.aux_sweep(variances, coupling)
    return filt, variances, aux, gmrf.chain_cost_terms(variances, aux, coupling, stats, kept.size)


def denoise(
    block: np.ndarray,
    basis: CovarianceBasis | None = None,
    out: np.ndarray | None = None,
) -> SolverState:
    """Denoise one K x M block, into ``out`` if given.

    ``basis`` may be supplied to reuse a precomputed eigenbasis for this M;
    the sweeps run on all of its modes.  Else the kept modes are built.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.size == 0:
        raise ShapeMismatchError(f"expected a non-empty K x M block, got {block.shape}")
    row_energy = np.vecdot(block, block)
    if not np.all(np.isfinite(row_energy)):
        raise NonFiniteError("input block has non-finite values or row energies")
    num_signals = block.shape[1]
    if basis is None:
        basis = _kept_basis(num_signals)
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
    coupling = np.array(COUPLING)
    variances, aux = gmrf.initial_chain(
        np.array((tail / dropped if dropped else row_energy, row_energy)), coupling)

    trace: list[float] = []
    stop_reason = "max-iterations"
    for _ in range(T_MAX):
        filt, variances, aux, value = _sweep(weighted, tail, basis, variances, aux, coupling)
        trace.append(value)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= XI * abs(trace[-2]):
            stop_reason = "converged"
            break

    del weighted  # freed before the back-projection
    for values in (variances, aux):  # to input units, positive near underflow
        np.maximum(values * unit, np.finfo(float).tiny, out=values)
    filt *= coeffs
    return SolverState(
        np.matmul(filt, basis.vectors.T, out=out),
        variances, aux,
        cost_trace=trace,
        iterations=len(trace),
        stop_reason=stop_reason,
        modes=basis.vectors.shape[1],
    )


def chunk_slices(total: int, chunk_len: int) -> list[slice]:
    """Consecutive column slices of width chunk_len; the last one may be shorter.

    A one-signal remainder joins the chunk before it, which is chunk_len + 1
    wide: a chunk of one signal comes out at about half its input.
    """
    if chunk_len < 1:
        raise ValueError("chunk length must be >= 1")
    starts = list(range(0, total, chunk_len))
    if total % chunk_len == 1 and len(starts) > 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [total])]


def denoise_stream(
    block: np.ndarray,
    chunk_len: int,
    with_states: bool = False,
):
    """Denoise a K x N block in independent consecutive chunks of width M.

    Chunks run serially (BLAS owns the threading) and share the precomputed
    kept M x r modes for their width; a final chunk of another width (shorter,
    or M + 1 wide) gets its own.  Each chunk is back-projected straight into
    its slice of the returned track, which its state's ``denoised`` views, so
    the stream holds its output, the kept bases and one chunk's scratch.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.size == 0:
        raise ShapeMismatchError(f"expected a non-empty K x N block, got {block.shape}")
    slices = chunk_slices(block.shape[1], chunk_len)

    widths = {sl.stop - sl.start for sl in slices}
    bases = {w: _kept_basis(w) for w in widths}

    out = np.empty_like(block)
    states = [denoise(block[:, sl], bases[sl.stop - sl.start], out[:, sl])
              for sl in slices]
    if with_states:
        return out, states
    return out
