"""Squared-exponential correlation kernel and its spectral machinery.

The smoothness prior on each gate's M-sample evolution uses the correlation
matrix C(m, m') = exp(-(m - m')^2 / lengthscale^2) plus the constant diagonal
jitter JITTER, symmetric Toeplitz and so passed around as its length-M first
row.  All per-iteration solves reduce to diagonal shrinkage in the eigenbasis
of the inverse correlation, so the expensive factorisation happens once.

For a symmetric positive-definite matrix the SVD and the symmetric
eigendecomposition coincide; the eigendecomposition is used because it is
cheaper and returns an orthonormal basis by construction.  The inverse is
never formed densely: eigenvalues of the inverse are reciprocals of the
kernel's eigenvalues.  Neither is the M x M basis when a caller keeps only
the leading modes: ``decompose`` fills just those columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotPositiveDefiniteError

DEFAULT_LENGTHSCALE = 30.0
JITTER = 1e-8


@dataclass(frozen=True)
class CovarianceBasis:
    """Eigenbasis of the inverse correlation (precision), built from its first row.

    vectors            (M x M, or the kept M x r) orthonormal
                       eigenvectors, column i paired with
    precision_eigvals  eigenvalue i of the inverse correlation, sorted
                       descending (and therefore all positive).
    """

    vectors: np.ndarray
    precision_eigvals: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def build_correlation(num_signals: int, lengthscale: float = DEFAULT_LENGTHSCALE) -> np.ndarray:
    """First row of the jittered SE correlation over sample indices 0..M-1.

    It fixes the symmetric Toeplitz C(m, m') = row[|m - m'|], lag 0 holding 1 + JITTER;
    ``decompose`` raises NotPositiveDefiniteError if C is not positive definite.
    """
    if num_signals < 1:
        raise ValueError("num_signals must be >= 1")
    if not 0 < lengthscale < np.inf:
        raise ValueError("need a finite lengthscale > 0")
    with np.errstate(over="ignore"):  # lengthscale below ~1e-154: inf squares, exp(-inf) = 0
        row = np.exp(-((np.arange(num_signals, dtype=float) / lengthscale) ** 2))
    row[0] += JITTER
    return row


def decompose(row: np.ndarray, cutoff: float = 0.0) -> CovarianceBasis:
    """Eigendecompose the inverse of the symmetric Toeplitz C with first row ``row``.

    C is centrosymmetric (J C J = C, J the reversal), so its eigenproblem splits
    exactly into two of half size (Cantoni & Butler, Linear Algebra Appl. 13,
    1976).  With h = M // 2, C11 = C[:h, :h] holds row[|i - j|] and C12 J the
    Hankel entries row[M - 1 - i - j], both views of the row.  The symmetric modes
    [x; Jx] / sqrt(2) come from C11 + C12 J (for odd M bordered by the
    middle row, scaled by sqrt(2), which gives their middle entry) and the
    antisymmetric modes [x; -Jx] / sqrt(2) from C11 - C12 J.  The r modes kept,
    those whose kernel eigenvalue is at least ``cutoff`` times the largest (all
    M at the default 0), are each half's trailing eigenvectors; read as views,
    they fill one M x r basis in ascending kernel order.  ``row`` must be
    non-empty and 1-D.

    Kernel eigenvalues below JITTER/10 are floored there before
    reciprocation; those directions are already jitter-dominated and the
    floor only prevents overflow of their precision values.
    """
    row = np.asarray(row, dtype=float)
    if row.ndim != 1 or row.size == 0:
        raise ValueError(f"need a non-empty 1-D first row, got shape {row.shape}")
    half, odd = divmod(row.size, 2)
    lagged = np.concatenate((row[half + odd - 1 : 0 : -1], row[: half + odd]))
    toeplitz = sliding_window_view(lagged, half + odd)[::-1]  # row[|i - j|], i, j <= h
    hankel = sliding_window_view(row[::-1], half)[:half]  # row[M - 1 - i - j], i, j < h
    sym = toeplitz.copy()  # eigh reads its lower triangle
    sym[:half, :half] += hankel
    sym[half:, :half] *= np.sqrt(2.0)
    sym_vals, sym_vecs = scipy.linalg.eigh(sym, overwrite_a=True)
    del sym  # freed before the second solve
    anti_vals, anti_vecs = scipy.linalg.eigh(toeplitz[:half, :half] - hankel, overwrite_a=True)
    eigvals = np.concatenate([sym_vals, anti_vals])
    if eigvals.min() <= 0:
        raise NotPositiveDefiniteError(
            f"eigendecomposition found non-positive eigenvalue {eigvals.min()}"
        )
    precision = 1.0 / np.maximum(eigvals, JITTER / 10.0)
    kept = precision * cutoff <= precision.min()  # each half's trailing modes
    n_sym = np.count_nonzero(kept[: half + odd])
    order = np.argsort(eigvals[kept], kind="stable")
    rank = np.argsort(order)  # column of each kept eigenpair in ascending order
    vectors = np.zeros((row.size, order.size))  # zero: the antisymmetric middle entries
    for vecs, cols, sign in ((sym_vecs[:, half + odd - n_sym :], rank[:n_sym], 1.0),
                             (anti_vecs[:, half - order.size + n_sym :], rank[n_sym:], -1.0)):
        vecs[:half] *= np.sqrt(0.5)
        vectors[: len(vecs), cols] = vecs
        vecs *= sign
        vectors[row.size - half :, cols] = vecs[:half][::-1]
    return CovarianceBasis(vectors=vectors, precision_eigvals=precision[kept][order])


def shrinkage_filter(
    noise_var: np.ndarray, energy_var: np.ndarray, basis: CovarianceBasis
) -> np.ndarray:
    """Per-gate diagonal posterior filter in the eigenbasis (K x M).

    For gate k with row y_k and basis coefficients c_k = y_k @ basis.vectors,
    the posterior mean, i.e. the solution of
    (C^-1/energy_var[k] + I/noise_var[k]) s = y_k/noise_var[k], has basis
    coefficients filt[k] * c_k, where
    filt[k] = energy_var[k] / (precision_eigvals * noise_var[k] + energy_var[k]).
    """
    return energy_var[:, None] / (
        basis.precision_eigvals[None, :] * noise_var[:, None] + energy_var[:, None]
    )
