"""Squared-exponential correlation kernel and its spectral machinery.

The smoothness prior on each gate's M-sample evolution uses the correlation
matrix C(m, m') = exp(-(m - m')^2 / lengthscale^2) plus a diagonal jitter.
All per-iteration solves reduce to diagonal shrinkage in the eigenbasis of
the inverse correlation, so the expensive factorisation happens once.

For a symmetric positive-definite matrix the SVD and the symmetric
eigendecomposition coincide; the eigendecomposition is used because it is
cheaper and returns an orthonormal basis by construction.  The inverse is
never formed densely: eigenvalues of the inverse are reciprocals of the
kernel's eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefiniteError

DEFAULT_LENGTHSCALE = 30.0
DEFAULT_JITTER = 1e-8


@dataclass(frozen=True)
class CorrelationMatrix:
    """Dense SE correlation matrix with its construction parameters."""

    values: np.ndarray
    lengthscale: float
    jitter: float

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CovarianceBasis:
    """Eigenbasis of the inverse correlation (precision) matrix.

    vectors            (M x M, or the solver's kept M x r) orthonormal
                       eigenvectors, column i paired with
    precision_eigvals  eigenvalue i of the inverse correlation, sorted
                       descending (and therefore all positive).
    """

    vectors: np.ndarray
    precision_eigvals: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def build_correlation(
    num_signals: int,
    lengthscale: float = DEFAULT_LENGTHSCALE,
    jitter: float = DEFAULT_JITTER,
) -> CorrelationMatrix:
    """Build the SE correlation matrix over sample indices 0..M-1.

    Positive definiteness is not checked here: ``decompose`` raises
    NotPositiveDefiniteError when the jittered matrix has a non-positive
    eigenvalue (jitter too small for this M/lengthscale).
    """
    if num_signals < 1:
        raise ValueError("num_signals must be >= 1")
    if lengthscale <= 0 or jitter < 0:
        raise ValueError("need lengthscale > 0 and jitter >= 0")
    idx = np.arange(num_signals, dtype=float)
    lag = idx[:, None] - idx[None, :]
    values = np.exp(-((lag / lengthscale) ** 2))
    values[np.diag_indices(num_signals)] += jitter
    return CorrelationMatrix(values=values, lengthscale=lengthscale, jitter=jitter)


def decompose(corr: CorrelationMatrix) -> CovarianceBasis:
    """Eigendecompose the inverse correlation matrix.

    Kernel eigenvalues below jitter/10 are floored there before
    reciprocation; those directions are already jitter-dominated and the
    floor only prevents overflow of their precision values.
    """
    eigvals, vectors = scipy.linalg.eigh(corr.values)
    if eigvals[0] <= 0:
        raise NotPositiveDefiniteError(
            f"eigendecomposition found non-positive eigenvalue {eigvals[0]}"
        )
    if corr.jitter > 0:
        eigvals = np.maximum(eigvals, corr.jitter / 10.0)
    # eigh returns ascending kernel eigenvalues, so the precision eigenvalues
    # come out descending with matching columns; no reordering needed.
    return CovarianceBasis(vectors=vectors, precision_eigvals=1.0 / eigvals)


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


def prior_energy(coeffs: np.ndarray, basis: CovarianceBasis) -> np.ndarray:
    """Per-row energy under the inverse correlation, s^T C^-1 s.

    ``coeffs`` holds one row's basis coefficients (s @ basis.vectors) per
    row; the result is clipped at 0 against round-off.
    """
    return np.maximum((coeffs**2 * basis.precision_eigvals).sum(axis=1), 0.0)
