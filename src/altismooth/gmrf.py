"""Chain-coupled variance states and their closed-form mode updates.

Both the per-gate noise variances and the per-gate signal-energy variances
follow the same first-order chain: K positive variances interleaved with K
positive auxiliary couplers, aux[0] being a dangling head node attached only
to variances[0].  The joint density gives every node a unimodal conditional
(inverse-gamma for variances, gamma for auxiliaries), so coordinate descent
updates each one at its conditional mode:

    variances[i]  <-  (stat_i + 2*coupling*neigh_aux_i) / denom_i
    aux[j]        <-  (2*coupling - 1) / (coupling * (1/variances[j-1] + 1/variances[j]))

where stat_i is the data statistic for gate i (residual power for the noise
chain, prior quadratic form for the energy chain), neigh_aux_i sums the one
or two adjacent auxiliaries, and denom_i is 4*coupling + M + 2 for interior
gates.  The last gate has a single auxiliary neighbour and the smaller
denominator 2*coupling + M + 2; the head auxiliary's mode is
(2*coupling - 1) * variances[0] / coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANCE_FLOOR = 1e-20


@dataclass
class VarianceChain:
    """K positive variances with K positive auxiliary couplers and a coupling > 1."""

    variances: np.ndarray
    aux: np.ndarray
    coupling: float

    def __post_init__(self):
        self.variances = np.asarray(self.variances, dtype=float)
        self.aux = np.asarray(self.aux, dtype=float)
        if self.variances.ndim != 1 or self.variances.shape != self.aux.shape:
            raise ValueError("variances and aux must be 1-D arrays of equal length")
        if not self.coupling > 1:
            raise ValueError("coupling must be > 1")
        if np.any(self.variances <= 0) or np.any(self.aux <= 0):
            raise ValueError("variances and aux must stay positive")

    @property
    def num_gates(self) -> int:
        return self.variances.shape[0]


def _neighbor_aux(aux: np.ndarray) -> np.ndarray:
    # Gate i couples aux[i] and aux[i+1]; the last gate only aux[K-1].
    out = aux.copy()
    out[:-1] += aux[1:]
    return out


def _denominators(coupling: float, num_gates: int, num_signals: int) -> np.ndarray:
    den = np.full(num_gates, 4.0 * coupling + num_signals + 2.0)
    den[-1] = 2.0 * coupling + num_signals + 2.0
    return den


def variance_sweep(
    chain: VarianceChain, stats: np.ndarray, num_signals: int
) -> np.ndarray:
    """Conditional modes of all variances given their data statistics.

    Floored at VARIANCE_FLOOR so the chain stays strictly positive.
    """
    beta = stats + 2.0 * chain.coupling * _neighbor_aux(chain.aux)
    den = _denominators(chain.coupling, chain.num_gates, num_signals)
    return np.maximum(beta / den, VARIANCE_FLOOR)


def aux_sweep(chain: VarianceChain) -> np.ndarray:
    """Conditional modes of all auxiliaries given the variances."""
    c = chain.coupling
    v = chain.variances
    out = np.empty_like(chain.aux)
    out[0] = (2.0 * c - 1.0) * v[0] / c
    if v.shape[0] > 1:
        inv = 1.0 / v
        out[1:] = (2.0 * c - 1.0) / (c * (inv[:-1] + inv[1:]))
    return out


def chain_cost_terms(
    chain: VarianceChain, stats: np.ndarray, num_signals: int
) -> float:
    """This chain's contribution to the negative log posterior.

    Sum over gates of shape_i*log(variances[i]) + beta_i/(2*variances[i])
    minus (2*coupling-1) * sum(log(aux)), with the boundary gate carrying the
    reduced shape coupling + M/2 + 1.
    """
    c = chain.coupling
    v = chain.variances
    if np.any(v <= 0) or np.any(chain.aux <= 0):
        raise ValueError("cost requires strictly positive variances and aux")
    beta = stats + 2.0 * c * _neighbor_aux(chain.aux)
    shape = np.full(chain.num_gates, 2.0 * c + num_signals / 2.0 + 1.0)
    shape[-1] = c + num_signals / 2.0 + 1.0
    value = float(
        np.sum(shape * np.log(v) + beta / (2.0 * v))
        - (2.0 * c - 1.0) * np.sum(np.log(chain.aux))
    )
    return value


def initial_chain(
    variances: np.ndarray, coupling: float, aux_init: float = 1e-12
) -> VarianceChain:
    """Build a chain with floored variances and constant auxiliary init."""
    v = np.maximum(np.asarray(variances, dtype=float), VARIANCE_FLOOR)
    aux = np.full_like(v, aux_init)
    return VarianceChain(variances=v, aux=aux, coupling=coupling)
