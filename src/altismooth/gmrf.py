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

Every function broadcasts over leading axes, so the solver runs its noise
and energy chains, which share no node, as one stacked 2 x K chain.
``initial_chain`` puts each auxiliary at its mode given the floored variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

VARIANCE_FLOOR = 1e-20


@dataclass
class VarianceChain:
    """K positive variances with K positive auxiliary couplers and a coupling > 1.

    A stacked chain has (..., K) arrays and a scalar or (...,) coupling;
    iterating an (n, K) stack yields its n member chains, as views.
    """

    variances: np.ndarray
    aux: np.ndarray
    coupling: float | np.ndarray

    def __post_init__(self):
        self.variances = np.asarray(self.variances, dtype=float)
        self.aux = np.asarray(self.aux, dtype=float)
        if self.variances.ndim == 0 or self.variances.shape != self.aux.shape:
            raise ValueError("variances and aux must be arrays of equal shape")
        coupling = np.asarray(self.coupling, dtype=float)
        if coupling.ndim and coupling.shape != self.variances.shape[:-1]:
            raise ValueError("coupling must be a scalar or one per stacked chain")
        if not coupling.min() > 1:
            raise ValueError("coupling must be > 1")
        if not (self.variances.min() > 0 and self.aux.min() > 0):
            raise ValueError("variances and aux must stay positive")

    def __iter__(self):
        couplings = np.full(len(self.variances), self.coupling).tolist()
        for v, a, c in zip(self.variances, self.aux, couplings):
            yield VarianceChain(v, a, c)


def _neighbor_aux(aux: np.ndarray) -> np.ndarray:
    # Gate i couples aux[i] and aux[i+1]; the last gate only aux[K-1].
    out = aux.copy()
    out[..., :-1] += aux[..., 1:]
    return out


def variance_sweep(
    chain: VarianceChain, stats: np.ndarray, num_signals: int
) -> np.ndarray:
    """Conditional modes of all variances given their data statistics.

    Floored at VARIANCE_FLOOR so the chain stays strictly positive.
    """
    two_c = 2.0 * np.asarray(chain.coupling, dtype=float)[..., None]
    beta = stats + two_c * _neighbor_aux(chain.aux)
    last_den = two_c + (num_signals + 2.0)
    modes = beta / (two_c + last_den)
    modes[..., -1:] = beta[..., -1:] / last_den
    return np.maximum(modes, VARIANCE_FLOOR, out=modes)


def aux_sweep(chain: VarianceChain) -> np.ndarray:
    """Conditional modes of all auxiliaries given the variances."""
    c = np.asarray(chain.coupling, dtype=float)[..., None]
    # aux[j] couples variances[j-1] and variances[j]; the head aux[0] only variances[0]
    inv = 1.0 / chain.variances
    neighbors = inv.copy()
    neighbors[..., 1:] += inv[..., :-1]
    return (2.0 * c - 1.0) / (c * neighbors)


def chain_cost_terms(
    chain: VarianceChain, stats: np.ndarray, num_signals: int
) -> float:
    """This chain's (or stacked chains' summed) share of the negative log posterior.

    Sum over gates of shape_i*log(variances[i]) + beta_i/(2*variances[i])
    minus (2*coupling-1) * sum(log(aux)), with shape_i = 2*coupling + M/2 + 1
    and the boundary gate carrying the reduced shape coupling + M/2 + 1.
    Raises NonFiniteError on a non-positive state or a non-finite cost.
    """
    two_c = 2.0 * np.asarray(chain.coupling, dtype=float)[..., None]
    v, aux = chain.variances, chain.aux
    if not (v.min() > 0 and aux.min() > 0):
        raise NonFiniteError("cost requires strictly positive variances and aux")
    log_v = np.log(v)
    terms = (two_c + (num_signals / 2.0 + 1.0)) * log_v
    terms += (stats + two_c * _neighbor_aux(aux)) / (2.0 * v)
    terms[..., -1:] -= 0.5 * two_c * log_v[..., -1:]
    value = float(terms.sum() - ((two_c - 1.0) * np.log(aux)).sum())
    if not np.isfinite(value):
        raise NonFiniteError("cost evaluation produced a non-finite value")
    return value


def initial_chain(variances: np.ndarray, coupling: float) -> VarianceChain:
    """Build a chain with floored variances and each auxiliary at its conditional mode."""
    v = np.maximum(np.asarray(variances, dtype=float), VARIANCE_FLOOR)
    return VarianceChain(v, aux_sweep(VarianceChain(v, v, coupling)), coupling)
