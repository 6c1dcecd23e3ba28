"""Brown ocean-return model for conventional (LRM) radar altimeter waveforms.

The mean return power at time t is

    s(t) = (Pu/2) * [1 + erf((t - tau_s - a*sc2) / (sqrt(2)*sc))]
                  * exp(-a * (t - tau_s - a*sc2/2))

with tau_s = 2*tau/c the epoch in seconds, a the trailing-edge decay set by
the antenna/orbit geometry, and sc2 = (SWH/(2c))^2 + sigma_p^2 the squared
rise-time of the leading edge.  A waveform is the model sampled at the K
range gates t_k = k*T, k = 1..K.

Instrument constants are not hard-coded: they live in a small key-value
profile file (see ``load_constants``).  The packaged ``jason2-like`` profile
uses representative Jason-class values (320 MHz bandwidth, 1340 km orbit),
not calibrated mission constants.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfcx

from .errors import NonFiniteError

_SQRT2 = np.sqrt(2.0)
_TWO_OVER_SQRTPI = 2.0 / np.sqrt(np.pi)

PROFILE_KEYS = ("alpha", "sigma_p", "c", "gate_resolution", "num_gates")


@dataclass(frozen=True)
class BrownConstants:
    """Instrument/geometry constants of the waveform model.

    alpha            trailing-edge decay rate [1/s]
    sigma_p          point-target response width [s]
    c                speed of light [m/s]
    gate_resolution  sampling period T of the range gates [s]
    num_gates        number of gates K per waveform
    """

    alpha: float
    sigma_p: float
    c: float = 299792458.0
    gate_resolution: float = 3.125e-9
    num_gates: int = 104

    def __post_init__(self):
        if not (self.alpha > 0 and self.sigma_p > 0 and self.c > 0):
            raise ValueError("alpha, sigma_p and c must be positive")
        if not (self.gate_resolution > 0 and self.num_gates >= 2):
            raise ValueError("need gate_resolution > 0 and num_gates >= 2")

    @property
    def gate_in_meters(self) -> float:
        """One-gate range increment, c*T/2."""
        return self.c * self.gate_resolution / 2.0

    @property
    def window_meters(self) -> float:
        """Epoch value mapping to the end of the observation window."""
        return self.num_gates * self.gate_in_meters

    def gate_times(self) -> np.ndarray:
        """Sampling instants t_k = k*T for k = 1..K."""
        return np.arange(1, self.num_gates + 1) * self.gate_resolution


@dataclass(frozen=True)
class BrownParams:
    """One waveform's geophysical parameters: SWH [m], epoch tau [m], amplitude pu."""

    swh: float
    tau: float
    pu: float

    def __post_init__(self):
        if self.swh < 0 or self.pu < 0:
            raise ValueError("swh and pu must be non-negative")


def gates_to_meters(gates, consts: BrownConstants):
    """Convert an epoch from gate units to meters."""
    return np.asarray(gates, dtype=float) * consts.gate_in_meters


def meters_to_gates(meters, consts: BrownConstants):
    return np.asarray(meters, dtype=float) / consts.gate_in_meters


def sigma_c_sq(params: BrownParams, consts: BrownConstants) -> float:
    """Squared leading-edge width (SWH/(2c))^2 + sigma_p^2, in seconds^2."""
    return (params.swh / (2.0 * consts.c)) ** 2 + consts.sigma_p**2


def _stable_terms(u, v):
    """Return (1+erf(u))*exp(v) without overflow.

    For u < 0 the product is computed as erfcx(-u)*exp(v - u^2), which stays
    bounded even when exp(v) alone would overflow.
    """
    rise = np.empty_like(u)
    neg = u < 0.0
    with np.errstate(over="raise", invalid="raise"):
        try:
            rise[neg] = erfcx(-u[neg]) * np.exp(v[neg] - u[neg] ** 2)
            pos = ~neg
            rise[pos] = (1.0 + erf(u[pos])) * np.exp(v[pos])
        except FloatingPointError as exc:
            raise NonFiniteError(f"waveform evaluation overflowed: {exc}") from exc
    return rise


def _edge_terms(swh, tau, consts: BrownConstants):
    """Leading-edge terms (tau_s, sc2, sc, u, v) at the gate times.

    swh and tau (meters) are scalars or length-M arrays; u, the erf argument,
    and v, the exponent, come out K x M.
    """
    swh = np.asarray(swh, dtype=float)
    tau = np.asarray(tau, dtype=float)
    t = consts.gate_times()[:, None]
    a = consts.alpha
    with np.errstate(over="ignore", invalid="ignore"):
        tau_s = 2.0 * tau / consts.c
        sc2 = (swh / (2.0 * consts.c)) ** 2 + consts.sigma_p**2
        sc = np.sqrt(sc2)
        u = (t - tau_s - a * sc2) / (_SQRT2 * sc)
        v = -a * (t - tau_s - a * sc2 / 2.0)
    return tau_s, sc2, sc, u, v


def waveform_block(swh, tau, pu, consts: BrownConstants) -> np.ndarray:
    """Evaluate the model for M parameter triplets at once.

    swh, tau, pu are broadcastable 1-D arrays (tau in meters).  Returns the
    (K x M) block whose column m is the waveform of triplet m.
    """
    swh = np.atleast_1d(np.asarray(swh, dtype=float))
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    pu = np.atleast_1d(np.asarray(pu, dtype=float))
    swh, tau, pu = np.broadcast_arrays(swh, tau, pu)
    if np.any(swh < 0) or np.any(pu < 0):
        raise ValueError("swh and pu must be non-negative")

    _, _, _, u, v = _edge_terms(swh, tau, consts)
    block = 0.5 * pu[None, :] * _stable_terms(u, v)
    if not np.all(np.isfinite(block)):
        raise NonFiniteError("waveform evaluation produced non-finite samples")
    return block


def brown_waveform(params: BrownParams, consts: BrownConstants) -> np.ndarray:
    """Sampled waveform s(k*T), k = 1..K, as a length-K vector."""
    return waveform_block(params.swh, params.tau, params.pu, consts)[:, 0]


def brown_jacobian(params: BrownParams, consts: BrownConstants) -> np.ndarray:
    """(K x 3) partial derivatives of the waveform w.r.t. (swh, tau, pu).

    tau is differentiated in meters.  Uses the same edge terms and
    overflow-safe factorisation as the forward model.
    """
    t = consts.gate_times()[:, None]
    c = consts.c
    a = consts.alpha
    tau_s, sc2, sc, u, v = _edge_terms(params.swh, params.tau, consts)
    rise = _stable_terms(u, v)
    # Cannot overflow where rise did not: for u < 0 it has rise's exponent,
    # for u >= 0 its exponent v - u^2 is below v.
    bell = _TWO_OVER_SQRTPI * np.exp(v - u**2)

    half_pu = 0.5 * params.pu
    # d/d pu: the model is linear in pu.
    d_pu = 0.5 * rise

    # d/d tau (meters): d tau_s/d tau = 2/c.
    d_tau_s = half_pu * (a * rise - bell / (_SQRT2 * sc))
    d_tau = d_tau_s * (2.0 / c)

    # d/d swh through sc2: d sc2/d swh = swh/(2 c^2).
    d_sc2 = params.swh / (2.0 * c**2)
    d_sc = d_sc2 / (2.0 * sc)
    du_dsc = -(t - tau_s) / (_SQRT2 * sc2) - a / _SQRT2
    d_swh = half_pu * (bell * du_dsc * d_sc + rise * (a**2 / 2.0) * d_sc2)

    jac = np.column_stack([d_swh, d_tau, d_pu])
    if not np.all(np.isfinite(jac)):
        raise NonFiniteError("jacobian evaluation produced non-finite entries")
    return jac


def load_constants(path) -> BrownConstants:
    """Read a constants profile from a key-value file.

    Lines look like ``alpha = 2.022e6``; ``#`` starts a comment.  Exactly the
    keys alpha, sigma_p, c, gate_resolution, num_gates are understood.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            elif ":" in line:
                key, _, val = line.partition(":")
            else:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in PROFILE_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    missing = [k for k in PROFILE_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    return BrownConstants(
        alpha=float(values["alpha"]),
        sigma_p=float(values["sigma_p"]),
        c=float(values["c"]),
        gate_resolution=float(values["gate_resolution"]),
        num_gates=int(values["num_gates"]),
    )


def jason2_like() -> BrownConstants:
    """The packaged representative Jason-class constants profile."""
    ref = importlib.resources.files("altismooth.profiles") / "jason2_like.cfg"
    with importlib.resources.as_file(ref) as path:
        return load_constants(path)
