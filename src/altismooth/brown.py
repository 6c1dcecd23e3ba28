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
WAVEFORM_COLUMNS = 128  # columns per evaluation block of brown_waveform


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
        if not all(0 < x < np.inf for x in (self.alpha, self.sigma_p, self.c)):
            raise ValueError("alpha, sigma_p and c must be positive and finite")
        if not (0 < self.gate_resolution < np.inf and self.num_gates >= 2):
            raise ValueError("need finite gate_resolution > 0 and num_gates >= 2")

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
    """Geophysical parameters: SWH [m], epoch tau [m], amplitude pu.

    Scalars describe one waveform; equal-length 1-D arrays describe a batch
    of n waveforms, triplet i being (swh[i], tau[i], pu[i]).
    """

    swh: float | np.ndarray
    tau: float | np.ndarray
    pu: float | np.ndarray

    def __post_init__(self):
        swh, tau, pu = np.asarray(self.swh), np.asarray(self.tau), np.asarray(self.pu)
        if swh.ndim > 1 or tau.shape != swh.shape or pu.shape != swh.shape:
            raise ValueError("swh, tau and pu must be scalars or equal-length 1-D arrays")
        if (swh < 0).any() or (pu < 0).any():
            raise ValueError("swh and pu must be non-negative")


def gates_to_meters(gates, consts: BrownConstants):
    """Convert an epoch from gate units to meters."""
    return np.asarray(gates, dtype=float) * consts.gate_in_meters


def _stable_terms(u, v, out=None):
    """Return (1+erf(u))*exp(v) without overflow, in ``out`` if given.

    For u < 0 the product is computed as erfcx(-u)*exp(v - u^2), which stays
    bounded even when exp(v) alone would overflow.  From u = 6 up, erf(u)
    rounds to exactly 1.0 and the product is 2*exp(v).  NaN takes the erf
    branch, so that it reaches the callers' non-finite checks.  Each branch
    runs the formula's operations in place on its gathered u and v.
    """
    rise = np.empty_like(u) if out is None else out
    neg, top = u < 0.0, u >= 6.0
    mid = ~(neg | top)
    with np.errstate(over="raise", invalid="raise"):
        try:
            part, scale = u[neg], v[neg]
            scale -= np.square(part)
            part = erfcx(np.negative(part, out=part), out=part)
            rise[neg] = np.multiply(part, np.exp(scale, out=scale), out=part)
            part, scale = u[mid], v[mid]
            part = np.add(erf(part, out=part), 1.0, out=part)
            rise[mid] = np.multiply(part, np.exp(scale, out=scale), out=part)
            scale = v[top]
            rise[top] = np.multiply(np.exp(scale, out=scale), 2.0, out=scale)
        except FloatingPointError as exc:
            raise NonFiniteError(f"waveform evaluation overflowed: {exc}") from exc
    return rise


def _edge_terms(swh, tau, t, consts: BrownConstants):
    """Leading-edge terms (dt, sc2, sc, u, v) at the gate times t.

    swh and tau (meters) broadcast against t: length-M vectors against the
    K x 1 gate column give K x M terms, n x 1 columns against the length-K
    gate row give n x K.  Every term is elementwise, so an entry does not
    depend on the layout.  dt = t - tau_s, u is the erf argument and v the
    exponent; u and v are divided and scaled in place.
    """
    a = consts.alpha
    with np.errstate(over="ignore", invalid="ignore"):
        dt = t - 2.0 * tau / consts.c
        sc2 = (swh / (2.0 * consts.c)) ** 2 + consts.sigma_p**2
        sc = np.sqrt(sc2)
        u = dt - a * sc2
        u /= _SQRT2 * sc
        v = dt - a * sc2 / 2.0
        v *= -a
    return dt, sc2, sc, u, v


def _model_and_jacobian(theta: np.ndarray, consts: BrownConstants):
    """Model and jacobian of the n x 3 rows (swh, tau, pu) of theta, from one set of edge terms.

    Unvalidated, for the retracking loop, whose trials keep swh, pu >= 0.
    Returns the n x K model rows and the C-contiguous n x K x 3 jacobian,
    tau differentiated in meters.  The arithmetic is elementwise and that of
    ``brown_waveform``, so each entry equals the public functions' bit for
    bit.  A non-finite model entry makes its jacobian entries non-finite
    too, so one check guards both.
    """
    c = consts.c
    a = consts.alpha
    swh, pu = theta[:, :1], theta[:, 2:]
    dt, sc2, sc, u, v = _edge_terms(swh, theta[:, 1:2], consts.gate_times(), consts)
    rise = _stable_terms(u, v)
    # Cannot overflow: v - u^2 = -dt^2 / (2 sc2) <= 0, up to rounding.
    bell = _TWO_OVER_SQRTPI * np.exp(v - u**2)

    half_pu = 0.5 * pu
    jac = np.empty(rise.shape + (3,))
    # d/d swh through sc2: d sc2/d swh = swh/(2 c^2).  dt, u and v become scratch.
    d_sc2 = swh / (2.0 * c**2)
    d_swh = np.divide(np.negative(dt, out=dt), _SQRT2 * sc2, out=dt)  # du/d sc
    d_swh -= a / _SQRT2
    d_swh *= bell
    d_swh *= d_sc2 / (2.0 * sc)
    curve = np.multiply(rise, a**2 / 2.0, out=u)
    curve *= d_sc2
    d_swh += curve
    np.multiply(half_pu, d_swh, out=jac[..., 0])
    # d/d tau (meters): d tau_s/d tau = 2/c.
    bell /= _SQRT2 * sc
    d_tau = np.multiply(a, rise, out=v)
    d_tau -= bell
    d_tau *= half_pu
    np.multiply(d_tau, 2.0 / c, out=jac[..., 1])
    # d/d pu: the model is linear in pu.
    np.multiply(0.5, rise, out=jac[..., 2])
    if not np.isfinite(jac).all():
        raise NonFiniteError("model or jacobian evaluation produced non-finite values")
    return np.multiply(half_pu, rise, out=rise), jac


def waveform_block(swh, tau, pu, consts: BrownConstants) -> np.ndarray:
    """Evaluate the model for M parameter triplets at once.

    swh, tau, pu are broadcastable 1-D arrays or scalars (tau in meters),
    validated and evaluated by ``brown_waveform``.  Returns the (K x M) block
    whose column m is the waveform of triplet m.
    """
    params = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (swh, tau, pu))
    return brown_waveform(BrownParams(*np.broadcast_arrays(*params)), consts)


def brown_waveform(params: BrownParams, consts: BrownConstants) -> np.ndarray:
    """Sampled waveform s(k*T), k = 1..K.

    A length-K vector for one triplet; for a batch of n, the K x n block
    whose column i is the waveform of triplet i.  The block is evaluated and
    checked WAVEFORM_COLUMNS columns at a time straight into place, so that
    the temporaries stay K x WAVEFORM_COLUMNS; every entry is the same to the
    bit for any batch.
    """
    swh, tau, pu = (np.atleast_1d(np.asarray(x, dtype=float))
                    for x in (params.swh, params.tau, params.pu))
    times = consts.gate_times()[:, None]
    block = np.empty((times.size, swh.size))
    for start in range(0, swh.size, WAVEFORM_COLUMNS):
        cols = slice(start, start + WAVEFORM_COLUMNS)
        part = block[:, cols]
        _stable_terms(*_edge_terms(swh[cols], tau[cols], times, consts)[3:], out=part)
        np.multiply(part, 0.5 * pu[cols], out=part)
        if not np.isfinite(part).all():
            raise NonFiniteError("waveform evaluation produced non-finite samples")
    return block if np.ndim(params.swh) else block[:, 0]


def brown_jacobian(params: BrownParams, consts: BrownConstants) -> np.ndarray:
    """Partial derivatives of the waveform w.r.t. (swh, tau, pu).

    K x 3 for one triplet; for a batch of n, the n x K x 3 stack whose item
    i is the jacobian of triplet i, each item C-contiguous like the single
    one.  tau is differentiated in meters.  Evaluated by the kernel that the
    retracking trials use, with the forward model's edge terms and
    overflow-safe factorisation.
    """
    theta = np.array([params.swh, params.tau, params.pu], dtype=float).reshape(3, -1).T
    jac = _model_and_jacobian(theta, consts)[1]
    return jac if np.ndim(params.swh) else jac[0]


def load_constants(path) -> BrownConstants:
    """Read a constants profile from a key-value file.

    Lines look like ``alpha = 2.022e6``; ``#`` starts a comment.  Exactly the
    keys alpha, sigma_p, c, gate_resolution, num_gates are understood, once each.
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
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = val.strip()
    missing = [k for k in PROFILE_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    try:
        return BrownConstants(
            alpha=float(values["alpha"]),
            sigma_p=float(values["sigma_p"]),
            c=float(values["c"]),
            gate_resolution=float(values["gate_resolution"]),
            num_gates=int(values["num_gates"]),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def jason2_like() -> BrownConstants:
    """The packaged representative Jason-class constants profile."""
    ref = importlib.resources.files("altismooth.profiles") / "jason2_like.cfg"
    with importlib.resources.as_file(ref) as path:
        return load_constants(path)
