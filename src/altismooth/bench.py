"""Benchmark suites over synthetic tracks.

Three experiments, all fully seeded and denoised with the default
``SolverConfig``:

* table1: one long smooth-trajectory track, denoised at several chunk
  lengths; reports output RSNR and per-signal wall time per length.
* table2: per significant-wave-height value, a block of constant-parameter
  waveforms under fresh speckle; reports RSNR of the SVD baseline and of
  the coordinate-descent denoiser.
* fig4: same blocks as table2, retracked per signal after each of: no
  filtering (ls), SVD filtering (svd), denoising (sse); reports parameter
  RMSEs, swh then tau then pu, each for ls, svd and sse.

table2 and fig4 draw their blocks from one generator, ``_sweep``.  Each
suite's ``rows`` are its report, their keys its columns in order.
"""

from __future__ import annotations

import time

import numpy as np

from .brown import BrownConstants, gates_to_meters, jason2_like
from .metrics import PARAM_NAMES, rmse, rsnr
from .retrack import fit_block, svd_filter_stream
from .simulate import NoiseSpec, clean_block, corrupt, make_trajectory
from .solver import denoise_stream

TABLE1_SWH_RANGE = (3.4, 5.4)
TABLE1_TAU_RANGE_M = (14.3, 15.0)
TABLE1_PU_RANGE = (150.0, 190.0)
TABLE1_M_LIST = (50, 100, 250, 500, 1000, 2500, 5000)

SWEEP_SWH_LIST = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
SWEEP_TAU_GATES = 31.0
SWEEP_PU = 130.0

DEFAULT_LOOKS = 90.0
DEFAULT_SVD_THRESHOLD = 0.84
DEFAULT_CHUNK = 500

TRAJ_STREAM = 1
NOISE_STREAM = 2


def derive_seed(*parts: int) -> int:
    """Stable 64-bit child seed from integer parts (documented derivation)."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def run_table1(
    num_signals: int = 5000,
    m_list=TABLE1_M_LIST,
    looks: float = DEFAULT_LOOKS,
    seed: int = 0,
    consts: BrownConstants | None = None,
) -> dict:
    consts = consts or jason2_like()
    traj = make_trajectory(
        "smooth-random",
        num_signals,
        swh_range=TABLE1_SWH_RANGE,
        tau_range=TABLE1_TAU_RANGE_M,
        pu_range=TABLE1_PU_RANGE,
        seed=derive_seed(seed, TRAJ_STREAM),
        consts=consts,
    )
    clean = clean_block(traj, consts)
    noisy = corrupt(clean, NoiseSpec(looks=looks, seed=derive_seed(seed, NOISE_STREAM)))
    input_rsnr_db = rsnr(clean, noisy)

    rows = []
    for m in m_list:
        start = time.perf_counter()
        denoised = denoise_stream(noisy, int(m))
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "filter_length": int(m),
                "rsnr_db": rsnr(clean, denoised),
                "ms_per_signal": 1000.0 * elapsed / num_signals,
            }
        )
    return {"input_rsnr_db": input_rsnr_db, "rows": rows}


def _sweep(swh_list, runs, looks, seed, consts, svd_threshold, chunk):
    """Per SWH (its own speckle stream): trajectory, clean block, and the noisy
    block as ls with its SVD-filtered (svd) and denoised (sse) versions."""
    tau = float(gates_to_meters(SWEEP_TAU_GATES, consts))
    for i, swh in enumerate(swh_list):
        traj = make_trajectory("constant", runs, swh=float(swh), tau=tau, pu=SWEEP_PU)
        clean = clean_block(traj, consts)
        noisy = corrupt(clean, NoiseSpec(looks=looks, seed=derive_seed(seed, NOISE_STREAM, i)))
        yield traj, clean, {"ls": noisy, "svd": svd_filter_stream(noisy, chunk, svd_threshold),
                            "sse": denoise_stream(noisy, chunk)}


def run_table2(
    swh_list=SWEEP_SWH_LIST,
    runs: int = 500,
    looks: float = DEFAULT_LOOKS,
    seed: int = 0,
    consts: BrownConstants | None = None,
    svd_threshold: float = DEFAULT_SVD_THRESHOLD,
    chunk: int = DEFAULT_CHUNK,
) -> dict:
    consts = consts or jason2_like()
    rows = []
    for traj, clean, versions in _sweep(swh_list, runs, looks, seed, consts, svd_threshold, chunk):
        rows.append({"swh": float(traj.swh[0]), "rsnr_svd": rsnr(clean, versions["svd"]),
                     "rsnr_sse": rsnr(clean, versions["sse"])})
    return {"rows": rows}


def run_fig4(
    swh_list=SWEEP_SWH_LIST,
    runs: int = 500,
    looks: float = DEFAULT_LOOKS,
    seed: int = 0,
    consts: BrownConstants | None = None,
    svd_threshold: float = DEFAULT_SVD_THRESHOLD,
    chunk: int = DEFAULT_CHUNK,
) -> dict:
    consts = consts or jason2_like()
    rows = []
    for traj, _, versions in _sweep(swh_list, runs, looks, seed, consts, svd_threshold, chunk):
        fitted = {label: fit_block(block, consts).params for label, block in versions.items()}
        row = {"swh": float(traj.swh[0])}
        for name in PARAM_NAMES:
            for label, params in fitted.items():
                row[f"rmse_{name}_{label}"] = rmse(getattr(params, name), getattr(traj, name))
        rows.append(row)
    return {"rows": rows}
