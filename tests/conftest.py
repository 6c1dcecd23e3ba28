import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable

from altismooth import BrownParams, jason2_like, retrack
from altismooth.retrack import FitResult


def peak_bytes(fn, *args):
    """Peak traced allocation, in bytes, while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def single_start(y, consts, start):
    """``retrack._lm_fit`` from one start: its fit as a FitResult, and whether it diverged."""
    theta, cost, iterations, converged, diverged = retrack._lm_fit(y, consts, [start])
    fit = FitResult(BrownParams(*theta[0].tolist()), float(np.sqrt(cost[0])),
                    int(iterations[0]), bool(converged[0]))
    return fit, bool(diverged[0])


def column(fits, m):
    """Column m of a ``fit_block`` batch as the scalar FitResult ``ls_fit`` returns."""
    p = fits.params
    return FitResult(BrownParams(float(p.swh[m]), float(p.tau[m]), float(p.pu[m])),
                     float(fits.residual_norm[m]), int(fits.iterations[m]),
                     bool(fits.converged[m]), bool(fits.warm[m]))


@pytest.fixture(scope="session")
def consts():
    return jason2_like()
