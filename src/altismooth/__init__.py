"""Denoising of smooth successive-waveform tracks, with Brown-model tools.

The package bundles:

* a Brown ocean-return waveform model with analytic jacobian (``brown``),
* synthetic track and speckle-noise generation (``simulate``),
* a coordinate-descent MAP denoiser with chain-smoothed per-gate noise and
  energy variances (``solver``, ``gmrf``, ``kernels``),
* least-squares retracking and an SVD-truncation baseline (``retrack``),
* quality metrics (``metrics``) and benchmark suites (``bench``),
* block/trajectory file formats and run manifests (``blockio``),
* the ``altismooth`` command-line front end (``cli``).
"""

__version__ = "0.1.0"

from .brown import (
    BrownConstants,
    BrownParams,
    brown_jacobian,
    brown_waveform,
    gates_to_meters,
    jason2_like,
    load_constants,
    waveform_block,
)
from .errors import (
    AltismoothError,
    BadRangeError,
    DegenerateInputError,
    DivergedError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
)
from .gmrf import VarianceChain
from .kernels import CovarianceBasis, build_correlation, decompose
from .metrics import rmse, rsnr, std, std_20hz
from .retrack import FitResult, fit_block, ls_fit, svd_filter, svd_filter_stream
from .simulate import NoiseSpec, clean_block, corrupt, make_trajectory
from .solver import SolverConfig, SolverState, denoise, denoise_stream

__all__ = [
    "AltismoothError",
    "BadRangeError",
    "BrownConstants",
    "BrownParams",
    "CovarianceBasis",
    "DegenerateInputError",
    "DivergedError",
    "FitResult",
    "NoiseSpec",
    "NonFiniteError",
    "NotPositiveDefiniteError",
    "ShapeMismatchError",
    "SolverConfig",
    "SolverState",
    "VarianceChain",
    "brown_jacobian",
    "brown_waveform",
    "build_correlation",
    "clean_block",
    "corrupt",
    "decompose",
    "denoise",
    "denoise_stream",
    "fit_block",
    "gates_to_meters",
    "jason2_like",
    "load_constants",
    "ls_fit",
    "make_trajectory",
    "rmse",
    "rsnr",
    "std",
    "std_20hz",
    "svd_filter",
    "svd_filter_stream",
    "waveform_block",
]
