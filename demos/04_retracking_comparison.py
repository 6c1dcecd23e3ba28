#!/usr/bin/env python3
"""Retracking with and without filtering.

Fits the waveform model to every signal of a constant-parameter block three
ways: raw signals, SVD-truncated signals, and denoised signals.  The block
has one true parameter triplet, so the per-signal scatter of the estimates
is the estimator noise.
"""

from altismooth import (
    NoiseSpec,
    clean_block,
    corrupt,
    denoise_stream,
    fit_block,
    gates_to_meters,
    jason2_like,
    make_trajectory,
    rmse,
    svd_filter_stream,
)

consts = jason2_like()
runs = 80
truth = (2.0, float(gates_to_meters(31, consts)), 130.0)
traj = make_trajectory("constant", runs, swh=truth[0], tau=truth[1], pu=truth[2])
clean = clean_block(traj, consts)
noisy = corrupt(clean, NoiseSpec(looks=90, seed=11))

versions = {
    "plain LS": noisy,
    "SVD-LS (84% energy)": svd_filter_stream(noisy, runs, 0.84),
    "denoise-LS": denoise_stream(noisy, runs),
}

print(f"{runs} constant-parameter signals, true (swh, tau, pu) = "
      f"({truth[0]}, {truth[1]:.2f}, {truth[2]})\n")
header = (f"{'method':22s} {'rmse(swh) m':>12s} {'rmse(tau) m':>12s} {'rmse(pu)':>10s}"
          f" {'grid cols':>10s}")
print(header)
print("-" * len(header))
for label, block in versions.items():
    fits = fit_block(block, consts)  # one FitResult whose fields are per-signal arrays
    p = fits.params
    errors = [rmse(est, true) for est, true in zip((p.swh, p.tau, p.pu),
                                                   (traj.swh, traj.tau, traj.pu))]
    grid = (~fits.warm).sum()
    print(f"{label:22s} {errors[0]:12.4f} {errors[1]:12.4f} {errors[2]:10.4f} {grid:10d}")

print("\ngrid cols: signals whose fit ran the full five-start grid instead of "
      "a warm start from the latest fit with swh > 0")
print("\nnote: on constant-parameter blocks the energy rule keeps a single "
      "singular component, which collapses all SVD-filtered signals onto one "
      "shape; its swh/tau scatter is then artificially tiny while the "
      "denoiser keeps honest per-signal variation")
