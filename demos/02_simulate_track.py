#!/usr/bin/env python3
"""Build a synthetic track: smooth parameters, clean block, speckled block.

The multiplicative multilook noise model means each sample is scaled by a
Gamma(L, 1/L) gain; with L = 90 looks the realised corruption lands at an
input reconstruction SNR of about 10*log10(90) ~ 19.5 dB regardless of the
instrument constants.
"""

import numpy as np

from altismooth import (
    NoiseSpec,
    clean_block,
    corrupt,
    jason2_like,
    make_trajectory,
    rsnr,
)

consts = jason2_like()

traj = make_trajectory(
    "smooth-random", 2000,
    swh_range=(3.4, 5.4),        # meters
    tau_range=(14.3, 15.0),      # meters
    pu_range=(150.0, 190.0),
    seed=7,
    consts=consts,
)
print(f"trajectory of {traj.swh.size} signals")
for name, series in (("swh", traj.swh), ("tau", traj.tau), ("pu", traj.pu)):
    step = np.abs(np.diff(series)).max()
    print(f"  {name:3s}: range [{series.min():8.3f}, {series.max():8.3f}], "
          f"largest step {step:.4f}")

clean = clean_block(traj, consts)
print(f"\nclean block: {clean.shape[0]} gates x {clean.shape[1]} signals")

for looks in (30, 90, 1000):
    noisy = corrupt(clean, NoiseSpec(looks=looks, seed=42))
    print(f"  L={looks:5d} looks -> input RSNR {rsnr(clean, noisy):6.2f} dB "
          f"(expected ~{10 * np.log10(looks):.2f})")

# One generator stream per block, drawn signal by signal, makes the
# corruption reproducible: the first m columns get the same draws whatever
# the width of the block.
noisy = corrupt(clean, NoiseSpec(looks=90, seed=42))
again = corrupt(clean[:, :100], NoiseSpec(looks=90, seed=42))
assert np.array_equal(noisy[:, :100], again)
print("\nfirst 100 columns reproduce exactly when generated alone")
