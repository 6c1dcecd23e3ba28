#!/usr/bin/env python3
"""Denoise a speckled track with the coordinate-descent solver.

The solver treats each gate's evolution across signals as a smooth Gaussian
process and estimates, jointly with the signals, a per-gate noise variance
and a per-gate signal-energy variance, both smoothed along the gate axis by
coupled auxiliary chains.  Every update is closed-form, so each sweep is
vector work on the block's eigenbasis coefficients, and the negative log
posterior decreases monotonically until a sweep changes it by at most
solver.XI (1e-3) of its value, or for solver.T_MAX (100) sweeps; like the
couplings and the kernel lengthscale, these are the paper's fixed settings.
Only the leading eigenmodes of the smoothness kernel are kept; the rest sit
at the kernel's jitter, and their energy is counted as noise.
The chains start from each gate's measured energy and the energy of its
dropped modes, in units of g**2 with g the power of two nearest the block's
RMS, so scaling the input by a power of two scales the output exactly.
"""

from altismooth import (
    NoiseSpec,
    clean_block,
    corrupt,
    denoise,
    denoise_stream,
    jason2_like,
    make_trajectory,
    rsnr,
)

consts = jason2_like()
traj = make_trajectory("smooth-random", 1500, swh_range=(3.4, 5.4),
                       tau_range=(14.3, 15.0), pu_range=(150.0, 190.0),
                       seed=3, consts=consts)
clean = clean_block(traj, consts)
noisy = corrupt(clean, NoiseSpec(looks=90, seed=4))
print(f"track: {noisy.shape[0]} x {noisy.shape[1]}, "
      f"input RSNR {rsnr(clean, noisy):.2f} dB\n")

# One 500-signal block, watching the cost trace.
state = denoise(noisy[:, :500])
print("single 500-signal block:")
print(f"  stopped: {state.stop_reason} after {state.iterations} sweeps")
print("  cost trace (units of g**2):", "  ".join(f"{v:.4g}" for v in state.cost_trace))
print(f"  output RSNR {rsnr(clean[:, :500], state.denoised):.2f} dB")
scaled = denoise(4.0 * noisy[:, :500])
assert (scaled.denoised == 4.0 * state.denoised).all(), "denoise(4 Y) != 4 denoise(Y)"
print("  denoise(4 Y) equals 4 denoise(Y) bit for bit\n")

# The estimated noise variances track the speckle's signal-dependent power.
mid = 60
sigma2 = state.variances[0, mid]  # row 0: the noise chain
expected = (clean[mid, :500] ** 2).mean() / 90.0
print(f"estimated noise variance at gate {mid + 1}: {sigma2:8.2f} "
      f"(speckle theory says ~{expected:.2f})\n")

# Chunked processing of the whole track; chunk width trades runtime for a
# slightly better posterior (longer smoothness context).  The kept eigenmodes
# grow far slower than the width.
for chunk in (100, 250, 500, 1500):
    out, states = denoise_stream(noisy, chunk, with_states=True)
    print(f"  chunk {chunk:5d}: output RSNR {rsnr(clean, out):6.2f} dB, "
          f"{states[0].modes:3d} eigenmodes kept")
