"""End-to-end invariances of the CLI pipeline, run through ``cli.main``.

Each test runs the same work twice in ways that should not matter, and
compares the written files.  The amplitude relation covers the denoiser
only: retracking's stop rule, a step-norm test over swh, tau and pu, is not
scale-free yet (ROADMAP item 4).
"""

import numpy as np
import pytest

from altismooth import blockio
from altismooth.cli import main

# Each bound is 7-12 times the largest gap measured over seeds 1-5, 7, 11 and
# 901: denoised 1.4e-14 of the block maximum; swh 5.9e-8, tau 1.2e-9, pu 8.5e-10
# and residual 3.7e-14 relative.
DENOISED_GAP = 1e-13
FIT_GAPS = {"swh_m": 5e-7, "tau_m": 1e-8, "pu": 1e-8, "residual": 3e-13}
# 11 times the largest gap of denoise(a Y) from a denoise(Y), over seeds 1-5, 7,
# 11 and 901 at a in {1e-6, 3, 1e6}: 6.5e-11 of the block maximum (seed 2, a = 3)
SCALE_GAP = 7e-10


def run(*argv):
    assert main([str(a) for a in argv]) == 0


def denoise_and_estimate(noisy, d):
    """Denoise at chunk 500 and retrack the result; the denoised block and the estimates."""
    run("denoise", "--input", noisy, "--output", d / "denoised.blk", "--chunk", 500)
    run("estimate", "--input", d / "denoised.blk", "--output", d / "est.csv")
    est = np.genfromtxt(d / "est.csv", delimiter=",", names=True)
    return blockio.read_block(d / "denoised.blk"), est


@pytest.mark.parametrize("seed", [7, 901, 3])
def test_time_reversal(tmp_path, seed):
    # reversing the signal order reverses the denoised block and the estimates
    run("generate", "--n", 1000, "--seed", seed, "--out-dir", tmp_path)
    (tmp_path / "rev").mkdir()
    noisy = blockio.read_block(tmp_path / "noisy.blk")
    blockio.write_block(tmp_path / "rev" / "noisy.blk", noisy[:, ::-1])
    denoised, est = denoise_and_estimate(tmp_path / "noisy.blk", tmp_path)
    rev_denoised, rev_est = denoise_and_estimate(tmp_path / "rev" / "noisy.blk",
                                                 tmp_path / "rev")
    gap = np.abs(rev_denoised[:, ::-1] - denoised).max()
    assert gap <= DENOISED_GAP * np.abs(denoised).max()
    for name, bound in FIT_GAPS.items():
        want, got = est[name], rev_est[name][::-1]
        assert np.all(np.abs(got - want) <= bound * np.abs(want)), name


def test_chunk_scheduling(tmp_path):
    # a 1000-signal block denoised at chunk 250 equals, bit for bit, its four
    # 250-signal quarters denoised alone
    run("generate", "--n", 1000, "--seed", 7, "--out-dir", tmp_path)
    noisy = blockio.read_block(tmp_path / "noisy.blk")
    run("denoise", "--input", tmp_path / "noisy.blk", "--output", tmp_path / "whole.blk",
        "--chunk", 250)
    quarters = []
    for q in range(4):
        blockio.write_block(tmp_path / f"q{q}.blk", noisy[:, 250 * q:250 * (q + 1)])
        run("denoise", "--input", tmp_path / f"q{q}.blk", "--output", tmp_path / f"d{q}.blk",
            "--chunk", 250)
        quarters.append(blockio.read_block(tmp_path / f"d{q}.blk"))
    whole = blockio.read_block(tmp_path / "whole.blk")
    assert whole.tobytes() == np.ascontiguousarray(np.hstack(quarters)).tobytes()


@pytest.mark.parametrize("seed", [7, 901, 3])
def test_amplitude_scaling(tmp_path, seed):
    # scaling the input by a scales the denoised block by a: bit for bit when
    # a is a power of two, up to 2**500 where the row energies near overflow,
    # else within SCALE_GAP of the block maximum
    run("generate", "--n", 1000, "--seed", seed, "--out-dir", tmp_path)
    noisy = blockio.read_block(tmp_path / "noisy.blk")
    run("denoise", "--input", tmp_path / "noisy.blk", "--output", tmp_path / "denoised.blk",
        "--chunk", 500)
    want = blockio.read_block(tmp_path / "denoised.blk")
    for scale in (2.0**-20, 4.0, 2.0**500, 1e-6, 3.0, 1e6):
        blockio.write_block(tmp_path / "scaled.blk", scale * noisy)
        run("denoise", "--input", tmp_path / "scaled.blk", "--output", tmp_path / "out.blk",
            "--chunk", 500)
        got = blockio.read_block(tmp_path / "out.blk")
        if np.frexp(scale)[0] == 0.5:
            assert got.tobytes() == (scale * want).tobytes()
        else:
            assert np.abs(got / scale - want).max() <= SCALE_GAP * np.abs(want).max()
