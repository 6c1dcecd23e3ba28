"""End-to-end invariances of the CLI pipeline, run through ``cli.main``.

Each test runs the same work twice in ways that should not matter, and
compares the written files.
"""

import numpy as np
import pytest

from altismooth import blockio
from altismooth.cli import main

# Each bound is 7-12 times the largest gap measured over seeds 1-5, 7, 11 and
# 901: denoised 1.4e-14 of the block maximum; swh 4.5e-6, tau 1.3e-7, pu 8.2e-8
# and residual 6.1e-11 relative, where each order's fit stops (retrack.FTOL).
DENOISED_GAP = 1e-13
FIT_GAPS = {"swh_m": 5e-5, "tau_m": 1e-6, "pu": 9e-7, "residual": 5e-10}
# 11 times the largest gap of denoise(a Y) from a denoise(Y), over seeds 1-5, 7,
# 11 and 901 at a in {1e-6, 3, 1e6}: 6.5e-11 of the block maximum (seed 2, a = 3)
SCALE_GAP = 7e-10
# 8-10 times the largest relative gap of estimate(a Y) from estimate(Y), pu and
# residual divided by a, over the same seeds at a in {1e-8, 1e-6, 3, 1e6, 1e8}:
# swh 1.5e-15, tau 2.5e-16, pu 2.0e-16 and residual 7.3e-16
ESTIMATE_SCALE_GAPS = {"swh_m": 1.5e-14, "tau_m": 2e-15, "pu": 2e-15, "residual": 7e-15}


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


@pytest.mark.parametrize("seed", [7, 901, 3])
def test_estimate_amplitude_scaling(tmp_path, seed):
    # retracking a Y gives the same swh and tau and a times the pu and
    # residual: bit for bit when a is a power of two, else within
    # ESTIMATE_SCALE_GAPS.  The input is the noisy block, not a denoised one,
    # whose own scale gap would hide retracking's
    run("generate", "--n", 1000, "--seed", seed, "--out-dir", tmp_path)
    noisy = blockio.read_block(tmp_path / "noisy.blk")
    run("estimate", "--input", tmp_path / "noisy.blk", "--output", tmp_path / "est.csv")
    want = np.genfromtxt(tmp_path / "est.csv", delimiter=",", names=True)
    for scale in (2.0**-30, 2.0**20, 1e-8, 1e-6, 3.0, 1e6, 1e8):
        blockio.write_block(tmp_path / "scaled.blk", scale * noisy)
        run("estimate", "--input", tmp_path / "scaled.blk", "--output", tmp_path / "out.csv")
        got = np.genfromtxt(tmp_path / "out.csv", delimiter=",", names=True)
        for name, bound in ESTIMATE_SCALE_GAPS.items():
            unit = scale if name in ("pu", "residual") else 1.0
            if np.frexp(scale)[0] == 0.5:
                assert np.array_equal(got[name], unit * want[name]), name
            else:
                assert np.all(np.abs(got[name] / unit - want[name])
                              <= bound * np.abs(want[name])), name
