import numpy as np
import pytest

from altismooth import DegenerateInputError, ShapeMismatchError
from altismooth.metrics import rmse, rsnr, std, std_20hz

from conftest import peak_bytes


class TestRsnr:
    def test_perfect_reconstruction_saturates(self):
        block = np.arange(12.0).reshape(3, 4) + 1
        assert rsnr(block, block.copy()) == np.inf

    def test_tenth_energy_residual_is_ten_db(self):
        clean = np.full((2, 5), np.sqrt(10.0))
        est = clean + 1.0  # residual energy is clean energy / 10
        assert rsnr(clean, est) == pytest.approx(10.0, rel=1e-12)

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(0)
        clean = rng.normal(0, 1, (6, 7))
        est = clean + rng.normal(0, 0.1, (6, 7))
        for scale in (4.0, 2.0**-600, 2.0**500):  # the energies underflow or overflow unscaled
            assert rsnr(scale * clean, scale * est) == rsnr(clean, est)

    def test_residual_squared_in_place(self):
        # the same sums as the textbook formula, from one block-sized temporary;
        # numpy reuses (clean - est) for its square on its own only from 256 KiB up
        rng = np.random.default_rng(3)
        clean = rng.normal(0, 1, (104, 200))
        est = clean + rng.normal(0, 0.1, clean.shape)
        want = 10.0 * np.log10(float(np.sum(clean**2)) / float(np.sum((clean - est) ** 2)))
        assert rsnr(clean, est) == want
        assert peak_bytes(rsnr, clean, est) <= 1.05 * clean.nbytes

    def test_errors(self):
        with pytest.raises(ShapeMismatchError):
            rsnr(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(DegenerateInputError):
            rsnr(np.zeros((2, 2)), np.ones((2, 2)))


class TestRmseStd:
    def test_exact_estimates_have_zero_rmse(self):
        x = np.linspace(0, 1, 9)
        assert rmse(x, x.copy()) == 0.0

    def test_constant_bias(self):
        x = np.linspace(0, 1, 9)
        assert rmse(x + 0.25, x) == pytest.approx(0.25, rel=1e-14)

    def test_rmse_length_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            rmse(np.zeros(5), np.zeros(4))

    def test_std_of_constant_is_zero(self):
        assert std(np.full(10, 3.3)) == 0.0

    def test_std_two_point_series(self):
        assert std(np.array([1.5, -1.5])) == pytest.approx(1.5, rel=1e-14)

    def test_population_identity(self):
        # rmse^2 = std^2 + bias^2 against a constant truth, population norm
        rng = np.random.default_rng(1)
        estimates = rng.normal(5.0, 2.0, 1000)
        truth = np.full(1000, 4.2)
        lhs = rmse(estimates, truth) ** 2
        rhs = std(estimates) ** 2 + (estimates.mean() - 4.2) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestStd20Hz:
    def test_constant_series(self):
        assert std_20hz(np.full(100, 7.0)) == 0.0

    def test_linear_ramp_closed_form(self):
        # detrended-by-window-mean ramp: population std c*sqrt((w^2-1)/12)
        c = 0.37
        x = c * np.arange(1000)
        want = c * np.sqrt((20.0**2 - 1.0) / 12.0)
        assert std_20hz(x) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(c * 5.766, rel=1e-3)

    def test_never_exceeds_global_std(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(20, 200))
            x = rng.normal(0, rng.uniform(0.1, 5.0), n)
            if rng.random() < 0.3:
                x += np.linspace(0, rng.uniform(0, 10), n)  # add drift
            assert std_20hz(x) <= std(x) + 1e-12

    def test_trailing_partial_window_uses_own_mean(self):
        # 25 samples: windows [0..19] and [20..24]; constant within each
        x = np.concatenate([np.full(20, 1.0), np.full(5, 99.0)])
        assert std_20hz(x) == 0.0

    def test_requires_full_window(self):
        with pytest.raises(ValueError):
            std_20hz(np.ones(19))

