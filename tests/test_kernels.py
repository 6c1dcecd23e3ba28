import numpy as np
import pytest
import scipy.linalg

from altismooth import NotPositiveDefiniteError, build_correlation, decompose
from altismooth.kernels import JITTER, shrinkage_filter
from altismooth.solver import MODE_CUTOFF

import oracles
from conftest import peak_bytes
from oracles import prior_energy


def posterior_mean(row, noise_var, energy_var, basis):
    """The denoiser's route: shrink the row's basis coefficients, back-project."""
    coeffs = row[None, :] @ basis.vectors
    filt = shrinkage_filter(np.array([noise_var]), np.array([energy_var]), basis)
    return ((filt * coeffs) @ basis.vectors.T)[0]


def quadratic_form(row, basis):
    return prior_energy(row[None, :] @ basis.vectors, basis)[0]


def random_tuple(rng, size):
    row = rng.normal(0.0, 3.0, size)
    noise_var = float(rng.uniform(0.05, 5.0))
    energy_var = float(rng.uniform(0.05, 5.0))
    return row, noise_var, energy_var


def dense_kernel(size, lengthscale=30.0):
    """The jittered SE correlation matrix whose first row build_correlation returns."""
    return oracles.dense_correlation(size, lengthscale, JITTER)


class TestBuildCorrelation:
    def test_singleton(self):
        row = build_correlation(1)
        assert row.shape == (1,)
        assert row[0] == pytest.approx(1.0 + 1e-8, rel=0, abs=1e-18)

    def test_entries_at_lag_thirty(self):
        row = build_correlation(64, lengthscale=30.0)
        assert row.shape == (64,)
        assert row[0] == pytest.approx(1.0 + 1e-8, rel=1e-15)
        assert row[30] == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_large_matrix_factorises_with_jitter(self):
        # condition number before jitter is astronomic; with it, bounded
        eigvals = np.linalg.eigvalsh(dense_kernel(500))
        assert eigvals[0] > 0
        assert eigvals[-1] / eigvals[0] < 1e11

    @pytest.mark.parametrize("size", [1, 2, 3, 64, 201, 500])
    def test_matches_dense_lag_formula_bit_for_bit(self, size):
        for lengthscale in (30.0, 7.3, 1.5):
            row = build_correlation(size, lengthscale=lengthscale)
            assert np.array_equal(scipy.linalg.toeplitz(row), dense_kernel(size, lengthscale))

    def test_tiny_lengthscale_gives_the_jittered_identity_row(self):
        # each lag's square overflows to inf, and exp(-inf) is exactly 0, without a warning
        assert build_correlation(5, 1e-300).tolist() == [1.0 + JITTER, 0.0, 0.0, 0.0, 0.0]

    def test_zero_jitter_fails_at_scale(self):
        with pytest.raises(NotPositiveDefiniteError):
            decompose(oracles.dense_correlation(400, 30.0, 0.0)[0])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_correlation(0)
        with pytest.raises(ValueError):
            build_correlation(5, lengthscale=-1.0)


class TestDecompose:
    def test_identity_dominant_limit(self):
        # jitter-dominated diagonal matrix behaves like the identity
        basis = decompose(build_correlation(1))
        assert basis.precision_eigvals[0] == pytest.approx(1.0 / (1.0 + 1e-8), rel=1e-14)

    def test_orthonormal_and_reconstructs(self):
        corr = dense_kernel(200)
        basis = decompose(build_correlation(200, lengthscale=30.0))
        gram = basis.vectors.T @ basis.vectors
        assert np.abs(gram - np.eye(200)).max() <= 1e-10
        # V diag(r) V^T against the LU-route inverse; both routes carry
        # O(cond * eps) ~ 1e-6 fuzz at cond ~ 5e9, so the comparison can
        # only certify agreement down to that floor, not below it
        inv = np.linalg.solve(corr, np.eye(200))
        rebuilt = (basis.vectors * basis.precision_eigvals) @ basis.vectors.T
        rel = np.linalg.norm(rebuilt - inv) / np.linalg.norm(inv)
        assert rel <= 1e-5

    def test_reconstructs_exactly_when_well_conditioned(self):
        # at sizes where the kernel is honestly invertible the stated 1e-8
        # reconstruction accuracy is met outright
        corr = dense_kernel(4, lengthscale=1.5)
        basis = decompose(build_correlation(4, lengthscale=1.5))
        inv = np.linalg.solve(corr, np.eye(4))
        rebuilt = (basis.vectors * basis.precision_eigvals) @ basis.vectors.T
        rel = np.linalg.norm(rebuilt - inv) / np.linalg.norm(inv)
        assert rel <= 1e-8

    def test_eigenvalues_are_reciprocals(self):
        corr = dense_kernel(120)
        basis = decompose(build_correlation(120, lengthscale=30.0))
        kernel_eigs = np.linalg.eigvalsh(corr)  # ascending
        # eigenvalue agreement is absolute (|err| <~ eps*||H||); tiny
        # jitter-floor eigenvalues therefore only match to cond-limited
        # relative accuracy
        err = np.abs(np.sort(1.0 / basis.precision_eigvals) - kernel_eigs)
        assert err.max() <= 1e-12 * kernel_eigs.max()
        well = kernel_eigs > 1e-4
        rel = err[well] / kernel_eigs[well]
        assert rel.max() <= 1e-8

    def test_descending_order_and_idempotence(self):
        row = build_correlation(150, lengthscale=30.0)
        a = decompose(row)
        b = decompose(row)
        assert np.all(np.diff(a.precision_eigvals) <= 0)
        assert np.array_equal(a.precision_eigvals, b.precision_eigvals)
        assert np.array_equal(a.vectors, b.vectors)


class TestSplitBasis:
    """The two half-size eigensolves against one full-size eigh."""

    @pytest.mark.parametrize("size", [1, 2, 3, 200, 201, 500])
    def test_matches_full_eigendecomposition(self, size):
        corr = dense_kernel(size)
        basis = decompose(build_correlation(size))
        vectors, kernel_eigs = basis.vectors, 1.0 / basis.precision_eigvals
        assert np.abs(vectors.T @ vectors - np.eye(size)).max() <= 1e-12
        rebuilt = (vectors * kernel_eigs) @ vectors.T
        assert np.abs(rebuilt - corr).max() <= 1e-12
        full_eigs, full_vectors = scipy.linalg.eigh(corr)
        assert np.all(np.diff(kernel_eigs) >= 0)
        assert np.abs(kernel_eigs - full_eigs).max() <= 1e-12 * full_eigs[-1]
        # every mode is exactly symmetric or antisymmetric under reversal
        reversed_ = vectors[::-1]
        assert np.all(np.all(reversed_ == vectors, axis=0) | np.all(reversed_ == -vectors, axis=0))
        # eigenvectors are unique only up to their eigenspace: compare the
        # projectors onto the modes the solver keeps.  Next to the cutoff the
        # eigengap is ~5e-7 against lambda_max ~ 53, and LAPACK's own full-size
        # drivers (evr, evd, ev) disagree there by up to 3.3e-10
        kept = kernel_eigs >= MODE_CUTOFF * kernel_eigs[-1]
        full_kept = full_eigs >= MODE_CUTOFF * full_eigs[-1]
        assert np.array_equal(kept, full_kept)
        ours = vectors[:, kept] @ vectors[:, kept].T
        theirs = full_vectors[:, full_kept] @ full_vectors[:, full_kept].T
        assert np.abs(ours - theirs).max() <= 1e-9

    @pytest.mark.parametrize("size", [*range(1, 40), 64, 199, 200, 201, 500, 501])
    def test_kept_modes_are_the_trailing_modes_bit_for_bit(self, size):
        for lengthscale in (30.0, 7.3, 1.5):
            row = build_correlation(size, lengthscale)
            full, kept = decompose(row), decompose(row, MODE_CUTOFF)
            prec = full.precision_eigvals
            r = int(np.count_nonzero(prec * MODE_CUTOFF <= prec[-1]))
            assert kept.vectors.shape == (size, r) and kept.vectors.flags.c_contiguous
            assert np.array_equal(kept.vectors, full.vectors[:, size - r:])
            assert np.array_equal(kept.precision_eigvals, prec[size - r:])

    def test_kept_basis_transient_stays_near_the_basis(self):
        # the kept 500 x 49 modes are read from views of each half's trailing
        # eigenvectors, so the two half-size eigensolves set the peak: 1.05 x
        # 8 M^2 bytes (1.52 x when the M x M basis was filled and then cut)
        size = 500
        decompose(build_correlation(size), MODE_CUTOFF)
        peak = peak_bytes(lambda: decompose(build_correlation(size), MODE_CUTOFF))
        assert peak <= 1.1 * 8 * size**2

    def test_basis_transient_stays_near_the_basis(self):
        # the M x M basis and the two half-size eigenvector sets it is filled
        # from are 1.5 x 8 M^2 bytes; the M x M correlation matrix is never formed
        size = 500
        decompose(build_correlation(size))
        assert peak_bytes(lambda: decompose(build_correlation(size))) <= 1.6 * 8 * size**2

    def test_non_positive_antisymmetric_mode_fails(self):
        # [[1, 2], [2, 1]] has the symmetric mode 3 and the antisymmetric mode -1
        with pytest.raises(NotPositiveDefiniteError):
            decompose(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.ones((2, 2)), np.ones((1, 1)), np.empty(0), 1.0],
                             ids=["matrix", "1x1", "empty", "scalar"])
    def test_rejects_anything_but_a_non_empty_row(self, bad):
        with pytest.raises(ValueError, match="1-D first row"):
            decompose(bad)


class TestPosteriorMeanFast:
    def test_noiseless_limit_returns_row(self):
        basis = decompose(build_correlation(50))
        rng = np.random.default_rng(0)
        row = rng.normal(0, 2, 50)
        out = posterior_mean(row, 1e-30, 1.0, basis)
        assert np.abs(out - row).max() <= 1e-6 * np.abs(row).max()

    def test_zero_energy_limit_returns_zero(self):
        basis = decompose(build_correlation(50))
        rng = np.random.default_rng(1)
        row = rng.normal(0, 2, 50)
        out = posterior_mean(row, 1.0, 1e-30, basis)
        assert np.abs(out).max() <= 1e-12 * np.abs(row).max()

    def test_cached_coeffs_match(self):
        # the denoiser projects all rows once and filters that stack every
        # sweep; each row of the stacked filter equals its single-row filter
        basis = decompose(build_correlation(40))
        rng = np.random.default_rng(2)
        rows = rng.normal(0, 1, (6, 40))
        noise_var = rng.uniform(0.05, 5.0, 6)
        energy_var = rng.uniform(0.05, 5.0, 6)
        coeffs = rows @ basis.vectors
        stacked = shrinkage_filter(noise_var, energy_var, basis) * coeffs
        for k in range(6):
            single = shrinkage_filter(noise_var[k:k + 1], energy_var[k:k + 1], basis)
            assert np.array_equal(stacked[k], single[0] * coeffs[k])

    @pytest.mark.parametrize("size", [10, 50, 200])
    def test_matches_dense_solve(self, size):
        corr = dense_kernel(size)
        basis = decompose(build_correlation(size))
        rng = np.random.default_rng(size)
        for _ in range(25):
            row, noise_var, energy_var = random_tuple(rng, size)
            fast = posterior_mean(row, noise_var, energy_var, basis)
            dense = oracles.dense_posterior_mean(row, noise_var, energy_var,
                                                 corr)
            assert np.linalg.norm(fast - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_shrinkage_ordering(self):
        basis = decompose(build_correlation(80))
        rng = np.random.default_rng(7)
        for _ in range(20):
            row, noise_var, energy_var = random_tuple(rng, 80)
            filt = shrinkage_filter(np.array([noise_var]), np.array([energy_var]),
                                    basis)
            assert np.all(filt > 0) and np.all(filt < 1)
            out = posterior_mean(row, noise_var, energy_var, basis)
            assert np.linalg.norm(out) <= np.linalg.norm(row) * filt.max() * (1 + 1e-12)


class TestPriorQuadraticForm:
    def test_zero_vector(self):
        basis = decompose(build_correlation(30))
        assert quadratic_form(np.zeros(30), basis) == 0.0

    def test_identity_dominant(self):
        # a one-sample chain is its own identity correlation
        basis = decompose(np.ones(1))
        val = quadratic_form(np.array([3.0]), basis)
        assert val == pytest.approx(9.0, rel=1e-12)

    def test_matches_dense_quadratic_smooth_vectors(self):
        # the solver only evaluates the form on filtered (smooth) rows; rows
        # in the kernel's range space, row = C z, carry the analytic identity
        # row^T C^-1 row = z^T C z, giving two independent references
        corr = dense_kernel(50)
        basis = decompose(build_correlation(50))
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = rng.normal(0, 2, 50)
            row = corr @ z
            analytic = float(z @ corr @ z)
            dense = float(row @ np.linalg.solve(corr, row))
            got = quadratic_form(row, basis)
            assert got == pytest.approx(analytic, rel=1e-8)
            assert got == pytest.approx(dense, rel=1e-8)
            assert got >= 0.0

    def test_matches_dense_quadratic_rough_vectors(self):
        # rough vectors push the value onto jitter-floor eigenvalues where
        # every double-precision route has ~cond*eps relative fuzz
        corr = dense_kernel(50)
        basis = decompose(build_correlation(50))
        inv = np.linalg.solve(corr, np.eye(50))
        rng = np.random.default_rng(10)
        for _ in range(20):
            row = rng.normal(0, 2, 50)
            want = float(row @ inv @ row)
            got = quadratic_form(row, basis)
            assert got == pytest.approx(want, rel=1e-5)
            assert got >= 0.0
