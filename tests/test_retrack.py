import dataclasses
import json

import numpy as np
import pytest

import altismooth as alt
from altismooth import BrownParams, brown_jacobian, brown_waveform, retrack
from altismooth.retrack import (
    TAU_GRID_FRACTIONS,
    WARM_COST_RATIO,
    fit_block,
    ls_fit,
    svd_filter,
    svd_filter_stream,
    truncation_rank,
)

from conftest import column, peak_bytes, single_start


def exact_waveform(consts, swh=2.0, tau_gates=31.0, pu=130.0):
    p = BrownParams(swh=swh, tau=float(alt.gates_to_meters(tau_gates, consts)), pu=pu)
    return p, brown_waveform(p, consts)


class TestLsFit:
    def test_exact_fixed_point(self, consts):
        truth, y = exact_waveform(consts)
        fit, diverged = single_start(y, consts, triplet(truth))
        assert fit.converged and not diverged
        assert fit.iterations <= 2
        assert fit.residual_norm <= 1e-9
        assert fit.params.swh == pytest.approx(truth.swh, abs=1e-9)
        assert fit.params.tau == pytest.approx(truth.tau, abs=1e-9)
        assert fit.params.pu == pytest.approx(truth.pu, abs=1e-9)

    def test_recovers_exact_waveform_from_default_start(self, consts):
        truth, y = exact_waveform(consts, swh=3.0, tau_gates=35.0, pu=160.0)
        fit = ls_fit(y, consts)
        assert fit.converged
        assert fit.params.swh == pytest.approx(truth.swh, abs=1e-6)
        assert fit.params.tau == pytest.approx(truth.tau, abs=1e-6)
        assert fit.params.pu == pytest.approx(truth.pu, abs=1e-6)

    def test_recovery_matches_grid_polish_oracle(self, consts):
        # small additive noise; reference optimum from a coarse 3-D grid
        # around the truth followed by trust-polishing each grid winner
        truth, y0 = exact_waveform(consts)
        rng = np.random.default_rng(0)
        y = y0 + rng.normal(0.0, 0.5, y0.shape)
        fit = ls_fit(y, consts)

        def cost(theta):
            w = brown_waveform(BrownParams(*theta), consts)
            return float(((y - w) ** 2).sum())

        best = None
        for swh in np.linspace(1.0, 3.0, 5):
            for dtau in np.linspace(-1.0, 1.0, 5):
                for pu in np.linspace(110.0, 150.0, 5):
                    cand, diverged = single_start(y, consts, [swh, truth.tau + dtau, pu])
                    assert not diverged
                    if best is None or cand.residual_norm < best.residual_norm:
                        best = cand
        assert fit.residual_norm <= best.residual_norm * (1 + 1e-9)
        # agreement with the polished oracle optimum
        assert fit.params.swh == pytest.approx(best.params.swh, abs=1e-5)
        assert fit.params.tau == pytest.approx(best.params.tau, abs=1e-6)
        assert cost([fit.params.swh, fit.params.tau, fit.params.pu]) == \
            pytest.approx(fit.residual_norm**2, rel=1e-9)

    def test_gradient_vanishes_at_optimum(self, consts):
        truth, y0 = exact_waveform(consts)
        rng = np.random.default_rng(1)
        for trial in range(5):
            y = y0 * rng.gamma(90.0, 1.0 / 90.0, y0.shape)
            fit = ls_fit(y, consts)
            resid = y - brown_waveform(fit.params, consts)
            grad = brown_jacobian(fit.params, consts).T @ resid
            # scale-aware stationarity: each gradient component measured
            # against the curvature of its own axis
            jac = brown_jacobian(fit.params, consts)
            scales = np.sqrt((jac**2).sum(axis=0)) * fit.residual_norm
            active = np.array([fit.params.swh > 0, True, fit.params.pu > 0])
            assert np.all(np.abs(grad[active]) <= 1e-5 * scales[active])

    def test_speckled_block_estimates_center_on_truth(self, consts):
        truth, y0 = exact_waveform(consts)
        block = np.repeat(y0[:, None], 60, axis=1)
        noisy = alt.corrupt(block, alt.NoiseSpec(looks=90.0, seed=2))
        fits = fit_block(noisy, consts)
        assert fits.converged.all()
        assert abs(np.median(fits.params.swh) - truth.swh) <= 0.3
        assert abs(np.median(fits.params.tau) - truth.tau) <= 0.05

    def test_monte_carlo_rmse_bands(self, consts):
        # 500 independent speckle draws of the same waveform, refit each:
        # per-parameter RMSE must land in the reference bands (+/- 30%)
        truth, y0 = exact_waveform(consts)
        block = np.repeat(y0[:, None], 500, axis=1)
        noisy = alt.corrupt(block, alt.NoiseSpec(looks=90.0, seed=9))
        est = triplet(fit_block(noisy, consts).params)
        rmse = np.sqrt(((est - triplet(truth)) ** 2).mean(axis=0))
        assert 0.40 * 0.7 <= rmse[0] <= 0.40 * 1.3      # swh, meters
        assert 0.06 * 0.7 <= rmse[1] <= 0.06 * 1.3      # tau, meters
        assert 2.00 * 0.7 <= rmse[2] <= 2.00 * 1.3      # pu

    def test_default_fit_is_best_of_grid_starts(self, consts):
        # the default fit equals, bit for bit, the lowest-residual single-start
        # fit over the epoch grid, the earliest start winning ties.  Costs are
        # compared before the square root, which can merge neighbouring costs.
        assert len(set(TAU_GRID_FRACTIONS)) == len(TAU_GRID_FRACTIONS)
        _, y0 = exact_waveform(consts)
        noisy = alt.corrupt(np.repeat(y0[:, None], 6, axis=1),
                            alt.NoiseSpec(looks=90.0, seed=0))
        winners = []
        for y in noisy.T:
            best, best_cost, best_index = None, None, None
            for i, frac in enumerate(TAU_GRID_FRACTIONS):
                start = [2.0, frac * consts.window_meters, max(y.max(), 1e-6)]
                cand, diverged = single_start(y, consts, start)
                if diverged:
                    continue
                resid = y - brown_waveform(cand.params, consts)
                cost = float(resid @ resid)
                if best is None or cost < best_cost:
                    best, best_cost, best_index = cand, cost, i
            assert ls_fit(y, consts) == best
            winners.append(best_index)
        assert any(i != 0 for i in winners)

    def test_traced_fields_are_json_scalars(self, consts):
        # the traced benchmark records iterations and converged of every call
        # in its JSON export, which rejects NumPy integers
        _, y = exact_waveform(consts)
        fit = ls_fit(y, consts)
        fields = [fit.iterations, fit.converged, fit.residual_norm, *triplet(fit.params)]
        assert type(fit.iterations) is int and type(fit.converged) is bool
        assert json.loads(json.dumps(fields)) == fields

    def test_rejects_bad_waveform(self, consts):
        with pytest.raises(ValueError):
            ls_fit(np.ones(10), consts)
        y = np.ones(consts.num_gates)
        y[0] = np.nan
        with pytest.raises(ValueError):
            ls_fit(y, consts)


def track(consts, kind, n, seed, denoised):
    """n speckled 90-look signals of a constant or smooth-random track."""
    if kind == "constant":
        traj = alt.make_trajectory("constant", n, swh=2.0, pu=130.0,
                                   tau=float(alt.gates_to_meters(31.0, consts)))
    else:
        traj = alt.make_trajectory("smooth-random", n, seed=seed, swh_range=(3.4, 5.4),
                                   tau_range=(14.3, 15.0), pu_range=(150.0, 190.0))
    noisy = alt.corrupt(alt.clean_block(traj, consts), alt.NoiseSpec(looks=90.0, seed=seed))
    return alt.denoise_stream(noisy, n) if denoised else noisy


def cost(fit):
    return fit.residual_norm**2


def columns(fits):
    return [column(fits, m) for m in range(fits.warm.size)]


def record_fits(monkeypatch, change_warm=lambda out: out):
    """Wrap retrack._lm_fit to log each call's waveforms, starts and outcome.

    fit_block passes a warm batch one waveform per start, ls_fit a single
    waveform.  Each warm batch's outcome is passed through change_warm
    before fit_block sees it.
    """
    real, calls = retrack._lm_fit, []

    def recorded(y, consts, starts):
        out = real(y, consts, starts)
        if np.ndim(y) == 2:
            out = change_warm(out)
        calls.append((np.array(y), np.array(starts), out))
        return out

    monkeypatch.setattr(retrack, "_lm_fit", recorded)
    return calls


def warm_batches(calls):
    """(waveforms, starts, outcome) of each warm batch, in call order."""
    return [call for call in calls if call[0].ndim == 2]


def triplet(params):
    """(swh, tau, pu) of scalar params, or an N x 3 array of a batch's triplets."""
    return np.array([params.swh, params.tau, params.pu]).T


class TestFitBlock:
    @pytest.mark.parametrize("kind, seed, n, chunk", [
        pytest.param("constant", 12, 120, 120, id="constant-12"),
        pytest.param("smooth-random", 13, 120, 120, id="smooth-random-13"),
        *(pytest.param("smooth-random", seed, 600, chunk, id=f"{name}-{seed}")
          for seed in (7, 901) for name, chunk in (("raw", None), ("denoised", 500))),
    ])
    def test_time_reversal(self, consts, kind, seed, n, chunk):
        # warm starts make a column's fit depend on the visiting order; on
        # smooth tracks both orders must still reach the same minima.  The
        # largest relative gaps measured on the 600-signal tracks: 3.5e-7
        # (swh), 5.5e-9 (tau), 3.9e-9 (pu) and 2.1e-14 (cost) at seeds 7 and
        # 901; 5.6e-7, 1.3e-8, 9.4e-9 and 4.2e-14 at seeds 1-5.  They come
        # from where LM's step test stops.
        block = track(consts, kind, n, seed, denoised=False)
        if chunk is not None:
            block = alt.denoise_stream(block, chunk)
        forward = fit_block(block, consts)
        backward = fit_block(block[:, ::-1], consts)
        assert forward.warm.sum() >= n - 10
        assert np.all(np.abs(cost(backward)[::-1] - cost(forward)) <= 1e-13 * cost(forward))
        rel = np.abs(triplet(backward.params)[::-1] / triplet(forward.params) - 1.0)
        assert np.all(rel <= [1e-6, 5e-8, 5e-8])

    @pytest.mark.parametrize("denoised", [False, True])
    def test_no_column_above_grid_cost(self, consts, denoised):
        block = track(consts, "constant", 80, 14, denoised)
        fits = fit_block(block, consts)
        assert fits.warm.sum() >= 70
        grid = np.array([cost(ls_fit(y, consts)) for y in block.T])
        assert np.all(cost(fits) <= grid * (1 + 1e-9))

    def test_returns_one_batch(self, consts):
        # one FitResult of length-N arrays, column m's fit at index m
        block = track(consts, "smooth-random", 40, 20, denoised=True)
        fits = fit_block(block, consts)
        p = fits.params
        for field, kind in ((p.swh, "f"), (p.tau, "f"), (p.pu, "f"), (fits.residual_norm, "f"),
                            (fits.iterations, "i"), (fits.converged, "b"), (fits.warm, "b")):
            assert field.shape == (40,) and field.dtype.kind == kind
        assert column(fit_block(block[:, :1], consts), 0) == ls_fit(block[:, 0], consts)

    def test_rejects_bad_block_before_fitting(self, consts, monkeypatch):
        block = track(consts, "constant", 40, 15, denoised=False)
        poisoned = block.copy()
        poisoned[50, -1] = np.nan
        calls = record_fits(monkeypatch)
        for bad, message in ((poisoned, "finite"), (block[1:], "gates"), (block[:, 0], "gates")):
            with pytest.raises(ValueError, match=message):
                fit_block(bad, consts)
        assert calls == []

    def test_peak_memory_stays_near_the_block(self, consts):
        # fitting copies one batch of columns at a time, never the whole 1.33 MB
        # track: the peak is one batch's scratch and the five result arrays
        # (0.08 MB), 0.41 MB in all; 1600 per-column results took 0.90 MB, and
        # carrying every start's jacobian instead of its normal equations 0.49 MB
        traj = alt.make_trajectory("smooth-random", 1600, seed=19, swh_range=(3.4, 5.4),
                                   tau_range=(14.3, 15.0), pu_range=(150.0, 190.0))
        noisy = alt.corrupt(alt.clean_block(traj, consts), alt.NoiseSpec(looks=90.0, seed=19))
        block = alt.denoise_stream(noisy, 500)
        assert peak_bytes(fit_block, block, consts) <= 0.44e6

    def test_each_batch_starts_from_latest_swh_positive_fit(self, consts, monkeypatch):
        # 70 columns: the grid fits column 0, then three warm batches follow
        block = track(consts, "constant", 70, 15, denoised=False)
        calls = record_fits(monkeypatch)
        fits = fit_block(block, consts)
        bounds = [(1, 33), (33, 65), (65, 70)]
        assert retrack.FIT_BATCH == 32 and len(warm_batches(calls)) == len(bounds)
        assert column(fits, 0) == ls_fit(block[:, 0], consts)
        for (lo, hi), (ys, starts, _) in zip(bounds, warm_batches(calls)):
            anchor = np.flatnonzero(fits.params.swh[:lo] > 0)[-1]
            assert np.array_equal(ys, block[:, lo:hi].T)
            assert np.array_equal(starts, [triplet(fits.params)[anchor]] * (hi - lo))
            for m in range(lo, hi):
                fit = column(fits, m)
                if fit.warm:
                    alone, _ = single_start(block[:, m], consts, starts[0])
                    assert fit == dataclasses.replace(alone, warm=True)
                else:
                    assert fit == ls_fit(block[:, m], consts)
        assert fits.warm.sum() >= 65

    def _swh0_block(self, consts):
        # speckled swh = 0 waveforms, picked from twelve draws so that the grid
        # fits column 0 at swh > 0 and columns 1 and 2 on the swh = 0 boundary
        _, y0 = exact_waveform(consts, swh=0.0)
        draws = alt.corrupt(np.repeat(y0[:, None], 12, axis=1), alt.NoiseSpec(looks=90.0, seed=1))
        fits = [ls_fit(y, consts) for y in draws.T]
        on_boundary = [m for m, fit in enumerate(fits) if fit.params.swh == 0]
        above = [m for m, fit in enumerate(fits) if fit.params.swh > 0]
        picked = above[:1] + on_boundary[:2]
        block, grid = draws[:, picked], [fits[m] for m in picked]
        assert grid[0].params.swh > 0 and grid[1].params.swh == 0 == grid[2].params.swh
        return block, grid

    def test_warm_fit_on_swh0_runs_grid(self, consts, monkeypatch):
        block, grid = self._swh0_block(consts)
        calls = record_fits(monkeypatch)
        fits = fit_block(block[:, :2], consts)
        (_, starts, (theta, warm_cost, _, converged, _)), = warm_batches(calls)
        assert np.array_equal(starts, [triplet(grid[0].params)])
        assert theta[0, 0] == 0 and converged[0]
        assert warm_cost[0] <= WARM_COST_RATIO * cost(grid[0])  # only swh = 0 rejects it
        assert columns(fits) == grid[:2] and not fits.warm[1]

    def test_swh0_fit_is_never_an_anchor(self, consts, monkeypatch):
        # one column per batch: column 0's grid fit is on swh = 0, so column 1
        # runs the grid too; column 2's warm fit falls back to a grid fit on
        # swh = 0, so column 3 starts from column 1's, the latest with swh > 0
        block, grid = self._swh0_block(consts)
        monkeypatch.setattr(retrack, "FIT_BATCH", 1)
        calls = record_fits(monkeypatch)
        fits = fit_block(block[:, [1, 0, 1, 1]], consts)
        starts = [starts for _, starts, _ in warm_batches(calls)]
        assert np.array_equal(starts, [[triplet(grid[0].params)]] * 2)
        assert columns(fits) == [grid[1], grid[0], grid[1], grid[1]]

    def test_diverged_warm_fit_runs_grid(self, consts, monkeypatch):
        # a negated jacobian at the warm start's epoch sends it uphill; a
        # start that accepts no step keeps its epoch, so no grid start is hit
        block = track(consts, "constant", 2, 16, denoised=False)
        grid = [ls_fit(y, consts) for y in block.T]
        real = retrack.brown_jacobian

        def negated(params, c):
            jac = real(params, c)
            hit = np.atleast_1d(params.tau) == grid[0].params.tau
            jac[hit] = -jac[hit]
            return jac

        monkeypatch.setattr(retrack, "brown_jacobian", negated)
        calls = record_fits(monkeypatch)
        fits = fit_block(block, consts)
        (_, starts, (_, _, _, _, diverged)), = warm_batches(calls)
        assert np.array_equal(starts, [triplet(grid[0].params)])
        assert diverged[0]
        assert columns(fits) == grid

    def test_costly_warm_fit_runs_grid(self, consts, monkeypatch):
        # after an exact waveform any speckle costs far above the ratio
        _, y0 = exact_waveform(consts)
        noisy = alt.corrupt(y0[:, None], alt.NoiseSpec(looks=90.0, seed=17))[:, 0]
        grid = [ls_fit(y0, consts), ls_fit(noisy, consts)]
        calls = record_fits(monkeypatch)
        fits = fit_block(np.column_stack([y0, noisy]), consts)
        (_, starts, (theta, warm_cost, _, converged, _)), = warm_batches(calls)
        assert np.array_equal(starts, [triplet(grid[0].params)])
        assert converged[0] and theta[0, 0] > 0
        assert warm_cost[0] > WARM_COST_RATIO * cost(grid[0])
        assert columns(fits) == grid

    def test_unconverged_warm_fit_runs_grid(self, consts, monkeypatch):
        block = track(consts, "constant", 2, 18, denoised=False)
        grid = [ls_fit(y, consts) for y in block.T]

        def unconverged(out):
            theta, warm_cost, iterations, converged, diverged = out
            assert converged[0]
            return theta, warm_cost, iterations, np.zeros_like(converged), diverged

        calls = record_fits(monkeypatch, unconverged)
        fits = fit_block(block, consts)
        (_, starts, _), = warm_batches(calls)
        assert np.array_equal(starts, [triplet(grid[0].params)])
        assert columns(fits) == grid


class TestSvdFilter:
    def test_threshold_one_keeps_everything(self):
        rng = np.random.default_rng(3)
        block = rng.normal(0, 1, (24, 40))
        out = svd_filter(block, 1.0)
        assert np.linalg.norm(out - block) <= 1e-10 * np.linalg.norm(block)

    def test_rank_one_block_reproduced_exactly(self):
        u = np.linspace(1.0, 2.0, 30)[:, None]
        v = np.linspace(-1.0, 1.0, 50)[None, :]
        block = u * v
        out = svd_filter(block, 0.84)
        assert np.linalg.norm(out - block) <= 1e-10 * np.linalg.norm(block)

    def test_truncation_rank_semantics(self):
        s = np.array([3.0, 2.0, 1.0])  # energies 9, 4, 1 -> fractions 9/14, 13/14, 1
        assert truncation_rank(s, 0.5) == 1
        assert truncation_rank(s, 9.0 / 14.0) == 1  # exact crossing is inclusive
        assert truncation_rank(s, 0.7) == 2
        assert truncation_rank(s, 0.95) == 3
        assert truncation_rank(s, 1.0) == 3
        assert truncation_rank(np.zeros(3), 0.84) == 0

    def test_output_rank_bounded(self):
        rng = np.random.default_rng(4)
        block = rng.normal(0, 1, (20, 35))
        sing = np.linalg.svd(block, compute_uv=False)
        rank = truncation_rank(sing, 0.84)
        out = svd_filter(block, 0.84)
        out_rank = np.linalg.matrix_rank(out, tol=1e-8 * sing[0])
        assert out_rank <= rank

    def test_idempotent_on_gapped_spectra(self, consts):
        # the protocol blocks have a dominant spectral gap; reapplying the
        # filter keeps the same components (for gapless adversarial spectra
        # the energy-crossing rule can retrench, so the property is checked
        # on the blocks the pipeline actually filters)
        truth, y0 = exact_waveform(consts)
        block = np.repeat(y0[:, None], 80, axis=1)
        noisy = alt.corrupt(block, alt.NoiseSpec(looks=90.0, seed=5))
        once = svd_filter(noisy, 0.84)
        twice = svd_filter(once, 0.84)
        assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)

    def test_eckart_young_against_independent_decomposition(self):
        rng = np.random.default_rng(6)
        block = rng.normal(0, 1, (12, 18)) + 5.0 * np.outer(
            np.ones(12), rng.normal(0, 1, 18)
        )
        sing = np.linalg.svd(block, compute_uv=False)
        rank = truncation_rank(sing, 0.84)
        out = svd_filter(block, 0.84)
        # independent rank-k approximation from the eigendecomposition of
        # the gram matrix; truncated SVD must not lose to it
        eigvals, eigvecs = np.linalg.eigh(block @ block.T)
        proj = eigvecs[:, -rank:] @ eigvecs[:, -rank:].T
        rival = proj @ block
        err_svd = np.linalg.norm(block - out)
        err_rival = np.linalg.norm(block - rival)
        assert err_svd <= err_rival * (1 + 1e-10)

    def test_zero_block_filters_to_zeros(self):
        # rank 0: the empty truncated product is the zero block, chunk by chunk too
        block = np.zeros((104, 5))
        assert np.array_equal(svd_filter(block, 0.84), block)
        assert np.array_equal(svd_filter_stream(block, 2, 0.84), block)

    def test_threshold_validation(self):
        block = np.ones((3, 3))
        with pytest.raises(ValueError):
            svd_filter(block, 0.0)
        with pytest.raises(ValueError):
            svd_filter(block, 1.2)

    def test_stream_mirrors_chunking(self):
        rng = np.random.default_rng(7)
        block = rng.normal(0, 1, (10, 50))
        streamed = svd_filter_stream(block, 20, 0.9)
        by_hand = np.hstack([
            svd_filter(block[:, :20], 0.9),
            svd_filter(block[:, 20:40], 0.9),
            svd_filter(block[:, 40:], 0.9),
        ])
        assert np.array_equal(streamed, by_hand)
