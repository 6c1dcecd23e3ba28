import numpy as np
import pytest

import altismooth as alt
from altismooth import NonFiniteError, ShapeMismatchError, gmrf, solver
from altismooth.gmrf import VARIANCE_FLOOR
from altismooth.kernels import (DEFAULT_LENGTHSCALE, JITTER, CovarianceBasis,
                                build_correlation, decompose)
from altismooth.solver import (
    SolverState,
    _sweep,
    chunk_slices,
    denoise,
    denoise_stream,
)

import oracles
from conftest import peak_bytes
from oracles import cost_from_stats, prior_energy


# 10 times the largest gap measured at a in {1e-6, 1e-3, 0.3, 3, 5, 1e3, 1e6}
# over seeds 1-5, 7, 11, 17, 901 and 1207 (1.9e-10, seed 1 at a = 3)
SCALE_GAP = 2e-9


def brown_block(consts, num_signals, seed, looks=90.0):
    traj = alt.make_trajectory(
        "smooth-random", num_signals, swh_range=(3.4, 5.4),
        tau_range=(14.3, 15.0), pu_range=(150.0, 190.0), seed=seed,
        consts=consts,
    )
    clean = alt.clean_block(traj, consts)
    noisy = alt.corrupt(clean, alt.NoiseSpec(looks=looks, seed=seed + 1))
    return clean, noisy


class TestCost:
    def test_single_gate_single_signal_hand_value(self):
        # K=1, M=1, y=s=3, all variances and auxiliaries 1, couplings 2:
        # noise side: shape (2 + 0.5 + 1) * log 1 + (0 + 4)/2 = 2
        # energy side: (9 + 4)/2 = 6.5; aux logs vanish => total 8.5
        basis = decompose(np.ones(1))
        state = SolverState(denoised=np.array([[3.0]]), variances=np.ones((2, 1)),
                            aux=np.ones((2, 1)))
        got = oracles.cost(state, np.array([[3.0]]), basis, (2.0, 2.0))
        assert got == pytest.approx(8.5, rel=1e-12)

    def test_matches_naive_oracle_on_random_states(self):
        rng = np.random.default_rng(3)
        for K, M in ((1, 1), (5, 3), (104, 20)):
            resid = rng.uniform(0.0, 30.0, K)
            quads = rng.uniform(0.0, 30.0, K)
            nv, na, ev, ea = (rng.uniform(0.1, 5.0, K) for _ in range(4))
            got = cost_from_stats(resid, quads, np.stack((nv, ev)), np.stack((na, ea)),
                                  (2.0, 3.0), M)
            want = oracles.naive_cost(nv, na, 2.0, resid, ev, ea, 3.0, quads, M)
            assert got == pytest.approx(want, rel=1e-12)

    def test_doubling_one_aux_changes_cost_analytically(self):
        rng = np.random.default_rng(4)
        K, M = 12, 7
        resid = rng.uniform(0.0, 30.0, K)
        quads = rng.uniform(0.0, 30.0, K)
        zeta = 2.0
        nv, na, ev, ea = (rng.uniform(0.1, 5.0, K) for _ in range(4))
        variances, aux = np.stack((nv, ev)), np.stack((na, ea))
        base = cost_from_stats(resid, quads, variances, aux, (zeta, 3.0), M)
        k = 5  # interior noise aux, couples variances[0, 4] and variances[0, 5]
        w = aux[0, k]
        bumped = aux.copy()
        bumped[0, k] = 2.0 * w
        got_delta = cost_from_stats(resid, quads, variances, bumped, (zeta, 3.0), M) - base
        want_delta = -(2 * zeta - 1) * np.log(2.0) + zeta * w * (1.0 / nv[k - 1] + 1.0 / nv[k])
        assert got_delta == pytest.approx(want_delta, rel=1e-10)

    def test_rejects_non_positive_state(self):
        basis = decompose(build_correlation(1))
        state = SolverState(denoised=np.array([[1.0]]), variances=np.ones((2, 1)),
                            aux=np.ones((2, 1)))
        state.variances[0] = -1.0  # a non-positive noise variance
        with pytest.raises(NonFiniteError):
            oracles.cost(state, np.array([[1.0]]), basis, (2.0, 2.0))


class TestDenoise:
    def test_initialisation_follows_contract(self, consts, monkeypatch):
        # in units of g**2, noise starts at each gate's mean square in the
        # dropped modes and energy at its mean square; with no mode dropped,
        # noise starts at the energy value; each auxiliary starts at its
        # conditional mode given the floored start
        _, noisy = brown_block(consts, 40, seed=9)
        starts, aux_starts = [], []

        def initial_chain(v, c, build=gmrf.initial_chain):
            variances, aux = build(v, c)
            starts.append((v, c))
            aux_starts.append(aux.copy())  # as it was before the sweeps
            return variances, aux

        monkeypatch.setattr(gmrf, "initial_chain", initial_chain)
        cutoffs = (solver.MODE_CUTOFF, 0.0)
        assert denoise(noisy).modes < 40
        monkeypatch.setattr(solver, "MODE_CUTOFF", 0.0)
        assert denoise(noisy).modes == 40
        for (start, coupling), aux, cutoff in zip(starts, aux_starts, cutoffs, strict=True):
            want = oracles.dense_start(noisy, DEFAULT_LENGTHSCALE, JITTER, cutoff)
            np.testing.assert_allclose(start, want, rtol=1e-8)
            assert np.array_equal(coupling, solver.COUPLING)
            for v, a, c in zip(np.maximum(start, VARIANCE_FLOOR), aux, coupling):
                np.testing.assert_allclose(a, oracles.naive_aux_modes(v, c), rtol=1e-14)
        assert np.array_equal(starts[1][0][0], starts[1][0][1])
        assert 0.5 <= np.mean(noisy**2) / oracles.unit(noisy) < 2.0

    def test_descent_and_convergence(self, consts):
        clean, noisy = brown_block(consts, 200, seed=5)
        state = denoise(noisy)
        trace = np.array(state.cost_trace)
        assert state.stop_reason == "converged"
        assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]))
        assert alt.rsnr(clean, state.denoised) > alt.rsnr(clean, noisy) + 5.0

    def test_noiseless_block_passes_through(self, consts):
        clean, _ = brown_block(consts, 150, seed=6)
        state = denoise(clean)
        assert alt.rsnr(clean, state.denoised) >= 40.0

    def test_single_signal_degenerates_to_shrinkage(self, consts):
        _, noisy = brown_block(consts, 1, seed=7)
        state = denoise(noisy)
        assert state.stop_reason == "converged"
        assert state.iterations <= 100
        assert np.all(np.isfinite(state.denoised))

    def test_stationarity_at_convergence(self, consts):
        _, noisy = brown_block(consts, 120, seed=8)
        basis = decompose(build_correlation(120, DEFAULT_LENGTHSCALE), solver.MODE_CUTOFF)
        state = denoise(noisy, basis)
        assert state.stop_reason == "converged"
        r = state.modes
        kept = CovarianceBasis(basis.vectors[:, -r:], basis.precision_eigvals[-r:])
        coeffs = noisy @ kept.vectors
        tail = (noisy**2).sum(axis=1) - (coeffs**2).sum(axis=1)
        weighted = np.stack([coeffs**2, coeffs**2 * kept.precision_eigvals])
        filt, variances, aux, _ = _sweep(weighted, tail, kept, state.variances, state.aux,
                                         np.array(solver.COUPLING))
        denoised = (filt * coeffs) @ kept.vectors.T

        def rel(a, b):
            return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)

        assert rel(denoised, state.denoised) <= 10 * solver.XI
        for chain in (0, 1):  # noise, energy
            assert rel(variances[chain], state.variances[chain]) <= 10 * solver.XI
            assert rel(aux[chain], state.aux[chain]) <= 10 * solver.XI

    @pytest.mark.parametrize("cutoff, tol", [(solver.MODE_CUTOFF, 1e-6), (0.0, 1e-12)],
                             ids=["default-cutoff", "no-cutoff"])
    def test_matches_dense_reference_solver(self, consts, monkeypatch, cutoff, tol):
        # independent coordinate-descent loop on the full model, dense solves
        # throughout; without a cutoff the solver keeps every mode
        monkeypatch.setattr(solver, "MODE_CUTOFF", cutoff)
        _, noisy = brown_block(consts, 40, seed=10)
        monkeypatch.setattr(solver, "XI", 1e-15)
        monkeypatch.setattr(solver, "T_MAX", 12)
        fast = denoise(noisy).denoised
        zeta, eta = solver.COUPLING

        K, M = noisy.shape
        idx = np.arange(M, dtype=float)
        corr = np.exp(-((idx[:, None] - idx[None, :]) / DEFAULT_LENGTHSCALE) ** 2)
        corr[np.diag_indices(M)] += JITTER

        # the solver's start, each auxiliary at its conditional mode, and its
        # units: g**2, g the power of two nearest the RMS
        nv, ev = np.maximum(oracles.dense_start(noisy, DEFAULT_LENGTHSCALE, JITTER, cutoff),
                            VARIANCE_FLOOR)
        g = np.sqrt(oracles.unit(noisy))
        y = noisy / g
        na = oracles.naive_aux_modes(nv, zeta)
        ea = oracles.naive_aux_modes(ev, eta)
        dense = None
        for _ in range(solver.T_MAX):
            dense = np.empty_like(y)
            quads = np.empty(K)
            for k in range(K):
                lhs = (nv[k] / ev[k]) * np.eye(M) + corr
                dense[k] = np.linalg.solve(lhs, corr @ y[k])
                quads[k] = dense[k] @ np.linalg.solve(corr, dense[k])
            resid = ((y - dense) ** 2).sum(axis=1)
            for arr, aux, stats, c in ((nv, na, resid, zeta), (ev, ea, quads, eta)):
                for k in range(K):
                    if k == K - 1:
                        arr[k] = (stats[k] + 2 * c * aux[k]) / (2 * c + M + 2)
                    else:
                        arr[k] = (stats[k] + 2 * c * (aux[k] + aux[k + 1])) / (4 * c + M + 2)
                    arr[k] = max(arr[k], VARIANCE_FLOOR)
                aux[0] = (2 * c - 1) * arr[0] / c
                for k in range(1, K):
                    aux[k] = (2 * c - 1) / (c * (1 / arr[k - 1] + 1 / arr[k]))

        rel = np.linalg.norm(fast / g - dense) / np.linalg.norm(dense)
        assert rel <= tol

    def test_kept_modes(self, consts, monkeypatch):
        _, noisy = brown_block(consts, 500, seed=15)
        assert denoise(noisy).modes <= 60
        assert denoise(noisy[:, :1]).modes == 1
        monkeypatch.setattr(solver, "MODE_CUTOFF", 0.0)
        assert denoise(noisy).modes == 500

    def test_tail_completes_residual_power(self, consts, monkeypatch):
        # the chains' statistics, as the last sweep hands them over in units of
        # g**2, against the back-projected rows: dense residual power and
        # full-basis energy
        _, noisy = brown_block(consts, 500, seed=16)
        stats = []
        sweep = gmrf.variance_sweep
        monkeypatch.setattr(gmrf, "variance_sweep",
                            lambda a, c, s, m: stats.append(s) or sweep(a, c, s, m))
        state = denoise(noisy)
        assert state.modes < 500
        resid, quads = stats[-1] * oracles.unit(noisy)  # one call updates both chains
        np.testing.assert_allclose(resid, ((noisy - state.denoised) ** 2).sum(axis=1),
                                   rtol=1e-10)
        basis = decompose(build_correlation(500))
        np.testing.assert_allclose(quads, prior_energy(state.denoised @ basis.vectors, basis),
                                   rtol=1e-10)

    @pytest.mark.parametrize("scale", [2.0**-20, 4.0, 2.0**20, 2.0**500, 1e-6, 3.0, 5.0, 1e6])
    def test_scaled_input_scales_the_output(self, consts, scale):
        # denoise(a Y) = a denoise(Y) in the same sweeps: bit for bit when a is
        # a power of two, up to 2**500, where the row energies come within a
        # factor 1.2 of overflow and their sum overflows; else the chains see
        # powers up to 4 times apart in their units of g**2, which round apart
        for seed in (7, 901):
            _, noisy = brown_block(consts, 1000, seed=seed)
            want, states = denoise_stream(noisy, 500, with_states=True)
            got, scaled = denoise_stream(scale * noisy, 500, with_states=True)
            assert [s.iterations for s in scaled] == [s.iterations for s in states]
            if np.frexp(scale)[0] == 0.5:
                assert np.array_equal(got, scale * want)
                for a, b in zip(scaled, states, strict=True):
                    assert np.array_equal(a.variances, scale**2 * b.variances)
                    assert np.array_equal(a.aux, scale**2 * b.aux)
            else:
                assert np.abs(got / scale - want).max() <= SCALE_GAP * np.abs(want).max()

    def test_chunks_converge_in_few_sweeps(self, consts):
        # the chains start at their data and each auxiliary at its mode;
        # measured: 3 sweeps per 500-wide chunk
        for seed in (7, 901):
            _, noisy = brown_block(consts, 1000, seed=seed)
            _, states = denoise_stream(noisy, 500, with_states=True)
            assert all(s.stop_reason == "converged" and s.iterations <= 4 for s in states)

    def test_block_near_underflow_keeps_a_positive_state(self, consts):
        # at 1e-160 the squares are subnormal, and the chains' values times
        # g**2 would round to zero in input units
        _, noisy = brown_block(consts, 200, seed=17)
        state = denoise(1e-160 * noisy)
        assert np.all(np.isfinite(state.denoised))
        assert state.variances.min() > 0 and state.aux.min() > 0

    def test_input_validation(self):
        with pytest.raises(ShapeMismatchError):
            denoise(np.ones(5))
        with pytest.raises(NonFiniteError):
            denoise(np.array([[1.0, np.nan], [0.0, 1.0]]))
        basis = decompose(build_correlation(3))
        with pytest.raises(ShapeMismatchError):
            denoise(np.ones((4, 2)), basis=basis)


class TestStream:
    def test_chunk_slices_partition(self):
        slices = chunk_slices(5000, 250)
        assert len(slices) == 20
        assert slices[0] == slice(0, 250) and slices[-1] == slice(4750, 5000)
        ragged = chunk_slices(103, 25)
        assert [s.stop - s.start for s in ragged] == [25, 25, 25, 25, 3]
        one_over = chunk_slices(101, 25)  # a one-signal remainder joins the chunk before it
        assert [s.stop - s.start for s in one_over] == [25, 25, 25, 26]
        with pytest.raises(ValueError):
            chunk_slices(10, 0)

    def test_single_chunk_equals_denoise(self, consts):
        _, noisy = brown_block(consts, 60, seed=11)
        assert np.array_equal(denoise_stream(noisy, 60), denoise(noisy).denoised)

    @pytest.mark.parametrize("num_signals", [90, 100], ids=["even", "ragged-tail"])
    def test_chunks_are_independent(self, consts, num_signals):
        # each chunk, the 10-signal tail included, equals its own denoise
        _, noisy = brown_block(consts, num_signals, seed=12)
        streamed = denoise_stream(noisy, 30)
        by_hand = np.hstack([
            denoise(noisy[:, i:i + 30]).denoised for i in range(0, num_signals, 30)
        ])
        assert np.array_equal(streamed, by_hand)

    def test_last_signal_of_one_over_track_beats_its_input(self, consts):
        # N = 1 (mod M): the last signal is denoised in a 501-wide chunk, not
        # alone. Measured: 20.01 -> 20.94 dB (seed 7) and 18.76 -> 21.02 dB
        # (seed 901); alone it came out at 5.99 and 6.14 dB
        for seed in (7, 901):
            clean, noisy = brown_block(consts, 1001, seed=seed)
            out, states = denoise_stream(noisy, 500, with_states=True)
            assert [s.denoised.shape[1] for s in states] == [500, 501]
            last = np.s_[:, -1:]
            assert alt.rsnr(clean[last], out[last]) > alt.rsnr(clean[last], noisy[last])

    @pytest.mark.parametrize("chunk_len", [5, 10, 20, 30])
    def test_short_chunks_beat_their_input(self, consts, chunk_len):
        # measured over seeds 1-5, 7, 11, 17, 901 and 1207: 25.4-25.5 dB out
        # at chunk 5 and 27.2-27.7 dB at chunks 10-30, from 19.5-19.6 dB in
        for seed in (7, 901):
            clean, noisy = brown_block(consts, 1000, seed=seed)
            out = denoise_stream(noisy, chunk_len)
            assert alt.rsnr(clean, out) >= alt.rsnr(clean, noisy) + 5.0

    def test_time_reversal_equivariance(self, consts):
        _, noisy = brown_block(consts, 1000, seed=13)
        forward = denoise_stream(noisy, 500)
        backward = denoise_stream(noisy[:, ::-1], 500)[:, ::-1]
        rel = np.linalg.norm(backward - forward) / np.linalg.norm(forward)
        assert rel <= 1e-12

    def test_peak_memory(self, consts):
        # building the kept 200 x 22 basis sets the peak: the two half-size
        # eigensolves, 0.36 MB (0.50 MB when the M x M basis was filled first)
        _, noisy = brown_block(consts, 200, seed=18)
        denoise_stream(noisy, 500)
        assert peak_bytes(denoise_stream, noisy, 500) <= 0.38e6

    def test_stream_holds_its_output_and_one_chunk(self, consts):
        # chunks are back-projected straight into the output and only the kept
        # modes are built: 4.16 MB of output plus 0.58 MB, the 0.2 MB basis and
        # one chunk's scratch (0.88 MB while each chunk's result was copied in)
        _, noisy = brown_block(consts, 5000, seed=18)
        denoise_stream(noisy[:, :500], 500)
        assert peak_bytes(denoise_stream, noisy, 500) <= noisy.nbytes + 0.62e6

    def test_states_view_the_output(self, consts):
        _, noisy = brown_block(consts, 70, seed=14)
        block, states = denoise_stream(noisy, 30, with_states=True)
        for sl, state in zip(chunk_slices(70, 30), states):
            assert np.shares_memory(state.denoised, block)
            assert np.array_equal(state.denoised, block[:, sl])
            assert np.array_equal(state.denoised, denoise(noisy[:, sl]).denoised)

    def test_with_states_returns_traces(self, consts):
        _, noisy = brown_block(consts, 50, seed=14)
        block, states = denoise_stream(noisy, 20, with_states=True)
        assert len(states) == 3
        assert all(len(s.cost_trace) == s.iterations for s in states)
        assert np.array_equal(block[:, :20], states[0].denoised)
