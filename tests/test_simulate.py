import numpy as np
import pytest

import altismooth as alt
from altismooth import BadRangeError, DegenerateInputError, NoiseSpec, rsnr
from altismooth.blockio import write_trajectory_csv
from altismooth.simulate import NOISE_MODES, corrupt, make_trajectory

from conftest import peak_bytes


class TestTrajectories:
    def test_constant_replicates_rows(self, consts):
        tau = float(alt.gates_to_meters(31.0, consts))
        traj = make_trajectory("constant", 500, swh=2.0, tau=tau, pu=130.0)
        assert isinstance(traj, alt.BrownParams)
        assert traj.swh.size == 500
        assert np.all(traj.swh == 2.0)
        assert np.all(traj.tau == tau)
        assert np.all(traj.pu == 130.0)
        assert (traj.swh[123], traj.tau[123], traj.pu[123]) == (2.0, tau, 130.0)

    def test_smooth_random_respects_ranges(self, consts):
        traj = make_trajectory(
            "smooth-random", 5000, swh_range=(3.4, 5.4),
            tau_range=(14.3, 15.0), pu_range=(150.0, 190.0), seed=0,
            consts=consts,
        )
        assert traj.swh.min() >= 3.4 and traj.swh.max() <= 5.4
        assert traj.tau.min() >= 14.3 and traj.tau.max() <= 15.0
        assert traj.pu.min() >= 150.0 and traj.pu.max() <= 190.0
        # the series actually explores its range rather than sitting still
        assert traj.swh.max() - traj.swh.min() > 1.0

    def test_smoothness_steps_bounded(self):
        traj = make_trajectory(
            "smooth-random", 2000, swh_range=(3.4, 5.4),
            tau_range=(14.3, 15.0), pu_range=(150.0, 190.0), seed=1,
        )
        steps = np.abs(np.diff([traj.swh, traj.tau, traj.pu], axis=1)).max(axis=1)
        spans = np.array([2.0, 0.7, 40.0])
        assert np.all(steps <= 0.05 * spans)  # far below the 25% cap

    def test_single_row_is_trivially_smooth(self, tmp_path):
        traj = make_trajectory(
            "smooth-random", 1, swh_range=(1.0, 2.0), tau_range=(10.0, 11.0),
            pu_range=(100.0, 110.0), seed=2,
        )
        assert traj.swh.size == 1
        assert np.diff([traj.swh, traj.tau, traj.pu], axis=1).size == 0
        # no step at all passes the file kind's step cap
        write_trajectory_csv(tmp_path / "one.csv", traj)
        assert make_trajectory("file", 1, path=tmp_path / "one.csv").swh.size == 1

    def test_determinism(self):
        kwargs = dict(swh_range=(3.4, 5.4), tau_range=(14.3, 15.0),
                      pu_range=(150.0, 190.0))
        a = make_trajectory("smooth-random", 300, seed=7, **kwargs)
        b = make_trajectory("smooth-random", 300, seed=7, **kwargs)
        c = make_trajectory("smooth-random", 300, seed=8, **kwargs)
        assert np.array_equal(a.swh, b.swh) and np.array_equal(a.pu, b.pu)
        assert not np.array_equal(a.swh, c.swh)

    def test_bad_ranges_raise(self, consts):
        with pytest.raises(BadRangeError):
            make_trajectory("smooth-random", 10, swh_range=(-1.0, 2.0),
                            tau_range=(10.0, 11.0), pu_range=(1.0, 2.0))
        with pytest.raises(BadRangeError):
            make_trajectory("smooth-random", 10, swh_range=(2.0, 1.0),
                            tau_range=(10.0, 11.0), pu_range=(1.0, 2.0))
        with pytest.raises(BadRangeError):
            # epoch outside the observation window
            make_trajectory("constant", 5, swh=2.0, tau=1e5, pu=1.0,
                            consts=consts)
        with pytest.raises(ValueError):
            make_trajectory("nonsense", 10)

    @pytest.mark.parametrize("field", ["swh", "tau", "pu"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_raise(self, tmp_path, field, bad):
        values = {"swh": 2.0, "tau": 14.0, "pu": 130.0}
        bad_row = {**values, field: bad}
        with pytest.raises(BadRangeError, match="finite"):
            make_trajectory("constant", 2, **bad_row)
        # a trajectory file with one bad row
        path = tmp_path / "bad.csv"
        path.write_text("index,swh_m,tau_m,pu\n"
                        f"0,{values['swh']},{values['tau']},{values['pu']}\n"
                        f"1,{bad_row['swh']},{bad_row['tau']},{bad_row['pu']}\n")
        with pytest.raises(BadRangeError, match="finite"):
            make_trajectory("file", 2, path=path)

    @pytest.mark.parametrize("kind", ["constant", "smooth-random", "file"])
    def test_trajectory_is_a_brown_params_batch(self, consts, tmp_path, kind):
        ranges = dict(swh_range=(3.4, 5.4), tau_range=(14.3, 15.0), pu_range=(150.0, 190.0))
        source = make_trajectory("smooth-random", 40, seed=5, **ranges)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, source)
        kwargs = {"constant": dict(swh=2.0, tau=14.5, pu=130.0),
                  "smooth-random": dict(seed=5, **ranges), "file": dict(path=path)}[kind]
        traj = make_trajectory(kind, 40, consts=consts, **kwargs)
        assert isinstance(traj, alt.BrownParams)
        assert all(a.dtype == float and a.shape == (40,) for a in (traj.swh, traj.tau, traj.pu))
        assert np.array_equal(alt.brown_waveform(traj, consts), alt.clean_block(traj, consts))

    def test_clean_block_peak_stays_near_the_block(self, consts):
        # the model is evaluated in blocks of columns straight into the output,
        # its scratch 0.39 MB (0.43 MB before its terms were computed in place)
        traj = make_trajectory("smooth-random", 5000, swh_range=(3.4, 5.4),
                               tau_range=(14.3, 15.0), pu_range=(150.0, 190.0), seed=8)
        block = alt.clean_block(traj, consts)
        assert peak_bytes(alt.clean_block, traj, consts) <= block.nbytes + 0.42e6

    def test_file_round_trip(self, tmp_path):
        traj = make_trajectory("smooth-random", 50, swh_range=(3.4, 5.4),
                               tau_range=(14.3, 15.0), pu_range=(150.0, 190.0),
                               seed=3)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        loaded = make_trajectory("file", 50, path=path)
        assert np.array_equal(loaded.swh, traj.swh)
        assert np.array_equal(loaded.tau, traj.tau)
        assert np.array_equal(loaded.pu, traj.pu)


class TestSpeckle:
    def test_gain_moments(self):
        # one long column of ones exposes the raw multiplicative gains
        clean = np.ones((1000, 1000))
        noisy = corrupt(clean, NoiseSpec(looks=90.0, seed=0))
        gains = noisy.ravel()
        n = gains.size
        mean_se = np.sqrt(1.0 / 90.0 / n)
        assert abs(gains.mean() - 1.0) <= 3 * mean_se
        var = gains.var()
        var_se = np.sqrt(2.0 / (90.0**2 * n))  # approx, gamma kurtosis is tame
        assert abs(var - 1.0 / 90.0) <= 4 * var_se

    def test_large_looks_limit(self):
        clean = np.ones((1000, 1000))
        noisy = corrupt(clean, NoiseSpec(looks=1e6, seed=1))
        assert noisy.ravel().var() <= 2e-6

    def test_per_gate_std_tracks_signal(self, consts):
        tau = float(alt.gates_to_meters(31.0, consts))
        traj = make_trajectory("constant", 10_000, swh=2.0, tau=tau, pu=130.0)
        clean = alt.clean_block(traj, consts)
        noisy = corrupt(clean, NoiseSpec(looks=90.0, seed=2))
        resid_std = (noisy - clean).std(axis=1)
        expected = clean[:, 0] / np.sqrt(90.0)
        strong = clean[:, 0] > 1.0
        rel = np.abs(resid_std[strong] - expected[strong]) / expected[strong]
        assert rel.max() <= 0.05

    def test_zero_signal_gives_zero_observation(self):
        clean = np.zeros((8, 100))
        clean[4:] = 3.0
        noisy = corrupt(clean, NoiseSpec(looks=90.0, seed=3))
        assert np.all(noisy[:4] == 0.0)
        assert np.all(noisy[4:] > 0.0)

    def test_determinism_and_column_streams(self):
        clean = np.ones((16, 64))
        a = corrupt(clean, NoiseSpec(looks=90.0, seed=4))
        b = corrupt(clean, NoiseSpec(looks=90.0, seed=4))
        assert np.array_equal(a, b)
        # one stream drawn signal by signal: a narrower block reproduces
        # the same leading columns
        c = corrupt(clean[:, :10], NoiseSpec(looks=90.0, seed=4))
        assert np.array_equal(a[:, :10], c)

    def test_gaussianity_proxy_at_ninety_looks(self):
        rng_spec = NoiseSpec(looks=90.0, seed=5)
        gains = corrupt(np.ones((500, 500)), rng_spec).ravel()
        centered = gains - gains.mean()
        skew = np.mean(centered**3) / np.mean(centered**2) ** 1.5
        assert abs(skew) <= 0.25

    def test_additive_mode(self):
        clean = np.zeros((4, 2000))
        spec = NoiseSpec(looks=1, seed=6, mode="additive-gaussian",
                         noise_var=np.array([1.0, 4.0, 9.0, 16.0]))
        noisy = corrupt(clean, spec)
        stds = noisy.std(axis=1)
        assert np.allclose(stds, [1.0, 2.0, 3.0, 4.0], rtol=0.1)

    def test_additive_mode_requires_variance(self):
        with pytest.raises(ValueError):
            NoiseSpec(mode="additive-gaussian")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(looks=0.5)
        with pytest.raises(ValueError):
            NoiseSpec(mode="other")
        for looks in (np.inf, np.nan):
            with pytest.raises(ValueError, match="looks"):
                NoiseSpec(looks=looks)

    @pytest.mark.parametrize("noise_var", [-1.0, np.nan, np.inf, [1.0, -0.5], [1.0, np.nan]])
    @pytest.mark.parametrize("mode", NOISE_MODES)
    def test_bad_noise_var_raises(self, noise_var, mode):
        with pytest.raises(ValueError, match="noise_var"):
            NoiseSpec(mode=mode, noise_var=noise_var)

    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, "3", None, np.float64(4.0)])
    def test_bad_seed_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(seed=seed)

    def test_numpy_integer_seed_matches_int(self):
        clean = np.ones((8, 5))
        a = corrupt(clean, NoiseSpec(seed=np.uint64(2**64 - 1)))
        assert np.array_equal(a, corrupt(clean, NoiseSpec(seed=2**64 - 1)))


class TestBlockStream:
    """``corrupt`` draws one default_rng(seed) stream signal by signal, in
    slices of NOISE_BATCH signals; it must equal the one-call reference bit
    for bit, a ragged last slice included."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 5])
    @pytest.mark.parametrize("width", [1, 7, 33, 300])
    @pytest.mark.parametrize("spec_kwargs", [
        dict(looks=90.0),
        dict(looks=3.5, mode="additive-gaussian", noise_var=np.linspace(0.5, 4.0, 13)),
    ], ids=["speckle", "additive"])
    def test_matches_one_stream_reference(self, seed, width, spec_kwargs):
        clean = np.random.default_rng(width).uniform(0.5, 2.0, size=(13, width))
        spec = NoiseSpec(seed=seed, **spec_kwargs)
        rng = np.random.default_rng(seed)
        if spec.mode == "multiplicative-speckle":
            expected = clean * rng.gamma(spec.looks, 1.0 / spec.looks, (width, 13)).T
        else:
            expected = clean + np.sqrt(spec.noise_var)[:, None] * rng.standard_normal((width, 13)).T
        assert corrupt(clean, spec).tobytes() == expected.tobytes()


class TestInputRsnr:
    def test_identical_blocks_saturate(self):
        clean = np.ones((3, 4))
        assert rsnr(clean, clean.copy()) == np.inf

    def test_doubled_block_is_zero_db(self):
        clean = np.full((3, 4), 2.0)
        assert rsnr(clean, 2.0 * clean) == pytest.approx(0.0, abs=1e-12)

    def test_zero_clean_energy_raises(self):
        with pytest.raises(DegenerateInputError):
            rsnr(np.zeros((2, 2)), np.ones((2, 2)))

    def test_ninety_look_track_lands_near_nineteen_and_a_half(self, consts):
        traj = make_trajectory("smooth-random", 2000, swh_range=(3.4, 5.4),
                               tau_range=(14.3, 15.0), pu_range=(150.0, 190.0),
                               seed=0, consts=consts)
        clean = alt.clean_block(traj, consts)
        noisy = corrupt(clean, NoiseSpec(looks=90.0, seed=1))
        assert rsnr(clean, noisy) == pytest.approx(19.55, abs=1.5)
