import itertools

import numpy as np
import pytest
from scipy.special import erf

from altismooth import (
    BrownConstants,
    BrownParams,
    NonFiniteError,
    brown,
    brown_jacobian,
    brown_waveform,
    gates_to_meters,
    load_constants,
    sigma_c_sq,
    waveform_block,
)
from altismooth.brown import _edge_terms, _model_and_jacobian

import oracles


def params_at(consts, swh=2.0, tau_gates=31.0, pu=130.0):
    return BrownParams(swh=swh, tau=float(gates_to_meters(tau_gates, consts)), pu=pu)


class TestSigmaC:
    def test_zero_wave_height_limit(self, consts):
        p = BrownParams(swh=0.0, tau=10.0, pu=1.0)
        assert sigma_c_sq(p, consts) == pytest.approx(consts.sigma_p**2, rel=0, abs=0)

    def test_equal_contribution_symmetry(self, consts):
        swh = 2.0 * consts.c * consts.sigma_p
        p = BrownParams(swh=swh, tau=10.0, pu=1.0)
        assert sigma_c_sq(p, consts) == pytest.approx(2.0 * consts.sigma_p**2, rel=1e-15)

    def test_against_extended_precision_oracle(self, consts):
        # frozen from oracles.mp_sigma_c_sq(2, 1.6031e-9, c) at 50 digits
        frozen = 1.3696430170536184e-17
        p = BrownParams(swh=2.0, tau=10.0, pu=1.0)
        got = sigma_c_sq(p, consts)
        assert got == pytest.approx(frozen, rel=1e-15)
        live = float(oracles.mp_sigma_c_sq(2.0, consts.sigma_p, consts.c))
        assert got == pytest.approx(live, rel=1e-15)

    def test_never_below_sigma_p_sq(self, consts):
        for swh in (0.0, 0.3, 2.0, 8.0):
            p = BrownParams(swh=swh, tau=10.0, pu=1.0)
            assert sigma_c_sq(p, consts) >= consts.sigma_p**2


class TestWaveform:
    def test_zero_amplitude(self, consts):
        w = brown_waveform(params_at(consts, pu=0.0), consts)
        assert np.all(w == 0.0)

    def test_leading_edge_identity(self, consts):
        # at t = tau_s + alpha*sigma_c^2 the erf argument vanishes, so the
        # value is (pu/2) * exp(-alpha^2 sigma_c^2 / 2); checked on the
        # continuous-time model via a one-gate constants hack
        p = params_at(consts)
        sc2 = sigma_c_sq(p, consts)
        t_star = 2.0 * p.tau / consts.c + consts.alpha * sc2
        tweaked = BrownConstants(
            alpha=consts.alpha, sigma_p=consts.sigma_p, c=consts.c,
            gate_resolution=t_star, num_gates=2,
        )
        w = brown_waveform(p, tweaked)
        expected = 0.5 * p.pu * np.exp(-(consts.alpha**2) * sc2 / 2.0)
        assert w[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_extended_precision_oracle(self, consts):
        p = params_at(consts, swh=2.0, tau_gates=31.0, pu=130.0)
        got = brown_waveform(p, consts)
        want = oracles.mp_waveform(p.swh, p.tau, p.pu, consts)
        mask = want > 1e-300  # both representations underflow together below this
        rel = np.abs(got[mask] - want[mask]) / np.abs(want[mask])
        assert rel.max() <= 1e-12

    def test_amplitude_scaling_exact(self, consts):
        base = brown_waveform(params_at(consts, pu=1.0), consts)
        scaled = brown_waveform(params_at(consts, pu=7.5), consts)
        assert np.array_equal(scaled, 7.5 * base)

    def test_shift_covariance_one_gate(self, consts):
        # moving tau by one gate equals sampling the previous waveform one
        # gate later; compare on the overlapping gates
        p0 = params_at(consts, tau_gates=31.0)
        p1 = params_at(consts, tau_gates=32.0)
        w0 = brown_waveform(p0, consts)
        w1 = brown_waveform(p1, consts)
        assert np.abs(w1[1:] - w0[:-1]).max() <= 1e-10 * np.abs(w0).max()

    def test_block_matches_columns(self, consts):
        swh = np.array([1.0, 2.0, 4.0])
        tau = gates_to_meters(np.array([30.0, 31.0, 32.0]), consts)
        pu = np.array([100.0, 130.0, 150.0])
        block = waveform_block(swh, tau, pu, consts)
        for m in range(3):
            col = brown_waveform(BrownParams(swh[m], tau[m], pu[m]), consts)
            assert np.array_equal(block[:, m], col)

    def test_column_blocks_match_columns_bit_for_bit(self, consts):
        # 257 columns: two full evaluation blocks and one column past them
        assert brown.WAVEFORM_COLUMNS == 128
        rng = np.random.default_rng(21)
        swh, pu = rng.uniform(0.0, 8.0, 257), rng.uniform(50.0, 200.0, 257)
        tau = gates_to_meters(rng.uniform(5.0, 95.0, 257), consts)
        block = waveform_block(swh, tau, pu, consts)
        for m in range(257):
            col = brown_waveform(BrownParams(swh[m], tau[m], pu[m]), consts)
            assert np.array_equal(block[:, m], col)
        swh[200] = 1e300  # poisons the third block only
        with pytest.raises(NonFiniteError):
            waveform_block(swh, tau, pu, consts)

    def test_pathological_inputs_raise(self, consts):
        # the stable evaluation cannot overflow for finite inputs, so the
        # non-finite guard fires on inputs that poison the intermediate terms
        p = BrownParams(swh=1e300, tau=40.0, pu=1.0)
        with pytest.raises(NonFiniteError):
            brown_waveform(p, consts)
        with pytest.raises(NonFiniteError):
            brown_jacobian(p, consts)

    def test_negative_inputs_rejected(self, consts):
        with pytest.raises(ValueError):
            BrownParams(swh=-1.0, tau=10.0, pu=1.0)
        with pytest.raises(ValueError):
            BrownParams(swh=1.0, tau=10.0, pu=-2.0)

    @pytest.mark.parametrize("cast", [float, np.float64, np.array, int],
                             ids=["float", "float64", "0-d-array", "int"])
    def test_scalar_checks_agree_across_types(self, cast):
        # float scalars take a fast path; it must accept and reject as the array path does
        BrownParams(cast(0), cast(10), cast(0))
        if cast is not int:
            BrownParams(cast(np.nan), cast(np.nan), cast(np.nan))  # NaN is not negative
        for bad in ((cast(-1), cast(10), cast(1)), (cast(1), cast(10), cast(-2))):
            with pytest.raises(ValueError, match="swh and pu must be non-negative"):
                BrownParams(*bad)


class TestJacobian:
    def test_pu_column_is_linear_slope(self, consts):
        p = params_at(consts, pu=1.0)
        jac = brown_jacobian(p, consts)
        assert np.allclose(jac[:, 2], brown_waveform(p, consts), rtol=1e-14, atol=0)
        p130 = params_at(consts, pu=130.0)
        assert np.allclose(
            brown_jacobian(p130, consts)[:, 2],
            brown_waveform(p130, consts) / 130.0,
            rtol=1e-13, atol=0,
        )

    @pytest.mark.parametrize("swh,tau_gates,pu", list(itertools.product(
        (0.5, 2.0, 6.0), (25.0, 31.0, 45.0), (50.0, 130.0, 200.0))))
    def test_matches_central_differences(self, consts, swh, tau_gates, pu):
        p = params_at(consts, swh=swh, tau_gates=tau_gates, pu=pu)
        jac = brown_jacobian(p, consts)
        steps = (1e-6, 1e-6 * consts.gate_in_meters, 1e-6 * pu)
        theta = np.array([p.swh, p.tau, p.pu])
        for i in range(3):
            hi, lo = theta.copy(), theta.copy()
            hi[i] += steps[i]
            lo[i] -= steps[i]
            fd = (
                brown_waveform(BrownParams(*hi), consts)
                - brown_waveform(BrownParams(*lo), consts)
            ) / (2 * steps[i])
            scale = np.abs(fd).max()
            if scale == 0.0:
                assert np.abs(jac[:, i]).max() == 0.0
                continue
            err = np.abs(jac[:, i] - fd) / np.maximum(np.abs(fd), 1e-3 * scale)
            assert err.max() <= 1e-5


class TestBatch:
    def test_batch_columns_equal_single_calls(self, consts):
        # criterion 7's 3x3x3 grid, random points, and a wave height at which
        # libm pow and a multiply once squared swh/2c to different last bits
        grid = np.array(list(itertools.product(
            (0.5, 2.0, 6.0), gates_to_meters(np.array([25.0, 31.0, 45.0]), consts),
            (50.0, 130.0, 200.0))))
        rng = np.random.default_rng(7)
        rand = np.column_stack([rng.uniform(0.0, 20.0, 300), rng.uniform(-5.0, 60.0, 300),
                                rng.uniform(0.0, 300.0, 300)])
        pts = np.vstack([grid, rand, [[0.5855205791277278, 14.5, 130.0]]])
        batch = BrownParams(*pts.T)
        block = brown_waveform(batch, consts)
        jac = brown_jacobian(batch, consts)
        assert block.shape == (consts.num_gates, len(pts))
        assert jac.shape == (len(pts), consts.num_gates, 3) and jac.flags.c_contiguous
        for i, (swh, tau, pu) in enumerate(pts):
            one = BrownParams(swh, tau, pu)
            assert np.array_equal(block[:, i], brown_waveform(one, consts))
            assert np.array_equal(jac[i], brown_jacobian(one, consts))

    def test_batch_validation(self):
        ok = np.array([1.0, 2.0])
        BrownParams(ok, ok, ok)
        with pytest.raises(ValueError, match="non-negative"):
            BrownParams(np.array([1.0, -0.1]), ok, ok)
        with pytest.raises(ValueError, match="non-negative"):
            BrownParams(ok, ok, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="equal-length"):
            BrownParams(ok, np.array([1.0, 2.0, 3.0]), ok)
        with pytest.raises(ValueError, match="equal-length"):
            BrownParams(ok, 10.0, ok)
        with pytest.raises(ValueError, match="equal-length"):
            BrownParams(ok[None, :], ok[None, :], ok[None, :])


class TestModelAndJacobian:
    """The retracking loop's fused kernel, in its n x K row layout."""

    @staticmethod
    def rows(consts, n, zero):
        """n random parameter rows, with column zero (swh or pu) set to 0."""
        rng = np.random.default_rng(n)
        theta = np.column_stack([rng.uniform(0.0, 8.0, n),
                                 gates_to_meters(rng.uniform(10.0, 60.0, n), consts),
                                 rng.uniform(0.0, 200.0, n)])
        if zero is not None:
            theta[:, zero] = 0.0
        return theta

    @pytest.mark.parametrize("zero", [None, 0, 2], ids=["random", "swh=0", "pu=0"])
    @pytest.mark.parametrize("n", [1, 32, 64, 500])
    def test_matches_public_functions_bit_for_bit(self, consts, n, zero):
        theta = self.rows(consts, n, zero)
        u = _edge_terms(theta[:, :1], theta[:, 1:2], consts.gate_times(), consts)[3]
        # every rise branch is exercised: erfcx, erf, and erf(u) == 1
        assert (u < 0).any() and ((u >= 0) & (u < 6)).any() and (u >= 6).any()
        model, jac = _model_and_jacobian(theta, consts)
        assert model.shape == (n, consts.num_gates)
        assert jac.shape == (n, consts.num_gates, 3) and jac.flags.c_contiguous
        params = BrownParams(*theta.T)
        assert np.array_equal(model, brown_waveform(params, consts).T)
        assert np.array_equal(jac, brown_jacobian(params, consts))
        want_model, want_jac = oracles.column_model_and_jacobian(*theta.T, consts)
        assert np.array_equal(model, want_model.T)
        assert np.array_equal(jac, want_jac)

    @pytest.mark.parametrize("row", [[1e300, 40.0, 1.0], [np.nan, 40.0, 1.0],
                                     [2.0, np.inf, 1.0], [2.0, 40.0, np.inf]],
                             ids=["swh=1e300", "swh=nan", "tau=inf", "pu=inf"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # pu = inf
    def test_pathological_inputs_raise(self, consts, row):
        # alone, and beside a good row of the same batch
        for theta in ([row], [[2.0, 40.0, 130.0], row]):
            with pytest.raises(NonFiniteError):
                _model_and_jacobian(np.array(theta), consts)
            with pytest.raises(NonFiniteError):
                brown_jacobian(BrownParams(*np.array(theta).T), consts)

    def test_erf_is_exactly_one_from_six_up(self):
        # the rise is 2*exp(v) from u = 6 up, which is (1 + erf(u))*exp(v)
        # only while scipy's erf rounds to exactly 1.0 there
        u = np.concatenate([np.linspace(6.0, 40.0, 1_000_001),
                            np.geomspace(40.0, 1e308, 1001), [np.inf]])
        assert np.all(erf(u) == 1.0)


class TestConstantsProfile:
    def test_packaged_profile_invariants(self, consts):
        assert consts.num_gates == 104
        assert consts.alpha > 0 and consts.sigma_p > 0
        assert consts.gate_in_meters == pytest.approx(
            consts.c * consts.gate_resolution / 2.0
        )

    def test_gate_meter_round_trip(self, consts):
        gates = np.array([1.0, 31.0, 104.0])
        back = gates_to_meters(gates, consts) / consts.gate_in_meters
        assert np.allclose(back, gates, rtol=1e-14)

    def test_load_constants_round_trip(self, tmp_path, consts):
        path = tmp_path / "profile.cfg"
        path.write_text(
            f"alpha = {consts.alpha}\n"
            f"sigma_p = {consts.sigma_p}\n"
            f"c = {consts.c}\n"
            f"gate_resolution = {consts.gate_resolution}\n"
            f"num_gates = {consts.num_gates}\n"
        )
        assert load_constants(path) == consts

    def test_load_constants_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 1.0\nwhoops = 2\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_constants(path)

    def test_load_constants_rejects_missing_key(self, tmp_path):
        path = tmp_path / "short.cfg"
        path.write_text("alpha = 1.0\n")
        with pytest.raises(ValueError, match="missing"):
            load_constants(path)
