import numpy as np
import pytest

from altismooth.gmrf import (
    VARIANCE_FLOOR,
    aux_sweep,
    chain_cost_terms,
    initial_chain,
    variance_sweep,
)

import oracles


def random_chain(rng, num_gates):
    """Positive variances and aux of one chain, drawn in that order."""
    variances = rng.uniform(0.05, 20.0, num_gates)
    return variances, rng.uniform(0.05, 20.0, num_gates)


class TestArithmetic:
    def test_variance_zero_residual_limit(self):
        got = variance_sweep(np.full(5, 1e-12), 2.0, np.zeros(5), 500)[1]
        assert got == pytest.approx(2.0 * 2.0 * 2e-12 / 510.0, rel=1e-12)

    def test_variance_interior_arithmetic(self):
        got = variance_sweep(np.full(5, 1e-15), 2.0, np.full(5, 502.0), 500)[1]
        assert got == pytest.approx(502.0 / 510.0, rel=1e-9)

    def test_energy_interior_arithmetic(self):
        got = variance_sweep(np.full(5, 1e-15), 2.0, np.full(5, 510.0), 500)[2]
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_variance_boundary_uses_single_neighbor(self):
        aux = np.array([0.1, 0.2, 0.3, 0.4])
        got = variance_sweep(aux, 2.0, np.full(4, 10.0), 100)[3]
        assert got == pytest.approx((10.0 + 2 * 2.0 * 0.4) / (2 * 2.0 + 100 + 2))

    def test_aux_equal_neighbor_symmetry(self):
        assert aux_sweep(np.full(6, 3.0), 2.0)[2] == pytest.approx(3.0 * 3.0 / 4.0, rel=1e-14)

    def test_aux_unequal_neighbors(self):
        assert aux_sweep(np.array([1.0, 3.0, 1.0]), 2.0)[1] == pytest.approx(9.0 / 8.0, rel=1e-14)

    def test_aux_head_node(self):
        assert aux_sweep(np.array([5.0, 1.0]), 2.0)[0] == pytest.approx((2 * 2.0 - 1.0) * 5.0 / 2.0)

    def test_sweeps_match_scalar_modes(self):
        rng = np.random.default_rng(0)
        for num_gates in (1, 2, 7, 104):
            v, a = random_chain(rng, num_gates)
            stats = rng.uniform(0.0, 50.0, num_gates)
            want = oracles.naive_variance_modes(v, a, 2.5, stats, 37)
            np.testing.assert_allclose(variance_sweep(a, 2.5, stats, 37), want,
                                       rtol=1e-14, atol=0)
            want_aux = oracles.naive_aux_modes(v, 2.5)
            np.testing.assert_allclose(aux_sweep(v, 2.5), want_aux,
                                       rtol=1e-14, atol=0)

    def test_initial_chain_starts_each_aux_at_its_mode(self):
        # floored variances, stacked 2 x K with one coupling per chain
        rng = np.random.default_rng(2)
        for num_gates in (1, 2, 104):
            v = rng.uniform(0.05, 20.0, (2, num_gates))
            v[0, 0] = 0.0  # below the floor
            variances, aux_modes = initial_chain(v, np.array([2.0, 3.5]))
            floored = np.maximum(v, VARIANCE_FLOOR)
            np.testing.assert_array_equal(variances, floored)
            for aux, member, c in zip(aux_modes, floored, (2.0, 3.5)):
                np.testing.assert_allclose(aux, oracles.naive_aux_modes(member, c),
                                           rtol=1e-14, atol=0)

    def test_stacked_chains_match_their_members(self):
        # one call on two stacked chains with different couplings equals a
        # call per member chain
        rng = np.random.default_rng(1)
        members = [random_chain(rng, 9), random_chain(rng, 9)]
        couplings = (2.5, 4.0)
        stats = rng.uniform(0.0, 50.0, (2, 9))
        v, a = np.stack([m[0] for m in members]), np.stack([m[1] for m in members])
        got_var = variance_sweep(a, np.array(couplings), stats, 37)
        got_aux = aux_sweep(v, np.array(couplings))
        for k, ((mv, ma), c) in enumerate(zip(members, couplings)):
            np.testing.assert_array_equal(got_var[k], variance_sweep(ma, c, stats[k], 37))
            np.testing.assert_array_equal(got_aux[k], aux_sweep(mv, c))
        want_cost = sum(chain_cost_terms(mv, ma, c, s, 37)
                        for (mv, ma), c, s in zip(members, couplings, stats))
        got_cost = chain_cost_terms(v, a, np.array(couplings), stats, 37)
        assert got_cost == pytest.approx(want_cost, rel=1e-14)


class TestMinimizerOracle:
    """Each closed-form update must minimise the cost along its coordinate."""

    @pytest.mark.parametrize("num_signals", [1, 10, 500])
    def test_variance_updates_minimise_cost(self, num_signals):
        rng = np.random.default_rng(42)
        for _ in range(25):
            K = int(rng.integers(2, 9))
            coupling = float(rng.uniform(1.2, 6.0))
            variances, aux = random_chain(rng, K)
            stats = rng.uniform(0.01, 80.0, K)
            k = int(rng.integers(0, K))

            def restricted(x, k=k, variances=variances, aux=aux, coupling=coupling,
                           stats=stats):
                v = variances.copy()
                v[k] = x
                return oracles.naive_chain_cost(v, aux, coupling, stats, num_signals)

            numeric = oracles.argmin_positive(restricted)
            closed = variance_sweep(aux, coupling, stats, num_signals)[k]
            assert closed == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize("num_signals", [1, 10, 500])
    def test_aux_updates_minimise_cost(self, num_signals):
        rng = np.random.default_rng(43)
        for _ in range(25):
            K = int(rng.integers(2, 9))
            coupling = float(rng.uniform(1.2, 6.0))
            variances, aux = random_chain(rng, K)
            stats = rng.uniform(0.01, 80.0, K)
            k = int(rng.integers(0, K))

            def restricted(x, k=k, variances=variances, aux=aux, coupling=coupling,
                           stats=stats):
                a = aux.copy()
                a[k] = x
                return oracles.naive_chain_cost(variances, a, coupling, stats, num_signals)

            numeric = oracles.argmin_positive(restricted)
            closed = aux_sweep(variances, coupling)[k]
            assert closed == pytest.approx(numeric, rel=1e-6)


class TestProperties:
    def test_positivity_preserved(self):
        rng = np.random.default_rng(5)
        variances, aux = random_chain(rng, 104)
        stats = rng.uniform(0.0, 10.0, 104)
        for _ in range(50):
            variances = variance_sweep(aux, 2.0, stats, 20)
            aux = aux_sweep(variances, 2.0)
            assert np.all(variances > 0)
            assert np.all(aux > 0)

    def test_stronger_coupling_smooths_more(self):
        # identical jagged residual sequences; after 50 sweeps the strongly
        # coupled chain's variances have higher lag-1 autocorrelation
        rng = np.random.default_rng(11)
        stats = rng.uniform(0.1, 30.0, 104)

        def settle(coupling):
            v, aux = initial_chain(np.full(104, 1.0), coupling)
            for _ in range(50):
                v = variance_sweep(aux, coupling, stats, 5)
                aux = aux_sweep(v, coupling)
            a, b = v[:-1] - v[:-1].mean(), v[1:] - v[1:].mean()
            return float(a @ b / np.sqrt((a @ a) * (b @ b)))

        assert settle(10.0) > settle(1.01)

    def test_chain_cost_matches_naive(self):
        rng = np.random.default_rng(21)
        for K in (1, 2, 5, 104):
            variances, aux = random_chain(rng, K)
            stats = rng.uniform(0.0, 40.0, K)
            got = chain_cost_terms(variances, aux, 3.0, stats, 17)
            want = oracles.naive_chain_cost(variances, aux, 3.0, stats, 17)
            assert got == pytest.approx(want, rel=1e-12)
