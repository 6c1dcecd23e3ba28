import numpy as np
import pytest

from altismooth.gmrf import (
    VARIANCE_FLOOR,
    VarianceChain,
    aux_sweep,
    chain_cost_terms,
    initial_chain,
    variance_sweep,
)

import oracles


def random_chain(rng, num_gates, coupling):
    return VarianceChain(
        variances=rng.uniform(0.05, 20.0, num_gates),
        aux=rng.uniform(0.05, 20.0, num_gates),
        coupling=coupling,
    )


class TestArithmetic:
    def test_variance_zero_residual_limit(self):
        chain = VarianceChain(np.full(5, 1.0), np.full(5, 1e-12), 2.0)
        got = variance_sweep(chain, np.zeros(5), 500)[1]
        assert got == pytest.approx(2.0 * 2.0 * 2e-12 / 510.0, rel=1e-12)

    def test_variance_interior_arithmetic(self):
        chain = VarianceChain(np.full(5, 1.0), np.full(5, 1e-15), 2.0)
        got = variance_sweep(chain, np.full(5, 502.0), 500)[1]
        assert got == pytest.approx(502.0 / 510.0, rel=1e-9)

    def test_energy_interior_arithmetic(self):
        chain = VarianceChain(np.full(5, 1.0), np.full(5, 1e-15), 2.0)
        got = variance_sweep(chain, np.full(5, 510.0), 500)[2]
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_variance_boundary_uses_single_neighbor(self):
        chain = VarianceChain(np.full(4, 1.0), np.array([0.1, 0.2, 0.3, 0.4]), 2.0)
        got = variance_sweep(chain, np.full(4, 10.0), 100)[3]
        assert got == pytest.approx((10.0 + 2 * 2.0 * 0.4) / (2 * 2.0 + 100 + 2))

    def test_aux_equal_neighbor_symmetry(self):
        chain = VarianceChain(np.full(6, 3.0), np.full(6, 1.0), 2.0)
        assert aux_sweep(chain)[2] == pytest.approx(3.0 * 3.0 / 4.0, rel=1e-14)

    def test_aux_unequal_neighbors(self):
        chain = VarianceChain(np.array([1.0, 3.0, 1.0]), np.full(3, 1.0), 2.0)
        assert aux_sweep(chain)[1] == pytest.approx(9.0 / 8.0, rel=1e-14)

    def test_aux_head_node(self):
        chain = VarianceChain(np.array([5.0, 1.0]), np.full(2, 1.0), 2.0)
        assert aux_sweep(chain)[0] == pytest.approx((2 * 2.0 - 1.0) * 5.0 / 2.0)

    def test_sweeps_match_scalar_modes(self):
        rng = np.random.default_rng(0)
        for num_gates in (1, 2, 7, 104):
            chain = random_chain(rng, num_gates, 2.5)
            stats = rng.uniform(0.0, 50.0, num_gates)
            want = oracles.naive_variance_modes(chain.variances, chain.aux,
                                                chain.coupling, stats, 37)
            np.testing.assert_allclose(variance_sweep(chain, stats, 37), want,
                                       rtol=1e-14, atol=0)
            want_aux = oracles.naive_aux_modes(chain.variances, chain.coupling)
            np.testing.assert_allclose(aux_sweep(chain), want_aux,
                                       rtol=1e-14, atol=0)

    def test_initial_chain_starts_each_aux_at_its_mode(self):
        # floored variances, stacked 2 x K with one coupling per chain
        rng = np.random.default_rng(2)
        for num_gates in (1, 2, 104):
            v = rng.uniform(0.05, 20.0, (2, num_gates))
            v[0, 0] = 0.0  # below the floor
            chain = initial_chain(v, np.array([2.0, 3.5]))
            floored = np.maximum(v, VARIANCE_FLOOR)
            np.testing.assert_array_equal(chain.variances, floored)
            for aux, member, c in zip(chain.aux, floored, (2.0, 3.5)):
                np.testing.assert_allclose(aux, oracles.naive_aux_modes(member, c),
                                           rtol=1e-14, atol=0)

    def test_stacked_chains_match_their_members(self):
        # one call on two stacked chains with different couplings equals a
        # call per member chain
        rng = np.random.default_rng(1)
        members = [random_chain(rng, 9, 2.5), random_chain(rng, 9, 4.0)]
        stats = rng.uniform(0.0, 50.0, (2, 9))
        stacked = VarianceChain(np.stack([m.variances for m in members]),
                                np.stack([m.aux for m in members]), np.array([2.5, 4.0]))
        got_var = variance_sweep(stacked, stats, 37)
        got_aux = aux_sweep(stacked)
        for k, member in enumerate(members):
            np.testing.assert_array_equal(got_var[k], variance_sweep(member, stats[k], 37))
            np.testing.assert_array_equal(got_aux[k], aux_sweep(member))
        want_cost = sum(chain_cost_terms(m, s, 37) for m, s in zip(members, stats))
        assert chain_cost_terms(stacked, stats, 37) == pytest.approx(want_cost, rel=1e-14)
        for got, member in zip(stacked, members):
            assert got.coupling == member.coupling
            np.testing.assert_array_equal(got.variances, member.variances)
            np.testing.assert_array_equal(got.aux, member.aux)


class TestMinimizerOracle:
    """Each closed-form update must minimise the cost along its coordinate."""

    @pytest.mark.parametrize("num_signals", [1, 10, 500])
    def test_variance_updates_minimise_cost(self, num_signals):
        rng = np.random.default_rng(42)
        for _ in range(25):
            K = int(rng.integers(2, 9))
            chain = random_chain(rng, K, float(rng.uniform(1.2, 6.0)))
            stats = rng.uniform(0.01, 80.0, K)
            k = int(rng.integers(0, K))

            def restricted(x, k=k, chain=chain, stats=stats):
                v = chain.variances.copy()
                v[k] = x
                return oracles.naive_chain_cost(v, chain.aux, chain.coupling,
                                                stats, num_signals)

            numeric = oracles.argmin_positive(restricted)
            closed = variance_sweep(chain, stats, num_signals)[k]
            assert closed == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize("num_signals", [1, 10, 500])
    def test_aux_updates_minimise_cost(self, num_signals):
        rng = np.random.default_rng(43)
        for _ in range(25):
            K = int(rng.integers(2, 9))
            chain = random_chain(rng, K, float(rng.uniform(1.2, 6.0)))
            stats = rng.uniform(0.01, 80.0, K)
            k = int(rng.integers(0, K))

            def restricted(x, k=k, chain=chain, stats=stats):
                a = chain.aux.copy()
                a[k] = x
                return oracles.naive_chain_cost(chain.variances, a,
                                                chain.coupling, stats,
                                                num_signals)

            numeric = oracles.argmin_positive(restricted)
            closed = aux_sweep(chain)[k]
            assert closed == pytest.approx(numeric, rel=1e-6)


class TestProperties:
    def test_positivity_preserved(self):
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 104, 2.0)
        stats = rng.uniform(0.0, 10.0, 104)
        for _ in range(50):
            chain.variances = variance_sweep(chain, stats, 20)
            chain.aux = aux_sweep(chain)
            assert np.all(chain.variances > 0)
            assert np.all(chain.aux > 0)

    def test_stronger_coupling_smooths_more(self):
        # identical jagged residual sequences; after 50 sweeps the strongly
        # coupled chain's variances have higher lag-1 autocorrelation
        rng = np.random.default_rng(11)
        stats = rng.uniform(0.1, 30.0, 104)

        def settle(coupling):
            chain = initial_chain(np.full(104, 1.0), coupling)
            for _ in range(50):
                chain.variances = variance_sweep(chain, stats, 5)
                chain.aux = aux_sweep(chain)
            v = chain.variances
            a, b = v[:-1] - v[:-1].mean(), v[1:] - v[1:].mean()
            return float(a @ b / np.sqrt((a @ a) * (b @ b)))

        assert settle(10.0) > settle(1.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            VarianceChain(np.ones(3), np.ones(3), 1.0)  # coupling must exceed 1
        with pytest.raises(ValueError):
            VarianceChain(np.array([1.0, -1.0]), np.ones(2), 2.0)
        with pytest.raises(ValueError):
            VarianceChain(np.ones(3), np.ones(4), 2.0)

    def test_chain_cost_matches_naive(self):
        rng = np.random.default_rng(21)
        for K in (1, 2, 5, 104):
            chain = random_chain(rng, K, 3.0)
            stats = rng.uniform(0.0, 40.0, K)
            got = chain_cost_terms(chain, stats, 17)
            want = oracles.naive_chain_cost(chain.variances, chain.aux,
                                            chain.coupling, stats, 17)
            assert got == pytest.approx(want, rel=1e-12)
