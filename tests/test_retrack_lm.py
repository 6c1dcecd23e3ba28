"""The batched Levenberg-Marquardt core behind ``ls_fit``.

Each start in a batch must follow exactly the path it would follow alone,
so these tests pin the core against the scalar loop in ``oracles`` and
against itself in different batches, and drive its divergence handling
through patched model derivatives.
"""

import re

import numpy as np
import pytest

import altismooth as alt
from altismooth import BrownParams, bench, brown_waveform, retrack
from altismooth.errors import DivergedError
from altismooth.retrack import TAU_GRID_FRACTIONS, ls_fit

import oracles
from conftest import single_start


def grid_starts(y, consts):
    pu0 = y.max() if y.max() > 0 else 1e-6
    return [[2.0, f * consts.window_meters, pu0] for f in TAU_GRID_FRACTIONS]


def speckled(consts, n, seed):
    """n 90-look waveforms of random (swh, tau, pu)."""
    rng = np.random.default_rng(seed)
    clean = alt.waveform_block(rng.uniform(0.5, 8.0, n),
                               alt.gates_to_meters(rng.uniform(20.0, 50.0, n), consts),
                               rng.uniform(50.0, 200.0, n), consts)
    return alt.corrupt(clean, alt.NoiseSpec(looks=90.0, seed=seed))


def best_of(y, consts, starts):
    """Lowest-cost single-start fit, earliest winning ties, and its index."""
    best, best_cost, best_index = None, None, None
    for i, start in enumerate(starts):
        cand, diverged = single_start(y, consts, start)
        if diverged:
            continue
        resid = y - brown_waveform(cand.params, consts)
        cost = float(resid @ resid)
        if best is None or cost < best_cost:
            best, best_cost, best_index = cand, cost, i
    return best, best_index


def test_single_start_matches_scalar_oracle(consts):
    # 60 waveforms x 5 starts: same iterations and convergence, and
    # parameters and residual within 1e-12 relative of the scalar loop
    noisy = speckled(consts, 60, seed=31)
    fits = 0
    for y in noisy.T:
        for start in grid_starts(y, consts):
            theta, cost, iterations, converged, diverged = (
                out[0] for out in retrack._lm_fit(y, consts, [start]))
            try:
                want_theta, want_cost, want_iterations, want_converged = (
                    oracles.naive_lm_fit(y, consts, start))
            except DivergedError:
                assert diverged
                continue
            assert not diverged
            assert (iterations, converged) == (want_iterations, want_converged)
            got = np.append(theta, np.sqrt(cost))
            want = np.append(want_theta, np.sqrt(want_cost))
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            fits += 1
    assert fits >= 290


def test_start_result_independent_of_its_batch(consts):
    # a start's result is the same bit for bit alone, among the grid
    # starts, and among reordered and extra far-off starts
    noisy = speckled(consts, 8, seed=32)
    for y in noisy.T:
        starts = grid_starts(y, consts)
        extra = [[0.0, 0.0, 1.0], [15.0, 60.0, 2.0 * y.max()]]
        batches = [starts, starts[::-1] + extra, extra + starts + starts]
        results = [retrack._lm_fit(y, consts, batch) for batch in batches]
        for i, start in enumerate(starts):
            alone = retrack._lm_fit(y, consts, [start])
            for batch, result in zip(batches, results):
                row = batch.index(start)
                for got, want in zip(result, alone):
                    assert np.array_equal(got[row], want[0])


def wave_and_winner(consts, seed=0):
    """A speckled waveform, its grid starts and the unpatched winning start."""
    y0 = brown_waveform(BrownParams(2.0, float(alt.gates_to_meters(31.0, consts)), 130.0),
                        consts)
    y = alt.corrupt(y0[:, None], alt.NoiseSpec(looks=90.0, seed=seed))[:, 0]
    starts = grid_starts(y, consts)
    _, winner = best_of(y, consts, starts)
    return y, starts, winner


def patch_jacobian(monkeypatch, tau, change):
    """Apply change to the jacobian of every triplet whose epoch equals tau.

    A start that never accepts a step keeps its epoch, so the patch follows
    that start and no other.
    """
    real = retrack.brown_jacobian

    def patched(params, consts):
        jac = real(params, consts)
        hit = np.atleast_1d(params.tau) == tau
        jac[hit] = change(jac[hit])
        return jac

    monkeypatch.setattr(retrack, "brown_jacobian", patched)


def log_calls(monkeypatch, names):
    """Wrap each named retrack attribute to append its name to the returned log."""
    log = []
    for name in names:
        def call(*args, real=getattr(retrack, name), name=name):
            log.append(name)
            return real(*args)

        monkeypatch.setattr(retrack, name, call)
    return log


@pytest.mark.parametrize("cap", [1, retrack.MAX_ITERATIONS], ids=["cap-1", "cap-default"])
def test_start_exhausting_rejects_is_dropped(consts, monkeypatch, cap):
    # the winning start is sent uphill, so every damped step is rejected;
    # after MAX_REJECTS it diverges and the other starts decide the fit.
    # The iteration cap ends no iteration early, even at one iteration.
    monkeypatch.setattr(retrack, "MAX_ITERATIONS", cap)
    y, starts, winner = wave_and_winner(consts)
    others = [s for i, s in enumerate(starts) if i != winner]
    expected, _ = best_of(y, consts, others)
    assert ls_fit(y, consts) != expected
    patch_jacobian(monkeypatch, starts[winner][1], lambda jac: -jac)
    evaluations = log_calls(monkeypatch, ["brown_waveform", "_model_and_jacobian"])
    assert retrack._lm_fit(y, consts, [starts[winner]])[4][0]  # diverged
    # the start, then each rejected trial's pass
    assert evaluations == ["brown_waveform"] + ["_model_and_jacobian"] * retrack.MAX_REJECTS
    assert ls_fit(y, consts) == expected


def test_one_kernel_call_per_trial_pass(consts, monkeypatch):
    # each _lm_fit call evaluates its starts through brown_waveform and
    # brown_jacobian once; after that every pass of trials is one _solve and
    # one fused call, and no round calls brown_jacobian again
    tags = {"_lm_fit": "F", "brown_waveform": "W", "brown_jacobian": "J", "_solve": "S",
            "_model_and_jacobian": "K"}
    log = log_calls(monkeypatch, tags)
    fits = retrack.fit_block(speckled(consts, 40, seed=33), consts)
    calls = "".join(tags[name] for name in log)
    assert re.fullmatch(r"(FWJ(SK)+)+", calls)
    # the grid for the first column, one warm batch of FIT_BATCH and one of
    # the rest, and a grid per column whose warm fit was not kept
    assert calls.count("F") == 3 + (~fits.warm[1:]).sum()


def test_start_with_singular_systems_is_dropped(consts, monkeypatch):
    # np.linalg.solve reports the winning start's systems as singular; the
    # stacked solve then fails as a whole and the per-start fallback must
    # reject only that start's trial
    y, starts, winner = wave_and_winner(consts)
    others = [s for i, s in enumerate(starts) if i != winner]
    expected, _ = best_of(y, consts, others)
    assert ls_fit(y, consts) != expected
    patch_jacobian(monkeypatch, starts[winner][1], lambda jac: np.zeros_like(jac))
    real_solve = np.linalg.solve
    stacked_failures = []

    def solve(a, b):
        singular = ~np.asarray(b).reshape(-1, 3).any(axis=1)  # zero right-hand side
        if singular.any():
            if np.ndim(a) == 3 and len(a) > 1:
                stacked_failures.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    assert retrack._lm_fit(y, consts, [starts[winner]])[4][0]  # diverged
    assert ls_fit(y, consts) == expected
    assert stacked_failures


def test_all_starts_diverging_raises(consts, monkeypatch):
    y, _, _ = wave_and_winner(consts)
    real = retrack.brown_jacobian
    monkeypatch.setattr(retrack, "brown_jacobian", lambda params, c: -real(params, c))
    with pytest.raises(DivergedError, match="all fit starts diverged"):
        ls_fit(y, consts)


def test_restart_at_its_own_optimum_converges(consts):
    # from a fit's own optimum, rounding can make every damped step uphill;
    # steps that short mean the start is at its minimum, so it converges
    # there, in the core and in the scalar loop alike
    (_, _, versions), = bench._sweep((8.0,), 20, 90.0, 3, consts, bench.DEFAULT_CHUNK)
    for y in versions["ls"].T:
        fit = ls_fit(y, consts)
        start = [fit.params.swh, fit.params.tau, fit.params.pu]
        theta, cost, _, converged, diverged = retrack._lm_fit(y, consts, [start])
        assert converged[0] and not diverged[0]
        assert cost[0] <= fit.residual_norm**2 * (1 + 1e-12)
        want, want_cost, _, want_converged = oracles.naive_lm_fit(y, consts, start)
        assert want_converged
        assert np.all(np.abs(theta[0] - want) <= 1e-12 * np.abs(want))
        assert abs(cost[0] - want_cost) <= 1e-12 * want_cost
