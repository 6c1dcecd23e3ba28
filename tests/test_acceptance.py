"""Acceptance suite: the target bands for the full pipeline.

Every test prints one [PASS]/[FAIL] line per checked clause (run with -s to
see them on passing runs) and asserts at the end, so a red clause still
reports every measured number.  Tolerances are fixed here, not tuned.
"""

import time

import numpy as np
import pytest

import altismooth as alt
from altismooth import bench
from altismooth.gmrf import VarianceChain, aux_sweep, variance_sweep
from altismooth.kernels import (DEFAULT_LENGTHSCALE, JITTER, build_correlation, decompose,
                                shrinkage_filter)
from altismooth.metrics import rmse, rsnr, std, std_20hz
from altismooth.retrack import fit_block
from altismooth.solver import SolverConfig, denoise, denoise_stream

import oracles

SEED = 2024


class Clauses:
    def __init__(self, criterion: str):
        self.criterion = criterion
        self.failures = []

    def check(self, ok: bool, detail: str):
        line = f"[{'PASS' if ok else 'FAIL'}] {self.criterion}: {detail}"
        print(line)
        if not ok:
            self.failures.append(detail)

    def conclude(self):
        verdict = "FAIL" if self.failures else "PASS"
        print(f"[{verdict}] {self.criterion} overall")
        assert not self.failures, f"{self.criterion}: " + " | ".join(self.failures)


@pytest.fixture(scope="module")
def constants():
    return alt.jason2_like()


def test_criterion_1_filter_length_band(constants):
    c = Clauses("criterion 1 (filter-length sweep)")
    start = time.time()
    result = bench.run_table1(num_signals=5000, m_list=(50, 100, 250, 500),
                              looks=90.0, seed=SEED, consts=constants)
    elapsed = time.time() - start

    in_db = result["input_rsnr_db"]
    c.check(abs(in_db - 19.55) <= 1.5, f"input RSNR {in_db:.2f} dB in 19.55 +/- 1.5")

    rows = {r["filter_length"]: r["rsnr_db"] for r in result["rows"]}
    c.check(abs(rows[500] - 31.6) <= 1.5,
            f"output RSNR at length 500 = {rows[500]:.2f} dB in 31.6 +/- 1.5")
    seq = [rows[m] for m in (50, 100, 250, 500)]
    nondecreasing = all(b >= a - 0.3 for a, b in zip(seq, seq[1:]))
    c.check(nondecreasing,
            "RSNR non-decreasing (0.3 dB slack) across lengths 50..500: "
            + ", ".join(f"{v:.2f}" for v in seq))
    c.check(elapsed <= 300.0, f"runtime {elapsed:.1f} s <= 300 s")
    c.conclude()


def test_criterion_2_rsnr_vs_swh_band(constants):
    c = Clauses("criterion 2 (RSNR vs SWH sweep)")
    start = time.time()
    result = bench.run_table2(swh_list=(0.5, 2.0, 4.0, 8.0), runs=100,
                              looks=90.0, seed=SEED, consts=constants)
    elapsed = time.time() - start

    sse = {r["swh"]: r["rsnr_sse"] for r in result["rows"]}
    svd = {r["swh"]: r["rsnr_svd"] for r in result["rows"]}
    for swh in (0.5, 2.0, 4.0, 8.0):
        c.check(abs(sse[swh] - 32.15) <= 1.5,
                f"SSE RSNR at SWH={swh}: {sse[swh]:.2f} dB in 32.15 +/- 1.5")
    spread = max(sse.values()) - min(sse.values())
    c.check(spread <= 1.0, f"SSE RSNR spread {spread:.2f} dB <= 1.0")
    for swh in (0.5, 2.0, 4.0, 8.0):
        c.check(abs(svd[swh] - 26.1) <= 1.5,
                f"SVD RSNR at SWH={swh}: {svd[swh]:.2f} dB in 26.1 +/- 1.5")
    worst_gap = min(sse[s] - svd[s] for s in sse)
    c.check(worst_gap >= 4.0, f"SSE - SVD gap {worst_gap:.2f} dB >= 4.0")
    c.check(elapsed <= 600.0, f"runtime {elapsed:.1f} s <= 600 s")

    # context for the red clauses above: at the full-scale 500-signal block size
    # the denoiser does land in band, and the cumulative-energy rule keeps a
    # single component on these rank-one-plus-noise blocks (so the SVD
    # baseline reconstructs far more accurately than its target band)
    full = bench.run_table2(swh_list=(2.0,), runs=500, looks=90.0,
                            seed=SEED, consts=constants)
    print(f"[INFO] criterion 2: SSE RSNR at SWH=2 with 500-signal blocks: "
          f"{full['rows'][0]['rsnr_sse']:.2f} dB (band 32.15 +/- 1.5)")
    # the SWH = 2 m block of the sweep above, second in its list
    *_, (_, _, versions) = bench._sweep((0.5, 2.0), 100, 90.0, SEED, constants,
                                        bench.DEFAULT_SVD_THRESHOLD, bench.DEFAULT_CHUNK)
    noisy = versions["ls"]
    sing = np.linalg.svd(noisy, compute_uv=False)
    from altismooth.retrack import truncation_rank
    kept = truncation_rank(sing, 0.84)
    lead = sing[0] ** 2 / np.sum(sing**2)
    print(f"[INFO] criterion 2: 0.84-energy rule keeps {kept} of {len(sing)} "
          f"components (leading component carries {lead:.3f} of the energy)")
    c.conclude()


def test_criterion_3_retracking_orderings(constants):
    c = Clauses("criterion 3 (retracking RMSE orderings)")
    result = bench.run_fig4(swh_list=(2.0,), runs=100, looks=90.0, seed=SEED,
                            consts=constants)
    row = result["rows"][0]

    for q in ("swh", "tau", "pu"):
        ls, svd, sse = (row[f"rmse_{q}_ls"], row[f"rmse_{q}_svd"],
                        row[f"rmse_{q}_sse"])
        c.check(sse < svd, f"RMSE({q}): denoiser {sse:.4f} < SVD {svd:.4f}")
        c.check(svd < ls, f"RMSE({q}): SVD {svd:.4f} < plain LS {ls:.4f}")
    c.check(row["rmse_swh_sse"] <= 0.20,
            f"denoiser-LS RMSE(swh) {row['rmse_swh_sse']:.4f} m <= 0.20 m")
    c.check(row["rmse_tau_sse"] <= 0.02,
            f"denoiser-LS RMSE(tau) {row['rmse_tau_sse']:.4f} m <= 0.02 m")
    c.check(row["rmse_pu_sse"] <= 1.2,
            f"denoiser-LS RMSE(pu) {row['rmse_pu_sse']:.4f} <= 1.2")

    # long-run noise-floor reduction: 20-sample-window STDs on a smooth track
    traj = alt.make_trajectory("smooth-random", 600, swh_range=(3.4, 5.4),
                               tau_range=(14.3, 15.0), pu_range=(150.0, 190.0),
                               seed=SEED + 1, consts=constants)
    clean = alt.clean_block(traj, constants)
    noisy = alt.corrupt(clean, alt.NoiseSpec(looks=90.0, seed=SEED + 2))
    denoised = denoise_stream(noisy, 300)
    swh_ls = fit_block(noisy, constants).params.swh
    swh_sse = fit_block(denoised, constants).params.swh
    ratio = std_20hz(swh_ls) / std_20hz(swh_sse)
    c.check(ratio >= 3.0, f"20 Hz STD(swh) improvement factor {ratio:.2f} >= 3")

    # context for the red clauses: the amplitude estimate from denoised
    # signals carries the shrinkage bias of the zero-mean smoothness prior
    # (about 1/looks of the dominant mode), which exceeds the 1.2 target even
    # at the full-scale 500-signal block size
    *_, (_, _, versions) = bench._sweep((0.5, 2.0), 500, 90.0, SEED, constants,
                                        bench.DEFAULT_SVD_THRESHOLD, 500)
    pu500 = fit_block(versions["sse"], constants).params.pu
    print(f"[INFO] criterion 3: denoiser-LS RMSE(pu) at 500-signal scale: "
          f"{rmse(pu500, np.full(500, 130.0)):.3f} (target 1.2)")
    c.conclude()


def test_criterion_4_descent_and_convergence(constants):
    c = Clauses("criterion 4 (descent property)")
    rng = np.random.default_rng(SEED)
    config = SolverConfig()  # xi = 1e-3, t_max = 100
    sizes = [1] * 20 + [10] * 20 + [500] * 10
    monotone = True
    converged = 0
    for num_signals in sizes:
        swh = float(rng.uniform(0.5, 8.0))
        tau = float(rng.uniform(10.0, 40.0))
        pu = float(rng.uniform(50.0, 250.0))
        looks = float(rng.uniform(30.0, 150.0))
        traj = alt.make_trajectory("constant", num_signals, swh=swh, tau=tau,
                                   pu=pu)
        clean = alt.clean_block(traj, constants)
        noisy = alt.corrupt(clean, alt.NoiseSpec(
            looks=looks, seed=int(rng.integers(0, 2**31))))
        state = denoise(noisy, config)
        trace = np.array(state.cost_trace)
        if not np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1])):
            monotone = False
        if state.stop_reason == "converged":
            converged += 1
    c.check(monotone, "cost trace non-increasing (1e-9 relative slack) on all 50 runs")
    c.check(converged >= 0.95 * len(sizes),
            f"{converged}/{len(sizes)} runs converged before 100 sweeps")
    c.conclude()


def test_criterion_5_mode_updates_match_minimiser():
    c = Clauses("criterion 5 (closed-form updates vs 1-D minimiser)")
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    states = 0
    while states < 100:
        K = int(rng.integers(2, 10))
        M = int(rng.integers(1, 501))
        coupling = float(rng.uniform(1.2, 6.0))
        chain = VarianceChain(rng.uniform(0.05, 20.0, K),
                              rng.uniform(0.05, 20.0, K), coupling)
        stats = rng.uniform(0.01, 80.0, K)
        var_modes = variance_sweep(chain, stats, M)
        aux_modes = aux_sweep(chain)
        for k in (0, int(rng.integers(0, K)), K - 1):
            def var_restricted(x, k=k):
                v = chain.variances.copy()
                v[k] = x
                return oracles.naive_chain_cost(v, chain.aux, coupling, stats, M)

            numeric = oracles.argmin_positive(var_restricted)
            closed = var_modes[k]
            worst = max(worst, abs(closed - numeric) / numeric)

            def aux_restricted(x, k=k):
                a = chain.aux.copy()
                a[k] = x
                return oracles.naive_chain_cost(chain.variances, a, coupling,
                                                stats, M)

            numeric = oracles.argmin_positive(aux_restricted)
            closed = aux_modes[k]
            worst = max(worst, abs(closed - numeric) / numeric)
        states += 1
    c.check(worst <= 1e-6,
            f"worst relative gap to golden-section argmin {worst:.2e} <= 1e-6 "
            f"(100 states, interior + both boundaries, both chain kinds)")
    c.conclude()


def test_criterion_6_fast_path_equals_dense_solve():
    c = Clauses("criterion 6 (spectral shrinkage vs dense solve)")
    rng = np.random.default_rng(SEED + 20)
    for size in (10, 50, 200):
        corr = oracles.dense_correlation(size, DEFAULT_LENGTHSCALE, JITTER)
        basis = decompose(build_correlation(size))
        # 100 rows shrunk as one stack and back-projected once, as the solver does
        rows = np.empty((100, size))
        noise_var = np.empty(100)
        energy_var = np.empty(100)
        for i in range(100):
            rows[i] = rng.normal(0.0, 3.0, size)
            noise_var[i] = rng.uniform(0.01, 10.0)
            energy_var[i] = rng.uniform(0.01, 10.0)
        filt = shrinkage_filter(noise_var, energy_var, basis)
        fast = (filt * (rows @ basis.vectors)) @ basis.vectors.T
        worst = 0.0
        for i in range(100):
            dense = oracles.dense_posterior_mean(rows[i], noise_var[i],
                                                 energy_var[i], corr)
            worst = max(worst, np.linalg.norm(fast[i] - dense)
                        / max(np.linalg.norm(dense), 1e-300))
        c.check(worst <= 1e-8,
                f"M={size}: worst relative gap {worst:.2e} <= 1e-8 over 100 tuples")
    c.conclude()


def test_criterion_7_jacobian_grid(constants):
    c = Clauses("criterion 7 (jacobian vs central differences)")
    worst = 0.0
    for swh in (0.5, 2.0, 6.0):
        for tau_gates in (25.0, 31.0, 45.0):
            for pu in (50.0, 130.0, 200.0):
                p = alt.BrownParams(
                    swh=swh, tau=float(alt.gates_to_meters(tau_gates, constants)),
                    pu=pu)
                jac = alt.brown_jacobian(p, constants)
                theta = np.array([p.swh, p.tau, p.pu])
                steps = (1e-6, 1e-6 * constants.gate_in_meters, 1e-6 * pu)
                for i in range(3):
                    hi, lo = theta.copy(), theta.copy()
                    hi[i] += steps[i]
                    lo[i] -= steps[i]
                    fd = (alt.brown_waveform(alt.BrownParams(*hi), constants)
                          - alt.brown_waveform(alt.BrownParams(*lo), constants)
                          ) / (2 * steps[i])
                    scale = np.abs(fd).max()
                    if scale == 0.0:
                        continue
                    err = np.abs(jac[:, i] - fd) / np.maximum(np.abs(fd),
                                                              1e-3 * scale)
                    worst = max(worst, float(err.max()))
    c.check(worst <= 1e-5,
            f"worst relative difference {worst:.2e} <= 1e-5 on the 3x3x3 grid")
    c.conclude()


def test_criterion_8_metric_identities():
    c = Clauses("criterion 8 (metric identities)")
    rng = np.random.default_rng(SEED + 30)

    worst = 0.0
    for _ in range(50):
        estimates = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), 500)
        truth = np.full(500, rng.uniform(-5, 5))
        lhs = rmse(estimates, truth) ** 2
        rhs = std(estimates) ** 2 + (estimates.mean() - truth[0]) ** 2
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    c.check(worst <= 1e-12, f"rmse^2 = std^2 + bias^2 to {worst:.2e} <= 1e-12")

    ok = True
    for _ in range(1000):
        n = int(rng.integers(20, 300))
        x = rng.normal(0, rng.uniform(0.1, 5.0), n)
        if rng.random() < 0.5:
            x += np.linspace(0, rng.uniform(0, 8), n)
        if std_20hz(x) > std(x) + 1e-12:
            ok = False
            break
    c.check(ok, "20-window STD never exceeds global STD on 1000 random series")

    clean = rng.normal(0, 1, (16, 9))
    est = clean + rng.normal(0, 0.2, (16, 9))
    c.check(rsnr(3.0 * clean, 3.0 * est) == rsnr(clean, est),
            "RSNR invariant under joint scaling, exact float equality")
    c.conclude()
