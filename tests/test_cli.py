import csv
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from altismooth import SolverConfig, blockio, denoise_stream, fit_block, jason2_like
from altismooth.cli import _solver_config, build_parser, main


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_blocks_and_manifest(self, tmp_path):
        code = run("generate", "--n", 64, "--traj", "smooth-random",
                   "--looks", 90, "--seed", 3, "--out-dir", tmp_path)
        assert code == 0
        clean = blockio.read_block(tmp_path / "clean.blk")
        noisy = blockio.read_block(tmp_path / "noisy.blk")
        assert clean.shape == (104, 64) and noisy.shape == (104, 64)
        manifest = json.loads((tmp_path / "generate.manifest.json").read_text())
        assert manifest["subcommand"] == "generate"
        assert manifest["seeds"]["master"] == 3
        assert (tmp_path / "trajectory.csv").exists()

    def test_constant_trajectory_with_gate_epoch(self, tmp_path):
        code = run("generate", "--n", 5, "--traj", "constant", "--swh", 2,
                   "--tau-gates", 31, "--pu", 130, "--out-dir", tmp_path)
        assert code == 0
        swh, tau, pu = blockio.read_trajectory_csv(tmp_path / "trajectory.csv")
        assert np.all(swh == 2.0) and np.all(pu == 130.0)
        assert tau[0] == pytest.approx(31 * 0.46842571562499996, rel=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("generate", "--n", 32, "--seed", 9, "--out-dir", tmp_path)
        assert run(*args) == 0
        digests = {name: digest(tmp_path / name)
                   for name in ("clean.blk", "noisy.blk", "trajectory.csv")}
        assert run(*args) == 0
        for name, want in digests.items():
            assert digest(tmp_path / name) == want

    def test_manifest_round_trip_reproduces_outputs(self, tmp_path):
        assert run("generate", "--n", 24, "--seed", 5, "--out-dir", tmp_path) == 0
        manifest = blockio.read_manifest(tmp_path / "generate.manifest.json")
        digests = {name: digest(tmp_path / name)
                   for name in ("clean.blk", "noisy.blk", "trajectory.csv")}
        assert main(manifest["args"]["argv"]) == 0
        for name, want in digests.items():
            assert digest(tmp_path / name) == want

    def test_bad_range_exits_two(self, tmp_path, capsys):
        code = run("generate", "--n", 8, "--traj", "smooth-random",
                   "--swh-range", "5,1", "--out-dir", tmp_path)
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--noise-var", "-1"), ("--noise-var", "nan"), ("--looks", "inf"), ("--looks", "nan"),
        ("--noise-mode", "additive-gaussian", "--noise-var", "-1"),
    ], ids=["var-negative", "var-nan", "looks-inf", "looks-nan", "additive-var-negative"])
    def test_bad_noise_spec_exits_two(self, tmp_path, capsys, flags):
        code = run("generate", "--traj", "constant", "--n", 5, *flags, "--out-dir", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not list(tmp_path.glob("*.blk"))

    @pytest.mark.parametrize("flag, value", [
        ("--swh", "nan"), ("--swh", "inf"), ("--pu", "nan"), ("--pu", "inf"),
        ("--tau-m", "nan"), ("--tau-m", "inf"),
    ])
    def test_non_finite_trajectory_exits_two(self, tmp_path, capsys, flag, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("generate", "--traj", "constant", "--n", 5, flag, value,
                       "--out-dir", tmp_path)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.blk"))

    @pytest.mark.parametrize("n", [24, 30])
    def test_accepts_its_own_short_tracks(self, tmp_path, n):
        rejected = [seed for seed in range(20)
                    if run("generate", "--n", n, "--seed", seed, "--out-dir", tmp_path) != 0]
        assert rejected == []

    def test_trajectory_file_with_a_jump_exits_two(self, tmp_path, capsys):
        path = tmp_path / "jump.csv"
        path.write_text("index,swh_m,tau_m,pu\n" + "".join(
            f"{i},{2.0 if i < 15 else 4.0},14.5,130.0\n" for i in range(30)))
        code = run("generate", "--n", 30, "--traj", "file", "--traj-file", path,
                   "--out-dir", tmp_path)
        assert code == 2
        assert "exceed smoothness caps" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.blk"))


class TestDenoiseEstimateMetrics:
    @pytest.fixture()
    def generated(self, tmp_path):
        assert run("generate", "--n", 60, "--seed", 1, "--out-dir", tmp_path) == 0
        return tmp_path

    def test_denoise_pipeline(self, generated):
        out = generated / "denoised.blk"
        trace = generated / "trace.csv"
        code = run("denoise", "--input", generated / "noisy.blk",
                   "--output", out, "--chunk", 30,
                   "--emit-cost-trace", trace)
        assert code == 0
        denoised = blockio.read_block(out)
        assert denoised.shape == (104, 60)
        with open(trace) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"chunk", "iteration", "cost"}
        chunks = {r["chunk"] for r in rows}
        assert chunks == {"0", "1"}
        costs = [float(r["cost"]) for r in rows if r["chunk"] == "0"]
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(costs, costs[1:]))
        assert (generated / "denoised.blk.manifest.json").exists()

    def test_denoise_reports_kept_modes(self, generated, capsys):
        capsys.readouterr()
        assert run("denoise", "--input", generated / "noisy.blk",
                   "--output", generated / "denoised.blk", "--chunk", 25) == 0
        _, states = denoise_stream(blockio.read_block(generated / "noisy.blk"), 25,
                                   with_states=True)
        converged = sum(s.stop_reason == "converged" for s in states)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"denoised 60 signals in 3 chunk(s); {converged}/3 converged"
        assert lines[1] == f"kept eigenmodes: {states[-1].modes}/10, {states[0].modes}/25"

    def test_denoise_improves_rsnr_via_metrics_cmd(self, generated, capsys):
        out = generated / "denoised.blk"
        assert run("denoise", "--input", generated / "noisy.blk",
                   "--output", out, "--chunk", 60) == 0
        report = generated / "metrics.csv"
        assert run("metrics", "--clean", generated / "clean.blk",
                   "--est", out, "--output", report) == 0
        with open(report) as fh:
            rows = {(r["metric"], r["param"]): float(r["value"])
                    for r in csv.DictReader(fh)}
        assert rows[("rsnr_db", "block")] > 25.0

    def test_estimate_methods(self, generated):
        for method in ("ls", "svd-ls", "sse-ls"):
            out = generated / f"est_{method}.csv"
            code = run("estimate", "--input", generated / "noisy.blk",
                       "--method", method, "--chunk", 60, "--output", out)
            assert code == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 60
            assert set(rows[0]) == {"index", "swh_m", "tau_m", "pu",
                                    "residual", "converged"}

    def test_estimate_reports_grid_columns(self, generated, capsys):
        capsys.readouterr()
        assert run("estimate", "--input", generated / "noisy.blk",
                   "--output", generated / "est.csv") == 0
        fits = fit_block(blockio.read_block(generated / "noisy.blk"), jason2_like())
        grid = sum(not f.warm for f in fits)
        assert 1 <= grid < 60
        assert f"; {grid}/60 ran the full start grid" in capsys.readouterr().out

    def test_metrics_series_statistics(self, generated):
        est = generated / "est.csv"
        assert run("estimate", "--input", generated / "noisy.blk",
                   "--method", "ls", "--output", est) == 0
        report = generated / "series_metrics.csv"
        assert run("metrics", "--series", est,
                   "--truth", generated / "trajectory.csv",
                   "--output", report) == 0
        with open(report) as fh:
            rows = {(r["metric"], r["param"]): float(r["value"])
                    for r in csv.DictReader(fh)}
        assert ("rmse", "swh") in rows and ("std_20hz", "pu") in rows
        assert rows[("rmse", "tau")] < 0.5

    @pytest.mark.parametrize("bad_flag, text, message", [
        ("--series", "index,swh_m,tau_m\n0,2.0,14.5\n", "missing columns"),
        ("--truth", "index,swh_m,tau_m\n0,2.0,14.5\n", "missing columns"),
        ("--series", "index,swh_m,tau_m,pu\n", "empty CSV"),
    ], ids=["series-missing-column", "truth-missing-column", "header-only"])
    def test_bad_series_csv_exits_two(self, generated, capsys, bad_flag, text, message):
        est = generated / "est.csv"
        assert run("estimate", "--input", generated / "noisy.blk",
                   "--output", est) == 0
        files = {"--series": est, "--truth": generated / "trajectory.csv"}
        files[bad_flag] = generated / "bad.csv"
        files[bad_flag].write_text(text)
        capsys.readouterr()
        code = run("metrics", "--series", files["--series"],
                   "--truth", files["--truth"], "--output", generated / "m.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_missing_input_exits_four(self, tmp_path):
        code = run("denoise", "--input", tmp_path / "absent.blk",
                   "--output", tmp_path / "out.blk")
        assert code == 4

    def test_corrupt_input_exits_two(self, tmp_path):
        bad = tmp_path / "bad.blk"
        bad.write_bytes(b"garbage-bytes-here")
        code = run("denoise", "--input", bad, "--output", tmp_path / "out.blk")
        assert code == 2

    @pytest.mark.parametrize("num_gates, num_signals", [(2**32 - 1, 2**32 - 1), (0, 8)],
                             ids=["huge", "zero-gates"])
    def test_bad_header_exits_two(self, tmp_path, capsys, num_gates, num_signals):
        bad = tmp_path / "bad.blk"
        bad.write_bytes(blockio._HEADER.pack(blockio.MAGIC, num_gates, num_signals))
        code = run("denoise", "--input", bad, "--output", tmp_path / "out.blk")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_threads_flag_is_ignored(self, generated):
        plain, threaded = generated / "plain.blk", generated / "threaded.blk"
        assert run("denoise", "--input", generated / "noisy.blk",
                   "--output", plain, "--chunk", 24) == 0
        assert run("denoise", "--input", generated / "noisy.blk",
                   "--output", threaded, "--chunk", 24, "--threads", 4) == 0
        assert plain.read_bytes() == threaded.read_bytes()

    def test_non_finite_block_exits_three(self, tmp_path):
        poisoned = np.ones((104, 8))
        poisoned[50, 3] = np.nan
        path = tmp_path / "poisoned.blk"
        blockio.write_block(path, poisoned)
        code = run("denoise", "--input", path, "--output", tmp_path / "out.blk")
        assert code == 3

    @pytest.mark.parametrize("method", ["ls", "svd-ls", "sse-ls"])
    def test_estimate_non_finite_block_exits_three(self, tmp_path, capsys, method):
        poisoned = np.ones((104, 8))
        poisoned[50, 3] = np.nan
        path = tmp_path / "poisoned.blk"
        blockio.write_block(path, poisoned)
        code = run("estimate", "--input", path, "--method", method,
                   "--output", tmp_path / "est.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err


class TestBench:
    def test_table2_mini(self, tmp_path, capsys):
        code = run("bench", "--suite", "table2", "--out", tmp_path,
                   "--swh-list", "2", "--runs", 40, "--seed", 0)
        assert code == 0
        with open(tmp_path / "table2.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["rsnr_sse"]) > 25.0
        assert (tmp_path / "table2.manifest.json").exists()

    def test_table1_mini(self, tmp_path):
        code = run("bench", "--suite", "table1", "--out", tmp_path,
                   "--n", 120, "--m-list", "40,120", "--seed", 0)
        assert code == 0
        with open(tmp_path / "table1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["filter_length"] for r in rows] == ["40", "120"]
        manifest = blockio.read_manifest(tmp_path / "table1.manifest.json")
        assert manifest["args"]["input_rsnr_db"] == pytest.approx(19.55, abs=1.5)

    def test_fig4_mini(self, tmp_path):
        code = run("bench", "--suite", "fig4", "--out", tmp_path,
                   "--swh-list", "2", "--runs", 12, "--seed", 0)
        assert code == 0
        with open(tmp_path / "fig4.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["rmse_swh_ls"]) > 0.0

    def test_bench_deterministic_given_seed(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            assert run("bench", "--suite", "table2", "--out", out,
                       "--swh-list", "2", "--runs", 25, "--seed", 11) == 0
        assert digest(a_dir / "table2.csv") == digest(b_dir / "table2.csv")

    def test_scale_flag_sets_runs(self, tmp_path):
        code = run("bench", "--suite", "table2", "--out", tmp_path,
                   "--swh-list", "2", "--scale", 0.02, "--seed", 0)
        assert code == 0
        manifest = blockio.read_manifest(tmp_path / "table2.manifest.json")
        assert manifest["args"]["runs"] is None  # derived from scale
        assert manifest["args"]["scale"] == pytest.approx(0.02)


def _contract_run(subcommand, src, d):
    """argv of one successful run, its documented manifest path and output roles."""
    return {
        "generate": (["generate", "--n", 40, "--seed", 4, "--out-dir", d],
                     d / "generate.manifest.json", {"clean", "noisy", "trajectory"}),
        "denoise": (["denoise", "--input", src / "noisy.blk", "--output", d / "den.blk",
                     "--chunk", 20, "--emit-cost-trace", d / "trace.csv"],
                    d / "den.blk.manifest.json", {"denoised", "cost_trace"}),
        "estimate": (["estimate", "--input", src / "noisy.blk", "--output", d / "est.csv"],
                     d / "est.csv.manifest.json", {"estimates"}),
        "metrics": (["metrics", "--clean", src / "clean.blk", "--est", src / "noisy.blk",
                     "--series", src / "trajectory.csv", "--output", d / "m.csv"],
                    d / "m.csv.manifest.json", {"metrics"}),
        "bench": (["bench", "--suite", "table1", "--out", d, "--n", 40, "--m-list", "20,40",
                   "--seed", 6], d / "table1.manifest.json", {"report"}),
    }[subcommand]


class TestManifestContract:
    @pytest.fixture()
    def src(self, tmp_path):
        assert run("generate", "--n", 40, "--seed", 1, "--out-dir", tmp_path / "src") == 0
        return tmp_path / "src"

    @pytest.mark.parametrize("subcommand",
                             ["generate", "denoise", "estimate", "metrics", "bench"])
    def test_one_manifest_at_its_documented_path(self, src, tmp_path, subcommand):
        d = tmp_path / "run"
        d.mkdir()
        argv, path, roles = _contract_run(subcommand, src, d)
        assert run(*argv) == 0
        assert list(d.rglob("*.manifest.json")) == [path]
        manifest = blockio.read_manifest(path)
        assert manifest["subcommand"] == subcommand
        assert manifest["args"]["argv"] == [str(a) for a in argv]
        master = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
        expected_seeds = {"master", "noise"} if subcommand == "generate" else {"master"}
        assert set(manifest["seeds"]) == expected_seeds
        assert manifest["seeds"]["master"] == master
        assert set(manifest["outputs"]) == roles
        assert all(Path(out).is_file() for out in manifest["outputs"].values())

    @pytest.mark.parametrize("argv, code", [
        (["generate", "--n", 8, "--swh-range", "5,1", "--out-dir", "{d}/out"], 2),
        (["denoise", "--input", "{d}/nan.blk", "--output", "{d}/out.blk"], 3),
        (["generate", "--n", 8, "--traj", "constant", "--pu", 0, "--out-dir", "{d}/out"], 3),
        (["denoise", "--input", "{d}/absent.blk", "--output", "{d}/out.blk"], 4),
    ], ids=["bad-range", "non-finite-block", "zero-energy", "missing-input"])
    def test_failed_run_writes_no_manifest(self, tmp_path, argv, code):
        poisoned = np.ones((104, 8))
        poisoned[50, 3] = np.nan
        blockio.write_block(tmp_path / "nan.blk", poisoned)
        assert run(*(str(a).format(d=tmp_path) for a in argv)) == code
        # no manifest, and no output either: only the test's own input is left
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["nan.blk"]


class TestParser:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_denoise_defaults_are_solver_defaults(self):
        args = build_parser().parse_args(["denoise", "--input", "a", "--output", "b"])
        assert _solver_config(args) == SolverConfig()

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n", "4", "--frobnicate"])
        assert exc.value.code == 2
