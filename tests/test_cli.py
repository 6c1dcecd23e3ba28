import argparse
import csv
import hashlib
import json
import os
import re
import shlex
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from altismooth import (blockio, cli, denoise_stream, fit_block, gmrf, jason2_like,
                        make_trajectory, retrack, simulate, solver)
from altismooth.cli import build_parser, main


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

    def test_narrow_block_is_a_prefix_of_a_wide_one(self, tmp_path):
        # one noise stream drawn signal by signal: the width changes no column
        for n in (40, 200):
            assert run("generate", "--traj", "constant", "--n", n, "--seed", 4,
                       "--out-dir", tmp_path / str(n)) == 0
        narrow, wide = (blockio.read_block(tmp_path / str(n) / "noisy.blk") for n in (40, 200))
        assert narrow.tobytes() == np.ascontiguousarray(wide[:, :40]).tobytes()

    def test_manifest_round_trip_reproduces_outputs(self, tmp_path):
        assert run("generate", "--n", 24, "--seed", 5, "--out-dir", tmp_path) == 0
        manifest = json.loads((tmp_path / "generate.manifest.json").read_text())
        digests = {name: digest(tmp_path / name)
                   for name in ("clean.blk", "noisy.blk", "trajectory.csv")}
        assert main(manifest["args"]["argv"]) == 0
        for name, want in digests.items():
            assert digest(tmp_path / name) == want

    @pytest.mark.parametrize("flags, message", [
        (("--noise-var", "0.1"), "--noise-var is not read by --noise-mode multiplicative-speckle"),
        (("--traj", "smooth-random", "--swh", "3"), "--swh is not read by --traj smooth-random"),
        (("--traj", "file"), "--traj file needs --traj-file"),  # and one it reads is missing
    ], ids=["noise-var", "swh", "traj-file-missing"])
    def test_unread_option_names_the_mode(self, tmp_path, capsys, flags, message):
        assert run("generate", "--n", 5, *flags, "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("pu", ["1e200", "1e-170"])
    def test_input_rsnr_is_free_of_the_amplitude_unit(self, tmp_path, capsys, pu):
        # far from 130 the energies overflow or underflow unless summed in units of the peak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in ("130", pu):
                assert run("generate", "--traj", "constant", "--n", 8, "--pu", value,
                           "--seed", 7, "--out-dir", tmp_path / value) == 0
        reference, scaled = capsys.readouterr().out.splitlines()[1::2]
        assert scaled == reference == "input RSNR: 19.52 dB"

    def test_manifest_records_unread_options_as_null(self, tmp_path):
        assert run("generate", "--n", 5, "--traj", "constant", "--out-dir", tmp_path) == 0
        args = json.loads((tmp_path / "generate.manifest.json").read_text())["args"]
        assert (args["swh"], args["pu"], args["looks"]) == (2.0, 130.0, 90.0)
        unread = ("swh_range", "tau_range", "pu_range", "traj_file", "noise_var")
        assert [args[name] for name in unread] == [None] * len(unread)

    def test_outputs_get_the_umask_mode(self, tmp_path):
        # a block, a CSV and a manifest get open()'s 0o666 less the umask, not 0o600
        umask = os.umask(0o022)
        try:
            assert run("generate", "--n", 4, "--out-dir", tmp_path) == 0
        finally:
            os.umask(umask)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["clean.blk", "noisy.blk", "trajectory.csv",
                                       "generate.manifest.json"], 0o644)

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

    @pytest.mark.parametrize("n", [24, 30])
    def test_replays_its_own_short_tracks(self, tmp_path, n):
        # the step cap grows on tracks shorter than the smoothing window
        for seed in range(20):
            first, replay = tmp_path / f"{seed}", tmp_path / f"{seed}-replay"
            assert run("generate", "--n", n, "--seed", seed, "--out-dir", first) == 0
            assert run("generate", "--n", n, "--seed", seed, "--traj", "file",
                       "--traj-file", first / "trajectory.csv", "--out-dir", replay) == 0
            assert digest(replay / "clean.blk") == digest(first / "clean.blk")

    @pytest.mark.parametrize("row", ["1,2.0,14.5", "1,2.0,abc,130.0"],
                             ids=["missing-cell", "non-numeric"])
    def test_malformed_trajectory_file_exits_two(self, tmp_path, capsys, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"index,swh_m,tau_m,pu\n0,2.0,14.5,130.0\n{row}\n")
        code = run("generate", "--n", 2, "--traj", "file", "--traj-file", path,
                   "--out-dir", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: ") and "Traceback" not in err
        assert not list(tmp_path.glob("*.blk"))

    @pytest.mark.parametrize("key, value, repeat, message", [
        ("alpha", "= inf", False, "alpha, sigma_p and c must be positive and finite"),
        ("sigma_p", "= inf", False, "alpha, sigma_p and c must be positive and finite"),
        ("c", "= inf", False, "alpha, sigma_p and c must be positive and finite"),
        ("alpha", "= nan", False, "alpha, sigma_p and c must be positive and finite"),
        ("gate_resolution", "= inf", False, "need finite gate_resolution > 0"),
        ("alpha", "= abc", False, "could not convert string to float: 'abc'"),
        ("num_gates", "= 104.0", False, "invalid literal for int()"),
        ("alpha", "= 1.0e9", True, "duplicate key 'alpha'"),
        ("alpha", ": 2.022e6", False, "expected 'key = value'"),
    ], ids=["alpha-inf", "sigma_p-inf", "c-inf", "alpha-nan", "gate_resolution-inf",
            "alpha-abc", "num_gates-float", "alpha-repeated", "alpha-colon"])
    def test_bad_constants_profile_exits_two(self, tmp_path, capsys, key, value, repeat,
                                             message):
        # the bad line ends a valid profile, in place of the key's line or after it
        consts = jason2_like()
        values = {k: getattr(consts, k) for k in ("alpha", "sigma_p", "c", "gate_resolution",
                                                   "num_gates")}
        lines = [f"{k} = {v}\n" for k, v in values.items() if repeat or k != key]
        path = tmp_path / "bad.cfg"
        path.write_text("".join(lines) + f"{key} {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("generate", "--n", 8, "--config", path, "--out-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        # a repeat or a line without "=" is named with its line
        where = f"{path}:{len(lines) + 1}" if repeat or "=" not in value else path
        assert err.startswith(f"error: {where}: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
        # each method gets only the options it reads; the manifest records the others as null
        for method, chunk in (("ls", None), ("svd-ls", 60)):
            out = generated / f"est_{method}.csv"
            flags = () if chunk is None else ("--chunk", chunk)
            code = run("estimate", "--input", generated / "noisy.blk",
                       "--method", method, *flags, "--output", out)
            assert code == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 60
            assert set(rows[0]) == {"index", "swh_m", "tau_m", "pu",
                                    "residual", "converged"}
            args = json.loads(Path(f"{out}.manifest.json").read_text())["args"]
            assert args["chunk"] == chunk

    def test_estimate_reports_grid_columns(self, generated, capsys):
        capsys.readouterr()
        assert run("estimate", "--input", generated / "noisy.blk",
                   "--output", generated / "est.csv") == 0
        fits = fit_block(blockio.read_block(generated / "noisy.blk"), jason2_like())
        grid = (~fits.warm).sum()
        assert 1 <= grid < 60
        assert f"; {grid}/60 ran the full start grid" in capsys.readouterr().out
        # est.csv holds the fits column by column, at full precision
        with open(generated / "est.csv") as fh:
            rows = list(csv.DictReader(fh))
        written = np.array([[float(r[k]) for k in ("swh_m", "tau_m", "pu", "residual")]
                            for r in rows])
        p = fits.params
        assert np.array_equal(written, np.column_stack([p.swh, p.tau, p.pu, fits.residual_norm]))
        assert [r["index"] for r in rows] == [str(m) for m in range(60)]
        assert [r["converged"] for r in rows] == [str(int(c)) for c in fits.converged]

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

    def test_metrics_of_one_signal(self, tmp_path):
        # rsnr and rmse are defined on one signal; std needs two, std_20hz twenty
        d = tmp_path
        assert run("generate", "--n", 1, "--seed", 3, "--out-dir", d) == 0
        assert run("estimate", "--input", d / "noisy.blk", "--output", d / "est.csv") == 0
        assert run("metrics", "--clean", d / "clean.blk", "--est", d / "noisy.blk",
                   "--series", d / "est.csv", "--truth", d / "trajectory.csv",
                   "--output", d / "m.csv") == 0
        with open(d / "m.csv") as fh:
            rows = [(r["metric"], r["param"]) for r in csv.DictReader(fh)]
        assert rows == [("rsnr_db", "block"), ("rmse", "swh"), ("rmse", "tau"), ("rmse", "pu")]

    @pytest.mark.parametrize("bad_flag, text, message", [
        ("--series", "index,swh_m,tau_m\n0,2.0,14.5\n", "missing columns"),
        ("--truth", "index,swh_m,tau_m\n0,2.0,14.5\n", "missing columns"),
        ("--series", "index,swh_m,tau_m,pu\n", "empty CSV"),
        ("--series", "index,swh_m,tau_m,pu\n0,nan,14.5,130.0\n", "must be finite"),
        ("--truth", "index,swh_m,tau_m,pu\n0,2.0,14.5,inf\n", "must be finite"),
        ("--series", "index,swh_m,tau_m,pu\n0,2.0,14.5,130.0\n1,2.0,14.5\n",
         "line 3: swh_m, tau_m and pu must be numbers"),
        ("--truth", "index,swh_m,tau_m,pu\n0,2.0,abc,130.0\n",
         "line 2: swh_m, tau_m and pu must be numbers"),
    ], ids=["series-missing-column", "truth-missing-column", "header-only", "series-nan",
            "truth-inf", "series-missing-cell", "truth-non-numeric"])
    def test_bad_series_csv_exits_two(self, generated, capsys, bad_flag, text, message):
        est = generated / "est.csv"
        assert run("estimate", "--input", generated / "noisy.blk",
                   "--output", est) == 0
        files = {"--series": est, "--truth": generated / "trajectory.csv"}
        files[bad_flag] = generated / "bad.csv"
        files[bad_flag].write_text(text)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("metrics", "--series", files["--series"],
                       "--truth", files["--truth"], "--output", generated / "m.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert f"{files[bad_flag]}: " in err and not (generated / "m.csv").exists()

    @pytest.mark.parametrize("flag", ["--clean", "--est"])
    def test_metrics_non_finite_block_exits_three(self, generated, capsys, flag):
        blocks = {"--clean": generated / "clean.blk", "--est": generated / "noisy.blk"}
        poisoned = blockio.read_block(blocks[flag])
        poisoned[50, 3] = np.nan
        blocks[flag] = generated / "poisoned.blk"
        blockio.write_block(blocks[flag], poisoned)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("metrics", "--clean", blocks["--clean"], "--est", blocks["--est"],
                       "--output", generated / "metrics.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err
        assert f"{blocks[flag]}: " in err and "non-finite" in err
        assert not (generated / "metrics.csv").exists()

    @pytest.mark.parametrize("flags", [("--clean", "--est"), ("--series", "--truth")],
                             ids=["blocks", "series"])
    def test_mismatched_inputs_exit_two(self, tmp_path, capsys, flags):
        # 30 signals against 40 is bad input, not a numerical failure
        first, second = tmp_path / "a", tmp_path / "b"
        for path, n in ((first, 30), (second, 40)):
            if flags[0] == "--clean":
                blockio.write_block(path, np.ones((104, n)))
            else:
                traj = make_trajectory("constant", n, swh=2.0, tau=14.5, pu=130.0)
                blockio.write_trajectory_csv(path, traj)
        capsys.readouterr()
        code = run("metrics", flags[0], first, flags[1], second, "--output", tmp_path / "m.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

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

    def test_non_finite_block_exits_three(self, tmp_path):
        poisoned = np.ones((104, 8))
        poisoned[50, 3] = np.nan
        path = tmp_path / "poisoned.blk"
        blockio.write_block(path, poisoned)
        code = run("denoise", "--input", path, "--output", tmp_path / "out.blk")
        assert code == 3

    @pytest.mark.parametrize("method", ["ls", "svd-ls"])
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
        manifest = json.loads((tmp_path / "table1.manifest.json").read_text())
        assert manifest["args"]["n"] == 120
        assert manifest["args"]["input_rsnr_db"] == pytest.approx(19.55, abs=1.5)

    @pytest.mark.parametrize("n", [0, -3])
    def test_table1_names_an_n_below_one(self, tmp_path, capsys, n):
        # rejected as itself, before any chunk length is dropped for not fitting
        assert run("bench", "--suite", "table1", "--n", n, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: --n must be >= 1, got {n}\n"

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

    @pytest.mark.parametrize("flags, runs", [((), 500), (("--runs", 30), 30)],
                             ids=["default", "given"])
    def test_manifest_records_runs_used(self, tmp_path, flags, runs):
        assert run("bench", "--suite", "table2", "--out", tmp_path,
                   "--swh-list", "2", *flags) == 0
        manifest = json.loads((tmp_path / "table2.manifest.json").read_text())
        assert manifest["args"]["runs"] == runs
        assert manifest["args"]["n"] is None  # table1's option, unread here


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


# generate options outside the --traj and --noise-mode choices that read them
_UNREAD_BY_MODE = [
    ("--traj", "constant", "--swh-range", "1,2"),
    ("--traj", "constant", "--traj-file", "x.csv"),
    *[("--traj", "smooth-random", flag, "3") for flag in ("--swh", "--pu", "--tau-gates",
                                                            "--tau-m")],
    ("--traj", "file", "--traj-file", "x.csv", "--pu-range", "1,2"),
    ("--noise-var", "0.1"),
    ("--noise-mode", "additive-gaussian", "--noise-var", "0.1", "--looks", "4"),
]


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
        manifest = json.loads(path.read_text())
        assert manifest["subcommand"] == subcommand
        assert manifest["args"]["argv"] == [str(a) for a in argv]
        expected_seeds = {"generate": {"master", "noise"}, "bench": {"master"}}
        assert set(manifest["seeds"]) == expected_seeds.get(subcommand, set())
        if "--seed" in argv:
            assert manifest["seeds"]["master"] == int(argv[argv.index("--seed") + 1])
        assert set(manifest["outputs"]) == roles
        assert all(Path(out).is_file() for out in manifest["outputs"].values())

    @pytest.mark.parametrize("argv, code", [
        (["generate", "--n", 8, "--swh-range", "5,1", "--out-dir", "{d}/out"], 2),
        (["denoise", "--input", "{d}/nan.blk", "--output", "{d}/out.blk"], 3),
        (["generate", "--n", 8, "--traj", "constant", "--pu", 0, "--out-dir", "{d}/out"], 3),
        (["generate", "--n", 8, "--traj", "file", "--out-dir", "{d}/out"], 2),
        (["denoise", "--input", "{d}/absent.blk", "--output", "{d}/out.blk"], 4),
        (["bench", "--suite", "table1", "--n", 10, "--m-list=-5,5", "--out", "{d}/out"], 2),
        (["bench", "--suite", "table1", "--n", 10, "--m-list=20", "--out", "{d}/out"], 2),
        (["bench", "--suite", "table1", "--n", 0, "--out", "{d}/out"], 2),
        (["metrics", "--clean", "{d}/nan.blk", "--est", "{d}/nan.blk",
          "--truth", "{d}/truth.csv", "--output", "{d}/m.csv"], 2),
        # options outside the modes that read them; the estimate input is
        # non-finite (exit 3), so these exit 2 only if rejected before reading it
        (["estimate", "--input", "{d}/nan.blk", "--method", "ls", "--chunk", 7,
          "--output", "{d}/e.csv"], 2),
        *[(["bench", "--suite", "table1", "--n", 10, "--m-list", 5, flag, value,
            "--out", "{d}/out"], 2)
          for flag, value in (("--runs", 9), ("--swh-list", 3), ("--chunk", 3))],
        *[(["bench", "--suite", suite, "--runs", 2, "--swh-list", 2, flag, value,
            "--out", "{d}/out"], 2)
          for suite in ("table2", "fig4") for flag, value in (("--n", 10), ("--m-list", 5))],
        *[(["bench", "--suite", suite, "--runs", 2, "--swh-list=", "--out", "{d}/out"], 2)
          for suite in ("table2", "fig4")],
        *[(["generate", "--n", 8, *flags, "--out-dir", "{d}/out"], 2) for flags in _UNREAD_BY_MODE],
    ], ids=["bad-range", "non-finite-block", "zero-energy", "file-without-traj-file",
            "missing-input",
            "negative-chunk", "chunk-beyond-track", "table1-zero-n", "truth-without-series",
            "ls-chunk", "table1-runs", "table1-swh-list", "table1-chunk",
            "table2-n", "table2-m-list", "fig4-n", "fig4-m-list",
            "table2-empty-swh-list", "fig4-empty-swh-list",
            *[" ".join(("generate",) + flags) for flags in _UNREAD_BY_MODE]])
    def test_failed_run_writes_no_manifest(self, tmp_path, capsys, argv, code):
        poisoned = np.ones((104, 8))
        poisoned[50, 3] = np.nan
        blockio.write_block(tmp_path / "nan.blk", poisoned)
        assert run(*(str(a).format(d=tmp_path) for a in argv)) == code
        prefix = {2: "error:", 3: "numerical failure:", 4: "io failure:"}[code]
        assert any(line.startswith(prefix) for line in capsys.readouterr().err.splitlines())
        # no manifest, no output and no output directory: only the test's own input is left
        assert [p.name for p in tmp_path.rglob("*")] == ["nan.blk"]


_MINIMAL_ARGVS = {
    "generate": ["generate", "--n", "4"],
    "denoise": ["denoise", "--input", "a", "--output", "b"],
    "estimate": ["estimate", "--input", "a", "--output", "b"],
    "metrics": ["metrics", "--output", "b"],
    "bench": ["bench", "--suite", "table1", "--out", "d"],
}
_UNREAD_OPTIONS = [
    ("denoise", "--seed", "1"), ("estimate", "--seed", "1"), ("metrics", "--seed", "1"),
    ("denoise", "--config", "x"), ("metrics", "--config", "x"),
    *[(sub, flag, "2") for sub in _MINIMAL_ARGVS for flag in ("--threads", "--scale")],
    # retired: the paper's fixed solver settings and SVD energy threshold
    *[("denoise", flag, "2") for flag in ("--zeta", "--eta", "--xi", "--tmax", "--lengthscale")],
    ("estimate", "--svd-threshold", "0.84"), ("bench", "--svd-threshold", "0.84"),
]

# every option of each subcommand: adding or removing one is an edit here
_OPTIONS = {
    "generate": ["--config", "--looks", "--n", "--noise-mode", "--noise-var", "--out-dir",
                 "--pu", "--pu-range", "--seed", "--swh", "--swh-range", "--tau-gates",
                 "--tau-m", "--tau-range", "--traj", "--traj-file"],
    "denoise": ["--chunk", "--emit-cost-trace", "--input", "--output"],
    "estimate": ["--chunk", "--config", "--input", "--method", "--output"],
    "metrics": ["--clean", "--est", "--output", "--series", "--truth"],
    "bench": ["--chunk", "--config", "--looks", "--m-list", "--n", "--out", "--runs", "--seed",
              "--suite", "--swh-list"],
}


class TestParser:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand, flag, value", _UNREAD_OPTIONS,
                             ids=[f"{sub}{flag}" for sub, flag, _ in _UNREAD_OPTIONS])
    def test_unread_option_exits_two(self, capsys, subcommand, flag, value):
        argv = _MINIMAL_ARGVS[subcommand]
        build_parser().parse_args(argv)  # valid without the flag
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", list(_OPTIONS))
    def test_option_set_is_pinned(self, subcommand):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(_OPTIONS)
        options = sorted(flag for a in sub.choices[subcommand]._actions if a.dest != "help"
                         for flag in a.option_strings)
        assert options == _OPTIONS[subcommand]

    def test_pair_is_comma_separated(self):
        parse = build_parser().parse_args
        assert parse(["generate", "--n", "4", "--swh-range", "3,5"]).swh_range == (3.0, 5.0)
        with pytest.raises(SystemExit) as exc:
            parse(["generate", "--n", "4", "--swh-range", "3:5"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n", "4", "--frobnicate"])
        assert exc.value.code == 2

    def test_readme_commands_parse(self):
        # a removed subcommand, choice or option must not linger in the documented commands
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```.*?\n(.*?)^```", readme, flags=re.S | re.M)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        argvs = [shlex.split(line, comments=True)[1:] for line in lines
                 if line.startswith("altismooth ")]
        assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
        for argv in argvs:
            build_parser().parse_args(argv)

    def test_readme_python_runs(self, capsys):
        # an API change must not leave the library quick start stale
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})


class TestPipelineMemory:
    # Each step's tracemalloc peak above what was allocated when it started, on
    # the pipeline benchmark's 104 x 200 block (0.17 MB).  Measured: generate
    # 0.61-0.62 MB, denoise 0.52-0.55, estimate 0.57 and metrics 0.49, against
    # 0.66, 0.65, 0.65 and 0.49 when the M x M basis was built, every start's
    # jacobian carried and the model's terms not computed in place.  A step
    # moves by up to 0.04 MB between runs, with the garbage left to collect.
    LIMITS = {"generate": 0.65e6, "denoise": 0.59e6, "estimate": 0.60e6, "metrics": 0.53e6}

    def test_each_step_peak_above_its_start(self, tmp_path, capsys):
        d = tmp_path
        argvs = [
            ("generate", "--n", 200, "--traj", "constant", "--swh", 2, "--tau-gates", 31,
             "--pu", 130, "--looks", 90, "--seed", 7, "--out-dir", d),
            ("denoise", "--input", d / "noisy.blk", "--output", d / "denoised.blk",
             "--chunk", 500),
            ("estimate", "--input", d / "denoised.blk", "--method", "ls",
             "--output", d / "est.csv"),
            ("metrics", "--clean", d / "clean.blk", "--est", d / "denoised.blk",
             "--series", d / "est.csv", "--truth", d / "trajectory.csv",
             "--output", d / "metrics.csv"),
        ]
        for argv in argvs:
            assert run(*argv) == 0, capsys.readouterr().err
        peaks = {}
        tracemalloc.start()
        try:
            for argv in argvs:
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert run(*argv) == 0, capsys.readouterr().err
                peaks[argv[0]] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert [step for step, peak in peaks.items() if peak > self.LIMITS[step]] == [], peaks


class TestTracedAttributes:
    """The module attributes perfbench's traced run wraps, at the names their callers use."""

    TARGETS = (
        (solver, ("build_correlation", "decompose", "denoise")),
        (gmrf, ("variance_sweep", "aux_sweep", "chain_cost_terms")),
        (cli, ("make_trajectory", "clean_block", "corrupt", "denoise_stream", "fit_block")),
        (simulate, ("waveform_block",)),
        (retrack, ("ls_fit", "brown_waveform", "brown_jacobian")),
        (blockio, ("read_block", "write_block", "write_manifest")),
    )

    def test_pipeline_calls_every_wrapped_attribute(self, tmp_path, monkeypatch, capsys):
        # a refactor that moves a call off one of these names leaves its span
        # empty, and the traced benchmark run fails on a span that recorded no calls
        calls = {}
        for module, names in self.TARGETS:
            for name in names:
                key = f"{module.__name__}.{name}"

                def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
                    calls[_key] += 1
                    return _fn(*args, **kwargs)

                calls[key] = 0
                monkeypatch.setattr(module, name, counted)
        d = tmp_path
        argvs = [
            ("generate", "--n", 40, "--traj", "constant", "--swh", 2, "--tau-gates", 31,
             "--pu", 130, "--looks", 90, "--seed", 7, "--out-dir", d),
            ("denoise", "--input", d / "noisy.blk", "--output", d / "denoised.blk",
             "--chunk", 500),
            ("estimate", "--input", d / "denoised.blk", "--method", "ls",
             "--output", d / "est.csv"),
            ("metrics", "--clean", d / "clean.blk", "--est", d / "denoised.blk",
             "--series", d / "est.csv", "--truth", d / "trajectory.csv",
             "--output", d / "metrics.csv"),
        ]
        for argv in argvs:
            assert run(*argv) == 0, capsys.readouterr().err
        assert [key for key, count in calls.items() if count == 0] == []
