"""Command-line front end.

Subcommands: generate, denoise, estimate, metrics, bench.  Each command
writes its outputs and returns a `Run` naming them; `main` then writes the
run's JSON manifest next to them, recording the resolved arguments and
seeds, so any output can be reproduced byte-for-byte by re-running the
recorded argv.  Only a run that exits 0 writes a manifest.

Exit codes: 0 ok, 2 bad input (any ``ValueError``), 3 numerical failure
(any other ``AltismoothError``), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bench, blockio, metrics
from .brown import BrownConstants, gates_to_meters, jason2_like, load_constants
from .errors import AltismoothError, BadRangeError, NonFiniteError
from .kernels import DEFAULT_LENGTHSCALE
from .retrack import fit_block, svd_filter_stream
from .simulate import NOISE_MODES, NoiseSpec, clean_block, corrupt, make_trajectory
from .solver import SolverConfig, denoise_stream

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass
class Run:
    """What one subcommand wrote, for `main` to record in the run's manifest."""

    outputs: dict[str, Path]
    summary: list[str]  # stdout lines, printed after the manifest is written
    manifest: Path | None = None  # None: <--output>.manifest.json
    seeds: dict[str, int] = field(default_factory=dict)  # recorded as given
    args: dict = field(default_factory=dict)  # manifest args beyond the parsed ones


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.replace(":", ",").split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p]


def _parse_ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p]


@functools.cache  # one parser per process, built on first use; callers only parse with it
def build_parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)  # the commands that draw random numbers
    seeded.add_argument("--seed", type=int, default=0, help="master RNG seed")
    configured = argparse.ArgumentParser(add_help=False)  # the commands that load constants
    configured.add_argument("--config", type=Path, default=None,
                            help="constants profile file (default: packaged jason2-like)")
    parser = argparse.ArgumentParser(
        prog="altismooth",
        description="Smooth-signal denoising and retracking for altimetric waveform tracks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", parents=[seeded, configured],
                         help="synthesise clean and noisy waveform blocks")
    gen.add_argument("--n", type=int, required=True, help="number of signals")
    gen.add_argument("--traj", choices=("constant", "smooth-random", "file"),
                     default="smooth-random")
    gen.add_argument("--swh", type=float, help="constant SWH [m] (default 2)")
    tau_group = gen.add_mutually_exclusive_group()
    tau_group.add_argument("--tau-m", type=float, default=None, help="constant epoch [m]")
    tau_group.add_argument("--tau-gates", type=float, default=None,
                           help="constant epoch [gates]")
    gen.add_argument("--pu", type=float, help="constant amplitude (default 130)")
    gen.add_argument("--swh-range", type=_parse_pair)
    gen.add_argument("--tau-range", type=_parse_pair, help="epoch range in meters")
    gen.add_argument("--pu-range", type=_parse_pair)
    gen.add_argument("--traj-file", type=Path, default=None)
    gen.add_argument("--looks", type=float, help="multiplicative-speckle only (default 90)")
    gen.add_argument("--noise-mode", choices=NOISE_MODES,
                     default="multiplicative-speckle")
    gen.add_argument("--noise-var", type=float, default=None,
                     help="per-gate variance for additive-gaussian mode")
    gen.add_argument("--out-dir", type=Path, default=Path("."))

    den = sub.add_parser("denoise",
                         help="denoise a block file with the coordinate-descent solver")
    den.add_argument("--input", type=Path, required=True)
    den.add_argument("--output", type=Path, required=True)
    den.add_argument("--chunk", type=int, default=bench.DEFAULT_CHUNK)
    den.add_argument("--zeta", type=float, default=SolverConfig.zeta)
    den.add_argument("--eta", type=float, default=SolverConfig.eta)
    den.add_argument("--xi", type=float, default=SolverConfig.xi)
    den.add_argument("--tmax", type=int, default=SolverConfig.t_max)
    den.add_argument("--lengthscale", type=float, default=DEFAULT_LENGTHSCALE)
    den.add_argument("--emit-cost-trace", type=Path, default=None,
                     help="write a chunk,iteration,cost CSV here")

    est = sub.add_parser("estimate", parents=[configured],
                         help="retrack each signal of a block")
    est.add_argument("--input", type=Path, required=True)
    est.add_argument("--output", type=Path, required=True)
    est.add_argument("--method", choices=("ls", "svd-ls"), default="ls")
    est.add_argument("--svd-threshold", type=float, help="svd-ls only (default 0.84)")
    est.add_argument("--chunk", type=int, help="svd-ls only (default 500)")

    met = sub.add_parser("metrics",
                         help="evaluate RSNR and parameter error statistics")
    met.add_argument("--clean", type=Path, default=None, help="clean block file")
    met.add_argument("--est", type=Path, default=None, help="estimated block file")
    met.add_argument("--series", type=Path, default=None,
                     help="estimate CSV from the estimate subcommand")
    met.add_argument("--truth", type=Path, default=None, help="trajectory CSV")
    met.add_argument("--output", type=Path, required=True)

    ben = sub.add_parser("bench", parents=[seeded, configured],
                         help="run a reproduction experiment and write its report CSV")
    ben.add_argument("--suite", choices=("table1", "table2", "fig4"), required=True)
    ben.add_argument("--out", type=Path, required=True, help="output directory")
    ben.add_argument("--n", type=int, help="table1 track length (default 5000)")
    ben.add_argument("--m-list", type=_parse_ints, help="table1 chunk lengths")
    ben.add_argument("--swh-list", type=_parse_floats, help="table2/fig4 SWHs")
    ben.add_argument("--runs", type=int, help="table2/fig4 runs per SWH (default 500)")
    ben.add_argument("--looks", type=float, default=bench.DEFAULT_LOOKS)
    ben.add_argument("--svd-threshold", type=float, help="table2/fig4 only")
    ben.add_argument("--chunk", type=int, help="table2/fig4 only")
    return parser


def _options_read_by(args, mode: str, **options) -> None:
    """Default each option {dest: (--<mode> choices that read it, default)} where read,
    and reject it where given but unread; an unread option stays None, null in manifests."""
    choice = getattr(args, mode)
    for name, (readers, default) in options.items():
        if getattr(args, name) is None:
            setattr(args, name, default if choice in readers else None)
        elif choice not in readers:
            raise BadRangeError(f"--{name.replace('_', '-')} is not read by "
                                f"--{mode.replace('_', '-')} {choice}")


def _constants(args) -> BrownConstants:
    if args.config is not None:
        return load_constants(args.config)
    return jason2_like()


def _read_finite_block(path) -> np.ndarray:
    block = blockio.read_block(path)
    if not np.isfinite(block).all():
        raise NonFiniteError(f"{path}: block contains non-finite values")
    return block


def _solver_config(args) -> SolverConfig:
    return SolverConfig(zeta=args.zeta, eta=args.eta, xi=args.xi, t_max=args.tmax,
                        lengthscale=args.lengthscale)


def _manifest_args(args) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key == "subcommand":
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def cmd_generate(args) -> Run:
    constant, smooth, speckle = ("constant",), ("smooth-random",), ("multiplicative-speckle",)
    _options_read_by(args, "traj", swh=(constant, 2.0), pu=(constant, 130.0),
                     tau_m=(constant, None), tau_gates=(constant, None),
                     swh_range=(smooth, bench.TABLE1_SWH_RANGE),
                     tau_range=(smooth, bench.TABLE1_TAU_RANGE_M),
                     pu_range=(smooth, bench.TABLE1_PU_RANGE), traj_file=(("file",), None))
    _options_read_by(args, "noise_mode", looks=(speckle, bench.DEFAULT_LOOKS),
                     noise_var=(("additive-gaussian",), None))
    consts = _constants(args)
    if args.traj == "constant":
        if args.tau_gates is not None:
            tau_m = float(gates_to_meters(args.tau_gates, consts))
        elif args.tau_m is not None:
            tau_m = args.tau_m
        else:
            tau_m = float(gates_to_meters(bench.SWEEP_TAU_GATES, consts))
        traj = make_trajectory("constant", args.n, swh=args.swh, tau=tau_m,
                               pu=args.pu, consts=consts)
    elif args.traj == "smooth-random":
        traj = make_trajectory(
            "smooth-random", args.n,
            swh_range=args.swh_range, tau_range=args.tau_range,
            pu_range=args.pu_range,
            seed=bench.derive_seed(args.seed, bench.TRAJ_STREAM),
            consts=consts,
        )
    else:
        if args.traj_file is None:
            raise BadRangeError("--traj file needs --traj-file")
        traj = make_trajectory("file", args.n, path=args.traj_file, consts=consts)

    clean = clean_block(traj, consts)
    read = {"looks": args.looks} if args.noise_mode in speckle else {"noise_var": args.noise_var}
    spec = NoiseSpec(seed=bench.derive_seed(args.seed, bench.NOISE_STREAM),
                     mode=args.noise_mode, **read)
    noisy = corrupt(clean, spec)
    input_rsnr = metrics.rsnr(clean, noisy)  # raises on a zero-energy block before any write

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "clean": out_dir / "clean.blk",
        "noisy": out_dir / "noisy.blk",
        "trajectory": out_dir / "trajectory.csv",
    }
    blockio.write_block(paths["clean"], clean)
    blockio.write_block(paths["noisy"], noisy)
    blockio.write_trajectory_csv(paths["trajectory"], traj)
    summary = [f"wrote {clean.shape[0]}x{clean.shape[1]} blocks to {out_dir}",
               f"input RSNR: {input_rsnr:.2f} dB"]
    return Run(paths, summary, manifest=out_dir / "generate.manifest.json",
               seeds={"master": args.seed, "noise": spec.seed})


def cmd_denoise(args) -> Run:
    block = blockio.read_block(args.input)
    config = _solver_config(args)
    denoised, states = denoise_stream(block, args.chunk, config, with_states=True)
    blockio.write_block(args.output, denoised)
    outputs = {"denoised": args.output}
    if args.emit_cost_trace is not None:
        rows = []
        for ci, state in enumerate(states):
            for it, value in enumerate(state.cost_trace, start=1):
                rows.append({"chunk": ci, "iteration": it, "cost": value})
        blockio.write_report_csv(args.emit_cost_trace,
                                 ["chunk", "iteration", "cost"], rows)
        outputs["cost_trace"] = args.emit_cost_trace
    converged = sum(1 for s in states if s.stop_reason == "converged")
    kept = {(s.denoised.shape[1], s.modes) for s in states}
    return Run(outputs, [
        f"denoised {block.shape[1]} signals in {len(states)} chunk(s); "
        f"{converged}/{len(states)} converged",
        "kept eigenmodes: " + ", ".join(f"{r}/{m}" for m, r in sorted(kept)),
    ])


def cmd_estimate(args) -> Run:
    _options_read_by(args, "method", chunk=(("svd-ls",), bench.DEFAULT_CHUNK),
                     svd_threshold=(("svd-ls",), bench.DEFAULT_SVD_THRESHOLD))
    consts = _constants(args)
    block = _read_finite_block(args.input)
    if args.method == "svd-ls":
        block = svd_filter_stream(block, args.chunk, args.svd_threshold)
    fits, n = fit_block(block, consts), block.shape[1]
    p = fits.params
    fields = ["index", "swh_m", "tau_m", "pu", "residual", "converged"]
    columns = (range(n), p.swh, p.tau, p.pu, fits.residual_norm, fits.converged.astype(int))
    blockio.write_report_csv(args.output, fields, (dict(zip(fields, r)) for r in zip(*columns)))
    return Run({"estimates": args.output}, [
        f"retracked {n} signals with {args.method}; "
        f"{(~fits.warm).sum()}/{n} ran the full start grid",
    ])


def cmd_metrics(args) -> Run:
    rows = []
    if (args.clean is None) != (args.est is None):
        raise BadRangeError("--clean and --est must be given together")
    if args.truth is not None and args.series is None:
        raise BadRangeError("--truth needs --series")
    if args.clean is not None:
        clean, est = _read_finite_block(args.clean), _read_finite_block(args.est)
        rows.append({"metric": "rsnr_db", "param": "block",
                     "value": metrics.rsnr(clean, est)})
    if args.series is not None:
        estimates = blockio.read_trajectory_csv(args.series)
        truth = blockio.read_trajectory_csv(args.truth) if args.truth is not None else None
        for p, name in enumerate(metrics.PARAM_NAMES):
            est = estimates[p]
            if truth is not None:
                rows.append({"metric": "rmse", "param": name,
                             "value": metrics.rmse(est, truth[p])})
            if est.size >= 2:
                rows.append({"metric": "std", "param": name, "value": metrics.std(est)})
            if est.size >= metrics.WINDOW_20HZ:
                rows.append({"metric": "std_20hz", "param": name,
                             "value": metrics.std_20hz(est)})
    if not rows:
        raise BadRangeError("nothing to do: give --clean/--est and/or --series")
    blockio.write_report_csv(args.output, ["metric", "param", "value"], rows)
    return Run({"metrics": args.output},
               [f"{row['metric']}[{row['param']}] = {row['value']:.6g}" for row in rows])


def cmd_bench(args) -> Run:
    table1, sweeps = ("table1",), ("table2", "fig4")
    _options_read_by(args, "suite", n=(table1, 5000), runs=(sweeps, 500),
                     m_list=(table1, list(bench.TABLE1_M_LIST)),
                     swh_list=(sweeps, list(bench.SWEEP_SWH_LIST)),
                     svd_threshold=(sweeps, bench.DEFAULT_SVD_THRESHOLD),
                     chunk=(sweeps, bench.DEFAULT_CHUNK))
    consts = _constants(args)
    summary = []
    if args.suite == "table1":
        if any(m < 1 for m in args.m_list):
            raise BadRangeError(f"chunk lengths must be >= 1, got {args.m_list}")
        m_list = [m for m in args.m_list if m <= args.n]
        dropped = [m for m in args.m_list if m > args.n]
        if dropped:
            print(f"dropping chunk lengths {dropped} beyond the {args.n}-signal track",
                  file=sys.stderr)
        if not m_list:
            raise BadRangeError(f"no chunk length in {args.m_list} fits n={args.n}")
        result = bench.run_table1(args.n, m_list, args.looks, args.seed, consts)
        summary.append(f"input RSNR: {result['input_rsnr_db']:.2f} dB")
    else:
        if not args.swh_list:
            raise BadRangeError("--swh-list is empty")
        suite = bench.run_table2 if args.suite == "table2" else bench.run_fig4
        result = suite(args.swh_list, args.runs, args.looks, args.seed, consts,
                       args.svd_threshold, args.chunk)

    args.out.mkdir(parents=True, exist_ok=True)  # not before: a rejected run leaves none
    report = args.out / f"{args.suite}.csv"
    fields = list(result["rows"][0])  # each suite's columns, in its rows' key order
    blockio.write_report_csv(report, fields, result["rows"])
    for row in result["rows"]:
        summary.append(",".join(f"{row[f]:.4g}" if isinstance(row[f], float) else str(row[f])
                                for f in fields))
    summary.append(f"report written to {report}")
    return Run({"report": report}, summary, manifest=args.out / f"{args.suite}.manifest.json",
               seeds={"master": args.seed},
               args={k: v for k, v in result.items() if k != "rows"})


_COMMANDS = {
    "generate": cmd_generate,
    "denoise": cmd_denoise,
    "estimate": cmd_estimate,
    "metrics": cmd_metrics,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        run = _COMMANDS[args.subcommand](args)
        blockio.write_manifest(
            run.manifest or Path(f"{args.output}.manifest.json"), args.subcommand,
            {"argv": argv, **_manifest_args(args), **run.args},
            {name: str(path) for name, path in run.outputs.items()}, started,
            seeds=run.seeds,
        )
    except ValueError as exc:  # bad input; BadRangeError and ShapeMismatchError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except AltismoothError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return EXIT_IO
    for line in run.summary:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
