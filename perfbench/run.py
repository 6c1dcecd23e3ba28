"""altismooth benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload track-c500 --seed 0 --seconds 40 --trace 0

``--trace 0`` times the workload's operation untraced for ``--seconds`` and
prints the end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates
untraced and traced runs of each input and prints the per-layer metrics.
Either way the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  Any failed output check makes the exit code 1.
Spans of a traced run go to ``.perfbench_out/`` in the checkout.
"""

import benchenv  # first: fixes the BLAS thread count before numpy loads

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import layers
from tracing import END, START, Tracer

SETUP_REPEATS = 3


class Tally:
    """Attempted and failed operations, failed checks, digests and quality parts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.quality: list[dict] = []

    def add(self, key: int, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if outcome.quality is not None:
            self.quality.append(outcome.quality)
        if outcome.digest:
            first = self.digests.setdefault(key, outcome.digest)
            if first != outcome.digest:
                self.problems.append(f"input {key}: output digest changed between repeats")


def run_op(workload, tally, index, tracer=None, score=False) -> float:
    """Run and check operation ``index``; return its wall time.

    With a tracer, the operation is one root span ``op`` whose run id is
    ``index``.  The output check is not timed.
    """
    if tracer is None:
        t0 = time.perf_counter()
        result = workload.run(index)
        elapsed = time.perf_counter() - t0
    else:
        with tracer.span("op", run_id=index) as root:
            result = workload.run(index, tracer)
        elapsed = root[END] - root[START]
    key = index % workload.distinct_inputs
    tally.add(key, workload.check(index, result, score and key not in tally.digests))
    return elapsed


def measure(workload, tally, seconds, min_ops) -> list[float]:
    """Run operations until their summed wall time would pass ``seconds``.

    Runs at least ``min_ops``; the first run of each input is scored.
    """
    times: list[float] = []
    while len(times) < min_ops or sum(times) + statistics.fmean(times) <= seconds:
        times.append(run_op(workload, tally, len(times), score=True))
    return times


def setup_seconds(args) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh processes (imports, inputs, warm-up)."""
    probe = Path(__file__).with_name("setup_probe.py")
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(probe), "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def pooled_quality(parts: list[dict]) -> dict:
    """RSNR of the denoised and the noisy blocks, and retracking RMSEs when there were fits."""
    clean = sum(p["clean_energy"] for p in parts)
    quality = {
        "rsnr_db": 10 * np.log10(clean / sum(p["resid_energy"] for p in parts)),
        "input_rsnr_db": 10 * np.log10(clean / sum(p["input_resid_energy"] for p in parts)),
    }
    fits = sum(p["fits"] for p in parts)
    if fits:
        rmse = np.sqrt(sum(p["sq_err"] for p in parts) / fits)
        quality.update(rmse_swh_m=rmse[0], rmse_tau_m=rmse[1], rmse_pu=rmse[2])
    return {k: float(v) for k, v in quality.items()}


def checked_quality(tally) -> dict:
    if not tally.quality:
        raise RuntimeError("no operation produced output to score: " + "; ".join(tally.problems[:3]))
    quality = pooled_quality(tally.quality)
    if not quality["rsnr_db"] > quality["input_rsnr_db"]:
        tally.problems.append(
            f"denoised RSNR {quality['rsnr_db']:.3f} dB does not beat the "
            f"noisy input's {quality['input_rsnr_db']:.3f} dB")
    return quality


def timed_run(workload, args, tally, meta) -> dict:
    setup = setup_seconds(args)
    workload.prepare(args.seed)
    workload.warm_up()
    times = measure(workload, tally, args.seconds, workload.min_ops)

    # Peak memory in its own pass, repeating input 0 (its digest must match).
    tracemalloc.start()
    try:
        result = workload.run(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.add(0, workload.check(0, result, score=False))

    quality = checked_quality(tally)
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    meta.update(setup_s_samples=setup, op_s=times, op_s_median=median, op_s_q1=q1, op_s_q3=q3,
                op_samples=len(times), scored_inputs=len(tally.quality), quality=quality)
    return {
        "throughput_sps": workload.num_signals / statistics.median(times),
        "setup_s": statistics.median(setup),
        "rsnr_db": quality["rsnr_db"],
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_mb": peak / 1e6,
    }


def traced_run(workload, args, tally, meta) -> dict:
    tracer = Tracer()
    with tracer.installed(workload.setup_targets()), tracer.span("setup", run_id="setup"):
        workload.prepare(args.seed)
    workload.warm_up()
    # Alternate untraced and traced runs of each input, so that drift in the
    # machine's speed does not show up as tracing overhead.
    untraced: list[float] = []
    traced: list[float] = []
    while len(traced) < 2 or sum(untraced) + sum(traced) + untraced[-1] + traced[-1] <= args.seconds:
        index = len(traced)
        untraced.append(run_op(workload, tally, index, score=True))
        with tracer.installed(workload.targets()):
            traced.append(run_op(workload, tally, index, tracer))

    metrics, problems = layers.layer_metrics(tracer.spans, workload.required)
    tally.problems.extend(problems)
    quality = checked_quality(tally)
    for name in ("rmse_swh_m", "rmse_tau_m", "rmse_pu"):
        metrics[f"retrack.{name}"] = quality.get(name, 0.0)
    op_untraced, op_traced = statistics.median(untraced), statistics.median(traced)
    metrics.update({
        "trace.op_s_untraced": op_untraced,
        "trace.op_s_traced": op_traced,
        "trace.overhead_s": op_traced - op_untraced,
        "trace.overhead_frac": (op_traced - op_untraced) / op_untraced,
    })
    benchenv.OUT_ROOT.mkdir(exist_ok=True)
    path = benchenv.OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.export(path, meta)
    meta.update(trace_file=str(path.relative_to(benchenv.ROOT)), spans=len(tracer.spans),
                untraced_ops=len(untraced), traced_ops=len(traced))
    return metrics


def _git_rev() -> str:
    if not (benchenv.ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=benchenv.ROOT,
                          capture_output=True, text=True, timeout=10, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas() -> dict:
    """Vendor and live thread count of each OpenBLAS bundled with numpy and scipy."""
    import scipy

    info = {"vendor": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib_path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(lib_path))
            for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                           "scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_"):
                if hasattr(lib, symbol):
                    info[f"{package.__name__}_threads"] = int(getattr(lib, symbol)())
    return info


def run_metadata(args) -> dict:
    import scipy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in benchenv.SRC.rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": _git_rev(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": _blas(), "blas_threads_set": benchenv.BLAS_THREADS,
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = benchenv.ROOT / "BENCHMARK.json"
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {benchenv.SRC}: {exc}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, benchenv.WORK_ROOT)
    meta = run_metadata(args)
    tally = Tally()
    try:
        run = traced_run if args.trace else timed_run
        values = run(workload, args, tally, meta)
    except Exception:
        traceback.print_exc()
        print("perfbench: the run failed; no result", file=sys.stderr)
        return 1
    finally:
        if benchenv.WORK_ROOT.exists() and not any(benchenv.WORK_ROOT.iterdir()):
            benchenv.WORK_ROOT.rmdir()
    if set(values) != set(declared):
        tally.problems.append(f"metrics {sorted(set(values) ^ set(declared))} are computed "
                              "but not declared in BENCHMARK.json, or declared but not computed")

    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": declared[name]}
                    for name in declared if name in values},
    }))
    return 0 if not tally.problems else 1


if __name__ == "__main__":
    sys.exit(main())
