"""The benchmark's workloads: input generation, the timed operation, output checks.

Each workload generates its inputs from the run seed, runs one timed
operation per call of ``run`` and checks that operation's outputs in
``check``.  ``check`` returns an ``Outcome``: a digest of the outputs, the
operations attempted and failed, the failed output checks, and (when asked
to score) the partial sums the quality metrics are pooled from.

``targets`` lists the names the traced run wraps, at the module attribute
each caller looks up; ``required`` lists the spans that must record calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import shutil
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from altismooth import blockio, brown, cli, gmrf, retrack, simulate, solver

LOOKS = 90.0
# The table1 smooth-random ranges of the paper (SWH m, epoch m, amplitude).
SWH_RANGE = (3.4, 5.4)
TAU_RANGE_M = (14.3, 15.0)
PU_RANGE = (150.0, 190.0)

# With L >= 1 looks of unit-mean speckle the noise holds at most half the
# input energy, so an output keeping less than half of it lost signal.
COLLAPSE_FLOOR = 0.5
WARM_WIDTH = 50

_BLK_HEADER = struct.Struct("<4sII")


def child_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence((seed, *stream)).generate_state(1, np.uint64)[0])


def read_blk(path) -> np.ndarray:
    """Block file reader written from the documented format, not the program's."""
    raw = Path(path).read_bytes()
    magic, rows, cols = _BLK_HEADER.unpack_from(raw)
    if magic != b"SSE1" or len(raw) != _BLK_HEADER.size + 8 * rows * cols:
        raise ValueError(f"{path}: malformed block file")
    return np.frombuffer(raw, dtype="<f8", offset=_BLK_HEADER.size).reshape(rows, cols)


def chunk_energy_ratios(noisy: np.ndarray, denoised: np.ndarray, chunk: int) -> list[float]:
    return [
        float(np.sum(denoised[:, s:s + chunk] ** 2) / np.sum(noisy[:, s:s + chunk] ** 2))
        for s in range(0, noisy.shape[1], chunk)
    ]


@dataclass
class Outcome:
    digest: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Pooled over scored inputs: clean energy, residual energy, noisy-input
    # residual energy, squared retracking errors (swh, tau, pu) and their count.
    quality: dict | None = None


def quality_parts(clean, noisy, denoised, est=None, truth=None) -> dict:
    parts = {
        "clean_energy": float(np.sum(clean**2)),
        "resid_energy": float(np.sum((clean - denoised) ** 2)),
        "input_resid_energy": float(np.sum((clean - noisy) ** 2)),
        "sq_err": np.zeros(3),
        "fits": 0,
    }
    if est is not None:
        parts["sq_err"] = np.sum((est - truth) ** 2, axis=0)
        parts["fits"] = est.shape[0]
    return parts


def _fit_info(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _denoise_info(args, kwargs, result):
    block = np.asarray(args[0])
    energy = float(np.sum(block**2))
    return {
        "K": block.shape[0],
        "M": block.shape[1],
        "iterations": result.iterations,
        "converged": result.stop_reason == "converged",
        "energy_ratio": float(np.sum(result.denoised**2)) / energy if energy else 0.0,
    }


def _decompose_info(args, kwargs, result):
    return {"M": result.size}


def _file_bytes(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _solver_targets():
    return [
        (solver, "build_correlation", "kernels.build_correlation", None),
        (solver, "decompose", "kernels.decompose", _decompose_info),
        (solver, "denoise", "solver.denoise", _denoise_info),
        (gmrf, "variance_sweep", "gmrf.variance_sweep", None),
        (gmrf, "aux_sweep", "gmrf.aux_sweep", None),
        (gmrf, "chain_cost_terms", "gmrf.chain_cost_terms", None),
    ]


SOLVER_SPANS = (
    "kernels.build_correlation", "kernels.decompose", "solver.denoise_stream",
    "solver.denoise", "gmrf.variance_sweep", "gmrf.aux_sweep", "gmrf.chain_cost_terms",
)
GENERATION_SPANS = (
    "simulate.make_trajectory", "simulate.clean_block", "simulate.corrupt",
    "brown.waveform_block",
)


class Track:
    """One smooth-random track, denoised by ``denoise_stream`` at a fixed chunk."""

    distinct_inputs = 1
    min_ops = 3
    required = SOLVER_SPANS + GENERATION_SPANS

    def __init__(self, num_signals: int, chunk: int):
        self.num_signals = num_signals
        self.chunk = chunk

    def prepare(self, seed: int) -> None:
        consts = brown.jason2_like()
        traj = simulate.make_trajectory(
            "smooth-random", self.num_signals,
            swh_range=SWH_RANGE, tau_range=TAU_RANGE_M, pu_range=PU_RANGE,
            seed=child_seed(seed, 1), consts=consts,
        )
        self.clean = simulate.clean_block(traj, consts)
        self.noisy = simulate.corrupt(
            self.clean, simulate.NoiseSpec(looks=LOOKS, seed=child_seed(seed, 2))
        )

    def warm_up(self) -> None:
        solver.denoise_stream(self.noisy[:, :WARM_WIDTH], WARM_WIDTH)

    def setup_targets(self):
        return [
            (simulate, "make_trajectory", "simulate.make_trajectory", None),
            (simulate, "clean_block", "simulate.clean_block", None),
            (simulate, "corrupt", "simulate.corrupt", None),
            (simulate, "waveform_block", "brown.waveform_block", None),
        ]

    def targets(self):
        return [(solver, "denoise_stream", "solver.denoise_stream", None)] + _solver_targets()

    def run(self, index: int, tracer=None):
        return solver.denoise_stream(self.noisy, self.chunk, with_states=True)

    def check(self, index: int, result, score: bool) -> Outcome:
        denoised, states = result
        chunks = -(-self.num_signals // self.chunk)
        out = Outcome(digest=hashlib.sha256(np.ascontiguousarray(denoised).tobytes()).hexdigest())
        out.attempted = chunks
        if denoised.shape != self.noisy.shape or not np.all(np.isfinite(denoised)):
            out.problems.append(f"denoised block {denoised.shape} is not a finite "
                                f"block of the input's shape {self.noisy.shape}")
            out.failed = chunks
            return out
        if len(states) != chunks:
            out.problems.append(f"{len(states)} chunk states for {chunks} chunks")
        ratios = chunk_energy_ratios(self.noisy, denoised, self.chunk)
        out.failed = sum(
            1 for state, ratio in zip(states, ratios)
            if state.stop_reason != "converged" or ratio < COLLAPSE_FLOOR
        )
        if score:
            out.quality = quality_parts(self.clean, self.noisy, denoised)
        return out


class Pipeline:
    """The CLI flow generate -> denoise -> estimate -> metrics, run in process.

    Each of the first ``distinct_inputs`` operations generates a block from
    its own seed, so that the RSNR and the timing pool that many independent
    blocks; later operations repeat those inputs.
    """

    num_signals = 200
    chunk = 500
    distinct_inputs = 6
    min_ops = distinct_inputs
    steps = ("generate", "denoise", "estimate", "metrics")
    required = SOLVER_SPANS + GENERATION_SPANS + (
        "retrack.fit_block", "retrack.ls_fit", "brown.brown_waveform",
        "brown.brown_jacobian", "blockio.read_block", "blockio.write_block",
        "blockio.write_manifest",
    )

    def __init__(self, work_root: Path):
        self.work_root = work_root

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.work_root.mkdir(parents=True, exist_ok=True)

    def warm_up(self) -> None:
        consts = brown.jason2_like()
        wave = brown.waveform_block(np.full(WARM_WIDTH, 2.0), 15.0, 130.0, consts)
        solver.denoise_stream(wave, WARM_WIDTH)
        retrack.ls_fit(wave[:, 0], consts)

    def setup_targets(self):
        return []

    def targets(self):
        return [
            (cli, "make_trajectory", "simulate.make_trajectory", None),
            (cli, "clean_block", "simulate.clean_block", None),
            (cli, "corrupt", "simulate.corrupt", None),
            (simulate, "waveform_block", "brown.waveform_block", None),
            (blockio, "read_block", "blockio.read_block", _file_bytes),
            (blockio, "write_block", "blockio.write_block", _file_bytes),
            (blockio, "write_manifest", "blockio.write_manifest", None),
            (cli, "denoise_stream", "solver.denoise_stream", None),
            *_solver_targets(),
            (cli, "fit_block", "retrack.fit_block", None),
            (retrack, "ls_fit", "retrack.ls_fit", _fit_info),
            (retrack, "brown_waveform", "brown.brown_waveform", None),
            (retrack, "brown_jacobian", "brown.brown_jacobian", None),
        ]

    def argvs(self, index: int, d: Path) -> list[list[str]]:
        seed = child_seed(self.seed, 3, index % self.distinct_inputs)
        return [
            ["generate", "--n", str(self.num_signals), "--traj", "constant",
             "--swh", "2", "--tau-gates", "31", "--pu", "130",
             "--looks", f"{LOOKS:g}", "--seed", str(seed), "--out-dir", str(d)],
            ["denoise", "--input", str(d / "noisy.blk"), "--output", str(d / "denoised.blk"),
             "--chunk", str(self.chunk)],
            ["estimate", "--input", str(d / "denoised.blk"), "--method", "ls",
             "--output", str(d / "est.csv")],
            ["metrics", "--clean", str(d / "clean.blk"), "--est", str(d / "denoised.blk"),
             "--series", str(d / "est.csv"), "--truth", str(d / "trajectory.csv"),
             "--output", str(d / "metrics.csv")],
        ]

    def run(self, index: int, tracer=None):
        """Run the four steps; with a tracer, each main() call gets a cli.<step> span."""
        d = Path(tempfile.mkdtemp(prefix=f"op{index}-", dir=self.work_root))
        codes, outputs = [], []
        for step, argv in zip(self.steps, self.argvs(index, d)):
            buf = io.StringIO()
            span = tracer.span(f"cli.{step}") if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            codes.append(code)
            outputs.append(buf.getvalue())
            if code != 0:
                break
        return d, codes, outputs

    def check(self, index: int, result, score: bool) -> Outcome:
        d, codes, outputs = result
        try:
            return self._check(d, codes, outputs, score)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _check(self, d, codes, outputs, score) -> Outcome:
        out = Outcome(digest="")
        chunks = -(-self.num_signals // self.chunk)
        out.attempted = len(self.steps) + chunks + self.num_signals
        failed_steps = [
            f"{step} exited {code}: {text.strip()[-300:]}"
            for step, code, text in zip(self.steps, codes, outputs) if code != 0
        ]
        if failed_steps or len(codes) != len(self.steps):
            out.problems.extend(failed_steps or ["a CLI step did not run"])
            out.failed = out.attempted
            return out

        digest = hashlib.sha256()
        for name in ("noisy.blk", "denoised.blk", "est.csv", "metrics.csv"):
            digest.update((d / name).read_bytes())
        out.digest = digest.hexdigest()

        clean, noisy, denoised = (read_blk(d / n) for n in ("clean.blk", "noisy.blk", "denoised.blk"))
        if denoised.shape != noisy.shape or not np.all(np.isfinite(denoised)):
            out.problems.append(f"denoised block {denoised.shape} is not a finite "
                                f"block of the input's shape {noisy.shape}")
            return out
        ratios = chunk_energy_ratios(noisy, denoised, self.chunk)
        collapsed = sum(1 for r in ratios if r < COLLAPSE_FLOOR)
        match = re.search(r"(\d+)/(\d+) converged", outputs[1])
        if match is None:
            out.problems.append("denoise did not report its converged chunks")
            return out
        out.failed += min(len(ratios), collapsed + int(match[2]) - int(match[1]))

        with open(d / "est.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        est = np.array([[float(r[k]) for k in ("swh_m", "tau_m", "pu", "residual")] for r in rows])
        if (len(rows) != self.num_signals
                or [int(r["index"]) for r in rows] != list(range(self.num_signals))
                or not np.all(np.isfinite(est))):
            out.problems.append("estimate CSV does not hold one finite row per signal")
            return out
        out.failed += sum(1 for r in rows if r["converged"] != "1")

        with open(d / "trajectory.csv", newline="", encoding="utf-8") as fh:
            truth = np.array([[float(r[k]) for k in ("swh_m", "tau_m", "pu")]
                              for r in csv.DictReader(fh)])
        parts = quality_parts(clean, noisy, denoised, est[:, :3], truth)
        out.problems.extend(self._check_metrics_csv(d / "metrics.csv", parts))
        if score:
            out.quality = parts
        return out

    @staticmethod
    def _check_metrics_csv(path, parts) -> list[str]:
        with open(path, newline="", encoding="utf-8") as fh:
            reported = {(r["metric"], r["param"]): float(r["value"]) for r in csv.DictReader(fh)}
        expected = {("rsnr_db", "block"): 10 * np.log10(parts["clean_energy"] / parts["resid_energy"])}
        for p, name in enumerate(("swh", "tau", "pu")):
            expected[("rmse", name)] = np.sqrt(parts["sq_err"][p] / parts["fits"])
        return [
            f"metrics CSV {key} = {reported.get(key)}, expected {value:.12g}"
            for key, value in expected.items()
            if key not in reported or not np.isclose(reported[key], value, rtol=1e-9, atol=0)
        ]


def make(name: str, work_root: Path):
    if name == "track-c500":
        return Track(20000, 500)
    if name == "pipeline-swh2":
        return Pipeline(work_root)
    raise KeyError(name)


