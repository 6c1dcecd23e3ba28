"""Per-layer metrics from the spans of a traced run.

Times and counts are per operation: the median over the traced operations
(run ids 0, 1, ...) of each operation's total.  Spans recorded while the
inputs were generated carry the run id ``setup``; a name seen only there
(the ``simulate`` and ``brown.waveform_block`` spans of the track workloads)
reports the set-up run.  Percentiles pool every span of the name.

``kernels.basis_bytes`` (8 M^2 per eigenbasis) and
``solver.backproject_flops`` (2 K M^2 per sweep of each K x M chunk) are
computed from array sizes and sweep counts, not measured.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import END, INFO, NAME, RUN, START, per_run_totals

TIMED = (
    "kernels.build_correlation", "kernels.decompose", "solver.denoise_stream",
    "gmrf.variance_sweep", "gmrf.aux_sweep", "gmrf.chain_cost_terms",
    "brown.brown_waveform", "brown.brown_jacobian", "brown.waveform_block",
    "retrack.fit_block", "blockio.read_block", "blockio.write_block",
    "blockio.write_manifest",
)
COUNTED = (
    "kernels.build_correlation", "kernels.decompose", "solver.denoise",
    "gmrf.variance_sweep", "gmrf.aux_sweep", "gmrf.chain_cost_terms",
    "brown.brown_waveform", "brown.brown_jacobian", "brown.waveform_block",
    "retrack.ls_fit", "blockio.read_block", "blockio.write_block",
    "blockio.write_manifest",
)
SELF_TIMED = ("solver.denoise", "retrack.ls_fit")
STEP_TIMED = (
    "simulate.make_trajectory", "simulate.clean_block", "simulate.corrupt",
    "cli.generate", "cli.denoise", "cli.estimate", "cli.metrics",
)


def _median_over_runs(totals, ops, name, key):
    """Median per-operation total; a name seen only in set-up uses the set-up run."""
    runs = ops if any(name in totals[r] for r in ops) else [r for r in totals if name in totals[r]]
    values = [totals[r][name][key] if name in totals[r] else 0 for r in runs]
    return statistics.median(values) if values else 0.0


def _info_sum_per_run(spans, runs, name, value):
    per_run = {r: 0.0 for r in runs}
    for s in spans:
        if s[NAME] == name and s[RUN] in per_run and s[INFO] and "error" not in s[INFO]:
            per_run[s[RUN]] += value(s[INFO])
    return statistics.median(per_run.values()) if per_run else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[list], required) -> tuple[dict, list[str]]:
    totals = per_run_totals(spans)
    ops = [r for r in totals if r != "setup"]
    problems = [f"span {name} recorded no calls" for name in required
                if not any(name in totals[r] for r in totals)]

    # Every span's self time sums to its operation's wall time, unless spans overlap.
    for r in ops:
        root = totals[r]["op"]["s"]
        own = sum(entry["self_s"] for entry in totals[r].values())
        if abs(own - root) > 1e-6 * max(root, 1.0):
            problems.append(f"operation {r}: self times sum to {own:.6f} s, wall {root:.6f} s")

    m: dict = {}
    for name in TIMED + STEP_TIMED:
        m[f"{name}.s"] = _median_over_runs(totals, ops, name, "s")
    for name in COUNTED:
        m[f"{name}.calls"] = _median_over_runs(totals, ops, name, "calls")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = _median_over_runs(totals, ops, name, "self_s")

    def durations(name):
        return [s[END] - s[START] for s in spans if s[NAME] == name and s[RUN] in ops]

    def infos(name):
        return [s[INFO] for s in spans
                if s[NAME] == name and s[RUN] in ops and s[INFO] and "error" not in s[INFO]]

    chunks, fits = infos("solver.denoise"), infos("retrack.ls_fit")
    m["kernels.basis_bytes"] = _info_sum_per_run(
        spans, ops, "kernels.decompose", lambda i: 8.0 * i["M"] ** 2)
    m["solver.backproject_flops"] = _info_sum_per_run(
        spans, ops, "solver.denoise", lambda i: 2.0 * i["K"] * i["M"] ** 2 * i["iterations"])
    m["solver.sweeps"] = _info_sum_per_run(spans, ops, "solver.denoise", lambda i: i["iterations"])
    m["solver.unconverged"] = _info_sum_per_run(
        spans, ops, "solver.denoise", lambda i: not i["converged"])
    m["solver.energy_ratio_min"] = min((i["energy_ratio"] for i in chunks), default=0.0)
    m["solver.chunk_s_p50"] = _percentile(durations("solver.denoise"), 50)
    m["solver.chunk_s_p75"] = _percentile(durations("solver.denoise"), 75)

    m["retrack.fit_s_p50"] = _percentile(durations("retrack.ls_fit"), 50)
    m["retrack.fit_s_p95"] = _percentile(durations("retrack.ls_fit"), 95)
    m["retrack.iterations"] = _info_sum_per_run(spans, ops, "retrack.ls_fit", lambda i: i["iterations"])
    m["retrack.converged_frac"] = (
        sum(i["converged"] for i in fits) / len(fits) if fits else 0.0)
    m["retrack.diverged"] = sum(
        1 for s in spans if s[NAME] == "retrack.ls_fit" and s[RUN] in ops
        and s[INFO] and s[INFO].get("error") == "DivergedError") / max(len(ops), 1)
    n_fits = sum(totals[r]["retrack.ls_fit"]["calls"] for r in ops if "retrack.ls_fit" in totals[r])
    n_evals = sum(totals[r]["brown.brown_waveform"]["calls"]
                  for r in ops if "brown.brown_waveform" in totals[r])
    m["brown.model_evals_per_fit"] = n_evals / n_fits if n_fits else 0.0

    for name in ("blockio.read_block", "blockio.write_block"):
        m[f"{name}.bytes"] = _info_sum_per_run(spans, ops, name, lambda i: i["bytes"])

    m["trace.unattributed_s"] = _median_over_runs(totals, ops, "op", "self_s")
    m["trace.spans"] = statistics.median(
        sum(entry["calls"] for entry in totals[r].values()) for r in ops)
    return m, problems
