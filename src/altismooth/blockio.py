"""File formats: binary signal blocks, trajectory/report CSVs, run manifests.

Block files are little-endian: magic b"SSE1", then u32 K, u32 M, then K*M
float64 samples in row-major (gate-major) order.  All writers go through a
temp-file + rename so readers never observe partial files.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import struct
import subprocess
import tempfile
import time

import numpy as np

from .errors import BadRangeError

MAGIC = b"SSE1"
_HEADER = struct.Struct("<4sII")


def _atomic_write(path, *parts) -> None:
    """Write the parts (bytes, or a block's own buffer) to a temp file renamed to path."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_block(path, block: np.ndarray) -> None:
    block = np.ascontiguousarray(block, dtype="<f8")
    if block.ndim != 2:
        raise ValueError("block must be 2-D (gates x signals)")
    if block.size == 0:  # the header read_block rejects
        raise ValueError(f"{path}: empty block header ({block.shape[0]} x {block.shape[1]})")
    header = _HEADER.pack(MAGIC, block.shape[0], block.shape[1])
    _atomic_write(path, header, block)  # the C-contiguous buffer itself, not a copy


def read_block(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, num_gates, num_signals = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a block file (bad magic {magic!r})")
        if num_gates < 1 or num_signals < 1:
            raise ValueError(f"{path}: empty block header ({num_gates} x {num_signals})")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        expected = 8 * num_gates * num_signals
        if payload != expected:
            kind = "truncated payload" if payload < expected else "trailing bytes"
            raise ValueError(f"{path}: {kind}: {payload} bytes after the header, "
                             f"{expected} expected for {num_gates} x {num_signals}")
        data = np.fromfile(fh, dtype="<f8", count=num_gates * num_signals)
    return data.reshape(num_gates, num_signals)


def write_trajectory_csv(path, traj) -> None:
    rows = ({"index": i, "swh_m": swh, "tau_m": tau, "pu": pu}
            for i, (swh, tau, pu) in enumerate(zip(traj.swh, traj.tau, traj.pu)))
    write_report_csv(path, ["index", "swh_m", "tau_m", "pu"], rows)


def read_trajectory_csv(path):
    """Returns (swh, tau, pu) arrays from a trajectory or estimate CSV."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = {"swh_m", "tau_m", "pu"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: CSV missing columns {missing}")
        rows = [(float(r["swh_m"]), float(r["tau_m"]), float(r["pu"])) for r in reader]
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    arr = np.asarray(rows, dtype=float)
    if not np.isfinite(arr).all():
        raise BadRangeError(f"{path}: swh, tau and pu must be finite")
    return arr[:, 0], arr[:, 1], arr[:, 2]


def write_report_csv(path, fieldnames, rows) -> None:
    """CSV with a header row; values are emitted with repr-level precision."""
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_format_cell(row[name]) for name in fieldnames))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@functools.cache  # one git call per process, not one per manifest
def _build_identifier() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def write_manifest(path, subcommand: str, args: dict, outputs: dict,
                   started: float, seeds: dict | None = None) -> None:
    """Record everything needed to reproduce a run next to its outputs."""
    from . import __version__

    payload = {
        "subcommand": subcommand,
        "args": args,
        "seeds": seeds or {},
        "outputs": outputs,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "build": _build_identifier(),
        "started_unix": started,
        "wallclock_seconds": time.time() - started,
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n")


def read_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
