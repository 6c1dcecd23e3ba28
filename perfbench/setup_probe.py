"""Time one workload's set-up in a fresh process: imports, input generation, warm-up.

Run by ``run.py`` several times per run; prints one JSON line.  A fresh
process pays the lazy initialisation (module imports, SciPy's first
``eigh``) that a long-lived process pays only once.

    python3 perfbench/setup_probe.py --workload track-c500 --seed 0
"""

import time

_start = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import benchenv  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    import workloads

    imported = time.perf_counter()
    benchenv.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="probe-", dir=benchenv.WORK_ROOT)
    try:
        workload = workloads.make(args.workload, Path(work))
        workload.prepare(args.seed)
        prepared = time.perf_counter()
        workload.warm_up()
        done = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "import_s": imported - _start,
        "prepare_s": prepared - imported,
        "warm_up_s": done - prepared,
        "setup_s": done - _start,
    }))


if __name__ == "__main__":
    main()
