"""The cellforest benchmark: one workload, one run.

    python3 perfbench/run.py --workload segment_96 --seed 1 --seconds 20 --trace 0

Set-up runs in a child process (up to three times; the median is
``setup_s``), then the workload's operation repeats in this process until
``--seconds`` have passed. With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` one more operation runs with
spans around cellforest's public functions and the last line holds the
per-layer metrics. Run from the repository root; the program is imported
from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use. Must run
    before numpy is imported; child processes inherit the setting."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure
    cellforest is imported from there, not from anywhere else."""
    src = os.path.join(ROOT, "src")
    init = os.path.join(src, "cellforest", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no cellforest sources at {init}")
    sys.path.insert(0, src)
    import cellforest

    if os.path.abspath(cellforest.__file__) != init:
        raise SystemExit(f"perfbench: cellforest imported from {cellforest.__file__}, not {src}")


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    import_program()
    import session
    from workloads import FULL, WORKLOADS

    p = argparse.ArgumentParser(description="cellforest benchmark (one workload, one run)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    result, report = session.run(
        args.workload, args.seed, args.seconds, bool(args.trace), FULL, ROOT, nproc
    )
    print("perfbench conditions " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
