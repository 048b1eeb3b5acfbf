"""Fast self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced on tiny phantoms and
a 3-patch training set, through the same set-up, operation and gates
as the real runs, and checks that each result is correct and carries
exactly the metrics BENCHMARK.json declares. Exits 1 on the first
problem; a broken benchmark fails here in well under a minute.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import ROOT, cap_blas_threads, import_program


def main() -> int:
    nproc = cap_blas_threads()
    import_program()
    import session
    from layers import PER_LAYER
    from workloads import TINY, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != [
        row[:3] for row in PER_LAYER
    ]:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")

    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, report = session.run(workload, 1, 0, bool(trace), TINY, ROOT, nproc)
            metrics = result["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} {time.perf_counter() - t0:.1f}s")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {report['failures']}")
            if got != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            if trace and metrics["trace.spans"]["value"] < 1:
                problems.append(f"{workload}: the traced operation recorded no spans")
            bad = [n for n, m in metrics.items() if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{workload} trace={trace}: non-numeric {bad}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
