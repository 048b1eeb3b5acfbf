"""One benchmark run of one workload: set-up, measured loop, gates.

Import only after ``run.cap_blas_threads`` has set the environment,
because this module imports numpy.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import cellforest.cli
from layers import layer_metrics
from run import BLAS_VARS
from tracing import Tracer, summarize
from workloads import check, digest, op_argv

HERE = os.path.dirname(os.path.abspath(__file__))
# An untraced run repeats the set-up up to SETUPS times while the set-ups
# so far took under SETUP_BUDGET_S; setup_s is their median. The set-up
# of recut_cnn_96 is a whole 96^3 segment run (about 14 s), so it runs
# once: three would make that run twice as long.
SETUPS = 3
SETUP_BUDGET_S = 10.0
SETUP_TIMEOUT_S = 150


def _steal_s() -> float | None:
    """Host CPU time stolen from this VM so far (all CPUs), if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_speed_probe() -> float:
    """CPU seconds for a fixed pure-Python heap workload, the kind of
    work the watershed flood does. It runs between operations and its
    drift shows changes in the host's speed, not the program's."""
    t0 = time.process_time()
    heap: list = []
    for i in range(100_000):
        heapq.heappush(heap, (float(i * 7919 % 100_003), i))
    while heap:
        heapq.heappop(heap)
    return time.process_time() - t0


def _blas_versions() -> dict:
    out = {}
    for name, mod in (("numpy", np), ("scipy", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[name] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            out[name] = "unknown"
    return out


def conditions(nproc: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_versions(),
        "nproc": nproc,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "loadavg": os.getloadavg(),
    }


def _setup(workload: str, seed: int, d: str, cfg: dict, spans_path: str | None) -> float:
    """Run the set-up in a child process; returns its wall time."""
    shutil.rmtree(d, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), workload, str(seed), d, json.dumps(cfg)]
    if spans_path:
        cmd += ["--spans", spans_path]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return elapsed


def _op(workload: str, seed: int, d: str, out: str, cfg: dict, tracer=None) -> dict:
    """One measured operation, then its gates (outside the timing)."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    argv = op_argv(workload, seed, d, out, cfg)
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        with tracer or contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cellforest.cli.main(argv)
            except Exception as exc:  # an operation that crashes counts as failed
                rc = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rec = {"wall": wall, "cpu": cpu, "failures": [], "quality": None, "digest": None}
    if rc != 0:
        rec["failures"].append(f"exit {rc}: {log.getvalue().strip()[-500:]}")
        return rec
    try:
        rec["failures"], rec["quality"] = check(workload, d, out, cfg)
        rec["digest"] = digest(out)
    except Exception as exc:  # a gate that cannot read the outputs fails the op
        rec["failures"].append(f"gate error {type(exc).__name__}: {exc}")
    return rec


def run(workload: str, seed: int, seconds: float, trace: bool, cfg: dict, root: str, nproc: int):
    """Returns ``(result, report)``: the result object the benchmark
    prints last, and a dict of run conditions and raw samples."""
    work = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, cfg, work, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, cfg, work, nproc):
    report = conditions(nproc)
    d, out = os.path.join(work, "in"), os.path.join(work, "out")
    spans_path = os.path.join(work, "setup_spans.json") if trace else None
    os.makedirs(work)
    setup_times = [_setup(workload, seed, d, cfg, spans_path)]
    while not trace and len(setup_times) < SETUPS and sum(setup_times) < SETUP_BUDGET_S:
        setup_times.append(_setup(workload, seed, d, cfg, spans_path))

    steal0 = _steal_s()
    ops, probes = [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        probes.append(host_speed_probe())
        ops.append(_op(workload, seed, d, out, cfg))
    steal1 = _steal_s()
    traced = None
    if trace:
        tracer = Tracer()
        traced = _op(workload, seed, d, out, cfg, tracer)
        traced["spans"] = tracer.spans

    # Every output of the session must be byte-identical to the first.
    reference = ops[0]["digest"]
    for rec in ops[1:] + ([traced] if traced else []):
        if rec["digest"] is not None and rec["digest"] != reference:
            rec["failures"].append("outputs differ from the session's first operation")
    attempted = ops + ([traced] if traced else [])
    failed = [rec for rec in attempted if rec["failures"]]

    op_median = statistics.median(rec["wall"] for rec in ops)
    report.update({
        "workload": workload,
        "seed": seed,
        "setup_s": setup_times,
        "op_wall_s": [rec["wall"] for rec in ops],
        "op_cpu_s": [rec["cpu"] for rec in ops],
        "host_probe_s": probes,
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "failures": [f for rec in failed for f in rec["failures"]],
    })
    if trace:
        with open(spans_path) as fh:
            setup_summary = summarize(json.load(fh))
        quality = traced["quality"] or {"f_score": 0.0, "loss_ratio": 0.0, "match_s": 0.0}
        metrics = layer_metrics(
            summarize(traced["spans"]), setup_summary, quality, traced["wall"], op_median
        )
    else:
        metrics = {
            "op_s": {"value": op_median, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    result = {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, report
