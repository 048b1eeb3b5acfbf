"""Set-up of one workload in a fresh process, so its time covers imports.

    python3 perfbench/inputs.py WORKLOAD SEED DIR CONFIG_JSON [--spans FILE]

Writes the workload's generated inputs under DIR. With ``--spans`` the
set-up runs traced and its spans are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from cellforest.cli import main as cli_main  # noqa: E402
from cellforest.cnn import init_model, save_model  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import setup_steps  # noqa: E402


def make_inputs(workload: str, seed: int, d: str, cfg: dict) -> None:
    os.makedirs(d)
    for step in setup_steps(workload, seed, d, cfg):
        if step == "model":
            save_model(init_model(seed=seed), f"{d}/model.bin")
            continue
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli_main(step)
        if rc != 0:
            raise RuntimeError(f"set-up step {step[0]} exited {rc}: {log.getvalue().strip()}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("dir")
    p.add_argument("config")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    cfg = json.loads(args.config)
    if not args.spans:
        make_inputs(args.workload, args.seed, args.dir, cfg)
        return 0
    with Tracer() as tracer:
        make_inputs(args.workload, args.seed, args.dir, cfg)
    with open(args.spans, "w") as fh:
        json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
