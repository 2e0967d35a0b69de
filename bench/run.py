"""Benchmark for ncentropy: the verification gate, library calls at scaling
sizes, and the ``nce`` JSON path.

    python3 bench/run.py --workload gate|large-blocks|cli-json --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in one fresh,
single-threaded process (OpenBLAS pinned to one thread before numpy is
imported) against the ``src`` tree next to this directory.  The last
line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the raw wall-clock figures and the environment.  Every run also
appends its full record to ``bench/out/results.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("gate", "large-blocks", "cli-json")
SETUP_RUNS = 3  # set-up is timed in this many fresh processes; setup_s is their median
DEADLINE_S = 170.0  # every run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra, deadline: float) -> tuple[dict, float]:
    """Run workload.py; return its result line and the seconds from spawn to the end of its set-up."""
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(OUT),
        *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - t0)
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ncentropy" / "__init__.py").is_file():
        print(f"error: no ncentropy source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(args, ["--setup-only"], deadline)[1])
        result, setup = spawn(args, [], deadline)
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    detail = result["detail"]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        detail["setup_runs_s"] = setups
    record = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(dict(record, detail=detail)) + "\n")
    print(json.dumps(detail))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
