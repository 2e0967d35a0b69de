"""One workload in one process: set up, measure, check, report.

Started by run.py with OpenBLAS pinned to one thread and ``src`` on the
path.  Prints one JSON line: the counts, the end-to-end (or, with
``--trace 1``, the per-layer) metrics, and the raw figures and
environment behind them.  ``--setup-only`` stops once the inputs exist,
so run.py can time set-up in fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import ncentropy  # found through PYTHONPATH, set by run.py
import refkernel
from workloads import GATE_TRIALS, WORKLOADS, CliResult

ROOT = Path(__file__).resolve().parent.parent


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def blas_threads() -> int | None:
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def environment(ref_s: list[float]) -> dict:
    q = statistics.quantiles(ref_s, n=4)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "reference_pass_ms": {
            "mean": statistics.fmean(ref_s) * 1e3,
            "median": statistics.median(ref_s) * 1e3,
            "q1": q[0] * 1e3,
            "q3": q[2] * 1e3,
            "passes": len(ref_s),
            "recorded_R": refkernel.REFERENCE_PASS_MS,
        },
    }


def measure(wl, seconds: float, tracer):
    """Repeat whole rounds until ``seconds`` have passed and the tail has ten samples."""
    min_ops = int(np.ceil(10.0 / (1.0 - wl.tail_pct / 100.0))) + 1
    lat, ok, ref_s, batch_of = [], [], [], []
    attempted = failed = bytes_in = bytes_out = 0
    unexpected: dict[str, int] = {}
    known: dict[str, int] = {}
    suite_trials: dict[str, int] = {}
    t_begin = time.perf_counter()
    rounds = 0
    while True:
        for i, op in enumerate(wl.round):
            if i % wl.batch == 0:
                ref_s.append(refkernel.reference_pass())
            if tracer is not None:
                tracer.begin_op(attempted)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a crash is this operation's result
                out = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            attempted += 1
            lat.append(t1 - t0)
            batch_of.append(len(ref_s) - 1)
            if isinstance(out, Exception):
                reason = f"{type(out).__name__}: {out}"
            else:
                try:
                    reason = op.check(out)
                except Exception as exc:  # malformed output
                    reason = f"check raised {type(exc).__name__}: {exc}"
                if isinstance(out, CliResult):
                    bytes_out += len(out.stdout.encode())
            bytes_in += op.bytes_in
            if op.suite is not None:
                suite_trials[op.suite] = suite_trials.get(op.suite, 0) + op.trials
            ok.append(reason is None)
            if reason is None:
                continue
            failed += 1
            bucket = known if op.known_fault else unexpected
            key = f"{op.kind}: {op.known_fault or reason}"
            bucket[key] = bucket.get(key, 0) + 1
        rounds += 1
        if time.perf_counter() - t_begin >= seconds and sum(ok) >= min_ops and rounds >= wl.min_rounds:
            break
    return {
        "lat": lat,
        "ok": ok,
        "ref_s": ref_s,
        "batch_of": batch_of,
        "attempted": attempted,
        "failed": failed,
        "known": known,
        "unexpected": unexpected,
        "bytes_in": bytes_in,
        "bytes_out": bytes_out,
        "suite_trials": suite_trials,
        "loop_s": time.perf_counter() - t_begin,
    }


LOCAL_PASSES = 5  # a latency is scaled by the mean of the passes within this many batches


def ref_scale(ref_s: list[float]) -> float:
    """Reference-seconds per wall second over the whole run: R / r.

    r is the mean pass time, not the median: on a shared 2-vCPU host the
    pass times are bimodal (a sibling thread busy or idle), and the median
    of a bimodal sample jumps between the modes from run to run, while the
    mean follows the share of time spent in each, as the operations do.
    """
    return refkernel.REFERENCE_PASS_MS * 1e-3 / statistics.fmean(ref_s)


def end_to_end(m: dict, tail_pct: float) -> tuple[dict, dict]:
    """Normalised metrics and their raw wall-clock counterparts.

    Throughput is a sum over the run and is scaled by the whole run's
    mean pass.  A latency percentile picks single operations, so each
    operation is scaled by the passes timed around it, which follows the
    host's drift within the run.
    """
    lat = np.asarray(m["lat"])
    ok = np.asarray(m["ok"])
    ref = np.asarray(m["ref_s"])
    cum = np.concatenate([[0.0], np.cumsum(ref)])
    b = np.asarray(m["batch_of"])
    lo = np.clip(b - LOCAL_PASSES, 0, len(ref))
    hi = np.clip(b + LOCAL_PASSES + 1, 0, len(ref))
    local = lat[ok] * refkernel.REFERENCE_PASS_MS * 1e-3 / ((cum[hi] - cum[lo]) / (hi - lo))[ok]
    raw = {
        "throughput_ops_s": int(ok.sum()) / float(lat.sum()),
        "latency_p50_ms": percentile(lat[ok], 50) * 1e3,
        "latency_tail_ms": percentile(lat[ok], tail_pct) * 1e3,
    }
    norm = {
        "throughput_ref_ops_s": raw["throughput_ops_s"] / ref_scale(m["ref_s"]),
        "latency_p50_ref_ms": percentile(local, 50) * 1e3,
        "latency_tail_ref_ms": percentile(local, tail_pct) * 1e3,
    }
    return norm, raw


def per_layer(m: dict, tracer, scale: float) -> dict:
    from tracer import GROUPS

    n = m["attempted"]
    out = {}
    for group in GROUPS:
        seconds, calls = tracer.group_totals(group)
        out[f"{group}_calls_per_op"] = (calls / n, "count")
        out[f"{group}_ms_per_op"] = (seconds * scale * 1e3 / n, "ms")
    for suite, ident in tracer.suite_ids.items():
        trials = m["suite_trials"].get(suite, 0)
        value = tracer.self_s[ident] * scale * 1e3 / trials if trials else 0.0
        out[f"harness.suite_ms.{suite}"] = (value, "ms")
    out["cli.bytes_in_per_op"] = (m["bytes_in"] / n, "B")
    out["cli.bytes_out_per_op"] = (m["bytes_out"] / n, "B")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for input and trace files")
    args = ap.parse_args(argv)

    if not Path(ncentropy.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: ncentropy imported from {ncentropy.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = Path(args.out) / f"inputs-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        import oracle

        oracle.self_check()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(ncentropy, GATE_TRIALS)
        m = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    norm, raw = end_to_end(m, wl.tail_pct)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": m["attempted"],
        "rounds": m["attempted"] // len(wl.round),
        "round_ops": len(wl.round),
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": int(sum(m["ok"]) * (1 - wl.tail_pct / 100)),
        "loop_s": m["loop_s"],
        "busy_s": sum(m["lat"]),
        "raw": raw,
        "normalised": norm,
        "known_faults": m["known"],
        "unexpected_failures": m["unexpected"],
        "environment": environment(m["ref_s"]),
    }
    metrics = {
        "throughput_ref_ops_s": (norm["throughput_ref_ops_s"], "1/s"),
        "latency_p50_ref_ms": (norm["latency_p50_ref_ms"], "ms"),
        "latency_tail_ref_ms": (norm["latency_tail_ref_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if tracer is not None:
        metrics = per_layer(m, tracer, ref_scale(m["ref_s"]))
        trace_path = Path(args.out) / f"trace-{args.workload}.npz"
        tracer.dump(trace_path, detail)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    print(
        json.dumps(
            {
                "ready": ready,
                "correct": not m["unexpected"],
                "attempted": m["attempted"],
                "failed": m["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "detail": detail,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
