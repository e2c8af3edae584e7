"""Run one benchmark workload in this process; print the result as one JSON line.

run.py starts this script with BLAS pinned to one thread and ``src`` on
PYTHONPATH. Set-up time runs from the first line of this file, before numpy
and quditshare are imported, to the moment every op input exists.
"""

import time

# Set-up is timed from here, so every import below counts towards it.
_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from quditshare import qudit_sim
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Two ops at least, so that quantiles exist and a traced run has an untraced op.
MIN_OPS = 2


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    untraced: list[float] = field(default_factory=list)  # op wall seconds
    traced: dict[int, float] = field(default_factory=dict)  # op id -> wall seconds


def run_ops(wl: Workload, inputs: list, seconds: float, tracer: tracing.Tracer | None = None) -> LoopResult:
    """Closed loop, one client: each op starts once the previous one is checked.

    With a tracer, odd-numbered ops run traced and even ones untraced. An op
    that raises or fails its check counts as failed; it is never retried.
    """
    res = LoopResult()
    start = time.perf_counter()
    while res.attempted < MIN_OPS or time.perf_counter() - start < seconds:
        i = res.attempted
        inp = inputs[i % len(inputs)]
        traced = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.op(i):
                    observed = wl.op(inp)
            else:
                observed = wl.op(inp)
            dt = time.perf_counter() - t0
            ok = wl.check(observed)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            ok = False
        if traced:
            res.traced[i] = dt
        else:
            res.untraced.append(dt)
        res.attempted += 1
        res.failed += not ok
    res.elapsed_s = time.perf_counter() - start
    return res


def end_to_end(res: LoopResult) -> dict[str, dict]:
    values = {
        "ops_per_s": ((res.attempted - res.failed) / res.elapsed_s, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def latency(res: LoopResult) -> dict[str, dict]:
    """Median and 90th percentile of untraced op wall time, with their sample count.

    These are printed and recorded but not declared in BENCHMARK.json: on a
    host whose speed switches between two levels for seconds at a time, op
    times are bimodal, so a percentile jumps between the levels from one run
    to the next, while ops_per_s averages over them.
    """
    deciles = statistics.quantiles(res.untraced, n=10, method="inclusive")
    n = len(res.untraced)
    return {
        "op_p50_ms": {"value": 1e3 * deciles[4], "unit": "ms", "samples": n},
        "op_p90_ms": {"value": 1e3 * deciles[8], "unit": "ms", "samples": n},
    }


def _cpu_caches() -> dict[str, int]:
    """Per-core cache sizes in bytes from /sys, keyed L1d, L1i, L2, L3."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = int(size.rstrip("KMG")) * scale
    return caches


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return None
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def provenance(wl: Workload, seed: int, res: LoopResult) -> dict:
    caches = _cpu_caches()
    llc = max((v for k, v in caches.items() if k[-1].isdigit()), default=None)
    cap_bytes = 16 * qudit_sim.size_cap()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": wl.name,
        "seed": seed,
        "ops_per_run": res.attempted,
        "traced_ops": len(res.traced),
        "state_bytes_computed": wl.state_bytes,
        "cache_bytes": caches,
        # Bandwidth needs arrays of 4x the last-level cache; the size cap
        # may forbid them, and bytes moved are computed in any case.
        "llc_rule": {
            "llc_bytes": llc,
            "state_bytes_at_size_cap": cap_bytes,
            "four_x_llc_met": llc is not None and cap_bytes >= 4 * llc,
            "bytes_moved": "computed from array sizes, not measured",
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    res = run_ops(wl, inputs, args.seconds, tracer)
    if tracer is None:
        metrics = end_to_end(res)
    else:
        per_layer = tracing.summarize(tracer, res.traced, res.untraced)
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        if args.spans is not None:
            tracer.write(args.spans)
    print(
        json.dumps(
            {
                "attempted": res.attempted,
                "failed": res.failed,
                "setup_s": setup_s,
                "metrics": metrics,
                "latency": latency(res) if tracer is None else {},
                "provenance": provenance(wl, args.seed, res),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
