"""quditshare benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The op loop runs in a fresh worker process
(worker.py) with BLAS pinned to one thread, so peak RSS is that of a process
that ran only this workload. With ``--trace 0`` six more workers run set-up
alone, three before the op loop and three after it, and ``setup_s`` is the
median over all seven. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric with its unit, the op-time percentiles and the failed ratio with
their bases, and the provenance. The full record, and the spans of a traced
run, are written under perfbench/results/.
"""

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
RESULTS = HERE / "results"
SETUP_PROBES = 6
# Whole-run limit, below the 180 s a run may take.
DEADLINE_S = 170.0


def run_worker(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON object it prints last."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "quditshare").is_dir():
        print(f"quditshare sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def probe_setup(count: int) -> list[float]:
        return [run_worker([*common, "--setup-only"], env, deadline)["setup_s"] for _ in range(count)]

    # Probes on both sides of the op loop sample the host over the whole run.
    setups = [] if args.trace else probe_setup(SETUP_PROBES // 2)
    run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", str(RESULTS / f"{tag}.spans.json.gz")]
    out = run_worker(run_args, env, deadline)

    metrics = out["metrics"]
    if not args.trace:
        setups += [out["setup_s"], *probe_setup(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    attempted, failed = out["attempted"], out["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "provenance": out["provenance"],
        "failed_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "latency": out["latency"],
        "setup_s_samples": setups,
        "result": result,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"provenance {json.dumps(out['provenance'])}")
    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for name, m in out["latency"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']} (of {m['samples']} ops, not gated)")
    print(f"  {'failed_ratio':<48} {failed / attempted:.6g} (of {attempted} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
