"""Print every metric of every workload as one table, each with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs run.py once per workload named in BENCHMARK.json. Without --trace the
rows are the end-to-end metrics, the ungated op-time percentiles and
failed_ratio with its base; with --trace they are the per-layer metrics of
the traced run and failed_ratio.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="report the per-layer metrics")
    args = ap.parse_args()

    names = [w["name"] for w in bench["workloads"]]
    results, latency = {}, {}
    for name in names:
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
        )
        record = json.loads((HERE / "results" / f"{name}-seed{args.seed}-trace{int(args.trace)}.json").read_text())
        results[name], latency[name] = record["result"], record["latency"]

    rows = [
        (m["name"], m["unit"], [f"{results[n]['metrics'][m['name']]['value']:.6g}" for n in names])
        for m in bench["per_layer" if args.trace else "end_to_end"]
    ]
    if not args.trace:
        rows += [
            (f"{p} (ungated)", "ms", [f"{latency[n][p]['value']:.6g} of {latency[n][p]['samples']}" for n in names])
            for p in ("op_p50_ms", "op_p90_ms")
        ]
    rows.append(
        ("failed_ratio", "ratio", [f"{r['failed'] / r['attempted']:.3g} of {r['attempted']}" for r in results.values()])
    )
    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'unit':<10}" + "".join(f"  {n:>14}" for n in names))
    for name, unit, values in rows:
        print(f"{name:<{width}}  {unit:<10}" + "".join(f"  {v:>14}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
