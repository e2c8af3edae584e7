"""Self-test of the benchmark; run with ``python3 -m pytest perfbench`` from the repository root."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import tracing
import worker
from quditshare import protocol, qudit_sim
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, name: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_workloads_and_layers_match_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_prints_with_its_unit(name, trace):
    proc = run_bench(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= worker.MIN_OPS
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}
    assert {k: printed[k] for k in declared} == declared
    assert "failed_ratio" in printed
    if not trace:
        latency = {line.split()[0]: line.split()[2] for line in lines if line.endswith("not gated)")}
        assert latency == {"op_p50_ms": "ms", "op_p90_ms": "ms"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_leaves_results_unchanged(name):
    wl = WORKLOADS[name]
    tracer = tracing.Tracer()
    for i, inp in enumerate(wl.make_inputs(5)[:2]):
        plain = wl.op(inp)
        with tracer.op(i):
            traced = wl.op(inp)
        assert traced == plain
        assert wl.check(traced)
    assert {s[0] for s in tracer.spans} >= {"qudit_sim.make_ghz", "qudit_sim.apply_local"}
    assert protocol.apply_local is qudit_sim.apply_local
    assert not hasattr(qudit_sim.apply_local, "__wrapped__")


def _raise(inp):
    raise RuntimeError("op failed on purpose")


@pytest.mark.parametrize(
    "change",
    [{"expected": (0.5, 1.0)}, {"op": _raise}],
    ids=["wrong-expected-value", "op-raises"],
)
def test_failures_are_counted_not_raised(change):
    wl = replace(WORKLOADS["exact-wide-d"], **change)
    res = worker.run_ops(wl, wl.make_inputs(7), seconds=0)
    assert res.attempted == worker.MIN_OPS
    assert res.failed == res.attempted


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, "mc-song", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
