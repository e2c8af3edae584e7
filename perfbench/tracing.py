"""Span tracing of quditshare's public functions, done from the benchmark's side.

``Tracer.op()`` replaces each traced function at every name a caller
looks it up by (``quditshare.protocol.apply_local``,
``quditshare.qudit_sim.marginal``, which ``measure`` calls, and so on) and
restores the originals on exit. Each call records a span
``(name, start, end, parent, op)`` in memory, plus the counters of its layer.
The library itself is not modified.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

import quditshare
from quditshare import analysis, modmath, protocol, qudit_sim

# Every module whose globals callers resolve a traced function through.
PATCHED_MODULES = (quditshare, modmath, qudit_sim, protocol, analysis)

Stat = Callable[[tuple, object], float]


def _in_amps(args: tuple, result: object) -> float:
    return args[0].amps.size


def _apply_local_bytes(args: tuple, result: object) -> float:
    # Computed, not measured: the tensordot reads the register and the gate
    # and writes a register of the same size (complex128, 16 bytes each).
    n, d = args[0].amps.size, args[0].d
    return 16 * (2 * n + d * d)


# Traced function -> the counters its spans add, beyond calls and self_s.
TRACED: dict[Callable, dict[str, Stat]] = {
    modmath.gen_shares: {},
    modmath.lagrange_term: {},
    modmath.mod_inverse: {},
    qudit_sim.make_ghz: {"amps": lambda args, result: result.amps.size},
    qudit_sim.phase_gate: {},
    qudit_sim.qft_inv: {},
    qudit_sim.apply_local: {"amps": _in_amps, "bytes_computed": _apply_local_bytes},
    qudit_sim.marginal: {"amps": _in_amps},
    qudit_sim.measure: {"amps": _in_amps},
    qudit_sim.joint_distribution: {"entries": lambda args, result: len(result.entries)},
    protocol.derived_seed: {},
    protocol.post_encoding_state: {},
    protocol.run_song_original: {},
    protocol.run_repaired_all_measure: {},
    analysis.success_probability_mc: {},
    analysis.success_probability_exact: {},
    analysis.repaired_success_probability_exact: {},
    analysis.outcome_marginal: {},
    analysis.amplitude_table: {"rows": lambda args, result: len(result.rows)},
}

# Every per-layer stat is a mean per traced op.
STAT_UNITS = {
    "calls": "calls/op",
    "self_s": "s/op",
    "amps": "amps/op",
    "bytes_computed": "B/op",
    "entries": "entries/op",
    "rows": "rows/op",
}


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans and counters for the ops run inside ``op(op_id)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id = -1
        self._wrappers = {fn: self._wrap(fn, stats) for fn, stats in TRACED.items()}

    def _wrap(self, fn: Callable, stats: dict[str, Stat]) -> Callable:
        name = span_name(fn)
        counters = [(f"{name}.{stat}", count) for stat, count in stats.items()]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._op_id)
            for key, count in counters:
                self.counts[key] += count(args, result)
            return result

        return wrapper

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Trace one op: route every lookup of a traced function through its wrapper."""
        self._op_id = op_id
        saved = []
        for module in PATCHED_MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def self_times(self) -> Iterator[tuple[str, float]]:
        """(name, self seconds) per span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            yield name, end - start - child[i]

    def root_time(self) -> defaultdict[int, float]:
        """Per op, the wall time covered by spans that have no parent."""
        covered: defaultdict[int, float] = defaultdict(float)
        for _, start, end, parent, op_id in self.spans:
            if parent < 0:
                covered[op_id] += end - start
        return covered

    def write(self, path: Path) -> None:
        """Dump every span as gzipped JSON: names once, then one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, op] for n, start, end, parent, op in self.spans]
        doc = {"fields": ["name", "start", "end", "parent", "op"], "names": names, "spans": rows}
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps(doc))  # dumps uses the C encoder; dump does not


# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    (f"{span_name(fn)}.{stat}", STAT_UNITS[stat])
    for fn, stats in TRACED.items()
    for stat in ("calls", "self_s", *stats)
] + [
    ("protocol.encode_useful_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
]


def summarize(tracer: Tracer, traced: dict[int, float], untraced: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced ops (op id -> wall seconds) and the untraced ones.

    Stats are means per traced op. encode_useful_ratio is the encoded states
    an op needs (one) over make_ghz calls, 0 when nothing calls make_ghz;
    overhead_pct compares traced with untraced op time; unattributed_pct is
    the share of traced op time outside every top-level span.
    """
    totals: defaultdict[str, float] = defaultdict(float, tracer.counts)
    for name, self_s in tracer.self_times():
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_s
    n = len(traced)
    values = {metric: totals[metric] / n for metric, _ in PER_LAYER}
    ghz_calls = totals["qudit_sim.make_ghz.calls"]
    values["protocol.encode_useful_ratio"] = n / ghz_calls if ghz_calls else 0.0
    traced_s = sum(traced.values())
    untraced_mean = sum(untraced) / len(untraced)
    values["trace.overhead_pct"] = 100.0 * (traced_s / n / untraced_mean - 1.0)
    covered = tracer.root_time()
    values["trace.unattributed_pct"] = 100.0 * sum(traced[i] - covered[i] for i in traced) / traced_s
    return values
