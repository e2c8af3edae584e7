"""The benchmark's workloads: how each one makes its inputs, runs one op and checks it.

Every op calls quditshare through module attributes (``analysis.x``,
``protocol.x``, ``qudit_sim.x``) so that the tracer's wrappers, installed at
those names, see the call. Inputs come from ``numpy.random.SeedSequence`` of
the workload seed, never from the library's own seed derivation, so they stay
byte-identical when the library changes how it seeds its trials.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from quditshare import analysis, modmath, protocol, qudit_sim

# Op inputs are generated once, in set-up; op i uses input i mod INPUT_POOL.
INPUT_POOL = 2048

MC_D, MC_T, MC_N, MC_TRIALS = 7, 3, 5, 250
# 6 sigma: a spurious failure among ~100 estimates per run has probability < 1e-6.
MC_SONG_TOL = 6.0 * math.sqrt((1 / MC_D) * (1 - 1 / MC_D) / MC_TRIALS)
# Same tolerance as the CLI sweep's SWEEP_TOL.
EXACT_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    """One op type: ``op(input)`` returns observed values compared with ``expected``."""

    name: str
    d: int
    t: int
    make_input: Callable[[np.random.Generator], object]
    op: Callable[[object], tuple[float, ...]]
    expected: tuple[float, ...]
    tol: float

    @property
    def state_bytes(self) -> int:
        """Bytes of one complex128 register of this workload's shape."""
        return 16 * self.d**self.t

    def make_inputs(self, seed: int) -> list[object]:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return [self.make_input(rng) for _ in range(INPUT_POOL)]

    def check(self, observed: tuple[float, ...]) -> bool:
        return len(observed) == len(self.expected) and all(
            abs(o - e) <= self.tol for o, e in zip(observed, self.expected)
        )


@dataclass(frozen=True)
class McInput:
    params: protocol.ProtocolParams
    op_seed: int


def _mc_input(rng: np.random.Generator) -> McInput:
    coeffs = tuple(int(a) for a in rng.integers(0, MC_D, size=MC_T))
    xs = tuple(int(x) for x in 1 + rng.permutation(MC_D - 1)[:MC_N])
    params = protocol.ProtocolParams(
        d=MC_D,
        t=MC_T,
        n=MC_N,
        polynomial=modmath.SharePolynomial(MC_D, coeffs),
        abscissae=xs,
    )
    return McInput(params, int(rng.integers(0, 2**63)))


def _mc_op(variant: str) -> Callable[[McInput], tuple[float, ...]]:
    def op(inp: McInput) -> tuple[float, ...]:
        estimate, _ = analysis.success_probability_mc(
            inp.params, MC_TRIALS, inp.op_seed, variant
        )
        return (estimate,)

    return op


def _s_vector_input(d: int, t: int) -> Callable[[np.random.Generator], protocol.ProtocolParams]:
    def make(rng: np.random.Generator) -> protocol.ProtocolParams:
        terms = tuple(int(s) for s in rng.integers(0, d, size=t))
        return protocol.ProtocolParams(d=d, t=t, s_vector=terms)

    return make


def _exact_op(params: protocol.ProtocolParams) -> tuple[float, ...]:
    return (
        analysis.success_probability_exact(params),
        analysis.repaired_success_probability_exact(params),
    )


def _exact_dense_op(params: protocol.ProtocolParams) -> tuple[float, ...]:
    encoded = protocol.post_encoding_state(params)
    transformed = qudit_sim.apply_local(encoded, 1, qudit_sim.qft_inv(params.d))
    return (*_exact_op(params), len(analysis.amplitude_table(transformed).rows))


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        # Published flow by Monte Carlo: every trial re-simulates GHZ, shares, t+1 gates and one measure.
        Workload(
            name="mc-song",
            d=MC_D,
            t=MC_T,
            make_input=_mc_input,
            op=_mc_op(protocol.SONG_ORIGINAL),
            expected=(1 / MC_D,),
            tol=MC_SONG_TOL,
        ),
        # Repaired variant by Monte Carlo: same layers as mc-song but t Fourier+measure collapses per trial.
        Workload(
            name="mc-repaired",
            d=MC_D,
            t=MC_T,
            make_input=_mc_input,
            op=_mc_op(protocol.REPAIRED),
            expected=(1.0,),
            tol=0.0,
        ),
        # Exact analysis at d=384, t=2: dense d x d gate building and unitarity checks dominate.
        Workload(
            name="exact-wide-d",
            d=384,
            t=2,
            make_input=_s_vector_input(384, 2),
            op=_exact_op,
            expected=(1 / 384, 1.0),
            tol=EXACT_TOL,
        ),
        # Exact analysis plus amplitude table at d=8, t=6 (4 MiB state): state kernels dominate.
        Workload(
            name="exact-dense",
            d=8,
            t=6,
            make_input=_s_vector_input(8, 6),
            op=_exact_dense_op,
            expected=(1 / 8, 1.0, 8 * 8),
            tol=EXACT_TOL,
        ),
    )
}
