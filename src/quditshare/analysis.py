"""Reference-example reproduction and exact/sampled success statistics."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .modmath import _as_int
from .protocol import (
    DEFAULT_SEED,
    REPAIRED,
    SONG_ORIGINAL,
    VARIANTS,
    ProtocolParams,
    post_encoding_state,
)
from .qudit_sim import (
    PRUNE_TOL,
    RETAINED_TOL,
    MarginalDistribution,
    QuditRegister,
    _check_tol,
    apply_local,
    basis_labels,
    inverse_cdf,
    qft_inv,
)

MC_CHUNK = 1 << 16  # Monte-Carlo trials drawn at once; bounds memory for any trial count
MC_Z = 1.959963984540054  # standard normal quantile of 0.975: a 95% Wilson score interval

# Built-in reference example: d=4, t=3, secret 3, w = exp(2*pi*i/4) = i. Every split
# of the phase 3 mod 4 encodes the same state, so REF_PARAMS, built once, stands for all.
# Encoded register: (1/2) * sum_k w^(3k) |kkk>, branch phases w^(3k) below.
REF_D = 4
REF_T = 3
REF_PARAMS = ProtocolParams(d=REF_D, t=REF_T, s_vector=(3, 0, 0))
REF_TOL = 1e-12
REF_TRIALS = 10_000
_REF_BRANCH_PHASES = (1, -1j, -1, 1j)
# After the inverse Fourier transform on qudit 1, branch k carries amplitude
# w^(3k) * w^(-jk) / 4 on |j, k, k>; column k lists j = 0..3.
_REF_TRANSFORMED_COLUMNS = (
    (1, 1, 1, 1),
    (-1j, -1, 1j, 1),
    (-1, 1, -1, 1),
    (1j, -1, -1j, 1),
)


class ReproductionError(AssertionError):
    """A computed state disagrees with its pinned closed form."""


@dataclass(frozen=True)
class AmplitudeTable:
    """Nonzero amplitudes of a register, ordered by basis index.

    Rows are (label, re, im) at full precision; norm_check is the
    squared-modulus sum of the listed rows.
    """

    d: int
    t: int
    rows: tuple[tuple[str, float, float], ...]
    norm_check: float

    def __post_init__(self):
        _check_tol(abs(self.norm_check - 1.0), RETAINED_TOL, "listed |amps|^2 do not sum to 1: |norm_check - 1|")


def amplitude_table(reg: QuditRegister) -> AmplitudeTable:
    """Tabulate every amplitude of modulus >= PRUNE_TOL, in basis order.

    The candidates are the register's values, its amplitudes on the support,
    so no other amplitude is read; only they are tested against PRUNE_TOL.
    The kept rows' labels are rendered from their digit matrix in one array
    pass. norm_check sums the kept rows' scalar moduli in basis order, since
    a vectorised modulus or sum can move its bits by an ulp.
    """
    values = reg.values.tolist()
    mags = [abs(a) for a in values]
    keep = [mag >= PRUNE_TOL for mag in mags]
    total = 0.0
    for mag in itertools.compress(mags, keep):
        total += mag * mag
    labels = basis_labels(np.column_stack(np.unravel_index(reg.support[keep], (reg.d,) * reg.t)), reg.d)
    rows = tuple((label, a.real, a.imag) for label, a in zip(labels, itertools.compress(values, keep)))
    return AmplitudeTable(d=reg.d, t=reg.t, rows=rows, norm_check=total)


def outcome_marginal(params: ProtocolParams) -> MarginalDistribution:
    """Exact distribution of agent 1's Fourier-basis measurement."""
    return VARIANTS[SONG_ORIGINAL].distribution(params)


def success_probability_exact(params: ProtocolParams) -> float:
    """Exact Pr[agent 1's outcome equals the secret] in the published flow.

    Equals 1/d whenever t >= 2: the other agents' qudits leave agent 1's
    reduced state maximally mixed, untouched by any local unitary.
    """
    return float(VARIANTS[SONG_ORIGINAL].distribution(params).probs[params.expected_secret])


def repaired_success_probability_exact(params: ProtocolParams) -> float:
    """Total probability that the all-measure variant's announced sum is the secret."""
    return float(VARIANTS[REPAIRED].distribution(params).probs[params.expected_secret])


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval (lo, hi) of hits in trials (Wilson, JASA 22, 209, 1927).

    Its ends are the roots of (n + z^2) p^2 - (2h + z^2) p + h^2/n = 0. The lower
    root is their product over the upper one, which has no cancellation, and hi
    is 1 minus the misses' lower root. So lo == 0.0 exactly when no trial hits,
    hi == 1.0 exactly when every trial hits, and 0 <= lo <= hits/trials <= hi <= 1.
    """
    q = MC_Z * MC_Z

    def lower(h: int) -> float:
        upper = (2 * h + q + MC_Z * math.sqrt(q + 4 * h * (trials - h) / trials)) / (2 * (trials + q))
        return h * h / (trials * (trials + q) * upper)

    return lower(hits), 1.0 - lower(trials - hits)


def success_probability_mc(
    params: ProtocolParams,
    trials: int,
    seed: int = DEFAULT_SEED,
    variant: str = SONG_ORIGINAL,
) -> tuple[float, tuple[float, float]]:
    """Sampled success fraction and its 95% Wilson score interval (lo, hi).

    The variant's final-outcome law is built once; each trial is one uniform
    of a single default_rng(seed) stream, inverted on that law and drawn
    MC_CHUNK at a time, so the estimate is that of `trials` one-trial draws.
    """
    trials = _as_int(trials, "trial count", 1)
    seed = _as_int(seed, "seed", 0)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    law = VARIANTS[variant].distribution(params).probs
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, trials, MC_CHUNK):
        outcomes = inverse_cdf(law, rng.random(min(MC_CHUNK, trials - start)))
        hits += int(np.count_nonzero(outcomes == params.expected_secret))
    return hits / trials, wilson_interval(hits, trials)


def verify_reference_states() -> tuple[QuditRegister, QuditRegister]:
    """Build REF_PARAMS's encoded and transformed states and check them against closed forms.

    Raises ReproductionError if either the encoded state (4 amplitudes) or
    the transformed state (16 amplitudes) deviates beyond REF_TOL.
    """
    k = np.arange(REF_D)
    encoded = post_encoding_state(REF_PARAMS)
    closed = np.zeros((REF_D,) * REF_T, dtype=np.complex128)
    # scalar division, exact here, keeps a non-finite constant's value; numpy's
    # complex division would turn a real inf into inf+nan*j
    closed[k, k, k] = [phase / 2 for phase in _REF_BRANCH_PHASES]
    _check_tol(np.max(np.abs(encoded.amps.reshape(closed.shape) - closed)), REF_TOL,
               "encoded state deviates from its closed form: max|error|", ReproductionError)
    transformed = apply_local(encoded, 1, qft_inv(REF_D))
    closed = np.zeros((REF_D,) * REF_T, dtype=np.complex128)
    closed[:, k, k] = np.transpose([[a / 4 for a in column] for column in _REF_TRANSFORMED_COLUMNS])
    _check_tol(np.max(np.abs(transformed.amps.reshape(closed.shape) - closed)), REF_TOL,
               "transformed state deviates from its closed form: max|error|", ReproductionError)
    return encoded, transformed


@dataclass(frozen=True)
class ExampleReport:
    """What one run of the reference example computed, reproducible bit-for-bit per seed.

    Its inputs are the REF_* constants, REF_PARAMS and the caller's seed.
    """

    encoded_table: AmplitudeTable
    transformed_table: AmplitudeTable
    marginal: tuple[float, ...]
    mc_estimate: float
    mc_interval: tuple[float, float]


def reproduce_example_d4(seed: int = DEFAULT_SEED) -> ExampleReport:
    """Reproduce the d=4, t=3, secret-3 example and report its statistics.

    Asserts the encoded and transformed registers against their closed forms
    (ReproductionError on mismatch), then reports agent 1's exact marginal,
    the song-original variant's law, and a seeded REF_TRIALS-trial Monte Carlo.
    """
    encoded, transformed = verify_reference_states()
    estimate, interval = success_probability_mc(REF_PARAMS, REF_TRIALS, seed)
    return ExampleReport(
        encoded_table=amplitude_table(encoded),
        transformed_table=amplitude_table(transformed),
        marginal=tuple(float(p) for p in VARIANTS[SONG_ORIGINAL].distribution(REF_PARAMS).probs),
        mc_estimate=estimate,
        mc_interval=interval,
    )
