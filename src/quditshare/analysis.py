"""Reference-example reproduction and exact/sampled success statistics."""

from __future__ import annotations

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
    basis_digits,
    basis_label,
    draw,
    marginal,
    qft_inv,
)

MC_CHUNK = 1 << 16  # Monte-Carlo trials drawn at once; bounds memory for any trial count

# Built-in reference example: d=4, t=3, secret 3, w = exp(2*pi*i/4) = i.
# Encoded register: (1/2) * sum_k w^(3k) |kkk>, branch phases w^(3k) below.
REF_D = 4
REF_T = 3
REF_SECRET = 3
REF_TOL = 1e-12
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

    Rows are (label, re, im) with raw float values; rendering rounds to 12
    significant digits and snaps sub-PRUNE_TOL components to zero for a clean
    +-i style display. norm_check is the squared-modulus sum of listed rows.
    """

    d: int
    t: int
    rows: tuple[tuple[str, float, float], ...]
    norm_check: float

    def __post_init__(self):
        _check_tol(abs(self.norm_check - 1.0), RETAINED_TOL, "listed |amps|^2 do not sum to 1: |norm_check - 1|")

    def to_text_rows(self, indent: str = "  ") -> list[str]:
        width = max(len(label) for label, _, _ in self.rows)
        return [
            f"{indent}{label:<{width}}  {_fmt_complex(re, im)}"
            for label, re, im in self.rows
        ]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "t": self.t,
            "rows": [[label, re, im] for label, re, im in self.rows],
            "norm_check": self.norm_check,
        }


def _fmt_component(x: float) -> str:
    if abs(x) < PRUNE_TOL:
        x = 0.0
    return f"{x + 0.0:+.12g}"  # +0.0 normalizes a negative zero


def _fmt_complex(re: float, im: float) -> str:
    return f"{_fmt_component(re)}{_fmt_component(im)}i"


def amplitude_table(reg: QuditRegister) -> AmplitudeTable:
    """Tabulate every amplitude of modulus >= PRUNE_TOL, in basis order."""
    rows = []
    total = 0.0
    # Visit only the kept rows; summing their scalar moduli in basis order keeps
    # norm_check's bits, which a vectorised sum can move by an ulp.
    for i in np.flatnonzero(np.abs(reg.amps) >= PRUNE_TOL):
        a = reg.amps[i]
        mag = abs(a)
        rows.append((basis_label(basis_digits(int(i), reg.d, reg.t), reg.d), float(a.real), float(a.imag)))
        total += mag * mag
    return AmplitudeTable(d=reg.d, t=reg.t, rows=tuple(rows), norm_check=total)


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


def success_probability_mc(
    params: ProtocolParams,
    trials: int,
    seed: int = DEFAULT_SEED,
    variant: str = SONG_ORIGINAL,
) -> tuple[float, float]:
    """Sampled success fraction and its binomial standard error.

    The measurers' outcome table is built once; each trial is one uniform of a
    single default_rng(seed) stream, inverted on that table and drawn MC_CHUNK
    at a time, so the estimate is that of `trials` one-trial draws.
    """
    trials = _as_int(trials, "trial count", 1)
    seed = _as_int(seed, "seed", 0)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    table = VARIANTS[variant].outcome_table(params)
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, trials, MC_CHUNK):
        outcomes = draw(table, rng, min(MC_CHUNK, trials - start))
        hits += int(np.count_nonzero(outcomes.sum(axis=1) % params.d == params.expected_secret))
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


def _reference_post_encoding_amps() -> np.ndarray:
    amps = np.zeros(REF_D**REF_T, dtype=np.complex128)
    stride = (REF_D**REF_T - 1) // (REF_D - 1)
    for k in range(REF_D):
        amps[k * stride] = _REF_BRANCH_PHASES[k] / 2.0
    return amps


def _reference_transformed_amps() -> np.ndarray:
    amps = np.zeros(REF_D**REF_T, dtype=np.complex128)
    for k in range(REF_D):
        for j in range(REF_D):
            amps[j * REF_D**2 + k * REF_D + k] = _REF_TRANSFORMED_COLUMNS[k][j] / 4.0
    return amps


def verify_reference_states(
    s_split: tuple[int, int, int] = (3, 0, 0),
) -> tuple[QuditRegister, QuditRegister]:
    """Build the reference example's states and check them against closed forms.

    s_split is the per-agent split of the accumulated phase; any split summing
    to 3 mod 4 produces the same register. Raises ReproductionError if either
    the encoded state (4 amplitudes) or the transformed state (16 amplitudes)
    deviates beyond REF_TOL.
    """
    params = ProtocolParams(d=REF_D, t=REF_T, s_vector=tuple(s_split))
    if params.expected_secret != REF_SECRET:
        raise ValueError(f"split {s_split} does not sum to {REF_SECRET} mod {REF_D}")
    encoded = post_encoding_state(params)
    _check_tol(np.max(np.abs(encoded.amps - _reference_post_encoding_amps())), REF_TOL,
               "encoded state deviates from its closed form: max|error|", ReproductionError)
    transformed = apply_local(encoded, 1, qft_inv(REF_D))
    _check_tol(np.max(np.abs(transformed.amps - _reference_transformed_amps())), REF_TOL,
               "transformed state deviates from its closed form: max|error|", ReproductionError)
    return encoded, transformed


@dataclass(frozen=True)
class ExampleReport:
    """Everything the reference example produces, reproducible byte-for-byte."""

    d: int
    t: int
    secret: int
    s_split: tuple[int, ...]
    encoded_table: AmplitudeTable
    transformed_table: AmplitudeTable
    marginal: tuple[float, ...]
    exact_p: float
    mc_trials: int
    mc_seed: int
    mc_estimate: float
    mc_stderr: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "params": {
                "d": self.d,
                "t": self.t,
                "secret": self.secret,
                "s_split": list(self.s_split),
            },
            "encoded_table": self.encoded_table.to_dict(),
            "transformed_table": self.transformed_table.to_dict(),
            "marginal": list(self.marginal),
            "exact_p": self.exact_p,
            "mc": {
                "trials": self.mc_trials,
                "seed": self.mc_seed,
                "estimate": self.mc_estimate,
                "stderr": self.mc_stderr,
            },
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        lines = [
            f"reference example: d={self.d} t={self.t} secret={self.secret} "
            f"split={','.join(str(s) for s in self.s_split)}",
            "",
            f"encoded state ({len(self.encoded_table.rows)} rows):",
            *self.encoded_table.to_text_rows(),
            "",
            f"after inverse Fourier on qudit 1 ({len(self.transformed_table.rows)} rows):",
            *self.transformed_table.to_text_rows(),
            "",
            "marginal of qudit 1: " + " ".join(f"{p:.12g}" for p in self.marginal),
            f"exact success probability: {self.exact_p:.12g}",
            f"monte carlo: trials={self.mc_trials} seed={self.mc_seed} "
            f"estimate={self.mc_estimate:.12g} stderr={self.mc_stderr:.12g}",
            f"verdict: {self.verdict}",
        ]
        return "\n".join(lines) + "\n"


def reproduce_example_d4(
    trials: int = 10000,
    seed: int = DEFAULT_SEED,
    s_split: tuple[int, int, int] = (3, 0, 0),
) -> ExampleReport:
    """Reproduce the d=4, t=3, secret-3 example and report its statistics.

    Asserts the encoded and transformed registers against their closed forms
    (ReproductionError on mismatch), then reports agent 1's exact marginal,
    the exact success probability, and a seeded Monte-Carlo estimate.
    """
    encoded, transformed = verify_reference_states(s_split)
    marg = marginal(transformed, 1).probs
    exact_p = float(marg[REF_SECRET])
    params = ProtocolParams(d=REF_D, t=REF_T, s_vector=tuple(s_split), seed=seed)
    estimate, stderr = success_probability_mc(params, trials, seed)
    verdict = (
        f"outcome uniform over {REF_D} values (exact p = {exact_p:.12g}); "
        "the lone measuring agent cannot recover the secret without announcements"
    )
    return ExampleReport(
        d=REF_D,
        t=REF_T,
        secret=REF_SECRET,
        s_split=tuple(s_split),
        encoded_table=amplitude_table(encoded),
        transformed_table=amplitude_table(transformed),
        marginal=tuple(float(p) for p in marg),
        exact_p=exact_p,
        mc_trials=trials,
        mc_seed=seed,
        mc_estimate=estimate,
        mc_stderr=stderr,
        verdict=verdict,
    )
