"""Reconstruction-protocol runs over an ideal authenticated channel.

Every variant shares one flow. The first agent prepares a GHZ state and
distributes one qudit per agent; every agent encodes its Lagrange term as a
diagonal phase; the variant's measurers Fourier-invert and measure, and the
final outcome is the sum of their results mod d. The register stays inside the
flow: Variant.outcome_table(params) hands out the Born table of the measurers'
joint outcome, which gives the exact distribution and every draw, of the
runner and of Monte Carlo alike; the runner writes its transcript from the
parameters and the drawn outcomes.

- song-original: the published flow. Only the first agent inverts and
  measures, receiving no announcements. Its outcome is uniform over Z_d, so
  the secret is recovered with probability exactly 1/d.
- product-counterfactual: the same lone measurer on a single unentangled
  qudit carrying the interpolated sum of the terms, where it does return the
  secret with certainty.
- repaired: a diagnostic (non-published) variant in which every agent
  Fourier-inverts, measures, and announces; the announced results sum to the
  secret mod d on every run.

The channel is ideal (no loss, no adversary); transfers exist only as
transcript events. Runs are deterministic given (params, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modmath import (
    SharePolynomial,
    _as_int,
    _check_abscissae,
    _check_modulus,
    gen_shares,
    lagrange_term,
)
from .qudit_sim import (
    MarginalDistribution,
    QuditRegister,
    apply_local,
    draw,
    make_ghz,
    marginal,
    phase_gate,
    qft_inv,
)

SONG_ORIGINAL = "song-original"
PRODUCT_COUNTERFACTUAL = "product-counterfactual"
REPAIRED = "repaired"

FOURIER_BASIS = "fourier"

# Fixed default so published transcripts reproduce bit-for-bit.
DEFAULT_SEED = 12345


def derived_seed(seed: int, index: int) -> int:
    """Seed of sweep cell index; Monte Carlo draws from one stream instead (uint32s collide)."""
    return int(np.random.SeedSequence((_as_int(seed, "seed", 0), index)).generate_state(1)[0])


@dataclass(frozen=True)
class QuditSent:
    sender: int
    recipient: int
    qudit: int

    def describe(self) -> str:
        return f"send: qudit {self.qudit} from agent {self.sender} to agent {self.recipient}"

    def to_dict(self) -> dict:
        return {"type": "qudit_sent", "from": self.sender, "to": self.recipient, "qudit": self.qudit}


@dataclass(frozen=True)
class GateApplied:
    agent: int
    gate: str
    s: int

    def describe(self) -> str:
        return f"gate: agent {self.agent} applies {self.gate} on qudit {self.agent}"

    def to_dict(self) -> dict:
        return {"type": "gate_applied", "agent": self.agent, "gate": self.gate, "s": self.s}


@dataclass(frozen=True)
class Measured:
    agent: int
    basis: str
    outcome: int

    def describe(self) -> str:
        return f"measure: agent {self.agent} measures qudit {self.agent} in {self.basis} basis -> {self.outcome}"

    def to_dict(self) -> dict:
        return {"type": "measured", "agent": self.agent, "basis": self.basis, "outcome": self.outcome}


@dataclass(frozen=True)
class Announced:
    agent: int
    value: int

    def describe(self) -> str:
        return f"announce: agent {self.agent} broadcasts {self.value}"

    def to_dict(self) -> dict:
        return {"type": "announced", "agent": self.agent, "value": self.value}


ProtocolEvent = QuditSent | GateApplied | Measured | Announced


@dataclass(frozen=True)
class Transcript:
    """Ordered event log of one protocol run plus its outcome."""

    variant: str
    d: int
    t: int
    seed: int
    events: tuple[ProtocolEvent, ...]
    final_outcome: int
    expected_secret: int

    def to_lines(self) -> list[str]:
        lines = [f"variant: {self.variant} d={self.d} t={self.t} seed={self.seed}"]
        lines.extend(ev.describe() for ev in self.events)
        lines.append(f"final outcome: {self.final_outcome}")
        lines.append(f"expected secret: {self.expected_secret}")
        return lines

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "d": self.d,
            "t": self.t,
            "seed": self.seed,
            "events": [ev.to_dict() for ev in self.events],
            "final_outcome": self.final_outcome,
            "expected_secret": self.expected_secret,
        }


@dataclass(frozen=True)
class ProtocolParams:
    """Run configuration: modulus, threshold, agent count, secret source, seed.

    The secret comes either from a SharePolynomial plus n distinct abscissae
    (the first t agents participate) or directly from the encoded term vector
    (s_1, ..., s_t); exactly one of the two.
    """

    d: int
    t: int
    n: int | None = None
    polynomial: SharePolynomial | None = None
    abscissae: tuple[int, ...] | None = None
    s_vector: tuple[int, ...] | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "d", _check_modulus(self.d))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0))
        has_poly = self.polynomial is not None
        if has_poly and self.s_vector is not None:
            raise ValueError(f"give one secret source, not both polynomial "
                             f"{self.polynomial.coeffs} and s_vector {tuple(self.s_vector)}")
        if not has_poly and self.s_vector is None:
            raise ValueError("give a secret source: polynomial with abscissae, or s_vector")
        if has_poly and self.abscissae is None:
            raise ValueError(f"polynomial {self.polynomial.coeffs} needs abscissae")
        if not has_poly and self.abscissae is not None:
            raise ValueError(f"abscissae {tuple(self.abscissae)} belong to a polynomial, "
                             f"not to s_vector {tuple(self.s_vector)}")
        object.__setattr__(self, "t", _as_int(self.t, "threshold", 1))
        if self.n is not None:
            object.__setattr__(self, "n", _as_int(self.n, "agent count", 1))
        if has_poly:
            if self.polynomial.d != self.d:
                raise ValueError(f"polynomial modulus {self.polynomial.d} contradicts d={self.d}")
            if self.polynomial.threshold != self.t:
                raise ValueError(f"threshold t={self.t} contradicts the "
                                 f"{self.polynomial.threshold}-coefficient polynomial")
            object.__setattr__(self, "abscissae", _check_abscissae(self.abscissae, self.d))
            if self.n not in (None, len(self.abscissae)):
                raise ValueError(f"agent count n={self.n} contradicts the "
                                 f"{len(self.abscissae)} abscissae")
            object.__setattr__(self, "n", len(self.abscissae))
        else:
            terms = tuple(_as_int(s, "s_vector entry", 0, self.d) for s in self.s_vector)
            object.__setattr__(self, "s_vector", terms)
            if len(self.s_vector) != self.t:
                raise ValueError(f"threshold t={self.t} contradicts the "
                                 f"{len(self.s_vector)}-entry s_vector")
            if self.n is None:
                object.__setattr__(self, "n", self.t)
        if self.t > self.n:
            raise ValueError(f"threshold t={self.t} exceeds agent count n={self.n}")

    def share_terms(self) -> tuple[int, ...]:
        """The encoded term per participating agent (first t of n)."""
        if self.s_vector is not None:
            return self.s_vector
        shares = gen_shares(self.polynomial, self.abscissae)[: self.t]
        return tuple(lagrange_term(shares, r, self.d) for r in range(1, self.t + 1))

    @property
    def expected_secret(self) -> int:
        """a_0 on the polynomial path, sum of the direct terms mod d otherwise."""
        if self.polynomial is not None:
            return self.polynomial.secret
        return sum(self.s_vector) % self.d


def post_encoding_state(params: ProtocolParams) -> QuditRegister:
    """The register after all phase encodings, before any measurement."""
    reg = make_ghz(params.d, params.t)
    for r, s_r in enumerate(params.share_terms(), start=1):
        reg = apply_local(reg, r, phase_gate(params.d, s_r))
    return reg


@dataclass(frozen=True)
class Variant:
    """One reconstruction flow: who Fourier-inverts and measures, and on what.

    The lone measurer is agent 1; with all_measure every agent inverts,
    measures and announces. A product flow runs on one unentangled qudit
    carrying the sum of the terms mod d instead of the shared GHZ register.
    """

    name: str
    all_measure: bool
    product: bool = False

    def params_for(self, params: ProtocolParams) -> ProtocolParams:
        """The parameters of the register this flow actually runs on."""
        if self.product:
            s_total = sum(params.share_terms()) % params.d
            return ProtocolParams(params.d, 1, s_vector=(s_total,), seed=params.seed)
        return params

    def measurers(self, t: int) -> range:
        return range(1, t + 1 if self.all_measure else 2)

    def outcome_table(self, params: ProtocolParams) -> np.ndarray:
        """Born probabilities of the measurers' joint outcome, one axis per measurer.

        Encodes the flow's register and Fourier-inverts every measurer's qudit.
        """
        reg = post_encoding_state(self.params_for(params))
        f = qft_inv(reg.d)
        for r in self.measurers(reg.t):
            reg = apply_local(reg, r, f)
        if not self.all_measure:
            return marginal(reg, 1).probs
        return np.abs(reg.amps.reshape((reg.d,) * reg.t)) ** 2

    def run(self, params: ProtocolParams) -> Transcript:
        """One seeded run; the final outcome is the measured results' sum mod d."""
        table = self.outcome_table(params)
        params = self.params_for(params)
        outcomes = draw(table, np.random.default_rng(params.seed))[0].tolist()
        events: list[ProtocolEvent] = [
            QuditSent(sender=1, recipient=r, qudit=r) for r in range(2, params.t + 1)
        ]
        for r, s_r in enumerate(params.share_terms(), start=1):
            events.append(GateApplied(agent=r, gate=f"U(0,{s_r})", s=s_r))
        for r, m_r in zip(self.measurers(params.t), outcomes):
            events.append(Measured(agent=r, basis=FOURIER_BASIS, outcome=m_r))
            if self.all_measure:
                events.append(Announced(agent=r, value=m_r))
        return Transcript(
            variant=self.name,
            d=params.d,
            t=params.t,
            seed=params.seed,
            events=tuple(events),
            final_outcome=sum(outcomes) % params.d,
            expected_secret=params.expected_secret,
        )

    def distribution(self, params: ProtocolParams) -> MarginalDistribution:
        """Exact distribution of the final outcome over Z_d: the outcome table binned by digit sum mod d."""
        table = self.outcome_table(params)
        d = table.shape[0]
        digit_sums = np.zeros(1, dtype=np.intp)
        for _ in range(table.ndim):
            digit_sums = np.add.outer(digit_sums, np.arange(d)).reshape(-1) % d
        return MarginalDistribution(np.bincount(digit_sums, weights=table.reshape(-1), minlength=d))


VARIANTS: dict[str, Variant] = {
    v.name: v
    for v in (
        Variant(SONG_ORIGINAL, all_measure=False),
        Variant(PRODUCT_COUNTERFACTUAL, all_measure=False, product=True),
        Variant(REPAIRED, all_measure=True),
    )
}


def run_song_original(params: ProtocolParams) -> Transcript:
    """Published flow: only agent 1 Fourier-inverts and measures.

    The final outcome is agent 1's measurement result; it matches the secret
    with probability exactly 1/d once t >= 2 (the register stays entangled).
    """
    return VARIANTS[SONG_ORIGINAL].run(params)


def run_repaired_all_measure(params: ProtocolParams) -> Transcript:
    """Diagnostic variant: every agent Fourier-inverts, measures, announces.

    The final outcome is the announced sum mod d, which equals the expected
    secret on every seed.
    """
    return VARIANTS[REPAIRED].run(params)
