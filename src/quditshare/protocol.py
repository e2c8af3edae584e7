"""Reconstruction-protocol runs over an ideal authenticated channel.

Every variant shares one flow. The first agent prepares a GHZ state and
distributes one qudit per agent; every agent encodes its Lagrange term as a
diagonal phase; the variant's measurers Fourier-invert and measure, and the
final outcome is the sum of their results mod d.

Every state the flow reaches is sum_k c_k |k...k> with c_k = w^(S*k) / sqrt(d),
so its laws need only the d branch amplitudes c, never the d^t register:
branch_register(d, terms) adds the terms one by one into an integer exponent
vector e_k = sum_r s_r*k, reduces it mod d once, and encodes
c_k = w^(e_k) / sqrt(d) on one qudit with one phase gate on the library's GHZ
state, so the phases are exact at any t and every protocol path runs up to
the largest modulus.
ProtocolParams describes the secret alone; Variant.terms(params) resolves it
to the phase terms the flow encodes, one per entangled qudit.
Variant.distribution(params), the final outcome's exact law, is the one law
the runner and Monte Carlo draw from. When every agent measures, the runner
then draws measurers 1..t-1 uniformly and the last one completes the sum,
which is the measurers' joint Born law. Its Transcript holds the terms, the
seed and the drawn outcomes; the CLI derives and renders the run's events
from them.

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
transcript events. Variant.run(params, seed) is deterministic given
both.
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
    lagrange_terms,
)
from .qudit_sim import (
    DiagonalGate,
    MarginalDistribution,
    QuditRegister,
    _on_diagonal,
    apply_local,
    inverse_cdf,
    make_ghz,
)

SONG_ORIGINAL = "song-original"
PRODUCT_COUNTERFACTUAL = "product-counterfactual"
REPAIRED = "repaired"

# Fixed default so published transcripts reproduce bit-for-bit.
DEFAULT_SEED = 12345


def derived_seed(seed: int, index: int) -> int:
    """Seed of stream index under seed: no library path calls it, but perfbench traces it."""
    return int(np.random.SeedSequence((_as_int(seed, "seed", 0), index)).generate_state(1)[0])


@dataclass(frozen=True)
class Transcript:
    """One protocol run: the terms it encoded and the results its measurers read."""

    variant: str
    d: int
    seed: int
    terms: tuple[int, ...]
    outcomes: tuple[int, ...]
    expected_secret: int

    @property
    def t(self) -> int:
        return len(self.terms)

    @property
    def final_outcome(self) -> int:
        return sum(self.outcomes) % self.d


@dataclass(frozen=True)
class ProtocolParams:
    """The secret's description: modulus, threshold, agent count, secret source.

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

    def __post_init__(self):
        object.__setattr__(self, "d", _check_modulus(self.d))
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
        """The encoded term per participating agent, the first t of n; only their shares are evaluated."""
        if self.s_vector is not None:
            return self.s_vector
        return lagrange_terms(gen_shares(self.polynomial, self.abscissae[: self.t]), self.d)

    @property
    def expected_secret(self) -> int:
        """a_0 on the polynomial path, sum of the direct terms mod d otherwise."""
        if self.polynomial is not None:
            return self.polynomial.secret
        return sum(self.s_vector) % self.d


def branch_register(d: int, terms: tuple[int, ...]) -> QuditRegister:
    """One qudit carrying the branch amplitudes c_k of the encoded state sum_k c_k |k...k>.

    Each term, checked as a phase exponent in [0, d), adds s_r*k in place
    to one int64 exponent vector e, reduced mod d once after the last term,
    so c_k = w^(e_k) / sqrt(d) is exact at any t. The int64 sums are exact,
    and e mod d is the per-term-reduced sum, while t*(d-1)^2 < 2^63: about
    2*10^9 terms at the protocol's largest modulus, d = 2^16. One phase gate
    diag(w^e) then acts on a one-qudit GHZ state, so the gate's unitarity
    and the norm are checked. It holds d amplitudes, so no d^t size cap
    applies.
    """
    reg = make_ghz(d, 1)
    k = np.arange(d, dtype=np.int64)
    e = np.zeros(d, dtype=np.int64)
    for s_r in terms:
        e += _as_int(s_r, "phase exponent", 0, d) * k
    e %= d
    return apply_local(reg, 1, DiagonalGate(np.exp(2j * np.pi * e / d)))


def post_encoding_state(params: ProtocolParams) -> QuditRegister:
    """The register after all phase encodings, before any measurement: c scattered onto |k...k>."""
    return _on_diagonal(params.d, params.t, branch_register(params.d, params.share_terms()).values)


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

    def terms(self, params: ProtocolParams) -> tuple[int, ...]:
        """The phase term of each qudit this flow runs on, derived once from the secret."""
        terms = params.share_terms()
        return (sum(terms) % params.d,) if self.product else terms

    def distribution(self, params: ProtocolParams) -> MarginalDistribution:
        """Exact distribution of the final outcome over Z_d, from the branch amplitudes c.

        Fourier-inverting every qudit, or a lone one (t = 1), gives |F^-1 c|^2,
        read straight from c as numpy's orthonormal FFT, qft_inv's transform. A
        lone measurer entangled with t-1 others sees the branches dephased:
        every outcome has probability sum_k |c_k|^2 / d.
        """
        return self._law(params.d, self.terms(params))

    def _law(self, d: int, terms: tuple[int, ...]) -> MarginalDistribution:
        """distribution() of the terms that terms() has already resolved."""
        branch = branch_register(d, terms)
        if self.all_measure or len(terms) == 1:
            return MarginalDistribution(np.abs(np.fft.fft(branch.values, norm="ortho")) ** 2)
        return MarginalDistribution(np.full(d, np.vdot(branch.values, branch.values).real / d))

    def run(self, params: ProtocolParams, seed: int = DEFAULT_SEED) -> Transcript:
        """One run seeded by seed; the final outcome is the measured results' sum mod d.

        The run's first uniform draws the final outcome F from distribution().
        When every agent measures, agents 1..t-1 read independent uniform
        results and agent t reads F minus their sum: the joint Born law of the
        measurers is law[sum m mod d] / d^(t-1), which this samples exactly.
        """
        seed = _as_int(seed, "seed", 0)
        terms = self.terms(params)
        d = params.d
        rng = np.random.default_rng(seed)
        final = int(inverse_cdf(self._law(d, terms), rng.random()))
        outcomes = (final,)
        if self.all_measure:
            others = rng.integers(0, d, len(terms) - 1).tolist()
            outcomes = (*others, (final - sum(others)) % d)
        return Transcript(self.name, d, seed, terms, outcomes, params.expected_secret)


VARIANTS: dict[str, Variant] = {
    v.name: v
    for v in (
        Variant(SONG_ORIGINAL, all_measure=False),
        Variant(PRODUCT_COUNTERFACTUAL, all_measure=False, product=True),
        Variant(REPAIRED, all_measure=True),
    )
}


def run_song_original(params: ProtocolParams, seed: int = DEFAULT_SEED) -> Transcript:
    """Published flow: only agent 1 Fourier-inverts and measures.

    The final outcome is agent 1's measurement result; it matches the secret
    with probability exactly 1/d once t >= 2 (the register stays entangled).
    """
    return VARIANTS[SONG_ORIGINAL].run(params, seed)


def run_repaired_all_measure(params: ProtocolParams, seed: int = DEFAULT_SEED) -> Transcript:
    """Diagnostic variant: every agent Fourier-inverts, measures, announces.

    The final outcome is the announced sum mod d, which equals the expected
    secret on every seed.
    """
    return VARIANTS[REPAIRED].run(params, seed)
