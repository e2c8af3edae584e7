"""State-vector engine for registers of t qudits of equal dimension d.

Basis convention: the flat index I encodes digits (k_1, ..., k_t) with qudit 1
as the MOST significant digit, I = k_1*d^(t-1) + ... + k_t. All reduced
statistics (marginal, measure, joint_distribution) follow this convention.
Every seeded draw, measure's included, is inverse_cdf on a one-qudit law.

A register is its support, the sorted flat indices outside which every
amplitude is exactly 0, and its values, the amplitudes on the support: a
GHZ-branch state sum_k c_k |k...k> holds d amplitudes, d^2 once a qudit is
inverted, never d^t. A gate on qudit q acts on the fibres of the
(d^(q-1), d, rest) view, its lines along the middle axis. apply_local always
runs the phase or Fourier gate's act, which maps (support, values) to
(support, values); no gate holds a d x d matrix. marginal, measure and
joint_distribution read each qudit's digit off the support. Only the amps
property, a dense vector for the tests and the reference-state check, builds a
d^t array.

The size cap (_check_size) bounds d^t for every register, whether or not its
dense vector is ever built. _on_diagonal is the one place that knows where
|k...k> sits in the flat register.

Registers and gates are immutable, so they are safe to share across threads:
a register takes, with no copy, the support and values arrays the engine has
just made, and marks both read-only. Phase exponents are reduced mod d before
exponentiation, keeping equal roots of unity bitwise-comparable. Every
invariant is compared with its bound by _check_tol alone, which NaN and inf fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modmath import _as_int

DEFAULT_SIZE_CAP = 1 << 22  # amplitudes

NORM_TOL = 1e-10
PRUNE_TOL = 1e-12
RETAINED_TOL = 1e-9  # mass of a listing that omits entries below PRUNE_TOL


class SizeCapExceeded(ValueError):
    """Requested register would exceed the amplitude cap."""


class DimensionMismatch(ValueError):
    """Gate dimension does not match the register's local dimension."""


class IndexOutOfRange(IndexError):
    """Qudit index outside [1, t]."""


class ZeroNormProjection(ArithmeticError):
    """Projection onto a branch of probability below PRUNE_TOL."""


def _check_tol(deviation: float, tol: float, what: str, error: type[Exception] = ValueError) -> None:
    """Raise error unless deviation <= tol; NaN compares false, so it fails like inf."""
    if not deviation <= tol:
        raise error(f"{what} is {float(deviation)!r}, not within the bound {tol!r}")


def size_cap() -> int:
    """DEFAULT_SIZE_CAP, as the benchmark harness's provenance reads it."""
    return DEFAULT_SIZE_CAP


def _check_size(d: int, t: int) -> None:
    d = _as_int(d, "local dimension", 2)
    t = _as_int(t, "qudit count", 1)
    if d**t > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"{d}^{t} amplitudes exceed the cap of {DEFAULT_SIZE_CAP}")


def _check_qudit_index(q: int, t: int) -> int:
    q = _as_int(q, "qudit index")
    if not 1 <= q <= t:
        raise IndexOutOfRange(f"qudit index must be in [1, {t}], got {q}")
    return q


def basis_labels(digits: np.ndarray, d: int) -> list[str]:
    """Render each row of an (n, t) digit matrix as a label: '012' for d <= 10, dot-separated above.

    Below 11 every digit is one character, so each row's t bytes '0' + k are
    read as one t-byte string and all n labels decode in one array pass.
    """
    if d <= 10:
        t = digits.shape[1]
        return (digits.astype(np.uint8) + ord("0")).view(f"S{t}").astype(f"U{t}").ravel().tolist()
    return [".".join(map(str, row)) for row in digits.tolist()]


@dataclass(frozen=True, eq=False)
class QuditRegister:
    """Normalized pure state of t qudits, d**t <= DEFAULT_SIZE_CAP, held as its support and values alone.

    support holds the sorted flat indices outside which every amplitude is
    exactly 0, values the amplitudes on it in support order; the norm check
    sums over values. The constructor marks both arrays read-only without
    copying them: every engine caller hands in arrays it has just made, so
    no one else holds a writable reference to them.
    """

    d: int
    t: int
    support: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_size(self.d, self.t)
        self.support.setflags(write=False)
        self.values.setflags(write=False)
        _check_tol(abs(np.vdot(self.values, self.values).real - 1.0), NORM_TOL,
                   "register is not normalized: ||amps|^2 - 1|")

    @property
    def amps(self) -> np.ndarray:
        """The read-only dense vector for the tests and analysis.verify_reference_states,
        built on each read."""
        amps = np.zeros(self.d**self.t, dtype=np.complex128)
        amps[self.support] = self.values
        amps.setflags(write=False)
        return amps


@dataclass(frozen=True, eq=False)
class DiagonalGate:
    """The diagonal unitary diag(phases): each amplitude times the phase of its qudit's digit.

    A zero stays exactly 0, so the support stays. Its unitarity check is O(d):
    diag(p) diag(p)^dagger - 1 is diag(|p_k|^2 - 1).
    """

    phases: np.ndarray

    def __post_init__(self):
        phases = np.array(self.phases, dtype=np.complex128).reshape(-1)
        _check_tol(np.max(np.abs(np.abs(phases) ** 2 - 1.0)), NORM_TOL, "matrix is not unitary: defect")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    @property
    def d(self) -> int:
        return self.phases.size

    def act(self, support: np.ndarray, values: np.ndarray, rest: int) -> tuple[np.ndarray, np.ndarray]:
        return support, values * self.phases.take(support // rest, mode="wrap")


@dataclass(frozen=True)
class FourierGate:
    """The inverse Fourier transform on one qudit, entry (j, k) = w^(-j*k) / sqrt(d).

    Applied as numpy's orthonormal forward FFT along axis 1 of the fibres the
    support meets, each keyed by its digit-0 index. An all-zero fibre
    transforms to zeros, so the occupied fibres' entries are the output's
    support and their transforms its values. Unitary by construction, so it
    holds no entries to check.
    """

    d: int

    def act(self, support: np.ndarray, values: np.ndarray, rest: int) -> tuple[np.ndarray, np.ndarray]:
        d = self.d
        digit = support // rest % d
        base, row = np.unique(support - digit * rest, return_inverse=True)
        fibres = np.zeros((base.size, d), dtype=np.complex128)
        fibres[row, digit] = values
        # row j of the output's indices, base + j*rest, ascends; a stable sort merges the d runs
        out = (base + rest * np.arange(d)[:, None]).ravel()
        order = np.argsort(out, kind="stable")
        return out[order], np.fft.fft(fibres, axis=1, norm="ortho").T.ravel()[order]


@dataclass(frozen=True, eq=False)
class MarginalDistribution:
    """Born-rule outcome probabilities of one qudit."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float).reshape(-1)
        _check_tol(-probs.min(initial=0.0), NORM_TOL, "probabilities must lie in [0, 1]: -min(probs)")
        _check_tol(probs.max(initial=0.0), 1.0 + NORM_TOL, "probabilities must lie in [0, 1]: max(probs)")
        _check_tol(abs(float(probs.sum()) - 1.0), NORM_TOL, "probabilities must sum to 1: |sum - 1|")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class JointDistribution:
    """Full-register outcome distribution; tuples below PRUNE_TOL are omitted."""

    entries: dict[tuple[int, ...], float]

    def __post_init__(self):
        _check_tol(abs(sum(self.entries.values()) - 1.0), RETAINED_TOL,
                   "retained probabilities do not sum to 1: |sum - 1|")


def _on_diagonal(d: int, t: int, c: complex | np.ndarray) -> QuditRegister:
    """The register sum_k c_k |k...k> of t qudits; a scalar c is every c_k."""
    _check_size(d, t)
    step = (d**t - 1) // (d - 1)  # |k...k> sits at flat index k * (1 + d + ... + d^(t-1))
    values = np.empty(d, dtype=np.complex128)
    values[:] = c
    return QuditRegister(d, t, np.arange(0, d**t, step), values)


def make_ghz(d: int, t: int) -> QuditRegister:
    """Maximally entangled state (1/sqrt d) * sum_k |k k ... k> on t qudits."""
    return _on_diagonal(d, t, 1.0 / np.sqrt(_as_int(d, "local dimension", 2)))


def phase_gate(d: int, s: int) -> DiagonalGate:
    """Diagonal gate |k> -> w^(s*k) |k> with w = exp(2*pi*i/d)."""
    d = _as_int(d, "local dimension", 2)
    s = _as_int(s, "phase exponent", 0, d)
    k = np.arange(d)
    return DiagonalGate(np.exp(2j * np.pi * (s * k % d) / d))


def qft_inv(d: int) -> FourierGate:
    """Inverse Fourier transform; entry (j, k) is w^(-j*k) / sqrt(d).

    With this sign convention the state (1/sqrt d) * sum_k w^(S*k) |k> of a
    single qudit maps exactly to |S mod d>.
    """
    return FourierGate(_as_int(d, "local dimension", 2))


def apply_local(reg: QuditRegister, q: int, u: DiagonalGate | FourierGate) -> QuditRegister:
    """Apply u to qudit q (1-based), identity on the rest, through the gate's act."""
    if u.d != reg.d:
        raise DimensionMismatch(f"gate dimension {u.d} != register dimension {reg.d}")
    rest = reg.d ** (reg.t - _check_qudit_index(q, reg.t))
    return QuditRegister(reg.d, reg.t, *u.act(reg.support, reg.values, rest))


def _digits(reg: QuditRegister, q: int) -> np.ndarray:
    """Qudit q's digit of each index on the support."""
    return reg.support // reg.d ** (reg.t - _check_qudit_index(q, reg.t)) % reg.d


def marginal(reg: QuditRegister, q: int) -> MarginalDistribution:
    """Outcome distribution of measuring qudit q alone: |values|^2 binned by q's digit."""
    return MarginalDistribution(np.bincount(_digits(reg, q), np.abs(reg.values) ** 2, minlength=reg.d))


def inverse_cdf(probs: np.ndarray, u: float | np.ndarray) -> np.ndarray:
    """Index of probs drawn by each uniform in u, by inverting the CDF.

    An entry below PRUNE_TOL, such as the dust an FFT leaves, gets no CDF width,
    and scaling by the CDF's top keeps every draw in [0, 1), 0.0 included, off
    those branches, even when rounding leaves the top just below 1. A draw past
    the top is clamped onto the last branch, and refused if that branch is empty.
    A table holding a NaN, an infinite or a negative entry is refused.
    """
    cumsum = np.cumsum(np.where(np.abs(probs) < PRUNE_TOL, 0.0, probs))
    if not np.isfinite(cumsum[-1]):
        raise ValueError(f"probabilities must be finite, got a total of {float(cumsum[-1])!r}")
    _check_tol(-probs.min(), NORM_TOL, "probabilities must lie in [0, 1]: -min(probs)")
    idx = np.minimum(np.searchsorted(cumsum, u * cumsum[-1], side="right"), probs.size - 1)
    if np.any(probs[idx] < PRUNE_TOL):
        raise ZeroNormProjection(f"a draw landed on a branch of probability below {PRUNE_TOL}")
    return idx


def measure(reg: QuditRegister, q: int, rng: np.random.Generator) -> tuple[int, QuditRegister]:
    """Projective measurement of qudit q in the computational basis.

    Samples the outcome from marginal(reg, q) using rng, so identical seeds
    reproduce identical outcome sequences. Returns the outcome and the
    post-measurement register: the support entries whose digit is the outcome,
    renormalized.
    """
    probs = marginal(reg, q).probs
    v = int(inverse_cdf(probs, rng.random()))
    kept = _digits(reg, q) == v
    return v, QuditRegister(reg.d, reg.t, reg.support[kept], reg.values[kept] / np.sqrt(probs[v]))


def joint_distribution(reg: QuditRegister) -> JointDistribution:
    """All outcome tuples with probability above PRUNE_TOL, in basis order, read off the support."""
    probs = np.abs(reg.values) ** 2
    kept = probs > PRUNE_TOL
    digits = np.column_stack(np.unravel_index(reg.support[kept], (reg.d,) * reg.t)).tolist()
    return JointDistribution({tuple(k): p for k, p in zip(digits, probs[kept].tolist())})
