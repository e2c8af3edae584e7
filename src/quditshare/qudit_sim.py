"""Dense state-vector engine for registers of t qudits of equal dimension d.

Basis convention: the flat index I encodes digits (k_1, ..., k_t) with qudit 1
as the MOST significant digit, I = k_1*d^(t-1) + ... + k_t. All reduced
statistics (marginal, measure, draw, joint_distribution) follow this convention.

Gates act on one axis of the (d,)*t amplitude array by their structure: a
phase gate (DiagonalGate) as a broadcast multiply, the Fourier gates
(FourierGate) as an orthonormal FFT, and a user LocalUnitary by tensordot
after an O(d^3) unitarity check. Every gate's .m is its dense d x d matrix,
built on demand for tests and the dense oracle.

Registers and gates are immutable; every operation returns a fresh value, so
they are safe to share across threads. Phase exponents are reduced mod d before
exponentiation, keeping equal roots of unity bitwise-comparable. Every invariant
is compared with its bound by _check_tol alone, which NaN and inf fail.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .modmath import _as_int

DEFAULT_SIZE_CAP = 1 << 22  # amplitudes
SIZE_CAP_ENV = "QUDITSHARE_SIZE_CAP"

NORM_TOL = 1e-10
PRUNE_TOL = 1e-12
RETAINED_TOL = 1e-9  # mass of a listing that omits entries below PRUNE_TOL


class SizeCapExceeded(ValueError):
    """Requested register would exceed the configured amplitude cap."""


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
    """Current amplitude-count cap; override with a positive integer in QUDITSHARE_SIZE_CAP."""
    raw = os.environ.get(SIZE_CAP_ENV, str(DEFAULT_SIZE_CAP))
    try:
        raw = int(raw)
    except ValueError:
        pass  # the text stays a string, which _as_int refuses under the variable's name
    return _as_int(raw, SIZE_CAP_ENV, 1)


def _check_size(d: int, t: int) -> None:
    d = _as_int(d, "local dimension", 2)
    t = _as_int(t, "qudit count", 1)
    cap = size_cap()
    if d**t > cap:
        raise SizeCapExceeded(f"{d}^{t} amplitudes exceed the cap of {cap}")


def _check_qudit_index(q: int, t: int) -> int:
    q = _as_int(q, "qudit index")
    if not 1 <= q <= t:
        raise IndexOutOfRange(f"qudit index must be in [1, {t}], got {q}")
    return q


def basis_digits(index: int, d: int, t: int) -> tuple[int, ...]:
    """Digits (k_1, ..., k_t) of a flat basis index, qudit 1 first."""
    digs = []
    for _ in range(t):
        index, k = divmod(index, d)
        digs.append(k)
    return tuple(reversed(digs))


def basis_label(digits: tuple[int, ...], d: int) -> str:
    """Render digits as a compact label: '012' for d <= 10, dot-separated above."""
    if d <= 10:
        return "".join(str(k) for k in digits)
    return ".".join(str(k) for k in digits)


@dataclass(frozen=True, eq=False)
class QuditRegister:
    """Normalized pure state of t qudits; amps has length d**t <= size_cap() and unit norm."""

    d: int
    t: int
    amps: np.ndarray

    def __post_init__(self):
        _check_size(self.d, self.t)
        amps = np.array(self.amps, dtype=np.complex128, order="C").reshape(-1)
        if amps.size != self.d**self.t:
            raise ValueError(f"expected {self.d ** self.t} amplitudes, got {amps.size}")
        _check_tol(abs(np.vdot(amps, amps).real - 1.0), NORM_TOL, "register is not normalized: ||amps|^2 - 1|")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def isclose(self, other: "QuditRegister", tol: float = NORM_TOL) -> bool:
        """Entrywise amplitude comparison (no global-phase slack)."""
        return (
            self.d == other.d
            and self.t == other.t
            and bool(np.max(np.abs(self.amps - other.amps)) <= tol)
        )


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """A d x d unitary acting on a single qudit."""

    d: int
    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _as_int(self.d, "local dimension", 2))
        m = np.array(self.m, dtype=np.complex128)
        if m.shape != (self.d, self.d):
            raise ValueError(f"expected a {self.d}x{self.d} matrix, got {m.shape}")
        _check_tol(np.max(np.abs(m @ m.conj().T - np.eye(self.d))), NORM_TOL, "matrix is not unitary: defect")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def act(self, psi: np.ndarray, axis: int) -> np.ndarray:
        """m applied along one axis of the (d,)*t amplitude array."""
        out = np.tensordot(self.m, psi, axes=([1], [axis]))  # contracted axis lands in front
        return np.moveaxis(out, 0, axis)


@dataclass(frozen=True, eq=False)
class DiagonalGate:
    """The diagonal unitary diag(phases), applied as a broadcast multiply.

    Its unitarity check is O(d): diag(p) diag(p)^dagger - 1 is diag(|p_k|^2 - 1).
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

    @property
    def m(self) -> np.ndarray:
        """The dense d x d matrix."""
        return np.diag(self.phases)

    def act(self, psi: np.ndarray, axis: int) -> np.ndarray:
        return psi * self.phases.reshape((-1,) + (1,) * (psi.ndim - 1 - axis))


@dataclass(frozen=True)
class FourierGate:
    """The Fourier transform on one qudit, applied as an orthonormal FFT along its axis.

    The inverse transform, entry (j, k) = w^(-j*k) / sqrt(d), is numpy's
    forward FFT; the forward transform, its conjugate transpose, is numpy's
    inverse FFT. Unitary by construction, so it holds no entries to check.
    """

    d: int
    inverse: bool

    @property
    def m(self) -> np.ndarray:
        """The dense d x d matrix, from the closed form."""
        jk = np.outer(np.arange(self.d), np.arange(self.d)) % self.d
        sign = -1 if self.inverse else 1
        return np.exp(sign * 2j * np.pi * jk / self.d) / np.sqrt(self.d)

    def act(self, psi: np.ndarray, axis: int) -> np.ndarray:
        fft = np.fft.fft if self.inverse else np.fft.ifft
        return fft(psi, axis=axis, norm="ortho")


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


def make_ghz(d: int, t: int) -> QuditRegister:
    """Maximally entangled state (1/sqrt d) * sum_k |k k ... k> on t qudits."""
    _check_size(d, t)
    amps = np.zeros(d**t, dtype=np.complex128)
    stride = (d**t - 1) // (d - 1)  # index of |k...k> is k * (1 + d + ... + d^(t-1))
    amps[np.arange(d) * stride] = 1.0 / np.sqrt(d)
    return QuditRegister(d, t, amps)


def phase_gate(d: int, s: int) -> DiagonalGate:
    """Diagonal gate |k> -> w^(s*k) |k> with w = exp(2*pi*i/d)."""
    _check_size(d, 2)  # its dense d x d matrix counts against the amplitude cap
    s = _as_int(s, "phase exponent", 0, d)
    k = np.arange(d)
    return DiagonalGate(np.exp(2j * np.pi * (s * k % d) / d))


def qft_inv(d: int) -> FourierGate:
    """Inverse Fourier transform; entry (j, k) is w^(-j*k) / sqrt(d).

    With this sign convention the state (1/sqrt d) * sum_k w^(S*k) |k> of a
    single qudit maps exactly to |S mod d>.
    """
    _check_size(d, 2)
    return FourierGate(d, inverse=True)


def qft(d: int) -> FourierGate:
    """Forward Fourier transform, the conjugate transpose of qft_inv."""
    _check_size(d, 2)
    return FourierGate(d, inverse=False)


def apply_local(
    reg: QuditRegister, q: int, u: LocalUnitary | DiagonalGate | FourierGate
) -> QuditRegister:
    """Apply u to qudit q (1-based), identity on the rest."""
    if u.d != reg.d:
        raise DimensionMismatch(f"gate dimension {u.d} != register dimension {reg.d}")
    q = _check_qudit_index(q, reg.t)
    out = u.act(reg.amps.reshape((reg.d,) * reg.t), q - 1)
    return QuditRegister(reg.d, reg.t, out)  # QuditRegister copies once, into C order


def marginal(reg: QuditRegister, q: int) -> MarginalDistribution:
    """Outcome distribution of measuring qudit q alone."""
    q = _check_qudit_index(q, reg.t)
    probs = np.abs(reg.amps.reshape((reg.d,) * reg.t)) ** 2
    others = tuple(i for i in range(reg.t) if i != q - 1)
    if others:
        probs = probs.sum(axis=others)
    return MarginalDistribution(probs)


def inverse_cdf(probs: np.ndarray, u: float | np.ndarray) -> np.ndarray:
    """Index of probs drawn by each uniform in u, by inverting the CDF.

    Scaling by the CDF's top keeps every draw in [0, 1) off branches of zero
    probability, even when rounding leaves the top just below 1. A draw past
    the top is clamped onto the last branch, and refused if that branch is empty.
    A table holding a NaN or an infinite entry is refused.
    """
    cumsum = np.cumsum(probs)
    if not np.isfinite(cumsum[-1]):
        raise ValueError(f"probabilities must be finite, got a total of {float(cumsum[-1])!r}")
    idx = np.minimum(np.searchsorted(cumsum, u * cumsum[-1], side="right"), probs.size - 1)
    if np.any(probs[idx] < PRUNE_TOL):
        raise ZeroNormProjection(f"a draw landed on a branch of probability below {PRUNE_TOL}")
    return idx


def draw(table: np.ndarray, rng: np.random.Generator, trials: int = 1) -> np.ndarray:
    """(trials, table.ndim) indices into a Born table, one uniform of rng per trial."""
    flat = inverse_cdf(table.reshape(-1), rng.random(trials))
    return np.stack(np.unravel_index(flat, table.shape), axis=-1)


def measure(
    reg: QuditRegister, q: int, rng: np.random.Generator
) -> tuple[int, QuditRegister]:
    """Projective measurement of qudit q in the computational basis.

    Samples the outcome from marginal(reg, q) using rng, so identical seeds
    reproduce identical outcome sequences. Returns the outcome and the
    renormalized post-measurement register.
    """
    probs = marginal(reg, q).probs
    v = int(inverse_cdf(probs, rng.random()))
    psi = reg.amps.reshape((reg.d,) * reg.t)
    sel: list[object] = [slice(None)] * reg.t
    sel[q - 1] = v
    proj = np.zeros_like(psi)
    proj[tuple(sel)] = psi[tuple(sel)]
    post = QuditRegister(reg.d, reg.t, proj.reshape(-1) / np.sqrt(probs[v]))
    return v, post


def joint_distribution(reg: QuditRegister) -> JointDistribution:
    """All outcome tuples with probability above PRUNE_TOL, in basis order."""
    probs = np.abs(reg.amps) ** 2
    entries = {
        basis_digits(int(i), reg.d, reg.t): float(probs[i])
        for i in np.nonzero(probs > PRUNE_TOL)[0]
    }
    return JointDistribution(entries)
