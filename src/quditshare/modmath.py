"""Shamir-style share arithmetic over Z_d.

The modulus d is deliberately not restricted to primes: every division is an
explicit modular inverse and raises NotInvertible when the denominator shares
a factor with d. Residues are kept canonical in [0, d); abscissae must be
nonzero and distinct, never silently reduced.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

MAX_MODULUS = 1 << 16


class NotInvertible(ValueError):
    """A denominator has no inverse mod d (gcd with d is not 1)."""

    def __init__(self, value: int, modulus: int):
        super().__init__(f"{value} is not invertible mod {modulus}")
        self.value = value
        self.modulus = modulus


class DuplicateAbscissa(ValueError):
    """Two shares in one set use the same x."""


class ZeroAbscissa(ValueError):
    """A share abscissa is 0; interpolation at 0 needs nonzero x."""


def _check_modulus(d: int) -> None:
    if not 2 <= d <= MAX_MODULUS:
        raise ValueError(f"modulus must be in [2, {MAX_MODULUS}], got {d}")


def _as_int(value: object, what: str) -> int:
    """value as an int (numpy integers included); ValueError for floats and the like."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _check_abscissae(xs: Iterable[int], d: int) -> None:
    """Every abscissa is a nonzero integer residue in [1, d), and no two are equal."""
    seen: set[int] = set()
    for x in xs:
        x = _as_int(x, "abscissa")
        if x == 0:
            raise ZeroAbscissa("abscissa 0 is reserved for the secret")
        if not 1 <= x < d:
            raise ValueError(f"abscissa must be in [1, {d}), got {x}")
        if x in seen:
            raise DuplicateAbscissa(f"abscissa {x} appears twice")
        seen.add(x)


@dataclass(frozen=True)
class SharePolynomial:
    """f(x) = a_0 + a_1*x + ... + a_{t-1}*x^{t-1} over Z_d; a_0 is the secret."""

    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _check_modulus(self.d)
        object.__setattr__(self, "coeffs", tuple(_as_int(a, "coefficient") for a in self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("need at least one coefficient")
        if any(not 0 <= a < self.d for a in self.coeffs):
            raise ValueError("coefficients must be residues in [0, d)")

    @property
    def threshold(self) -> int:
        return len(self.coeffs)

    @property
    def secret(self) -> int:
        return self.coeffs[0]


@dataclass(frozen=True)
class Share:
    """One point (x, f(x)) handed to a participant."""

    x: int
    y: int


@dataclass(frozen=True)
class ShareTerm:
    """Participant r's additive contribution s_r to the interpolated secret."""

    r: int
    s: int


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b == g == gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def mod_inverse(a: int, d: int) -> int:
    """Inverse of a mod d; raises NotInvertible when gcd(a, d) != 1."""
    _check_modulus(d)
    if not 0 <= a < d:
        raise ValueError(f"expected a canonical residue in [0, {d}), got {a}")
    g, u, _ = _egcd(a, d)
    if g != 1:
        raise NotInvertible(a, d)
    return u % d


def eval_poly(p: SharePolynomial, x: int) -> int:
    """Evaluate f(x) mod d by Horner's rule."""
    if not 0 <= x < p.d:
        raise ValueError(f"evaluation point must be in [0, {p.d}), got {x}")
    acc = 0
    for a in reversed(p.coeffs):
        acc = (acc * x + a) % p.d
    return acc


def gen_shares(p: SharePolynomial, xs: Sequence[int]) -> list[Share]:
    """One share (x, f(x)) per abscissa; abscissae must be distinct and nonzero."""
    _check_abscissae(xs, p.d)
    return [Share(x, eval_poly(p, x)) for x in xs]


def _check_share_set(shares: Sequence[Share], d: int) -> None:
    _check_abscissae((sh.x for sh in shares), d)
    for sh in shares:
        if not 0 <= sh.y < d:
            raise ValueError(f"share value must be in [0, {d}), got {sh.y}")


def lagrange_term(shares: Sequence[Share], r: int, d: int) -> ShareTerm:
    """s_r = f(x_r) * prod_{j != r} x_j / (x_j - x_r) mod d.

    r indexes the share list 1-based. Division is realized by mod_inverse, so
    a non-unit difference (x_j - x_r) raises NotInvertible. The empty product
    (a single share) leaves s_r = f(x_r).
    """
    _check_modulus(d)
    if not 1 <= r <= len(shares):
        raise ValueError(f"participant index must be in [1, {len(shares)}], got {r}")
    _check_share_set(shares, d)
    x_r = shares[r - 1].x
    s = shares[r - 1].y % d
    for j, sh in enumerate(shares, start=1):
        if j == r:
            continue
        s = s * sh.x % d
        s = s * mod_inverse((sh.x - x_r) % d, d) % d
    return ShareTerm(r=r, s=s)


def reconstruct_classical(shares: Sequence[Share], d: int) -> int:
    """Sum of all Lagrange terms mod d; recovers a_0 for shares of one polynomial."""
    total = 0
    for r in range(1, len(shares) + 1):
        total = (total + lagrange_term(shares, r, d).s) % d
    return total
