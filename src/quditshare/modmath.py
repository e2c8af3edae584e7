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


def _as_int(value: object, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """The package's one integer check: value as a Python int in [lo, hi).

    numpy integers convert; a float, a string or an integer outside the range
    (a bound of None leaves that side open) raises ValueError naming the
    quantity, the range and the value.
    """
    try:
        v = operator.index(value)
    except TypeError:
        v = None
    if v is None or (lo is not None and v < lo) or (hi is not None and v >= hi):
        span = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi})"
        raise ValueError(f"{what} must be an integer{span}, got {value!r}")
    return v


def _check_modulus(d: int) -> int:
    return _as_int(d, "modulus", 2, MAX_MODULUS + 1)


def _check_abscissae(xs: Iterable[int], d: int) -> tuple[int, ...]:
    """The abscissae as ints: nonzero residues in [1, d), no two equal."""
    seen: dict[int, None] = {}
    for x in xs:
        if x == 0 and hasattr(type(x), "__index__"):  # an integer 0; _as_int refuses 0.0
            raise ZeroAbscissa("abscissa 0 is reserved for the secret")
        x = _as_int(x, "abscissa", 1, d)
        if x in seen:
            raise DuplicateAbscissa(f"abscissa {x} appears twice")
        seen[x] = None
    return tuple(seen)


@dataclass(frozen=True)
class SharePolynomial:
    """f(x) = a_0 + a_1*x + ... + a_{t-1}*x^{t-1} over Z_d; a_0 is the secret."""

    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", _check_modulus(self.d))
        object.__setattr__(self, "coeffs", tuple(_as_int(a, "coefficient", 0, self.d) for a in self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("need at least one coefficient")

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


def mod_inverse(a: int, d: int) -> int:
    """Inverse of a mod d, by pow(a, -1, d); raises NotInvertible when gcd(a, d) != 1."""
    d = _check_modulus(d)
    a = _as_int(a, "residue", 0, d)
    try:
        return pow(a, -1, d)
    except ValueError:
        raise NotInvertible(a, d) from None


def eval_poly(p: SharePolynomial, x: int) -> int:
    """Evaluate f(x) mod d by Horner's rule."""
    x = _as_int(x, "evaluation point", 0, p.d)
    acc = 0
    for a in reversed(p.coeffs):
        acc = (acc * x + a) % p.d
    return acc


def gen_shares(p: SharePolynomial, xs: Sequence[int]) -> list[Share]:
    """One share (x, f(x)) per abscissa; abscissae must be distinct and nonzero."""
    return [Share(x, eval_poly(p, x)) for x in _check_abscissae(xs, p.d)]


def _check_points(shares: Sequence[Share], d: int) -> tuple[tuple[int, ...], list[int]]:
    """The shares' abscissae and values as ints, each checked once."""
    return _check_abscissae((sh.x for sh in shares), d), [_as_int(sh.y, "share value", 0, d) for sh in shares]


def _term(xs: tuple[int, ...], ys: list[int], r: int, d: int) -> int:
    """Term r (0-based) of checked points: f(x_r) * prod_{j != r} x_j times one inverse of prod (x_j - x_r)."""
    x_r = xs[r]
    num = den = 1
    for j, x in enumerate(xs):
        if j != r:
            num = num * x % d
            den = den * (x - x_r) % d
    try:
        return ys[r] * num * mod_inverse(den, d) % d
    except NotInvertible:
        # the product of units is a unit, so some difference is not one: name the first
        for j, x in enumerate(xs):
            if j != r:
                mod_inverse((x - x_r) % d, d)
        raise


def lagrange_terms(shares: Sequence[Share], d: int) -> tuple[int, ...]:
    """Every participant's term s_r = f(x_r) * prod_{j != r} x_j / (x_j - x_r) mod d, r = 1..t.

    The modulus, abscissae and share values are checked once, and each term
    makes one mod_inverse, of the product of its differences. The first term
    with a non-unit difference raises NotInvertible naming its first such
    difference, the value lagrange_term names for that term.
    """
    d = _check_modulus(d)
    xs, ys = _check_points(shares, d)
    return tuple(_term(xs, ys, r, d) for r in range(len(xs)))


def lagrange_term(shares: Sequence[Share], r: int, d: int) -> int:
    """Participant r's term s_r = f(x_r) * prod_{j != r} x_j / (x_j - x_r) mod d, as an int.

    r indexes the share list 1-based. Division is realized by mod_inverse, so
    a non-unit difference (x_j - x_r) raises NotInvertible, naming the first
    one. The empty product (a single share) leaves s_r = f(x_r). Only term r
    is computed, so another term's non-unit difference does not raise here.
    """
    d = _check_modulus(d)
    r = _as_int(r, "participant index", 1, len(shares) + 1)
    xs, ys = _check_points(shares, d)
    return _term(xs, ys, r - 1, d)
