"""Exact laws of the reconstruction flows, computed in Z[w] without rounding.

Every amplitude the flows reach is an element of the cyclotomic ring Z[w],
w = exp(2*pi*i/d), over a power of sqrt(d): the GHZ state gives 1/sqrt(d), a
phase gate shifts the exponents of branch k by s*k, and an inverse Fourier
transform sums w^(-j*k)-shifted terms over a further sqrt(d). An amplitude is
held as its vector of exponent counts (entry e counts w^e), and a register
of t qudits as an int array of shape (d,)*t + (d,).

A probability |x|^2 is the cyclic self-correlation of x's counts, reduced
modulo the cyclotomic polynomial Phi_d. Phi_d is monic, so the reduction is
exact integer division and composite d works too. The powers w^0 ..
w^(phi(d)-1) are linearly independent over Q, so the value is rational
exactly when every coefficient beyond the constant one vanishes; the oracle
checks that, and returns the law as Fractions.

It uses numpy and fractions only, and nothing of quditshare.
"""

from fractions import Fraction

import numpy as np


def _divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, constant term first; den is monic."""
    num, top = list(num), len(den) - 1
    quot = [0] * max(len(num) - top, 0)
    for i in range(len(num) - 1 - top, -1, -1):
        quot[i] = c = num[i + top]
        for j, den_j in enumerate(den):
            num[i + j] -= c * den_j
    return quot, num[:top]


def cyclotomic(d: int) -> list[int]:
    """Coefficients of Phi_d, constant term first: X^d - 1 over every Phi_e with e | d, e < d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _divmod_monic(poly, cyclotomic(e))
            assert not any(rem), (d, e)
    return poly


def _phase(amps: np.ndarray, q: int, s: int) -> np.ndarray:
    """w^(s*k) on qudit q (0-based): branch k's exponent counts roll by s*k."""
    d, out = amps.shape[-1], np.empty_like(amps)
    for k in range(d):
        at = (slice(None),) * q + (k,)
        out[at] = np.roll(amps[at], s * k % d, axis=-1)
    return out


def _fourier_inv(amps: np.ndarray, q: int) -> np.ndarray:
    """Entry (j, k) = w^(-j*k) on qudit q, without its 1/sqrt(d)."""
    d, old = amps.shape[-1], np.moveaxis(amps, q, 0)
    new = np.zeros_like(old)
    for j in range(d):
        for k in range(d):
            new[j] += np.roll(old[k], -j * k % d, axis=-1)
    return np.moveaxis(new, 0, q)


def exact_law(d: int, terms: tuple[int, ...], measured: tuple[int, ...]) -> list[Fraction]:
    """Law of the measured qudits' results summed mod d, every one of them Fourier-inverted.

    The register is the GHZ state on len(terms) qudits with qudit q's phase
    w^(terms[q]*k); measured lists 0-based qudits.
    """
    t = len(terms)
    amps = np.zeros((d,) * t + (d,), dtype=np.int64)
    for k in range(d):
        amps[(k,) * t + (0,)] = 1
    for q, s in enumerate(terms):
        amps = _phase(amps, q, s)
    for q in measured:
        amps = _fourier_inv(amps, q)
    scale = d ** (1 + len(measured))  # |x|^2 carries (1/sqrt(d))^2 per GHZ and per transform
    corr = np.stack([(np.roll(amps, -m, axis=-1) * amps).sum(axis=-1) for m in range(d)], axis=-1)
    outcome = sum(np.indices((d,) * t)[q] for q in measured) % d
    phi = cyclotomic(d)
    law = []
    for f in range(d):
        _, rem = _divmod_monic([int(c) for c in corr[outcome == f].sum(axis=0)], phi)
        assert not any(rem[1:]), f"outcome {f} has an irrational probability: {rem}"
        law.append(Fraction(rem[0], scale))
    return law
