"""A plain dense reference for the state-vector engine, numpy alone and sharing no code with it.

A register of t qudits is its flat d^t amplitude vector, qudit 1 the most
significant digit, and a gate is a d x d matrix applied along one qudit's axis.
"""

import numpy as np


def ghz(d, t):
    """(1/sqrt d) * sum_k |k...k> as a flat vector."""
    amps = np.zeros(d**t, dtype=np.complex128)
    amps[:: (d**t - 1) // (d - 1)] = 1 / np.sqrt(d)  # |k...k> sits at k * (1 + d + ... + d^(t-1))
    return amps


def phase(d, s):
    """diag(w^(s*k)), w = exp(2*pi*i/d)."""
    return np.diag(np.exp(2j * np.pi * (s * np.arange(d) % d) / d))


def fourier_inv(d):
    """The inverse Fourier transform, entry (j, k) = w^(-j*k) / sqrt(d); its adjoint is the forward one."""
    jk = np.outer(np.arange(d), np.arange(d)) % d
    return np.exp(-2j * np.pi * jk / d) / np.sqrt(d)


def apply(amps, d, t, q, m):
    """m on qudit q (1-based), identity on the rest: a matmul on the (-1, d, rest) view."""
    return (m @ amps.reshape(-1, d, d ** (t - q))).ravel()


def probs(amps, d, t, qudits):
    """Joint outcome probabilities of the listed qudits, given in ascending order, one axis each."""
    p = (np.abs(amps) ** 2).reshape((d,) * t)
    return p.sum(axis=tuple(r for r in range(t) if r + 1 not in qudits))
