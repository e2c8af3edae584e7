"""Checks on registers shared by the test modules: entrywise closeness and traced allocation."""

import tracemalloc

import numpy as np


def assert_registers_close(reg, other, tol):
    """Assert equal d and t and amplitudes within tol entrywise, with no global-phase slack."""
    assert (reg.d, reg.t) == (other.d, other.t), f"shapes differ: {(reg.d, reg.t)} != {(other.d, other.t)}"
    gap = float(np.max(np.abs(reg.amps - other.amps)))
    assert gap <= tol, f"amplitudes differ by {gap!r}, beyond {tol!r}"


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees while fn(*args) runs, after one untraced warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak
