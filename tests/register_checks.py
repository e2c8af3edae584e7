"""Checks on registers shared by the test modules: a register built from a dense array,
entrywise closeness, an exact support, a gate's matrix, traced allocation and a strategy of
sparse registers."""

import tracemalloc

import numpy as np
from hypothesis import strategies as st

from quditshare.qudit_sim import QuditRegister, apply_local, make_ghz


def register(d, t, amps):
    """The register whose dense vector is amps, held on a complex128 copy's entries with a
    nonzero or NaN part: -0.0 is dropped, a subnormal part is kept."""
    amps = np.array(amps, dtype=np.complex128).reshape(-1)
    support = np.flatnonzero(amps)
    return QuditRegister(d, t, support, amps[support])


def assert_support_exact(reg):
    """Assert reg.support is sorted, unique, within [0, d^t) and read-only, that every
    amplitude outside it is exactly 0, and that reg.values, and every array it views, is
    read-only and equals reg.amps[reg.support] bit for bit."""
    support, values, amps = reg.support, reg.values, reg.amps
    assert not support.flags.writeable, "the support is writable"
    assert np.all(np.diff(support) > 0), "the support is not sorted and unique"
    assert 0 <= support[0] <= support[-1] < reg.d**reg.t, "the support leaves [0, d^t)"
    assert np.count_nonzero(np.delete(amps, support)) == 0, "a nonzero amplitude lies outside the support"
    base = values
    while isinstance(base, np.ndarray):
        assert not base.flags.writeable, "the values, or an array they view, are writable"
        base = base.base
    assert values.shape == support.shape, f"{values.size} values for a support of {support.size}"
    assert values.tobytes() == amps[support].tobytes(), "the values differ from amps on the support"


def assert_registers_close(reg, other, tol):
    """Assert exact supports, equal d and t and amplitudes within tol entrywise, with no
    global-phase slack."""
    assert_support_exact(reg)
    assert_support_exact(other)
    assert (reg.d, reg.t) == (other.d, other.t), f"shapes differ: {(reg.d, reg.t)} != {(other.d, other.t)}"
    gap = float(np.max(np.abs(reg.amps - other.amps)))
    assert gap <= tol, f"amplitudes differ by {gap!r}, beyond {tol!r}"


def gate_matrix(gate):
    """The d x d matrix a library gate applies, from one apply_local on qudit 1 of the pair
    sum_k |k>|k> / sqrt(d): branch k carries the gate's image of |k>, column k of the result."""
    return apply_local(make_ghz(gate.d, 2), 1, gate).amps.reshape(gate.d, gate.d) * np.sqrt(gate.d)


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


@st.composite
def sparse_registers(draw):
    """A register of d <= 14 and t <= 3 whose few nonzero amplitudes sit at drawn positions.

    d and t come first and the support is a small dict, so a failing case
    shrinks in seconds. Magnitudes straddle PRUNE_TOL, purely real and purely
    imaginary units leave an exact zero component, and a few zero components
    are -0.0 or subnormal instead: the entries a scan could miss or wrongly keep.
    """
    d = draw(st.integers(2, 14))
    t = draw(st.integers(1, 3))
    positions = st.integers(0, d**t - 1)
    units = st.one_of(st.floats(0, 2 * np.pi).map(lambda phase: complex(np.exp(1j * phase))),
                      st.sampled_from([1, -1, 1j, -1j]))
    entries = draw(st.dictionaries(positions, st.tuples(st.sampled_from([1e-14, 5e-13, 1.0]), units),
                                   max_size=12))
    entries[draw(positions)] = (1.0, draw(units))
    amps = np.zeros(d**t, dtype=np.complex128)
    for i, (mag, unit) in entries.items():
        amps[i] = mag * unit
    parts = (amps / np.linalg.norm(amps)).view(np.float64)
    fills = draw(st.dictionaries(st.integers(0, parts.size - 1), st.sampled_from([-0.0, 5e-324, -5e-324]),
                                 max_size=12))
    for i, fill in fills.items():
        if parts[i] == 0:
            parts[i] = fill
    return register(d, t, parts.view(np.complex128))
