"""State-vector engine: pinned amplitudes, independent oracles, and properties."""

import bisect
import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditshare.analysis import amplitude_table
from quditshare.modmath import MAX_MODULUS
from quditshare.protocol import ProtocolParams, post_encoding_state
from quditshare.qudit_sim import (
    DEFAULT_SIZE_CAP,
    NORM_TOL,
    PRUNE_TOL,
    DiagonalGate,
    DimensionMismatch,
    FourierGate,
    IndexOutOfRange,
    MarginalDistribution,
    QuditRegister,
    SizeCapExceeded,
    ZeroNormProjection,
    apply_local,
    basis_labels,
    inverse_cdf,
    joint_distribution,
    make_ghz,
    marginal,
    measure,
    phase_gate,
    qft_inv,
)

import dense_oracle
from register_checks import (assert_registers_close, assert_support_exact, gate_matrix, register,
                             sparse_registers, traced_peak)

# Reference d=4 example, w = i: branch phases w^(3k) on |kkk>, and the
# per-branch coefficient rows after the inverse transform on qudit 1.
REF_ENCODED = {
    (0, 0, 0): 0.5,
    (1, 1, 1): -0.5j,
    (2, 2, 2): -0.5,
    (3, 3, 3): 0.5j,
}
REF_COLUMNS = {
    0: (1, 1, 1, 1),
    1: (-1j, -1, 1j, 1),
    2: (-1, 1, -1, 1),
    3: (1j, -1, -1j, 1),
}
REF_TRANSFORMED = {
    (j, k, k): REF_COLUMNS[k][j] / 4.0 for k in range(4) for j in range(4)
}


def state_from_dict(d, t, amps_by_digits):
    """Build the dense amplitude vector for {digit-tuple: amplitude}."""
    amps = np.zeros(d**t, dtype=complex)
    for digits, a in amps_by_digits.items():
        index = 0
        for k in digits:
            index = index * d + k
        amps[index] = a
    return amps


def basis_state(d, t, digits):
    return register(d, t, state_from_dict(d, t, {tuple(digits): 1.0}))


def random_register(d, t, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d**t) + 1j * rng.normal(size=d**t)
    return register(d, t, amps / np.linalg.norm(amps))


def d4_encoded_register():
    reg = make_ghz(4, 3)
    for r, s in enumerate((3, 0, 0), start=1):
        reg = apply_local(reg, r, phase_gate(4, s))
    return reg


# make_ghz -------------------------------------------------------------------

def test_make_ghz_qubit_pair():
    reg = make_ghz(2, 2)
    expected = state_from_dict(2, 2, {(0, 0): 2**-0.5, (1, 1): 2**-0.5})
    np.testing.assert_allclose(reg.amps, expected, atol=1e-14)


def test_make_ghz_d4_t3():
    reg = make_ghz(4, 3)
    expected = state_from_dict(4, 3, {(k, k, k): 0.5 for k in range(4)})
    np.testing.assert_allclose(reg.amps, expected, atol=1e-14)


def test_make_ghz_single_qudit_uniform():
    reg = make_ghz(3, 1)
    np.testing.assert_allclose(reg.amps, np.full(3, 3**-0.5), atol=1e-14)


def test_make_ghz_size_cap():
    with pytest.raises(SizeCapExceeded):
        make_ghz(2, 23)  # 2^23 amplitudes > default cap of 2^22
    with pytest.raises(SizeCapExceeded):
        make_ghz(np.int64(1 << 16), 4)  # 2^64 amplitudes, which wrap to 0 in int64
    assert make_ghz(2, 22).amps.size == DEFAULT_SIZE_CAP


def test_register_constructor_enforces_size_cap():
    with pytest.raises(SizeCapExceeded):
        QuditRegister(2, 23, np.arange(1), np.ones(1, dtype=np.complex128))  # refused before values is read
    QuditRegister(2, 4, np.arange(16), np.full(16, 0.25, dtype=np.complex128))


def test_gates_respect_size_cap():
    # applying a library gate builds no matrix, whose 2049^2 entries would exceed the cap of 2^22
    reg = random_register(2049, 1, seed=2049)
    for gate in (phase_gate(2049, 1), qft_inv(2049)):
        assert traced_peak(apply_local, reg, 1, gate) <= 0.01 * 16 * 2049**2


def test_gates_check_their_dimension():
    for bad in (lambda: phase_gate(1, 0), lambda: phase_gate(2.5, 1), lambda: qft_inv(1), lambda: qft_inv("x")):
        with pytest.raises(ValueError, match="local dimension must be an integer >= 2"):
            bad()
    assert phase_gate(MAX_MODULUS, 1).d == qft_inv(MAX_MODULUS).d == MAX_MODULUS


def test_make_ghz_rejects_bad_args():
    with pytest.raises(ValueError):
        make_ghz(1, 2)
    with pytest.raises(ValueError):
        make_ghz(3, 0)


# phase_gate -----------------------------------------------------------------

def test_phase_gate_zero_is_identity():
    for d in (2, 3, 4, 7):
        np.testing.assert_allclose(gate_matrix(phase_gate(d, 0)), np.eye(d), atol=1e-14)


def test_phase_gate_d4_s3_on_basis_states():
    g = phase_gate(4, 3)
    one = apply_local(basis_state(4, 1, (1,)), 1, g)
    np.testing.assert_allclose(one.amps, state_from_dict(4, 1, {(1,): -1j}), atol=1e-12)
    two = apply_local(basis_state(4, 1, (2,)), 1, g)
    np.testing.assert_allclose(two.amps, state_from_dict(4, 1, {(2,): -1.0}), atol=1e-12)


def test_phase_gate_rejects_out_of_range():
    with pytest.raises(ValueError):
        phase_gate(4, 4)
    with pytest.raises(ValueError):
        phase_gate(4, -1)
    with pytest.raises(ValueError):
        phase_gate(4, 1.5)


# qft_inv ----------------------------------------------------------------------

def test_qft_inv_d4_expansions():
    # w^(3k) * column k must reproduce the four pinned coefficient rows / 2
    m = gate_matrix(qft_inv(4))
    w = np.exp(2j * np.pi / 4)
    for k, coeffs in REF_COLUMNS.items():
        expansion = w ** (3 * k % 4) * m[:, k]
        np.testing.assert_allclose(expansion, np.array(coeffs) / 2.0, atol=1e-12)


@pytest.mark.parametrize("d", range(2, 17))
def test_qft_inv_recovers_phase_slope(d):
    # oracle: build (1/sqrt d) sum_k w^(S k)|k> directly from the definition
    for s_total in range(d):
        amps = np.exp(2j * np.pi * s_total * np.arange(d) / d) / np.sqrt(d)
        out = apply_local(register(d, 1, amps), 1, qft_inv(d))
        assert abs(abs(out.amps[s_total]) - 1.0) < 1e-10
        others = np.delete(np.abs(out.amps), s_total)
        assert np.max(others) < 1e-10


@pytest.mark.parametrize("d", range(2, 17))
def test_qft_unitarity(d):
    # qft_inv's action on each basis state rebuilds its closed form, which is unitary
    m = gate_matrix(qft_inv(d))
    np.testing.assert_allclose(m, dense_oracle.fourier_inv(d), atol=1e-12)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(d), atol=1e-10)


def test_qft_qubit_is_hadamard_on_zero():
    # at d = 2 the inverse and the forward transform are both the Hadamard gate
    zero = basis_state(2, 1, (0,))
    np.testing.assert_allclose(apply_local(zero, 1, qft_inv(2)).amps, np.full(2, 2**-0.5), atol=1e-12)
    forward = dense_oracle.fourier_inv(2).conj().T
    np.testing.assert_allclose(dense_oracle.apply(zero.amps, 2, 1, 1, forward), np.full(2, 2**-0.5), atol=1e-12)


def test_qft_roundtrip_random_vector():
    reg = random_register(4, 1, seed=99)
    out = apply_local(reg, 1, qft_inv(4)).amps
    back = dense_oracle.apply(out, 4, 1, 1, dense_oracle.fourier_inv(4).conj().T)
    assert np.max(np.abs(back - reg.amps)) <= 1e-10


# apply_local ------------------------------------------------------------------

def test_apply_identity_is_noop():
    reg = random_register(3, 2, seed=5)
    out = apply_local(reg, 2, phase_gate(3, 0))
    np.testing.assert_allclose(out.amps, reg.amps, atol=1e-14)


def test_apply_local_errors():
    reg = make_ghz(3, 2)
    with pytest.raises(DimensionMismatch):
        apply_local(reg, 1, phase_gate(4, 1))
    with pytest.raises(IndexOutOfRange):
        apply_local(reg, 0, phase_gate(3, 1))
    with pytest.raises(IndexOutOfRange):
        apply_local(reg, 3, phase_gate(3, 1))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_apply_local_matches_kron_oracle(q):
    # the oracle's matmul along one axis is the Kronecker product I (x) m (x) I for any matrix m,
    # and apply_local matches it for the library gates' matrices
    d, t = 3, 3
    reg = random_register(d, t, seed=41 + q)
    rng = np.random.default_rng(17 + q)
    cases = ((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), None),
             (dense_oracle.phase(d, 2), phase_gate(d, 2)), (dense_oracle.fourier_inv(d), qft_inv(d)))
    for m, gate in cases:
        expected = np.kron(np.kron(np.eye(d ** (q - 1)), m), np.eye(d ** (t - q))) @ reg.amps
        np.testing.assert_allclose(dense_oracle.apply(reg.amps, d, t, q, m), expected, atol=1e-12)
        if gate is not None:
            np.testing.assert_allclose(apply_local(reg, q, gate).amps, expected, atol=1e-12)


def _assert_library_gates_match_dense(reg, s):
    # each library gate acts by its structure; dense_oracle applies its matrix by a plain matmul
    d, t = reg.d, reg.t
    for gate, m in ((phase_gate(d, s), dense_oracle.phase(d, s)), (qft_inv(d), dense_oracle.fourier_inv(d))):
        for q in range(1, t + 1):
            fast = apply_local(reg, q, gate).amps
            assert np.max(np.abs(fast - dense_oracle.apply(reg.amps, d, t, q, m))) <= 1e-12


@st.composite
def _gate_case(draw):
    # a dense random register or a GHZ-branch one, each at every (d, t) with d <= 64 and
    # d^t <= 4096, or a sparse one with a random support
    t = draw(st.integers(1, 12))
    d = draw(st.integers(2, min(64, int(round(4096 ** (1 / t))))).filter(lambda d: d**t <= 4096))
    reg = draw(st.one_of(
        st.integers(0, 2**32 - 1).map(lambda seed: random_register(d, t, seed)),
        st.lists(st.integers(0, d - 1), min_size=t, max_size=t).map(
            lambda s: post_encoding_state(ProtocolParams(d, t, s_vector=tuple(s)))),
        sparse_registers(),
    ))
    return reg, draw(st.integers(0, reg.d - 1))


@settings(max_examples=120, deadline=None)
@given(case=_gate_case())
@example(case=(register(2, 2, np.array([0, 1, 1, 0]) / np.sqrt(2)), 1))  # d entries, not a whole range
@example(case=(random_register(3, 3, seed=3), 2))  # a full support; qudit 2 has rest 3 on either side
# several entries share a fibre of the middle qudits, so the fibre keys of the sorted support
# repeat and fall back: qudit 2's keys here run 1, 0, 1, 1, 18, 20
@example(case=(register(3, 3, state_from_dict(3, 3, {
    (0, 0, 1): 0.5, (0, 1, 0): 0.5j, (0, 1, 1): -0.5, (0, 2, 1): 0.25, (2, 0, 0): 0.25j, (2, 2, 2): np.sqrt(0.125),
})), 1))
@example(case=(register(4, 4, state_from_dict(4, 4, {  # qudit 2's keys run 78, 78, 66, 196
    (1, 0, 3, 2): 0.5, (1, 2, 3, 2): -0.5, (1, 3, 0, 2): 0.5j, (3, 1, 1, 0): 0.5,
})), 3))
def test_library_gates_match_dense_oracle(case):
    _assert_library_gates_match_dense(*case)


@pytest.mark.parametrize("d, t", [(384, 2), (2048, 1)])
def test_library_gates_match_dense_oracle_at_wide_d(d, t):
    _assert_library_gates_match_dense(random_register(d, t, seed=d), d - 1)


def test_fourier_gate_transforms_only_the_occupied_fibres(monkeypatch):
    # qudit 1 of a GHZ-branch state sum_k c_k |k...k> holds d nonzero fibres of d^(t-1)
    reg = post_encoding_state(ProtocolParams(8, 6, s_vector=(3, 1, 4, 1, 5, 2)))
    fft, sizes = np.fft.fft, []

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", spy)
    apply_local(reg, 1, qft_inv(8))
    assert sizes == [8 * 8]


def test_apply_local_dispatches_through_act(monkeypatch):
    # one path per gate: a full support, dense or one-qudit, reaches act like any other
    calls = []
    for gate in (DiagonalGate, FourierGate):
        monkeypatch.setattr(gate, "act", lambda self, *a, act=gate.act: calls.append(type(self)) or act(self, *a))
    for reg in (random_register(3, 3, seed=5), make_ghz(5, 1)):
        for q in range(1, reg.t + 1):
            apply_local(apply_local(reg, q, phase_gate(reg.d, 1)), q, qft_inv(reg.d))
    assert calls == [DiagonalGate, FourierGate] * 4


def test_encoding_reaches_reference_state():
    # any split of the accumulated phase 3 across the three qudits works
    expected = state_from_dict(4, 3, REF_ENCODED)
    np.testing.assert_allclose(d4_encoded_register().amps, expected, atol=1e-12)
    reg = make_ghz(4, 3)
    for r, s in enumerate((1, 1, 1), start=1):
        reg = apply_local(reg, r, phase_gate(4, s))
    np.testing.assert_allclose(reg.amps, expected, atol=1e-12)


def test_transform_reaches_reference_state():
    out = apply_local(d4_encoded_register(), 1, qft_inv(4))
    expected = state_from_dict(4, 3, REF_TRANSFORMED)
    np.testing.assert_allclose(out.amps, expected, atol=1e-12)


# marginal ---------------------------------------------------------------------

def test_marginal_of_reference_transformed_state():
    # oracle: accumulate |amp|^2 straight from the pinned 16-entry table
    expected = np.zeros(4)
    for (j, _, _), a in REF_TRANSFORMED.items():
        expected[j] += abs(a) ** 2
    np.testing.assert_allclose(expected, np.full(4, 0.25), atol=1e-15)
    out = apply_local(d4_encoded_register(), 1, qft_inv(4))
    np.testing.assert_allclose(marginal(out, 1).probs, expected, atol=1e-12)


def test_marginal_of_basis_state_is_indicator():
    reg = basis_state(3, 3, (2, 0, 1))
    np.testing.assert_allclose(marginal(reg, 1).probs, [0, 0, 1], atol=1e-14)
    np.testing.assert_allclose(marginal(reg, 2).probs, [1, 0, 0], atol=1e-14)


def test_marginal_of_ghz_is_uniform():
    for d, t in [(2, 2), (4, 3), (5, 2)]:
        reg = make_ghz(d, t)
        for q in range(1, t + 1):
            np.testing.assert_allclose(marginal(reg, q).probs, np.full(d, 1 / d), atol=1e-12)


def test_marginal_matches_digit_enumeration_oracle():
    reg = random_register(3, 3, seed=71)
    probs = np.abs(reg.amps) ** 2
    for q in (1, 2, 3):
        expected = np.zeros(3)
        for i, p in enumerate(probs):
            expected[np.unravel_index(i, (3,) * 3)[q - 1]] += p
        np.testing.assert_allclose(marginal(reg, q).probs, expected, atol=1e-12)


def test_marginal_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        marginal(make_ghz(2, 2), 3)


# measure ------------------------------------------------------------------------

def test_measure_basis_state_is_certain():
    reg = basis_state(4, 3, (3, 3, 3))
    outcome, post = measure(reg, 1, np.random.default_rng(0))
    assert outcome == 3
    np.testing.assert_allclose(post.amps, reg.amps, atol=1e-14)


def test_measure_collapses_ghz():
    for seed in range(6):
        outcome, post = measure(make_ghz(4, 3), 2, np.random.default_rng(seed))
        np.testing.assert_allclose(
            post.amps, state_from_dict(4, 3, {(outcome,) * 3: 1.0}), atol=1e-12
        )


def test_measure_seed_reproducibility():
    reg = apply_local(d4_encoded_register(), 1, qft_inv(4))
    seq1 = [measure(reg, 1, np.random.default_rng(31))[0] for _ in range(25)]
    rng = np.random.default_rng(31)
    seq2 = [measure(reg, 1, rng)[0] for _ in range(25)]
    # one shared stream vs fresh streams differ; identical streams agree
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    assert [measure(reg, 1, rng_a)[0] for _ in range(25)] == [
        measure(reg, 1, rng_b)[0] for _ in range(25)
    ]
    assert seq1[0] == seq2[0]


def test_measure_frequency_matches_marginal():
    # 10^4 draws on the reference transformed state: 0.25 within 3 sigma
    reg = apply_local(d4_encoded_register(), 1, qft_inv(4))
    rng = np.random.default_rng(2024)
    outcomes = np.array([measure(reg, 1, rng)[0] for _ in range(10_000)])
    freq = np.mean(outcomes == 3)
    assert abs(freq - 0.25) < 0.013
    counts = np.bincount(outcomes, minlength=4)
    chi2 = scipy.stats.chisquare(counts)
    assert chi2.pvalue > 0.001


def test_measure_zero_norm_projection_guard():
    class OverrunRng:
        def random(self):
            return 1.0  # past the cumulative sum, forcing the clipped branch

    with pytest.raises(ZeroNormProjection):
        measure(basis_state(2, 1, (0,)), 1, OverrunRng())


def test_measure_largest_draw_stays_on_supported_branch():
    class TopRng:
        def random(self):
            return float(np.nextafter(1.0, 0.0))  # the largest value Generator.random returns

    reg = register(3, 1, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    assert np.cumsum(marginal(reg, 1).probs)[-1] < 1.0  # rounding leaves the top below 1
    outcome, post = measure(reg, 1, TopRng())
    assert outcome == 1
    assert_registers_close(post, basis_state(3, 1, (1,)), tol=NORM_TOL)


def _plain_inverse_cdf(probs, u):
    """inverse_cdf as plain Python: a masked running sum, bisect_right, the clamp and the empty-branch refusal."""
    cdf, running = [], 0.0
    for p in probs:
        running += 0.0 if abs(p) < PRUNE_TOL else p
        cdf.append(running)
    i = min(bisect.bisect_right(cdf, u * running), len(probs) - 1)
    if probs[i] < PRUNE_TOL:
        raise ZeroNormProjection("empty branch")
    return i


def _draw_outcome(fn, law, u):
    try:
        return int(fn(law, u))
    except ZeroNormProjection as exc:
        return type(exc)


def _normalised(entries):
    """The entries with the weights above PRUNE_TOL scaled to sum to 1 and the dust kept as it is."""
    probs = np.array(entries)
    weights = probs > PRUNE_TOL
    probs[weights] /= probs[weights].sum()
    return probs


# a law's entries: weights, the dust an FFT leaves on either side of 0, PRUNE_TOL itself and empty
# branches; at most 12 of them add at most 12 * PRUNE_TOL to the sum, so MarginalDistribution accepts it
_LAW_ENTRIES = st.one_of(
    st.floats(PRUNE_TOL, 1.0),
    st.sampled_from([0.0, -0.0, 6.123233995736766e-17, -9.184850993605148e-17, PRUNE_TOL / 2, -PRUNE_TOL / 2,
                     PRUNE_TOL, 0.25, 0.5]),
)


@settings(max_examples=300, deadline=None)
@given(probs=st.lists(_LAW_ENTRIES, min_size=1, max_size=12).filter(lambda es: max(es) > PRUNE_TOL)
       .map(_normalised),
       u=st.one_of(st.floats(0.0, 1.0), st.just(float(np.nextafter(1.0, 0.0)))))
@example(probs=np.array([0.5, 0.5, 0.0]), u=float(np.nextafter(1.0, 0.0)))  # an empty last branch
@example(probs=np.array([0.5, 0.5, 6.123233995736766e-17]), u=1.0)  # dust on the last branch, clamped onto
@example(probs=np.array([0.25, -9.184850993605148e-17, 0.75]), u=0.25)  # an edge of the CDF, dust beside it
@example(probs=np.array([PRUNE_TOL, 0.5, 0.5]), u=0.0)  # PRUNE_TOL itself keeps its CDF width
def test_inverse_cdf_matches_plain_bisect(probs, u):
    # a scalar u, as Variant.run and measure pass it, and a one-draw array draw the same branch
    law = MarginalDistribution(probs)
    expected = _draw_outcome(_plain_inverse_cdf, probs.tolist(), u)
    assert _draw_outcome(inverse_cdf, law, u) == expected
    assert _draw_outcome(lambda p, v: inverse_cdf(p, np.array([v]))[0], law, u) == expected


def test_measure_writes_its_register_once():
    # the post-measurement register holds only the entries it keeps; this bound would allow a
    # d^t array, a kept slice and marginal's table (see test_dense_readers_build_no_register)
    reg = apply_local(make_ghz(8, 6), 1, qft_inv(8))
    for q in (1, 3, 6):
        assert traced_peak(measure, reg, q, np.random.default_rng(q)) <= 2.5 * reg.amps.nbytes, q


def test_dense_readers_build_no_register():
    # the readers work on the support, 64 amplitudes of 8^6, so no temporary scales with d^t
    reg = apply_local(make_ghz(8, 6), 1, qft_inv(8))
    bound = 0.01 * 16 * reg.d**reg.t
    for q in (1, 3, 6):
        assert traced_peak(marginal, reg, q) <= bound, q
        assert traced_peak(measure, reg, q, np.random.default_rng(q)) <= bound, q
    assert traced_peak(joint_distribution, reg) <= bound


# joint_distribution ---------------------------------------------------------------

def test_joint_of_ghz_pair():
    joint = joint_distribution(make_ghz(2, 2))
    assert set(joint.entries) == {(0, 0), (1, 1)}
    assert joint.entries[(0, 0)] == pytest.approx(0.5, abs=1e-12)
    assert joint.entries[(1, 1)] == pytest.approx(0.5, abs=1e-12)


def test_joint_of_reference_transformed_state_pairs():
    out = apply_local(d4_encoded_register(), 1, qft_inv(4))
    joint = joint_distribution(out)
    pair_probs = {}
    for (_, k2, k3), p in joint.entries.items():
        pair_probs[(k2, k3)] = pair_probs.get((k2, k3), 0.0) + p
    assert set(pair_probs) == {(v, v) for v in range(4)}
    for v in range(4):
        assert pair_probs[(v, v)] == pytest.approx(0.25, abs=1e-12)


def test_joint_after_all_qudit_transform_matches_formula_oracle():
    # oracle: amplitude at (m_1..m_t) is d^-(t+1)/2 * sum_k w^((S - sum m) k),
    # nonzero exactly on sum m = S mod d with uniform probability d^(1-t)
    for d, t, s_vec in [(4, 3, (3, 0, 0)), (2, 2, (1, 0)), (3, 2, (2, 2)), (5, 2, (4, 3))]:
        reg = make_ghz(d, t)
        for r, s in enumerate(s_vec, start=1):
            reg = apply_local(reg, r, phase_gate(d, s))
        for r in range(1, t + 1):
            reg = apply_local(reg, r, qft_inv(d))
        joint = joint_distribution(reg)
        s_total = sum(s_vec) % d
        expected_support = {
            m for m in itertools.product(range(d), repeat=t) if sum(m) % d == s_total
        }
        assert set(joint.entries) == expected_support
        for p in joint.entries.values():
            assert p == pytest.approx(d ** (1 - t), abs=1e-9)
        assert sum(joint.entries.values()) == pytest.approx(1.0, abs=1e-9)


def test_joint_prunes_zero_rows():
    joint = joint_distribution(basis_state(3, 2, (1, 2)))
    assert joint.entries == {(1, 2): pytest.approx(1.0)}


# invariants / properties ------------------------------------------------------------

@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_norm_preservation(d, t, seed):
    # the library gates and the oracle's forward transform keep the norm
    reg = random_register(d, t, seed)
    q = seed % t + 1
    outs = [apply_local(reg, q, gate).amps for gate in (phase_gate(d, seed % d), qft_inv(d))]
    outs.append(dense_oracle.apply(reg.amps, d, t, q, dense_oracle.fourier_inv(d).conj().T))
    for out in outs:
        assert abs(np.vdot(out, out).real - 1.0) < 1e-10


@settings(max_examples=30)
@given(st.data())
def test_diagonal_gates_commute(data):
    d = data.draw(st.integers(min_value=2, max_value=5))
    t = data.draw(st.integers(min_value=2, max_value=3))
    s_vec = tuple(data.draw(st.integers(0, d - 1)) for _ in range(t))
    order = data.draw(st.permutations(range(1, t + 1)))
    reg_fwd = make_ghz(d, t)
    for r in range(1, t + 1):
        reg_fwd = apply_local(reg_fwd, r, phase_gate(d, s_vec[r - 1]))
    reg_perm = make_ghz(d, t)
    for r in order:
        reg_perm = apply_local(reg_perm, r, phase_gate(d, s_vec[r - 1]))
    assert np.max(np.abs(reg_fwd.amps - reg_perm.amps)) < 1e-12


def test_phase_accumulation_identity():
    # per-qudit phases on the GHZ state equal one accumulated phase on qudit 1
    rng = np.random.default_rng(8)
    for d in range(2, 9):
        for t in (2, 3, 4):
            s_vec = [int(v) for v in rng.integers(0, d, size=t)]
            reg = make_ghz(d, t)
            for r, s in enumerate(s_vec, start=1):
                reg = apply_local(reg, r, phase_gate(d, s))
            accumulated = apply_local(make_ghz(d, t), 1, phase_gate(d, sum(s_vec) % d))
            assert_registers_close(reg, accumulated, tol=1e-10)


def test_first_qudit_marginal_uniform_after_transform():
    # entanglement keeps the measuring qudit maximally mixed for every s-vector
    for d in (2, 3, 5):
        for t in (2, 3):
            for s_vec in itertools.product(range(d), repeat=t):
                reg = make_ghz(d, t)
                for r, s in enumerate(s_vec, start=1):
                    reg = apply_local(reg, r, phase_gate(d, s))
                reg = apply_local(reg, 1, qft_inv(d))
                probs = marginal(reg, 1).probs
                assert np.max(np.abs(probs - 1.0 / d)) < 1e-10


# storage ------------------------------------------------------------------------

def _assert_nobody_writes(reg):
    """reg's support, values and amps, and every array they view, are read-only."""
    for array in (reg.support, reg.values, reg.amps):
        while isinstance(array, np.ndarray):
            assert not array.flags.writeable
            array = array.base


def test_engine_registers_are_read_only():
    reg = make_ghz(3, 3)
    _assert_nobody_writes(reg)
    for gate in (phase_gate(3, 1), qft_inv(3)):
        for q in (1, 2, 3):
            _assert_nobody_writes(apply_local(reg, q, gate))
    transformed = apply_local(reg, 2, qft_inv(3))
    for q in (1, 2, 3):
        _assert_nobody_writes(measure(transformed, q, np.random.default_rng(q))[1])


def test_apply_local_adds_no_copy_to_the_gate():
    reg = apply_local(make_ghz(8, 6), 2, phase_gate(8, 3))
    bare = traced_peak(FourierGate(8).act, reg.support, reg.values, 8**5)
    assert traced_peak(apply_local, reg, 1, qft_inv(8)) - bare <= 0.1 * reg.amps.nbytes


# support ------------------------------------------------------------------------

def _engine_registers(d, terms, seed):
    """Every register the engine builds from one encoding: the GHZ state, the encoding,
    each gate kind on every qudit, and a measurement of every qudit after a Fourier gate."""
    t = len(terms)
    encoded = post_encoding_state(ProtocolParams(d, t, s_vector=terms))
    regs = [make_ghz(d, t), encoded]
    for q in range(1, t + 1):
        for gate in (phase_gate(d, terms[q - 1]), qft_inv(d)):
            regs.append(apply_local(encoded, q, gate))
        transformed = apply_local(encoded, q, qft_inv(d))
        regs.append(measure(transformed, q % t + 1, np.random.default_rng(seed))[1])
    return regs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_engine_supports_are_exact(data):
    # a register the engine hands its support to acts exactly like its amplitudes handed in
    t = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(2, 9).filter(lambda d: d**t <= 4096))
    terms = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t)))
    for reg in _engine_registers(d, terms, data.draw(st.integers(0, 2**32 - 1))):
        handed = register(d, t, reg.amps)
        assert_support_exact(reg)
        assert_support_exact(handed)
        assert amplitude_table(reg).rows == amplitude_table(handed).rows
        for q in range(1, t + 1):
            out, expected = apply_local(reg, q, qft_inv(d)), apply_local(handed, q, qft_inv(d))
            assert_support_exact(out)
            assert out.amps.tobytes() == expected.amps.tobytes()


# value validation ----------------------------------------------------------------

def test_register_validation():
    for support in (np.arange(4), np.array([0, 3])):  # dense, and a support of 2 entries
        with pytest.raises(ValueError, match="not normalized"):
            QuditRegister(2, 2, support, np.ones(support.size, dtype=np.complex128))
    reg = make_ghz(2, 2)
    with pytest.raises(ValueError):
        reg.amps[0] = 1.0  # read-only storage


def test_diagonal_gate_validation():
    with pytest.raises(ValueError, match="not unitary"):
        DiagonalGate(np.array([1, 2], dtype=complex))


def test_basis_label_formats():
    assert basis_labels(np.array([(0, 2, 1)]), 4) == ["021"]
    assert basis_labels(np.array([(11, 0)]), 12) == ["11.0"]
    # one character per digit up to d = 10, dot-separated from d = 11
    assert basis_labels(np.array([(9, 0), (0, 9)]), 10) == ["90", "09"]
    assert basis_labels(np.array([(10, 0), (0, 10)]), 11) == ["10.0", "0.10"]


@st.composite
def _digit_matrices(draw):
    d = draw(st.integers(2, 16))
    t = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, d - 1), min_size=t, max_size=t), max_size=20))
    return d, t, rows


@settings(max_examples=200, deadline=None)
@given(case=_digit_matrices())
@example(case=(10, 3, [[9, 0, 9], [0, 0, 0]]))
@example(case=(11, 2, [[10, 0], [9, 10]]))
@example(case=(4, 1, [[3], [0], [2]]))  # one character per label
@example(case=(8, 6, []))  # no rows at all
@example(case=(16, 1, []))
def test_basis_labels_match_plain_join(case):
    # the digit matrix as amplitude_table builds it, int64 of shape (rows, t)
    d, t, rows = case
    digits = np.array(rows, dtype=np.int64).reshape(len(rows), t)
    separator = "" if d <= 10 else "."
    assert basis_labels(digits, d) == [separator.join(map(str, row)) for row in rows]
