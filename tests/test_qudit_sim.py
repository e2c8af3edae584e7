"""State-vector engine: pinned amplitudes, independent oracles, and properties."""

import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from quditshare.qudit_sim import (
    DEFAULT_SIZE_CAP,
    SIZE_CAP_ENV,
    DimensionMismatch,
    IndexOutOfRange,
    LocalUnitary,
    QuditRegister,
    SizeCapExceeded,
    ZeroNormProjection,
    apply_local,
    basis_digits,
    basis_label,
    joint_distribution,
    make_ghz,
    marginal,
    measure,
    phase_gate,
    qft,
    qft_inv,
)

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
    return QuditRegister(d, t, state_from_dict(d, t, {tuple(digits): 1.0}))


def random_register(d, t, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d**t) + 1j * rng.normal(size=d**t)
    return QuditRegister(d, t, amps / np.linalg.norm(amps))


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(m)
    return LocalUnitary(d, q)


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


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv(SIZE_CAP_ENV, "8")
    with pytest.raises(SizeCapExceeded):
        make_ghz(3, 2)
    make_ghz(2, 3)


def test_register_constructor_enforces_size_cap(monkeypatch):
    monkeypatch.setenv(SIZE_CAP_ENV, "16")
    with pytest.raises(SizeCapExceeded):
        QuditRegister(2, 5, np.full(32, 32**-0.5))
    QuditRegister(2, 4, np.full(16, 0.25))


def test_gates_respect_size_cap(monkeypatch):
    monkeypatch.setenv(SIZE_CAP_ENV, "16")
    for gate in (lambda d: phase_gate(d, 1), qft_inv, qft):
        with pytest.raises(SizeCapExceeded):
            gate(5)  # a 5 x 5 matrix holds 25 > 16 amplitudes
        assert gate(4).d == 4


def test_make_ghz_rejects_bad_args():
    with pytest.raises(ValueError):
        make_ghz(1, 2)
    with pytest.raises(ValueError):
        make_ghz(3, 0)


# phase_gate -----------------------------------------------------------------

def test_phase_gate_zero_is_identity():
    for d in (2, 3, 4, 7):
        np.testing.assert_allclose(phase_gate(d, 0).m, np.eye(d), atol=1e-14)


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


# qft_inv / qft ---------------------------------------------------------------

def test_qft_inv_d4_expansions():
    # w^(3k) * column k must reproduce the four pinned coefficient rows / 2
    m = qft_inv(4).m
    w = np.exp(2j * np.pi / 4)
    for k, coeffs in REF_COLUMNS.items():
        expansion = w ** (3 * k % 4) * m[:, k]
        np.testing.assert_allclose(expansion, np.array(coeffs) / 2.0, atol=1e-12)


@pytest.mark.parametrize("d", range(2, 17))
def test_qft_inv_recovers_phase_slope(d):
    # oracle: build (1/sqrt d) sum_k w^(S k)|k> directly from the definition
    for s_total in range(d):
        amps = np.exp(2j * np.pi * s_total * np.arange(d) / d) / np.sqrt(d)
        out = apply_local(QuditRegister(d, 1, amps), 1, qft_inv(d))
        assert abs(abs(out.amps[s_total]) - 1.0) < 1e-10
        others = np.delete(np.abs(out.amps), s_total)
        assert np.max(others) < 1e-10


@pytest.mark.parametrize("d", range(2, 17))
def test_qft_unitarity(d):
    np.testing.assert_allclose(qft(d).m @ qft_inv(d).m, np.eye(d), atol=1e-10)


def test_qft_qubit_is_hadamard_on_zero():
    out = apply_local(basis_state(2, 1, (0,)), 1, qft(2))
    np.testing.assert_allclose(out.amps, np.full(2, 2**-0.5), atol=1e-12)


def test_qft_roundtrip_random_vector():
    reg = random_register(4, 1, seed=99)
    out = apply_local(apply_local(reg, 1, qft_inv(4)), 1, qft(4))
    assert out.isclose(reg, tol=1e-10)


# apply_local ------------------------------------------------------------------

def test_apply_identity_is_noop():
    reg = random_register(3, 2, seed=5)
    out = apply_local(reg, 2, LocalUnitary(3, np.eye(3)))
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
    d, t = 3, 3
    reg = random_register(d, t, seed=41 + q)
    u = random_unitary(d, seed=17 + q)
    factors = [np.eye(d)] * t
    factors[q - 1] = u.m
    full = factors[0]
    for f in factors[1:]:
        full = np.kron(full, f)
    expected = full @ reg.amps
    out = apply_local(reg, q, u)
    np.testing.assert_allclose(out.amps, expected, atol=1e-12)


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
            expected[basis_digits(i, 3, 3)[q - 1]] += p
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

    reg = QuditRegister(3, 1, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    assert np.cumsum(marginal(reg, 1).probs)[-1] < 1.0  # rounding leaves the top below 1
    outcome, post = measure(reg, 1, TopRng())
    assert outcome == 1
    assert post.isclose(basis_state(3, 1, (1,)))


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
    reg = random_register(d, t, seed)
    u = random_unitary(d, seed + 1)
    q = seed % t + 1
    out = apply_local(reg, q, u)
    assert abs(np.vdot(out.amps, out.amps).real - 1.0) < 1e-10


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
            assert reg.isclose(accumulated, tol=1e-10)


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


# value validation ----------------------------------------------------------------

def test_register_validation():
    with pytest.raises(ValueError):
        QuditRegister(2, 2, np.ones(4))  # unnormalized
    with pytest.raises(ValueError):
        QuditRegister(2, 2, np.zeros(3))  # wrong length
    reg = make_ghz(2, 2)
    with pytest.raises(ValueError):
        reg.amps[0] = 1.0  # read-only storage


def test_local_unitary_validation():
    with pytest.raises(ValueError):
        LocalUnitary(2, np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError):
        LocalUnitary(3, np.eye(2))


def test_basis_label_formats():
    assert basis_label((0, 2, 1), 4) == "021"
    assert basis_label((11, 0), 12) == "11.0"
