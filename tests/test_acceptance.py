"""End-to-end acceptance criteria.

Each test prints one `criterion N: PASS/FAIL` line (run with `pytest -s` to
see them on passing runs) and enforces its stated tolerance and, where
applicable, runtime budget.
"""

import itertools
import math
import random
import time

import numpy as np

from quditshare.analysis import (
    outcome_marginal,
    success_probability_mc,
    verify_reference_states,
)
from quditshare.cli import main as cli_main
from quditshare.modmath import SharePolynomial, gen_shares, lagrange_terms
from quditshare.protocol import (
    PRODUCT_COUNTERFACTUAL,
    REPAIRED,
    VARIANTS,
    ProtocolParams,
    post_encoding_state,
    run_repaired_all_measure,
    run_song_original,
)
from quditshare.qudit_sim import (
    apply_local,
    joint_distribution,
    make_ghz,
    phase_gate,
    qft_inv,
)

from register_checks import assert_registers_close, gate_matrix, register

# The four d=4 inverse-transform expansions (branch phase included), times 1/2.
EXPANSIONS = {
    0: (1, 1, 1, 1),
    1: (-1j, -1, 1j, 1),
    2: (-1, 1, -1, 1),
    3: (1j, -1, -1j, 1),
}


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _d4_params():
    return ProtocolParams(d=4, t=3, s_vector=(3, 0, 0))


def test_criterion_1_inverse_transform_expansions():
    # the matrix qft_inv applies, rebuilt from its action on each basis state
    gate_matrix(qft_inv(4))  # warm-up so the timed section measures the computation alone
    start = time.perf_counter()
    m = gate_matrix(qft_inv(4))
    w = np.exp(2j * np.pi / 4)
    max_err = max(
        float(np.max(np.abs(w ** (3 * k % 4) * m[:, k] - np.array(coeffs) / 2.0)))
        for k, coeffs in EXPANSIONS.items()
    )
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        max_err <= 1e-12 and elapsed < 1e-3,
        f"four expansions within {max_err:.2e} of pinned coefficients in {elapsed * 1e6:.0f} us",
    )


def test_criterion_2_reference_state_reproduction(capsys):
    verify_reference_states()  # warm-up
    start = time.perf_counter()
    encoded, transformed = verify_reference_states()
    elapsed = time.perf_counter() - start

    # independent restatement of the closed forms, asserted at 1e-12
    enc_expected = np.zeros(64, dtype=complex)
    for k, phase in enumerate((1, -1j, -1, 1j)):
        enc_expected[k * 21] = phase / 2.0
    tr_expected = np.zeros(64, dtype=complex)
    for k in range(4):
        for j in range(4):
            tr_expected[16 * j + 5 * k] = EXPANSIONS[k][j] / 4.0
    enc_err = float(np.max(np.abs(encoded.amps - enc_expected)))
    tr_err = float(np.max(np.abs(transformed.amps - tr_expected)))

    rc = cli_main(["example", "--seed", "1"])
    capsys.readouterr()
    _verdict(
        2,
        enc_err <= 1e-12 and tr_err <= 1e-12 and elapsed < 0.010 and rc == 0,
        f"4+16 amplitudes within {max(enc_err, tr_err):.2e}, "
        f"states built+checked in {elapsed * 1e3:.2f} ms, cmd_example exit {rc}",
    )


def test_criterion_3_first_agent_marginal_uniform():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    count = 0
    worst = 0.0
    for d in range(2, 9):
        for t in (2, 3, 4):
            if d**t <= 128:
                s_vectors = list(itertools.product(range(d), repeat=t))
            else:
                s_vectors = [tuple(int(v) for v in rng.integers(0, d, size=t))
                             for _ in range(128)]
            for s_vec in s_vectors:
                probs = outcome_marginal(ProtocolParams(d=d, t=t, s_vector=s_vec)).probs
                worst = max(worst, float(np.max(np.abs(probs - 1.0 / d))))
                count += 1
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        count >= 1000 and worst <= 1e-10 and elapsed < 10.0,
        f"{count} s-vectors over d<=8, t<=4: max deviation from 1/d is {worst:.2e} "
        f"in {elapsed:.1f} s",
    )


def test_criterion_4_counterfactual_certainty():
    worst_amp_defect = 0.0
    ok = True
    for d in range(2, 13):
        inv = qft_inv(d)
        for s_total in range(d):
            reg = apply_local(make_ghz(d, 1), 1, phase_gate(d, s_total))
            reg = apply_local(reg, 1, inv)
            worst_amp_defect = max(
                worst_amp_defect, float(abs(abs(reg.amps[s_total]) - 1.0))
            )
            others = np.delete(np.abs(reg.amps), s_total)
            if others.size and float(np.max(others)) > 1e-10:
                ok = False
            params = ProtocolParams(d, 1, s_vector=(s_total,))
            if VARIANTS[PRODUCT_COUNTERFACTUAL].run(params, s_total).final_outcome != s_total:
                ok = False
    _verdict(
        4,
        ok and worst_amp_defect <= 1e-10,
        f"all (S, d<=12) return S; worst amplitude defect {worst_amp_defect:.2e}",
    )


def test_criterion_5_classical_oracle_equivalence():
    start = time.perf_counter()
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    rng = random.Random(271828)
    ok = True
    for _ in range(100):
        t = rng.randint(1, 5)
        d = rng.choice([p for p in primes if p - 1 >= t])
        coeffs = tuple(rng.randrange(d) for _ in range(t))
        xs = rng.sample(range(1, d), t)
        shares = gen_shares(SharePolynomial(d, coeffs), xs)
        if sum(lagrange_terms(shares, d)) % d != coeffs[0]:
            ok = False

    def interpolate_at_zero(shares, d, t):
        matches = [
            c
            for c in itertools.product(range(d), repeat=t)
            if all(sum(a * sh.x**j for j, a in enumerate(c)) % d == sh.y for sh in shares)
        ]
        return matches[0][0] if len(matches) == 1 else None

    checked = 0
    for d in (2, 3, 5, 7):
        all_xs = list(range(1, d))
        for t in range(1, min(3, d - 1) + 1):
            for trial in range(3):
                coeffs = tuple(rng.randrange(d) for _ in range(t))
                shares_all = gen_shares(SharePolynomial(d, coeffs), all_xs)
                for subset in itertools.combinations(shares_all, t):
                    expected = interpolate_at_zero(subset, d, t)
                    if expected is None or sum(lagrange_terms(subset, d)) % d != expected:
                        ok = False
                    checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        ok and elapsed < 5.0,
        f"100 random prime instances recover a_0; brute-force interpolation agrees "
        f"on {checked} subsets in {elapsed:.1f} s",
    )


def test_criterion_6_repaired_variant_support():
    ok = True
    detail_bits = []
    for d, t, s_vec in [(4, 3, (3, 0, 0)), (2, 2, (1, 0)), (3, 3, (1, 2, 1)), (5, 2, (4, 2))]:
        params = ProtocolParams(d=d, t=t, s_vector=s_vec)
        reg = post_encoding_state(params)
        for r in range(1, t + 1):
            reg = apply_local(reg, r, qft_inv(d))
        joint = joint_distribution(reg)
        secret = params.expected_secret
        support_ok = all(sum(m) % d == secret for m in joint.entries)
        size_ok = len(joint.entries) == d ** (t - 1)
        uniform_ok = all(abs(p - d ** (1 - t)) <= 1e-9 for p in joint.entries.values())
        total_ok = abs(sum(joint.entries.values()) - 1.0) <= 1e-9
        if not (support_ok and size_ok and uniform_ok and total_ok):
            ok = False
        detail_bits.append(f"d={d},t={t}")
    estimate, _ = success_probability_mc(_d4_params(), trials=10_000, seed=5, variant=REPAIRED)
    _verdict(
        6,
        ok and estimate == 1.0,
        f"support = {{sum m = secret}} uniform d^(1-t) for {'; '.join(detail_bits)}; "
        f"10^4-trial Monte Carlo verdict rate {estimate:.4f}",
    )


def test_criterion_7_monte_carlo_consistency():
    sigma = math.sqrt(0.25 * 0.75 / 10_000)  # ~0.00433
    estimate, _ = success_probability_mc(_d4_params(), trials=10_000, seed=90210)
    repeat, _ = success_probability_mc(_d4_params(), trials=10_000, seed=90210)
    _verdict(
        7,
        abs(estimate - 0.25) < 4 * sigma and estimate == repeat,
        f"10^4 trials: estimate {estimate:.4f} within 4 sigma ({4 * sigma:.4f}) of 0.25, "
        f"bit-identical on rerun",
    )


def test_criterion_8_property_suites(capsys):
    failures = []

    # norm preservation under the library gates, on random registers
    rng = np.random.default_rng(22)
    for d, t in [(2, 3), (3, 2), (5, 2), (6, 2)]:
        amps = rng.normal(size=d**t) + 1j * rng.normal(size=d**t)
        reg = register(d, t, amps / np.linalg.norm(amps))
        q = int(rng.integers(1, t + 1))
        for gate in (phase_gate(d, int(rng.integers(0, d))), qft_inv(d)):
            out = apply_local(reg, q, gate)
            if abs(float(np.vdot(out.amps, out.amps).real) - 1.0) > 1e-10:
                failures.append(f"norm d={d},t={t}")

    # Fourier unitarity: the matrix qft_inv applies to the basis states is unitary
    for d in range(2, 17):
        m = gate_matrix(qft_inv(d))
        if float(np.max(np.abs(m @ m.conj().T - np.eye(d)))) > 1e-10:
            failures.append(f"unitarity d={d}")

    # phase-gate commutation
    fwd = make_ghz(4, 3)
    rev = make_ghz(4, 3)
    for r, s in [(1, 3), (2, 1), (3, 2)]:
        fwd = apply_local(fwd, r, phase_gate(4, s))
    for r, s in [(3, 2), (2, 1), (1, 3)]:
        rev = apply_local(rev, r, phase_gate(4, s))
    if float(np.max(np.abs(fwd.amps - rev.amps))) > 1e-12:
        failures.append("commutation")

    # phase-accumulation identity
    for d in range(2, 9):
        for t in (2, 3, 4):
            s_vec = [int(v) for v in rng.integers(0, d, size=t)]
            reg = make_ghz(d, t)
            for r, s in enumerate(s_vec, start=1):
                reg = apply_local(reg, r, phase_gate(d, s))
            acc = apply_local(make_ghz(d, t), 1, phase_gate(d, sum(s_vec) % d))
            try:
                assert_registers_close(reg, acc, tol=1e-10)
            except AssertionError:
                failures.append(f"accumulation d={d},t={t}")

    # split invariance of the reference example
    reference = post_encoding_state(_d4_params())
    for s1, s2 in itertools.product(range(4), repeat=2):
        split = (s1, s2, (3 - s1 - s2) % 4)
        try:
            assert_registers_close(
                post_encoding_state(ProtocolParams(d=4, t=3, s_vector=split)), reference, tol=1e-12
            )
        except AssertionError:
            failures.append(f"split {split}")

    # transcript determinism, of the run and of the text simulate prints for it
    for run in (run_song_original, run_repaired_all_measure):
        argv = ["simulate", "--variant", run(_d4_params(), 444).variant,
                "--d", "4", "--s-vector", "3,0,0", "--seed", "444"]
        texts = [(cli_main(argv), capsys.readouterr().out) for _ in range(2)]
        if run(_d4_params(), 444) != run(_d4_params(), 444) or texts[0] != texts[1]:
            failures.append(f"determinism {run.__name__}")

    _verdict(
        8,
        not failures,
        "norm preservation, unitarity, commutation, accumulation, split invariance, "
        "determinism all hold" if not failures else f"failed: {failures}",
    )
