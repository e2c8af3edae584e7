"""Protocol runs: transcript shape, variant outcomes, determinism."""

import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditshare import cli, modmath, protocol
from quditshare.modmath import (
    MAX_MODULUS,
    DuplicateAbscissa,
    NotInvertible,
    SharePolynomial,
    gen_shares,
    lagrange_terms,
)
from quditshare.protocol import (
    PRODUCT_COUNTERFACTUAL,
    REPAIRED,
    SONG_ORIGINAL,
    VARIANTS,
    ProtocolParams,
    Variant,
    branch_register,
    derived_seed,
    post_encoding_state,
    run_repaired_all_measure,
    run_song_original,
)
from quditshare.qudit_sim import (
    PRUNE_TOL,
    MarginalDistribution,
    ZeroNormProjection,
    apply_local,
    inverse_cdf,
    make_ghz,
    marginal,
    measure,
    phase_gate,
    qft_inv,
)

import dense_oracle
from exact_oracle import exact_law
from register_checks import assert_registers_close, register, traced_peak


def d4_params():
    return ProtocolParams(d=4, t=3, s_vector=(3, 0, 0))


def simulate(variant, params, seed):
    """The simulate command's published document and its text for an s_vector run."""
    args = cli._parser().parse_args(["simulate", "--variant", variant, "--d", str(params.d),
                                     "--s-vector", ",".join(map(str, params.s_vector)), "--seed", str(seed)])
    doc = cli._published(args.handler(args))
    return doc, args.render(doc)


# params -----------------------------------------------------------------------

def test_params_require_exactly_one_secret_source():
    with pytest.raises(ValueError):
        ProtocolParams(d=4, t=2, s_vector=(1, 2),
                       polynomial=SharePolynomial(4, (1, 1)), abscissae=(1, 2))
    with pytest.raises(ValueError):
        ProtocolParams(d=4, t=2)
    with pytest.raises(ValueError):
        ProtocolParams(d=4, t=2, polynomial=SharePolynomial(4, (1, 1)))


def test_params_validate_s_vector():
    with pytest.raises(ValueError):
        ProtocolParams(d=4, t=2, s_vector=(1, 4))
    with pytest.raises(ValueError, match="threshold t=2 contradicts the 3-entry s_vector"):
        ProtocolParams(d=4, t=2, s_vector=(1, 2, 3))
    with pytest.raises(ValueError):
        ProtocolParams(d=4, t=1, s_vector=(1.5,))
    assert ProtocolParams(d=4, t=1, s_vector=(np.int64(3),)).expected_secret == 3


def test_params_validate_polynomial_path():
    poly = SharePolynomial(5, (3, 2))
    with pytest.raises(ValueError):
        ProtocolParams(d=7, t=2, polynomial=poly, abscissae=(1, 2))
    with pytest.raises(ValueError, match="threshold t=3 contradicts the 2-coefficient polynomial"):
        ProtocolParams(d=5, t=3, polynomial=poly, abscissae=(1, 2))
    with pytest.raises(DuplicateAbscissa):
        ProtocolParams(d=5, t=2, polynomial=poly, abscissae=(1, 1))
    with pytest.raises(ValueError, match="agent count n=5 contradicts the 2 abscissae"):
        ProtocolParams(d=5, t=2, polynomial=poly, abscissae=(1, 2), n=5)
    with pytest.raises(ValueError):
        ProtocolParams(d=5, t=2, polynomial=poly, abscissae=(1, 2.0))
    params = ProtocolParams(d=5, t=2, polynomial=poly, abscissae=(1, 2, 3))
    assert params.n == 3


def test_params_threshold_cannot_exceed_agents():
    with pytest.raises(ValueError):
        ProtocolParams(d=5, t=3, n=2, s_vector=(1, 2, 3))


def test_share_terms_polynomial_path():
    params = ProtocolParams(
        d=5, t=2, polynomial=SharePolynomial(5, (3, 2)), abscissae=(1, 2)
    )
    assert params.share_terms() == (0, 3)
    assert params.expected_secret == 3
    params7 = ProtocolParams(
        d=7, t=3, polynomial=SharePolynomial(7, (5, 3, 2)), abscissae=(1, 2, 3)
    )
    assert params7.share_terms() == (2, 6, 4)
    assert params7.expected_secret == 5


def test_share_terms_use_first_t_of_n():
    params = ProtocolParams(
        d=7, t=2, polynomial=SharePolynomial(7, (5, 3)), abscissae=(1, 2, 3, 4)
    )
    terms = params.share_terms()
    assert len(terms) == 2
    assert sum(terms) % 7 == 5


def test_share_terms_large_polynomial_sum_to_the_secret():
    d, t = 65521, 400
    rng = np.random.default_rng(400)
    coeffs = tuple(int(a) for a in rng.integers(0, d, size=t))
    xs = tuple(int(x) for x in rng.choice(np.arange(1, d), size=t + 100, replace=False))
    params = ProtocolParams(d, t, polynomial=SharePolynomial(d, coeffs), abscissae=xs)
    assert sum(params.share_terms()) % d == coeffs[0]


@st.composite
def _polynomial_params(draw):
    """A polynomial-path ProtocolParams with more agents than the threshold, n > t."""
    d = draw(st.integers(3, 40))
    n = draw(st.integers(2, d - 1))
    t = draw(st.integers(1, n - 1))
    coeffs = tuple(draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t)))
    xs = tuple(draw(st.lists(st.integers(1, d - 1), min_size=n, max_size=n, unique=True)))
    return ProtocolParams(d, t, polynomial=SharePolynomial(d, coeffs), abscissae=xs)


@settings(max_examples=80, deadline=None)
@given(params=_polynomial_params())
@example(params=ProtocolParams(MAX_MODULUS, 2, polynomial=SharePolynomial(MAX_MODULUS, (5, 3)),
                               abscissae=tuple(range(1, MAX_MODULUS))))
def test_share_terms_evaluate_only_the_participants_shares(params):
    try:
        expected = lagrange_terms(gen_shares(params.polynomial, params.abscissae)[: params.t], params.d)
    except NotInvertible as exc:
        expected = exc
    calls = []
    eval_poly = modmath.eval_poly
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modmath, "eval_poly", lambda *args: calls.append(args[1]) or eval_poly(*args))
        try:
            terms = params.share_terms()
        except NotInvertible as exc:
            terms = exc
    assert calls == list(params.abscissae[: params.t])
    # equal terms, or a NotInvertible naming the same difference
    assert repr(terms) == repr(expected)


def test_expected_secret_direct_path():
    assert d4_params().expected_secret == 3
    assert ProtocolParams(d=4, t=3, s_vector=(2, 2, 2)).expected_secret == 2


def test_not_invertible_propagates_from_polynomial_path():
    params = ProtocolParams(
        d=4, t=2, polynomial=SharePolynomial(4, (3, 2)), abscissae=(1, 3)
    )
    with pytest.raises(NotInvertible):
        run_song_original(params)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_run_derives_the_share_terms_once(monkeypatch, variant):
    calls = []
    for name in ("gen_shares", "lagrange_terms"):
        fn = getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    terms = Variant.terms
    monkeypatch.setattr(Variant, "terms",
                        lambda self, params: calls.append("terms") or terms(self, params))
    params = ProtocolParams(
        d=7, t=3, polynomial=SharePolynomial(7, (5, 3, 2)), abscissae=(1, 2, 3, 4)
    )
    assert VARIANTS[variant].run(params).expected_secret == 5
    assert calls.count("gen_shares") == 1
    assert calls.count("lagrange_terms") == 1
    assert calls.count("terms") == 1


# song-original -------------------------------------------------------------------

def test_song_original_transcript_shape():
    tr = run_song_original(d4_params(), 11)
    assert tr.variant == SONG_ORIGINAL
    # two sends, three gates, agent 1's lone measurement and no announcement
    assert simulate(SONG_ORIGINAL, d4_params(), 11)[0]["transcript"]["events"] == [
        {"type": "qudit_sent", "from": 1, "to": 2, "qudit": 2},
        {"type": "qudit_sent", "from": 1, "to": 3, "qudit": 3},
        {"type": "gate_applied", "agent": 1, "gate": "U(0,3)", "s": 3},
        {"type": "gate_applied", "agent": 2, "gate": "U(0,0)", "s": 0},
        {"type": "gate_applied", "agent": 3, "gate": "U(0,0)", "s": 0},
        {"type": "measured", "agent": 1, "basis": "fourier", "outcome": tr.outcomes[0]},
    ]
    assert tr.final_outcome == tr.outcomes[0]
    assert tr.expected_secret == 3
    assert 0 <= tr.final_outcome < 4


def test_song_original_single_agent_recovers_term():
    for d, s in [(4, 3), (5, 0), (7, 6)]:
        for seed in range(4):
            params = ProtocolParams(d=d, t=1, s_vector=(s,))
            assert run_song_original(params, seed).final_outcome == s
            assert simulate(SONG_ORIGINAL, params, seed)[0]["transcript"]["events"] == [
                {"type": "gate_applied", "agent": 1, "gate": f"U(0,{s})", "s": s},
                {"type": "measured", "agent": 1, "basis": "fourier", "outcome": s},
            ]


def test_song_original_outcome_varies_with_seed():
    outcomes = {
        run_song_original(ProtocolParams(d=2, t=2, s_vector=(0, 0)), seed).final_outcome
        for seed in range(40)
    }
    assert outcomes == {0, 1}


# product counterfactual ------------------------------------------------------------

def test_counterfactual_reference_case():
    flow = VARIANTS[PRODUCT_COUNTERFACTUAL]
    assert flow.run(ProtocolParams(4, 1, s_vector=(3,))).final_outcome == 3
    assert flow.run(ProtocolParams(5, 1, s_vector=(0,))).final_outcome == 0


def test_counterfactual_exhaustive():
    flow = VARIANTS[PRODUCT_COUNTERFACTUAL]
    for d in range(2, 13):
        for s_total in range(d):
            params = ProtocolParams(d, 1, s_vector=(s_total,))
            assert flow.run(params, d + s_total).final_outcome == s_total


def test_counterfactual_at_wide_d_builds_no_dense_gate():
    # one dense 2048 x 2048 complex gate alone would be 64 MiB
    tracemalloc.start()
    try:
        tr = VARIANTS[PRODUCT_COUNTERFACTUAL].run(ProtocolParams(2048, 1, s_vector=(1,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.final_outcome == tr.expected_secret == 1
    assert peak < 16 * 2**20


def test_counterfactual_rejects_out_of_range():
    with pytest.raises(ValueError):
        VARIANTS[PRODUCT_COUNTERFACTUAL].run(ProtocolParams(4, 1, s_vector=(4,)))


# repaired -----------------------------------------------------------------------

def test_repaired_transcript_shape_and_outcome():
    tr = run_repaired_all_measure(d4_params(), 21)
    events = simulate(REPAIRED, d4_params(), 21)[0]["transcript"]["events"]
    assert tr.variant == REPAIRED
    kinds = ["qudit_sent"] * 2 + ["gate_applied"] * 3 + ["measured", "announced"] * 3
    assert [e["type"] for e in events] == kinds
    measures = [e for e in events if e["type"] == "measured"]
    announces = [e for e in events if e["type"] == "announced"]
    assert sum(1 for e in announces if e["agent"] != 1) == 2  # usable by agent 1
    assert [e["value"] for e in announces] == [e["outcome"] for e in measures] == list(tr.outcomes)
    assert tr.final_outcome == sum(e["value"] for e in announces) % 4


def test_repaired_always_recovers_secret():
    for seed in range(60):
        tr = run_repaired_all_measure(d4_params(), seed)
        assert tr.final_outcome == tr.expected_secret == 3
    for seed in range(20):
        tr = run_repaired_all_measure(ProtocolParams(d=2, t=2, s_vector=(1, 0)), seed)
        assert tr.final_outcome == tr.expected_secret == 1


def test_repaired_run_samples_the_joint_law():
    # the announced tuples of 3,000 seeded runs against the dense oracle's joint law
    params, runs = ProtocolParams(d=3, t=3, s_vector=(2, 1, 1)), 3000
    expected = _joint_oracle(params, range(1, 4))
    counts = np.zeros_like(expected)
    for seed in range(runs):
        tr = run_repaired_all_measure(params, seed)
        assert tr.final_outcome == tr.expected_secret == 1
        counts[tr.outcomes] += 1
    support = expected > 1e-12
    assert counts[~support].sum() == 0
    assert scipy.stats.chisquare(counts[support], expected[support] * runs).pvalue > 1e-3


def test_repaired_single_agent():
    tr = run_repaired_all_measure(ProtocolParams(d=5, t=1, s_vector=(4,)), 2)
    assert tr.final_outcome == 4


# registry against the dense oracle ---------------------------------------------------

def _dense_encoding(params):
    """The encoded register as a flat vector: the GHZ state and each share's phase matrix."""
    d, t = params.d, params.t
    amps = dense_oracle.ghz(d, t)
    for r, s_r in enumerate(params.share_terms(), start=1):
        amps = dense_oracle.apply(amps, d, t, r, dense_oracle.phase(d, s_r))
    return amps


def _lone_oracle(params):
    return _joint_oracle(params, (1,))


def _product_oracle(params):
    return _joint_oracle(ProtocolParams(params.d, 1, s_vector=(params.expected_secret,)), (1,))


def _all_measure_oracle(params):
    joint = _joint_oracle(params, range(1, params.t + 1))
    return np.bincount(np.indices(joint.shape).sum(axis=0).ravel() % params.d, joint.ravel(), params.d)


def _flow_params(flow, params):
    """The register a flow runs on: one qudit per phase term that it resolves."""
    terms = flow.terms(params)
    return ProtocolParams(params.d, len(terms), s_vector=terms)


def _joint_oracle(params, measured):
    """Joint law of the measured qudits' results, one axis per measurer, on the dense oracle."""
    d, t = params.d, params.t
    amps = _dense_encoding(params)
    for r in measured:
        amps = dense_oracle.apply(amps, d, t, r, dense_oracle.fourier_inv(d))
    return dense_oracle.probs(amps, d, t, measured)


ORACLES = {
    SONG_ORIGINAL: _lone_oracle,
    PRODUCT_COUNTERFACTUAL: _product_oracle,
    REPAIRED: _all_measure_oracle,
}


@st.composite
def s_vector_params(draw, d_cap=64):
    # every (d, t) with d^t <= 4096; d <= 64 keeps the dense d x d gates cheap
    t = draw(st.integers(1, 12))
    d_max = 2
    while (d_max + 1) ** t <= 4096 and d_max < d_cap:
        d_max += 1
    d = draw(st.integers(2, d_max))
    s_vec = draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t))
    return ProtocolParams(d=d, t=t, s_vector=tuple(s_vec))


def test_every_variant_has_an_oracle():
    assert set(VARIANTS) == set(ORACLES)


@settings(max_examples=60, deadline=None)
@given(params=s_vector_params())
def test_registry_distribution_matches_dense_oracle(params):
    for name, flow in VARIANTS.items():
        probs = flow.distribution(params).probs
        oracle = ORACLES[name](params)
        assert np.max(np.abs(probs - oracle)) <= 1e-12, name
        flow_params = _flow_params(flow, params)
        measured = range(1, flow_params.t + 1 if flow.all_measure else 2)
        if not flow.all_measure:
            # the lone measurer is the library register's marginal
            reg = apply_local(post_encoding_state(flow_params), 1, qft_inv(params.d))
            assert np.max(np.abs(probs - marginal(reg, 1).probs)) <= 1e-12, name
            if flow_params.t >= 2:
                # entangled with t-1 others, it sees the branches dephased: every outcome alike
                assert np.all(probs == probs[0]), name
        # the measurers' joint law (the flow's register with every measurer
        # Fourier-inverted, summed over the unmeasured qudits) is
        # law[sum m mod d] / d^(measurers - 1), the law run samples
        expected = _joint_oracle(flow_params, measured)
        digit_sums = np.indices(expected.shape).sum(axis=0) % params.d
        assert np.max(np.abs(probs[digit_sums] / params.d ** (len(measured) - 1) - expected)) <= 1e-12, name


@settings(max_examples=40, deadline=None)
@given(params=s_vector_params(d_cap=16))
@example(params=ProtocolParams(d=12, t=3, s_vector=(5, 7, 11)))
@example(params=ProtocolParams(d=16, t=3, s_vector=(9, 0, 15)))
@example(params=ProtocolParams(d=6, t=4, s_vector=(1, 2, 3, 4)))
def test_registry_distribution_matches_exact_oracle(params):
    # the theorem, as an equality in Z[w]: a lone measurer entangled with others
    # reads every outcome with probability exactly 1/d, any other flow reads S
    for name, flow in VARIANTS.items():
        terms = flow.terms(params)
        measured = tuple(range(len(terms))) if flow.all_measure else (0,)
        law = exact_law(params.d, terms, measured)
        if not flow.all_measure and len(terms) >= 2:
            assert law == [Fraction(1, params.d)] * params.d, name
        else:
            assert law == [Fraction(int(f == params.expected_secret)) for f in range(params.d)], name
        probs = flow.distribution(params).probs
        assert np.max(np.abs(probs - np.array(law, dtype=float))) <= 1e-12, name


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_sweep_splits_cover_every_term_vector(variant):
    # the sweep's claim, bit for bit: on its grid every term vector's law is the
    # law of its secret's split (S, 0, ..., 0)
    flow = VARIANTS[variant]
    for d, t in itertools.product(range(2, 9), range(1, 5)):
        split = [flow.distribution(ProtocolParams(d, t, s_vector=(secret,) + (0,) * (t - 1))).probs
                 for secret in range(d)]
        for s in itertools.product(range(d), repeat=t):
            assert np.array_equal(flow.distribution(ProtocolParams(d, t, s_vector=s)).probs,
                                  split[sum(s) % d]), (d, s)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_sweep_structured_bytes_match_the_dense_oracle(monkeypatch, capsys, variant):
    # published at 12 significant digits, the sweep does not depend on the gate backend:
    # the table is the same with this variant's laws taken from the dense oracle
    argv = ["sweep", "--format", "structured"]
    assert cli.main(argv) == 0
    library = capsys.readouterr().out
    law = Variant.distribution
    monkeypatch.setattr(Variant, "distribution", lambda self, params: (
        MarginalDistribution(ORACLES[variant](params)) if self.name == variant else law(self, params)))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == library


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_distribution_at_the_cap_builds_no_register(variant):
    # one 2048^2-amplitude register alone would be 64 MiB
    params = ProtocolParams(2048, 2, s_vector=(5, 7))
    for step in ("distribution", "run"):
        # a first run in the process imports numpy's random module (~0.85 MiB); warm it at d=2
        getattr(VARIANTS[variant], step)(ProtocolParams(2, 2, s_vector=(1, 0)))
        tracemalloc.start()
        try:
            result = getattr(VARIANTS[variant], step)(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, step
    probs = VARIANTS[variant].distribution(params).probs
    expected = 1 / 2048 if variant == SONG_ORIGINAL else 1.0
    assert abs(probs[params.expected_secret] - expected) <= 1e-12
    if variant != SONG_ORIGINAL:
        assert result.final_outcome == params.expected_secret


# draw -------------------------------------------------------------------------------

@pytest.mark.parametrize("variant", list(VARIANTS))
def test_every_library_table_draws(variant):
    flow = VARIANTS[variant]
    rng = np.random.default_rng(9)
    for d in range(2, 513):
        t = 1
        while d**t <= 512:
            params = ProtocolParams(d, t, s_vector=tuple(int(v) for v in rng.integers(0, d, size=t)))
            outcomes = inverse_cdf(flow.distribution(params).probs, rng.random(5))
            assert outcomes.shape == (5,), (d, t)
            t += 1


LONE_MEASURERS = [name for name, flow in VARIANTS.items() if not flow.all_measure]


@settings(max_examples=40, deadline=None)
@given(params=s_vector_params(), seed=st.integers(0, 2**32), variant=st.sampled_from(LONE_MEASURERS))
def test_lone_draw_matches_measure(params, seed, variant):
    # pins song-original and product-counterfactual transcripts to measure's sampling
    flow = VARIANTS[variant]
    reg = apply_local(post_encoding_state(_flow_params(flow, params)), 1, qft_inv(params.d))
    outcome = measure(reg, 1, np.random.default_rng(seed))[0]
    assert inverse_cdf(flow.distribution(params).probs, np.random.default_rng(seed).random()) == outcome
    assert flow.run(params, seed).final_outcome == outcome


class ConstantRng:
    """Stub generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def _law_of(flow, reg):
    """The final-outcome law flow reads off reg once its measurers are inverted: the digit sum's."""
    if not flow.all_measure:
        return marginal(reg, 1).probs
    table = np.abs(reg.amps.reshape((reg.d,) * reg.t)) ** 2
    return np.bincount((np.indices(table.shape).sum(axis=0) % reg.d).ravel(), table.ravel(), reg.d)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_draw_largest_uniform_stays_on_supported_branch(variant):
    # qudit 1 is (|0> + |1>)/sqrt 2, qudit 2 is |1>: the law's top sits just below 1
    amps = np.kron(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), [0.0, 1.0, 0.0])
    flow = VARIANTS[variant]
    law = _law_of(flow, register(3, 2, amps))
    assert np.cumsum(law)[-1] < 1.0
    outcomes = inverse_cdf(law, ConstantRng(float(np.nextafter(1.0, 0.0))).random(3))
    assert outcomes.shape == (3,)
    assert all(law[outcomes] > 0.4)
    # qudit 1 reads 1, the last supported branch: alone, or summed with qudit 2's 1
    assert (outcomes == (2 if flow.all_measure else 1)).all()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_draw_uniform_past_one_raises(variant):
    law = _law_of(VARIANTS[variant], register(2, 2, np.array([1.0, 0.0, 0.0, 0.0])))
    with pytest.raises(ZeroNormProjection):
        inverse_cdf(law, ConstantRng(1.0).random(1))


def test_draw_uniform_zero_lands_on_a_supported_branch():
    # the FFT leaves dust on the outcomes below the secret; a draw of 0.0 must pass over it
    for flow, d, t in itertools.product(VARIANTS.values(), range(2, cli.SWEEP_D_MAX + 1),
                                        range(1, cli.SWEEP_T_MAX + 1)):
        for secret in range(d):
            law = flow.distribution(ProtocolParams(d=d, t=t, s_vector=(secret,) + (0,) * (t - 1))).probs
            outcome = inverse_cdf(law, ConstantRng(0.0).random(1))
            assert law[outcome] >= PRUNE_TOL, (flow.name, d, t, secret)


# post-encoding state ----------------------------------------------------------------

def test_post_encoding_all_zero_terms_is_ghz():
    reg = post_encoding_state(ProtocolParams(d=5, t=3, s_vector=(0, 0, 0)))
    assert_registers_close(reg, make_ghz(5, 3), tol=1e-14)


def test_post_encoding_state_is_the_ghz_and_phase_chain():
    # The encoding sums integer exponents, so at every t it is the one gate of the summed
    # term bit for bit. The chain of t float gates rounds once per gate, so past t = 1 it
    # is matched to the oracle bound.
    rng = np.random.default_rng(5)
    for d in range(2, 17):
        t = 1
        while d**t <= 4096:
            s_vec = tuple(int(v) for v in rng.integers(0, d, size=t))
            collapsed = apply_local(make_ghz(d, 1), 1, phase_gate(d, sum(s_vec) % d))
            assert np.array_equal(branch_register(d, s_vec).amps, collapsed.amps), (d, t)
            reg = make_ghz(d, t)
            for r, s_r in enumerate(s_vec, start=1):
                reg = apply_local(reg, r, phase_gate(d, s_r))
            encoded = post_encoding_state(ProtocolParams(d, t, s_vector=s_vec))
            if t == 1:
                assert np.array_equal(encoded.amps, reg.amps), d
            assert_registers_close(encoded, reg, tol=1e-12)
            t += 1


def test_branch_register_is_bit_exact_at_wide_shapes():
    # The exponent vector is reduced mod d once, after the last term; its int64 sums stay
    # exact while t*(d-1)^2 < 2^63, so the amplitudes match the per-term-reduced sum bit for bit.
    rng = np.random.default_rng(37)
    for d, t in [(65521, 800), (65536, 2000)]:
        terms = tuple(int(v) for v in rng.integers(0, d, size=t))
        k = np.arange(d, dtype=np.int64)
        e = np.zeros(d, dtype=np.int64)
        for s_r in terms:
            e = (e + s_r * k) % d
        expected = (1.0 / np.sqrt(d)) * np.exp(2j * np.pi * e / d)
        assert np.array_equal(branch_register(d, terms).values, expected), (d, t)


def test_post_encoding_equals_accumulated_phase():
    rng = np.random.default_rng(3)
    for d, t in [(2, 2), (4, 3), (6, 2), (8, 4)]:
        s_vec = tuple(int(v) for v in rng.integers(0, d, size=t))
        reg = post_encoding_state(ProtocolParams(d=d, t=t, s_vector=s_vec))
        acc = apply_local(make_ghz(d, t), 1, phase_gate(d, sum(s_vec) % d))
        assert_registers_close(reg, acc, tol=1e-10)


def test_post_encoding_state_writes_its_register_once():
    params = ProtocolParams(8, 6, s_vector=(3, 1, 4, 1, 5, 2))
    peak = traced_peak(post_encoding_state, params)
    assert peak <= 1.1 * post_encoding_state(params).amps.nbytes


# secrecy certificate ----------------------------------------------------------------
# Before any announcement, every coalition A of fewer than t agents holds
# rho_A = sum_j (1/d)|j...j><j...j|, the same state for every secret, so no
# measurement by A beats a guess (the threshold property of Cleve, Gottesman
# and Lo, PRL 83, 648, 1999).

def _coalitions(t):
    """Every coalition of 1..t-1 qudits, 0-based."""
    return [a for size in range(1, t) for a in itertools.combinations(range(t), size)]


def _secret_params(d, t, secret, rng):
    """A seeded s-vector whose terms sum to secret mod d."""
    head = [int(v) for v in rng.integers(0, d, size=t - 1)]
    return ProtocolParams(d, t, s_vector=(*head, (secret - sum(head)) % d))


def test_every_coalition_holds_the_same_dephased_state():
    rng = np.random.default_rng(19)
    for d in range(2, 8):
        for t in range(2, 5):
            for secret in range(d):
                psi = post_encoding_state(_secret_params(d, t, secret, rng)).amps.reshape((d,) * t)
                for a in _coalitions(t):
                    rest = [q for q in range(t) if q not in a]
                    m = np.transpose(psi, (*a, *rest)).reshape(d ** len(a), -1)
                    expected = np.zeros((d ** len(a),) * 2)
                    on_diagonal = np.arange(d) * sum(d**i for i in range(len(a)))
                    expected[on_diagonal, on_diagonal] = 1 / d
                    gap = np.max(np.abs(m @ m.conj().T - expected))
                    assert gap <= 1e-12, (d, t, secret, a, gap)


def test_every_coalition_reads_a_uniform_sum_exactly():
    rng = np.random.default_rng(23)
    for d in range(2, 6):
        for t in range(2, 5):
            for _ in range(2):
                terms = tuple(int(v) for v in rng.integers(0, d, size=t))
                for a in _coalitions(t):
                    assert exact_law(d, terms, a) == [Fraction(1, d)] * d, (d, terms, a)


def test_repaired_announcements_hide_the_secret_until_the_last():
    # the all-announce flow's joint law is law[sum m mod d] / d^(t-1), so any
    # t-1 announced results are uniform whatever the secret
    rng = np.random.default_rng(29)
    for d in range(2, 8):
        for t in range(2, 5):
            for secret in range(d):
                reg = post_encoding_state(_secret_params(d, t, secret, rng))
                for r in range(1, t + 1):
                    reg = apply_local(reg, r, qft_inv(d))
                joint = (np.abs(reg.amps) ** 2).reshape((d,) * t)
                for left_out in range(t):
                    gap = np.max(np.abs(joint.sum(axis=left_out) - d ** -(t - 1)))
                    assert gap <= 1e-12, (d, t, secret, left_out, gap)


# determinism / serialization -----------------------------------------------------------

@pytest.mark.parametrize("run", [run_song_original, run_repaired_all_measure])
def test_transcript_determinism(run):
    a = run(d4_params(), 77)
    assert a == run(d4_params(), 77)
    assert simulate(a.variant, d4_params(), 77) == simulate(a.variant, d4_params(), 77)


def test_transcript_serialization_round_trip():
    tr = run_repaired_all_measure(d4_params(), 13)
    doc, text = simulate(REPAIRED, d4_params(), 13)
    assert json.loads(json.dumps(doc)) == doc
    assert text.endswith(f"expected secret: {tr.expected_secret}\noutcome == secret: yes\n")
    assert f"final outcome: {tr.final_outcome}" in text
    assert text.count("announce:") == 3


@settings(max_examples=60, deadline=None)
@given(params=s_vector_params(), seed=st.integers(0, 2**32), variant=st.sampled_from(list(VARIANTS)))
def test_transcript_renders_its_terms_and_outcomes(params, seed, variant):
    flow = VARIANTS[variant]
    tr = flow.run(params, seed)
    doc, text = simulate(variant, params, seed)
    t, events = tr.t, doc["transcript"]["events"]
    assert tr.terms == flow.terms(params)
    assert len(tr.outcomes) == (t if flow.all_measure else 1)
    # every event line pairs with its record, in order and of the same kind
    kinds = {"send": "qudit_sent", "gate": "gate_applied", "measure": "measured", "announce": "announced"}
    assert [kinds[line.split(":")[0]] for line in text.splitlines()[1:-3]] == [e["type"] for e in events]
    by_kind = {kind: [e for e in events if e["type"] == kind] for kind in kinds.values()}
    sends = [(e["from"], e["to"], e["qudit"]) for e in by_kind["qudit_sent"]]
    assert sends == [(1, r, r) for r in range(2, t + 1)]
    assert [(e["agent"], e["s"]) for e in by_kind["gate_applied"]] == list(enumerate(tr.terms, start=1))
    assert [(e["agent"], e["outcome"]) for e in by_kind["measured"]] == list(enumerate(tr.outcomes, start=1))
    announced = [(e["agent"], e["value"]) for e in by_kind["announced"]]
    assert announced == (list(enumerate(tr.outcomes, start=1)) if flow.all_measure else [])
    assert tr.final_outcome == sum(tr.outcomes) % params.d


def test_derived_seed_is_stable_and_order_independent():
    assert derived_seed(5, 0) == derived_seed(5, 0)
    assert derived_seed(5, 0) != derived_seed(5, 1)
    assert derived_seed(6, 0) != derived_seed(5, 0)
