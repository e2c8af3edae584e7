"""Reference-example reproduction, success statistics, amplitude tables."""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditshare import cli, protocol
from quditshare.analysis import (
    MC_CHUNK,
    MC_Z,
    REF_PARAMS,
    REF_TRIALS,
    ExampleReport,
    amplitude_table,
    outcome_marginal,
    repaired_success_probability_exact,
    reproduce_example_d4,
    success_probability_exact,
    success_probability_mc,
    verify_reference_states,
    wilson_interval,
)
from quditshare.cli import published
from quditshare.modmath import MAX_MODULUS
from quditshare.protocol import (
    PRODUCT_COUNTERFACTUAL,
    REPAIRED,
    SONG_ORIGINAL,
    VARIANTS,
    ProtocolParams,
    post_encoding_state,
)
from quditshare.qudit_sim import (
    DEFAULT_SIZE_CAP,
    PRUNE_TOL,
    SizeCapExceeded,
    apply_local,
    inverse_cdf,
    make_ghz,
    measure,
    qft_inv,
)

from register_checks import register, sparse_registers, traced_peak


def d4_params():
    return ProtocolParams(d=4, t=3, s_vector=(3, 0, 0))


def table_lines(table):
    """The table's rows as the example command prints them."""
    return cli._table_lines("table", cli._published(cli._table(table)))[1:]


def example_command(seed=None):
    """The example command's document, before publication, and its text."""
    args = cli._parser().parse_args(["example"] + ([] if seed is None else ["--seed", str(seed)]))
    doc = args.handler(args)
    return doc, args.render(cli._published(doc))


# amplitude_table ------------------------------------------------------------

def test_amplitude_table_ghz_pair():
    table = amplitude_table(make_ghz(2, 2))
    assert [row[0] for row in table.rows] == ["00", "11"]
    for _, re, im in table.rows:
        assert re == pytest.approx(0.7071067811865476, abs=1e-15)
        assert im == pytest.approx(0.0, abs=1e-15)
    assert table.norm_check == pytest.approx(1.0, abs=1e-9)
    assert table_lines(table)[0].strip() == "00  +0.707106781187+0i"


def test_amplitude_table_reference_encoded_state():
    encoded, _ = verify_reference_states()
    table = amplitude_table(encoded)
    assert [row[0] for row in table.rows] == ["000", "111", "222", "333"]
    values = [complex(re, im) for _, re, im in table.rows]
    np.testing.assert_allclose(values, [0.5, -0.5j, -0.5, 0.5j], atol=1e-12)
    # display snaps float dust to zero, structured rows keep raw values
    assert [line.split(maxsplit=1)[1] for line in table_lines(table)] == [
        "+0.5+0i",
        "+0-0.5i",
        "-0.5+0i",
        "+0+0.5i",
    ]


def test_amplitude_table_reference_transformed_branch():
    _, transformed = verify_reference_states()
    table = amplitude_table(transformed)
    assert len(table.rows) == 16
    branch = {row[0]: complex(row[1], row[2]) for row in table.rows if row[0].endswith("11")}
    np.testing.assert_allclose(
        [branch[f"{j}11"] for j in range(4)],
        np.array([-1j, -1, 1j, 1]) / 4.0,
        atol=1e-12,
    )


def test_amplitude_table_prunes_collapsed_state():
    outcome, post = measure(make_ghz(3, 2), 1, np.random.default_rng(1))
    table = amplitude_table(post)
    assert len(table.rows) == 1
    assert table.rows[0][0] == f"{outcome}{outcome}"
    assert table.norm_check == pytest.approx(1.0, abs=1e-9)


def _loop_amplitude_table(reg):
    rows, total = [], 0.0
    for i, a in enumerate(reg.amps):
        mag = abs(a)
        if mag < PRUNE_TOL:
            continue
        digits = [str(int(k)) for k in np.unravel_index(i, (reg.d,) * reg.t)]
        label = "".join(digits) if reg.d <= 10 else ".".join(digits)
        rows.append((label, float(a.real), float(a.imag)))
        total += mag * mag
    return tuple(rows), total


@st.composite
def _transformed_encodings(draw):
    """post_encoding_state of drawn terms, then the Fourier gate on a drawn qudit."""
    t = draw(st.integers(1, 4))
    d = draw(st.integers(2, 9).filter(lambda d: d**t <= 4096))
    terms = tuple(draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t)))
    return apply_local(post_encoding_state(ProtocolParams(d, t, s_vector=terms)), draw(st.integers(1, t)), qft_inv(d))


def _spread(d, t, entries):
    """The normalised register with amplitude entries[i] at flat index i, 0 elsewhere."""
    amps = np.zeros(d**t, dtype=np.complex128)
    amps[list(entries)] = list(entries.values())
    return register(d, t, amps / np.linalg.norm(amps))


@settings(max_examples=60, deadline=None)
@given(reg=st.one_of(sparse_registers(), _transformed_encodings()))
# the label formats' edges (a digit 9 at d=10, a digit 10 at d=11, one qudit), a kept
# subset of the support, and a dozen unequal rows, which numpy's unrolled sum adds in
# another order than the scalar loop
@example(reg=_spread(10, 2, {i: np.exp(1j * i) * (1 + 1 / (i + 1)) for i in range(0, 100, 9)}))
@example(reg=_spread(11, 2, {i: np.exp(1j * i) * (1 + 1 / (i + 1)) for i in range(0, 121, 10)}))
@example(reg=_spread(5, 1, {1: 0.6, 3: 0.8j}))
@example(reg=_spread(3, 2, {0: 1.0, 4: 1e-14, 8: -1.0}))
def test_amplitude_table_matches_plain_loop(reg):
    # the table reads reg.values as Python complex numbers, the loop reg.amps as numpy scalars
    rows, total = _loop_amplitude_table(reg)
    table = amplitude_table(reg)
    assert table.rows == rows
    assert table.norm_check.hex() == total.hex()


def test_amplitude_table_builds_no_register_sized_temporary():
    encoded = post_encoding_state(ProtocolParams(8, 6, s_vector=(3, 1, 4, 1, 5, 2)))
    reg = apply_local(encoded, 1, qft_inv(8))
    assert len(amplitude_table(reg).rows) == 8 * 8
    assert traced_peak(amplitude_table, reg) <= 0.25 * reg.amps.nbytes


def test_amplitude_table_reads_only_the_support():
    # the 64 candidates come from the register's support, so no temporary scales with d^t
    encoded = post_encoding_state(ProtocolParams(8, 6, s_vector=(3, 1, 4, 1, 5, 2)))
    reg = apply_local(encoded, 1, qft_inv(8))
    assert traced_peak(amplitude_table, reg) <= 0.01 * reg.amps.nbytes


def _encoded_transformed_table(params):
    return amplitude_table(apply_local(post_encoding_state(params), 1, qft_inv(params.d)))


@pytest.mark.parametrize("params", [ProtocolParams(8, 6, s_vector=(3, 1, 4, 1, 5, 2)),
                                    ProtocolParams(2, 22, s_vector=(1, 0) * 11)], ids=["d8-t6", "at-the-cap"])
def test_encode_transform_table_builds_no_register(params):
    # registers hold only their support and values: d amplitudes encoded, d^2 transformed
    assert len(_encoded_transformed_table(params).rows) == params.d**2
    assert traced_peak(_encoded_transformed_table, params) <= 0.01 * 16 * params.d**params.t


def test_amplitude_table_dict_round_trip():
    table = amplitude_table(make_ghz(2, 2))
    doc = cli._table(table)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["rows"][0][1] == 1.0 / np.sqrt(2.0)  # raw value; main publishes it as it writes
    assert cli._published(doc)["rows"][0][1] == 0.707106781187


# exact statistics -----------------------------------------------------------

def test_outcome_marginal_reference_is_uniform():
    probs = outcome_marginal(d4_params()).probs
    np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-12)


def test_success_probability_exact_reference():
    assert success_probability_exact(d4_params()) == pytest.approx(0.25, abs=1e-12)


def test_success_probability_exact_qubit_pair_all_vectors():
    for s_vec in itertools.product(range(2), repeat=2):
        params = ProtocolParams(d=2, t=2, s_vector=s_vec)
        assert success_probability_exact(params) == pytest.approx(0.5, abs=1e-12)


def test_success_probability_exact_single_agent():
    assert success_probability_exact(
        ProtocolParams(d=6, t=1, s_vector=(4,))
    ) == pytest.approx(1.0, abs=1e-12)


def test_repaired_success_probability_exact():
    for d, t in [(2, 2), (3, 2), (4, 3), (5, 2)]:
        rng = np.random.default_rng(d * 10 + t)
        s_vec = tuple(int(v) for v in rng.integers(0, d, size=t))
        params = ProtocolParams(d=d, t=t, s_vector=s_vec)
        assert repaired_success_probability_exact(params) == pytest.approx(1.0, abs=1e-9)


def test_exact_analysis_at_the_amplitude_cap():
    params = ProtocolParams(d=2048, t=2, s_vector=(5, 2046))
    assert params.d**params.t == DEFAULT_SIZE_CAP
    assert abs(success_probability_exact(params) - 1 / 2048) <= 1e-12
    assert abs(repaired_success_probability_exact(params) - 1.0) <= 1e-12


def test_every_variant_past_the_old_cap():
    # d^t = 2^64 amplitudes, past int64: every law and run allocates only the d branch amplitudes
    params = ProtocolParams(MAX_MODULUS, 4, s_vector=(1, 2, 3, MAX_MODULUS - 1))
    # a first run in the process imports numpy's random module (~0.85 MiB); warm it at d=2
    VARIANTS[REPAIRED].run(ProtocolParams(2, 2, s_vector=(1, 0)))
    tracemalloc.start()
    try:
        song = success_probability_exact(params)
        repaired = repaired_success_probability_exact(params)
        product = VARIANTS[PRODUCT_COUNTERFACTUAL].distribution(params).probs[params.expected_secret]
        runs = {name: flow.run(params, 7) for name, flow in VARIANTS.items()}
        estimate, _ = success_probability_mc(params, trials=1000, seed=3, variant=REPAIRED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert abs(song - 1 / MAX_MODULUS) <= 1e-12
    assert abs(repaired - 1.0) <= 1e-12
    assert abs(product - 1.0) <= 1e-12
    for name in (REPAIRED, PRODUCT_COUNTERFACTUAL):
        assert runs[name].final_outcome == params.expected_secret == 5
    assert estimate == 1.0
    with pytest.raises(SizeCapExceeded):  # np.zeros(2**64) would raise a plain ValueError
        post_encoding_state(params)


# Monte Carlo ------------------------------------------------------------------

def test_mc_within_four_stderr_of_exact():
    estimate, interval = success_probability_mc(d4_params(), trials=2000, seed=42)
    assert interval == wilson_interval(round(estimate * 2000), 2000)
    assert abs(estimate - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 2000)  # sigma from the exact p


def test_mc_reproducible_and_order_independent_per_seed():
    a = success_probability_mc(d4_params(), trials=300, seed=9)
    b = success_probability_mc(d4_params(), trials=300, seed=9)
    assert a == b
    c = success_probability_mc(d4_params(), trials=300, seed=10)
    assert a != c


def test_mc_single_agent_is_exact():
    estimate, (lo, hi) = success_probability_mc(
        ProtocolParams(d=5, t=1, s_vector=(2,)), trials=50, seed=1
    )
    assert estimate == 1.0
    assert hi == 1.0 and lo < 1.0


def _textbook_wilson(hits, trials):
    p, q = hits / trials, MC_Z * MC_Z
    centre = (p + q / (2 * trials)) / (1 + q / trials)
    half = MC_Z / (1 + q / trials) * math.sqrt(p * (1 - p) / trials + q / (4 * trials * trials))
    return centre - half, centre + half


@pytest.mark.parametrize("trials", [1, 10, 250, 2000, 9999, 10_000])
def test_wilson_interval_ends_are_exact(trials):
    # the textbook centre +- half-width gives hi = 0.9999999999999998 and lo = 8.7e-19 at 250 trials
    for hits in range(trials + 1):
        lo, hi = wilson_interval(hits, trials)
        assert 0.0 <= lo <= hits / trials <= hi <= 1.0
        assert (lo == 0.0) == (hits == 0) and (hi == 1.0) == (hits == trials)
        assert (lo, hi) == pytest.approx(_textbook_wilson(hits, trials), abs=1e-15)
    estimate, (lo, hi) = success_probability_mc(ProtocolParams(d=5, t=1, s_vector=(2,)), trials, seed=1)
    assert (estimate, hi) == (1.0, 1.0) and 0.0 < lo < 1.0


@pytest.mark.parametrize(("d", "trials"), [(4, 400), (7, 250)])
def test_mc_interval_covers_the_exact_p(d, trials):
    # Seeds 0..999, each one estimate of p = 1/d. The interval's exact binomial coverage is
    # 0.943 (d=4, 400 trials) and 0.954 (d=7, 250 trials), and the covered share of 1,000
    # independent estimates has a standard deviation below 0.0074: 0.91 is over 4 of them below.
    params = ProtocolParams(d=d, t=3, s_vector=(1, 0, 0))
    intervals = [success_probability_mc(params, trials, seed)[1] for seed in range(1000)]
    assert sum(lo <= 1 / d <= hi for lo, hi in intervals) / 1000 >= 0.91


def test_mc_repaired_variant_is_exact():
    estimate, _ = success_probability_mc(d4_params(), trials=300, seed=4, variant=REPAIRED)
    assert estimate == 1.0


@st.composite
def _mc_case(draw):
    d = draw(st.integers(2, 16))
    t = draw(st.integers(1, 4).filter(lambda t: d**t <= 512))
    s = draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t))
    return ProtocolParams(d=d, t=t, s_vector=tuple(s))


@settings(max_examples=50, deadline=None)
@given(
    params=_mc_case(),
    trials=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    variant=st.sampled_from(list(VARIANTS)),
)
def test_mc_matches_consecutive_draws_on_one_stream(params, trials, seed, variant):
    law = VARIANTS[variant].distribution(params).probs
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        hits += int(inverse_cdf(law, rng.random())) == params.expected_secret
    assert success_probability_mc(params, trials, seed, variant)[0] == hits / trials


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_mc_chunked_run_matches_one_draw(variant):
    params, trials = d4_params(), MC_CHUNK + 3
    law = VARIANTS[variant].distribution(params).probs
    outcomes = inverse_cdf(law, np.random.default_rng(8).random(trials))
    hits = np.count_nonzero(outcomes == params.expected_secret)
    assert success_probability_mc(params, trials, 8, variant)[0] == hits / trials


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_mc_prepares_the_register_once(monkeypatch, variant):
    calls = []

    def counting_make_ghz(d, t):
        calls.append((d, t))
        return make_ghz(d, t)

    monkeypatch.setattr(protocol, "make_ghz", counting_make_ghz)
    success_probability_mc(d4_params(), trials=25, seed=3, variant=variant)
    assert len(calls) == 1


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_mc_builds_the_outcome_table_once(monkeypatch, variant):
    # the table an estimate reads is the variant's final-outcome law
    calls = []
    distribution = protocol.Variant.distribution

    def counting_distribution(self, *args):
        calls.append(self.name)
        return distribution(self, *args)

    monkeypatch.setattr(protocol.Variant, "distribution", counting_distribution)
    success_probability_mc(d4_params(), trials=2 * MC_CHUNK + 1, seed=3, variant=variant)
    assert calls == [variant]


def test_mc_validates_arguments():
    with pytest.raises(ValueError):
        success_probability_mc(d4_params(), trials=0)
    with pytest.raises(ValueError):
        success_probability_mc(d4_params(), trials=10, variant="nope")


# publication rule ----------------------------------------------------------------

def test_published_snaps_dust_to_a_positive_zero():
    for dust in (-9.184850993605148e-17, 6.123233995736766e-17, -PRUNE_TOL / 2, -0.0):
        assert math.copysign(1.0, published(dust)) == 1.0 and published(dust) == 0.0
    assert published(PRUNE_TOL) == PRUNE_TOL


@pytest.mark.parametrize("x", [1 / 3, -2 / 3, 0.1 + 0.2, 0.2442, 1e-5 / 3, 2 / 7 * 1e6, 0.9999999999999998])
def test_published_keeps_twelve_digits_as_the_text_prints(x):
    assert published(x) == float(f"{x:.12g}") == published(published(x))
    assert f"{published(x):.12g}" == f"{x:.12g}"
    assert published(x) == pytest.approx(x, rel=1e-12)


# reference example report --------------------------------------------------------

def test_reference_report_values():
    report = reproduce_example_d4(seed=7)
    doc, _ = example_command(seed=7)
    assert doc["exact_p"] == pytest.approx(0.25, abs=1e-12)
    assert doc["exact_p"] == report.marginal[REF_PARAMS.expected_secret]
    assert report.marginal == pytest.approx((0.25,) * 4, abs=1e-12)
    assert len(report.encoded_table.rows) == 4
    assert len(report.transformed_table.rows) == 16
    assert (report.mc_estimate, report.mc_interval) == success_probability_mc(REF_PARAMS, REF_TRIALS, 7)
    assert doc["mc"]["trials"] == REF_TRIALS == 10_000
    assert abs(report.mc_estimate - 0.25) < 4 * math.sqrt(0.25 * 0.75 / REF_TRIALS)
    assert "uniform" in doc["verdict"]


def test_reference_report_reads_the_registry_law():
    # the example reports the song-original variant's own law, bit for bit
    report = reproduce_example_d4()
    law = VARIANTS[SONG_ORIGINAL].distribution(d4_params()).probs
    assert report.marginal == tuple(float(p) for p in law)
    assert example_command()[0]["exact_p"] == float(law[REF_PARAMS.expected_secret])


def test_reference_report_keeps_only_what_it_computed():
    assert [f.name for f in dataclasses.fields(ExampleReport)] == [
        "encoded_table", "transformed_table", "marginal", "mc_estimate", "mc_interval",
    ]
    assert REF_PARAMS == d4_params()


def test_reference_example_builds_no_params(monkeypatch):
    built = []
    post_init = ProtocolParams.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ProtocolParams, "__post_init__", counting)
    reproduce_example_d4()
    assert built == []


def test_reference_report_byte_identical_per_seed():
    assert reproduce_example_d4(seed=3) == reproduce_example_d4(seed=3)
    (doc_a, text_a), (doc_b, text_b) = example_command(seed=3), example_command(seed=3)
    assert text_a == text_b
    assert json.dumps(doc_a) == json.dumps(doc_b)


def test_reference_report_structured_round_trip():
    doc = cli._published(example_command(seed=5)[0])
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {
        "params", "encoded_table", "transformed_table", "marginal", "exact_p", "mc", "verdict",
    }
    assert set(doc["mc"]) == {"trials", "seed", "estimate", "interval95"}


def _table_values(table):
    return {label: complex(re, im) for label, re, im in table.rows}


def test_reference_split_invariance():
    # every split of the accumulated phase 3 encodes the example's states, so
    # one fixed split stands for all 16; raw floats may differ by ~1e-16 dust,
    # so compare within the pinned tolerance and require identical rendered tables
    base = reproduce_example_d4(seed=1)
    for s1, s2 in itertools.product(range(4), repeat=2):
        params = ProtocolParams(d=4, t=3, s_vector=(s1, s2, (3 - s1 - s2) % 4))
        assert ([published(p) for p in outcome_marginal(params).probs]
                == [published(p) for p in base.marginal])
        encoded = post_encoding_state(params)
        for table, key in ((amplitude_table(encoded), "encoded_table"),
                           (amplitude_table(apply_local(encoded, 1, qft_inv(4))), "transformed_table")):
            ours, theirs = _table_values(table), _table_values(getattr(base, key))
            assert ours.keys() == theirs.keys()
            for label in ours:
                assert abs(ours[label] - theirs[label]) < 1e-12
            assert table_lines(table) == table_lines(getattr(base, key))
