"""CLI: exit codes, output formats, verdicts, the one write to stdout."""

import argparse
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quditshare
from quditshare import cli, protocol
from quditshare.analysis import ReproductionError, reproduce_example_d4
from quditshare.cli import main, published
from quditshare.protocol import VARIANTS


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# shares ------------------------------------------------------------------------

def test_shares_mod5(capsys):
    rc, out, _ = run_cli(capsys, "shares", "--d", "5", "--secret-coeffs", "3,2", "--xs", "1,2")
    assert rc == 0
    assert "share: x=1 y=0" in out
    assert "share: x=2 y=2" in out
    assert "term s_1 = 0" in out
    assert "term s_2 = 3" in out
    assert out.rstrip().endswith("sum of terms = 3")


def test_shares_mod7(capsys):
    rc, out, _ = run_cli(capsys, "shares", "--d", "7", "--secret-coeffs", "5,3,2", "--xs", "1,2,3")
    assert rc == 0
    for r, s in [(1, 2), (2, 6), (3, 4)]:
        assert f"term s_{r} = {s}" in out
    assert "sum of terms = 5" in out
    # spaces around an entry are not part of it
    spaced = run_cli(capsys, "shares", "--d", "7", "--secret-coeffs", " 5, 3 ,2", "--xs", "1,2,3")
    assert spaced == (0, out, "")


def test_shares_not_invertible_exit_3(capsys):
    rc, out, err = run_cli(capsys, "shares", "--d", "4", "--secret-coeffs", "3,2", "--xs", "1,3")
    assert rc == 3
    assert out == ""
    assert "2 is not invertible mod 4" in err


def test_shares_structured(capsys):
    rc, out, _ = run_cli(
        capsys, "shares", "--d", "5", "--secret-coeffs", "3,2", "--xs", "1,2",
        "--format", "structured",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "d": 5, "t": 2, "n": 2,
        "shares": [{"x": 1, "y": 0}, {"x": 2, "y": 2}],
        "terms": [0, 3],
        "sum": 3,
    }


def test_shares_requires_enough_abscissae(capsys):
    rc, _, err = run_cli(capsys, "shares", "--d", "7", "--secret-coeffs", "5,3,2", "--xs", "1,2")
    assert rc == 2
    assert "error:" in err


def test_shares_and_simulate_take_the_same_agents(capsys):
    # 3 - 1 = 2 is not a unit mod 4, but agent 3 is past t = 2 and takes no part
    poly = ["--d", "4", "--secret-coeffs", "3,2", "--xs", "1,2,3"]
    rc, out, _ = run_cli(capsys, "shares", *poly)
    assert rc == 0
    assert "term s_1 = 2" in out
    assert "term s_2 = 1" in out
    rc, out, _ = run_cli(capsys, "simulate", "--variant", "repaired", *poly)
    assert rc == 0
    assert "agent 1 applies U(0,2) on qudit 1" in out
    assert "agent 2 applies U(0,1) on qudit 2" in out
    assert "expected secret: 3" in out
    assert out.rstrip().endswith("outcome == secret: yes")


# simulate ----------------------------------------------------------------------

def test_simulate_counterfactual_verdict_yes(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "--variant", "product-counterfactual", "--d", "4", "--s-vector", "3"
    )
    assert rc == 0
    assert "final outcome: 3" in out
    assert "outcome == secret: yes" in out


def test_simulate_repaired_always_yes(capsys):
    for seed in ("1", "2", "3"):
        rc, out, _ = run_cli(
            capsys, "simulate", "--variant", "repaired", "--d", "4",
            "--s-vector", "3,0,0", "--seed", seed,
        )
        assert rc == 0
        assert "outcome == secret: yes" in out


def test_simulate_song_original_exit_zero_either_way(capsys):
    yes = 0
    for seed in range(200):
        rc, out, _ = run_cli(
            capsys, "simulate", "--d", "4", "--s-vector", "3,0,0", "--seed", str(seed)
        )
        assert rc == 0
        assert "outcome == secret:" in out
        yes += "outcome == secret: yes" in out
    # exact success probability is 0.25; allow ~4 sigma around 50 of 200
    assert 25 <= yes <= 75


def test_simulate_uniform_zero_recovers_the_secret(capsys, monkeypatch):
    # Generator.random() may return 0.0; the repaired law's FFT dust on the outcomes below
    # the secret must not catch that draw
    default_rng = np.random.default_rng

    class ZeroUniform:
        """default_rng(seed), except that its uniform is 0.0."""

        def __init__(self, seed):
            self.rng = default_rng(seed)

        def random(self):
            return 0.0

        def integers(self, *args):
            return self.rng.integers(*args)

    monkeypatch.setattr(np.random, "default_rng", ZeroUniform)
    rc, out, err = run_cli(capsys, "simulate", "--variant", "repaired", "--d", "4",
                           "--s-vector", "3,0,0")
    assert (rc, err) == (0, "")
    assert out.rstrip().endswith("outcome == secret: yes")


def test_simulate_polynomial_path(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "--variant", "repaired", "--d", "7",
        "--secret-coeffs", "5,3,2", "--xs", "1,2,3", "--seed", "8",
    )
    assert rc == 0
    assert "expected secret: 5" in out
    assert "outcome == secret: yes" in out


def test_simulate_structured_transcript(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "--variant", "repaired", "--d", "2", "--s-vector", "1,0",
        "--seed", "5", "--format", "structured",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["transcript"]["variant"] == "repaired"
    types = [e["type"] for e in doc["transcript"]["events"]]
    assert types.count("qudit_sent") == 1
    assert types.count("gate_applied") == 2
    assert types.count("measured") == 2
    assert types.count("announced") == 2


def test_simulate_rejects_both_secret_specs(capsys):
    rc, _, err = run_cli(
        capsys, "simulate", "--d", "4", "--s-vector", "3,0,0",
        "--secret-coeffs", "3,0,0", "--xs", "1,2,3",
    )
    assert rc == 2
    assert "error:" in err


def test_simulate_rejects_neither_secret_source(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--d", "4")
    assert rc == 2


def test_simulate_help_lists_no_t_or_n(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--help")
    assert rc == 0
    assert "--s-vector" in out
    assert re.search(r"--[tn]\b", out) is None


def test_simulate_polynomial_n_from_xs(capsys):
    # n=4 comes from --xs; the first 3 agents participate, so x=4 changes no byte
    argv = ["simulate", "--variant", "repaired", "--d", "7", "--secret-coeffs", "5,3,2"]
    params = cli._params(cli._parser().parse_args([*argv, "--xs", "1,2,3,4"]))
    assert (params.t, params.n) == (3, 4)
    rc, out, _ = run_cli(capsys, *argv, "--xs", "1,2,3,4")
    assert rc == 0
    assert out == run_cli(capsys, *argv, "--xs", "1,2,3")[1]


def test_simulate_counterfactual_needs_s_vector(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--variant", "product-counterfactual", "--d", "4")
    assert rc == 2


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_simulate_every_variant_structured(capsys, variant):
    rc, out, _ = run_cli(
        capsys, "simulate", "--variant", variant, "--d", "4", "--s-vector", "3,0,0",
        "--seed", "3", "--format", "structured",
    )
    assert rc == 0
    doc = json.loads(out)
    tr = doc["transcript"]
    assert tr["variant"] == variant
    assert doc["verdict"] == ("yes" if tr["final_outcome"] == tr["expected_secret"] else "no")


def test_simulate_past_the_old_cap(capsys):
    # 7^8 and 65536^4 = 2^64 amplitudes exceed the cap, but a run allocates only the d
    # branch amplitudes
    for d, s_vector in (("7", "1,2,3,4,5,6,0,1"), ("65536", "1,2,3,4")):
        rc, out, err = run_cli(capsys, "simulate", "--variant", "repaired", "--d", d,
                               "--s-vector", s_vector)
        assert rc == 0
        assert err == ""
        assert out.rstrip().endswith("outcome == secret: yes")


def test_out_of_memory_exit_2(capsys, monkeypatch):
    # a machine short of memory; every allocating constructor is stubbed to say so
    def no_memory(*args):
        raise MemoryError("Unable to allocate 64.0 GiB")

    for name in ("make_ghz", "DiagonalGate"):
        monkeypatch.setattr(protocol, name, no_memory)
    rc, out, err = run_cli(capsys, "simulate", "--d", "65536", "--s-vector", "1,2")
    assert rc == 2
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_simulate_not_invertible_exit_3_every_variant(capsys, variant):
    # the product flow interpolates the terms too, so 2 = 3 - 1 has no inverse mod 4 there as well
    rc, out, err = run_cli(capsys, "simulate", "--variant", variant, "--d", "4",
                           "--secret-coeffs", "3,2", "--xs", "1,3")
    assert rc == 3
    assert out == ""
    assert "2 is not invertible mod 4" in err


# example -----------------------------------------------------------------------

def test_example_text_output(capsys):
    rc, out, _ = run_cli(capsys, "example", "--seed", "9")
    assert rc == 0
    assert "exact success probability: 0.25" in out
    assert "marginal of qudit 1: 0.25 0.25 0.25 0.25" in out
    assert "verdict:" in out


def test_example_structured_matches_library(capsys):
    rc, out, _ = run_cli(capsys, "example", "--seed", "11", "--format", "structured")
    assert rc == 0
    doc = json.loads(out)
    report = reproduce_example_d4(seed=11)
    assert doc["params"] == {"d": 4, "t": 3, "secret": 3, "s_split": [3, 0, 0]}
    for key in ("encoded_table", "transformed_table"):
        table = getattr(report, key)
        assert doc[key] == {"d": table.d, "t": table.t, "norm_check": published(table.norm_check),
                            "rows": [[label, published(re_), published(im)] for label, re_, im in table.rows]}
    assert doc["marginal"] == [published(p) for p in report.marginal]
    assert doc["exact_p"] == published(report.marginal[3])
    assert doc["mc"] == {"trials": 10_000, "seed": 11, "estimate": published(report.mc_estimate),
                         "interval95": [published(x) for x in report.mc_interval]}
    assert json.loads(json.dumps(doc)) == doc


def test_example_structured_publishes_the_numbers_its_text_prints(capsys):
    _, text, _ = run_cli(capsys, "example")
    _, out, _ = run_cli(capsys, "example", "--format", "structured")
    doc = json.loads(out)
    rows = [line.split() for line in text.splitlines() if re.fullmatch(r"  \d{3}  \S+i", line)]
    assert len(rows) == 4 + 16
    assert [(label, complex(value.replace("i", "j"))) for label, value in rows] == [
        (label, complex(re_, im)) for key in ("encoded_table", "transformed_table")
        for label, re_, im in doc[key]["rows"]
    ]
    marginal = re.search(r"^marginal of qudit 1: (.*)$", text, re.M).group(1).split()
    assert [float(p) for p in marginal] == doc["marginal"]
    mc = re.search(r"estimate=(\S+) interval95=\[(\S+), (\S+)\]", text)
    assert [float(x) for x in mc.groups()] == [doc["mc"]["estimate"], *doc["mc"]["interval95"]]


def test_example_deterministic_bytes(capsys):
    _, out1, _ = run_cli(capsys, "example", "--seed", "4")
    _, out2, _ = run_cli(capsys, "example", "--seed", "4")
    assert out1 == out2


def test_example_reproduction_failure_exit_4(capsys, monkeypatch):
    def boom(**kwargs):
        raise ReproductionError("forced mismatch")

    monkeypatch.setattr(cli, "reproduce_example_d4", boom)
    rc, _, err = run_cli(capsys, "example")
    assert rc == 4
    assert "reproduction failed" in err


# sweep -------------------------------------------------------------------------

def sweep_rows(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--format", "structured")
    assert rc == 0
    rows = json.loads(out)["entries"]
    assert [(e["variant"], e["d"], e["t"]) for e in rows] == [
        (v, d, t) for v in VARIANTS for d in range(2, 9) for t in range(1, 5)
    ]
    return rows


def test_sweep_song_original(capsys):
    for e in sweep_rows(capsys):
        if e["variant"] == "song-original":
            expected = 1.0 if e["t"] == 1 else 1.0 / e["d"]
            assert e["min_p"] == pytest.approx(expected, abs=1e-10)
            assert e["max_p"] == pytest.approx(expected, abs=1e-10)
            assert e["expected"] == published(expected)


def test_sweep_repaired_all_ones(capsys):
    # the repaired and the product flows return every secret with certainty
    for e in sweep_rows(capsys):
        if e["variant"] != "song-original":
            assert (e["min_p"], e["max_p"], e["expected"]) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_sweep_every_variant(capsys, variant):
    rc, out, _ = run_cli(capsys, "sweep")
    assert rc == 0
    rows = [line.split() for line in out.splitlines() if line.split()[0] == variant]
    assert len(rows) == 7 * 4
    assert all(min_p == max_p == expected for *_, min_p, max_p, expected in rows)
    assert out.rstrip().endswith("all entries match expected: yes")


def test_sweep_text_table(capsys):
    rc, out, _ = run_cli(capsys, "sweep")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("every secret S in Z_d as the split (S, 0, ..., 0)")
    assert len(lines) == 2 + 3 * 7 * 4 + 1
    assert lines[-1] == "all entries match expected: yes"
    assert "song-original           2  1  1" in out


MISUSE = {
    "neither-source": (["simulate", "--d", "4"], "give a secret source"),
    "neither-source-product": (["simulate", "--variant", "product-counterfactual", "--d", "4"],
                               "give a secret source"),
    "both-sources": (["simulate", "--d", "4", "--s-vector", "3,0,0",
                      "--secret-coeffs", "3,0,0", "--xs", "1,2,3"],
                     "not both polynomial (3, 0, 0) and s_vector (3, 0, 0)"),
    "xs-with-s-vector": (["simulate", "--d", "4", "--s-vector", "3,0,0", "--xs", "1,2,3"],
                         "abscissae (1, 2, 3) belong to a polynomial, not to s_vector (3, 0, 0)"),
    "coeffs-without-xs": (["simulate", "--d", "7", "--secret-coeffs", "5,3,2"],
                          "polynomial (5, 3, 2) needs abscissae"),
    "shares-too-few-xs": (["shares", "--d", "7", "--secret-coeffs", "5,3,2", "--xs", "1,2"],
                          "threshold t=3 exceeds agent count n=2"),
    "simulate-negative-seed": (["simulate", "--d", "4", "--s-vector", "3,0,0", "--seed", "-1"],
                               "seed must be an integer >= 0"),
    "example-negative-seed": (["example", "--seed", "-1"],
                              "seed must be an integer >= 0"),
}


@pytest.mark.parametrize("case", list(MISUSE))
def test_misuse_exit_2_names_the_conflict(capsys, case):
    argv, message = MISUSE[case]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")
    assert message in err


# generic ------------------------------------------------------------------------

def test_unknown_command_exit_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_missing_required_flag_exit_2(capsys):
    assert run_cli(capsys, "shares", "--d", "5")[0] == 2


SHARES = ["shares", "--d", "5", "--secret-coeffs", "3,2", "--xs", "1,2"]
SIMULATE = ["simulate", "--d", "4", "--s-vector", "3,0,0"]

# case -> (a valid command line, the flag it does not take)
REFUSED = {
    # t is the secret source's length and n that of --xs, so neither is a flag
    "simulate-t": (SIMULATE, ["--t", "3"]),
    "simulate-n": (SIMULATE, ["--n", "4"]),
    # shares draws nothing, so it has no seed flag; it reads its params as simulate does,
    # but takes no --s-vector
    "shares-seed": (SHARES, ["--seed", "1"]),
    "shares-seed-random": (SHARES, ["--seed", "random"]),
    "shares-s-vector": (SHARES, ["--s-vector", "3"]),
    # the sweep table is fixed and exhaustive: no sub-grid, no sampled split, no single variant
    "sweep-d-max": (["sweep"], ["--d-max", "4"]),
    "sweep-t-max": (["sweep"], ["--t-max", "3"]),
    "sweep-seed": (["sweep"], ["--seed", "1"]),
    "sweep-seed-random": (["sweep"], ["--seed", "random"]),
    "sweep-variant": (["sweep"], ["--variant", "repaired"]),
    # every split of the accumulated phase gives the same example, so the split is fixed,
    # and so is its Monte-Carlo trial count
    "example-s-vector": (["example"], ["--s-vector", "1,1,1"]),
    "example-bad-s-vector": (["example"], ["--s-vector", "1,1,0"]),
    "example-trials": (["example"], ["--trials", "10"]),
    # stdout is the one output path; a shell redirect picks the destination
    "shares-out": (SHARES, ["--out", "x"]),
    "simulate-out": (SIMULATE, ["--out", "x"]),
    "example-out": (["example"], ["--out", "x"]),
    "sweep-out": (["sweep"], ["--out", "x"]),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_flag_exit_2(capsys, case):
    argv, flag = REFUSED[case]
    rc, out, err = run_cli(capsys, *argv, *flag)
    assert rc == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


# every flag of every command; a new knob shows here as a one-line diff
FLAGS = {
    "shares": ["--d", "--secret-coeffs", "--xs", "--format"],
    "simulate": ["--variant", "--d", "--s-vector", "--secret-coeffs", "--xs", "--format", "--seed"],
    "example": ["--format", "--seed"],
    "sweep": ["--format"],
}


def test_each_command_takes_exactly_its_flags():
    commands = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: [flag for action in p._actions for flag in action.option_strings
                    if flag not in ("-h", "--help")]
             for name, p in commands.choices.items()}
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 14


def test_malformed_int_list_exit_2(capsys):
    assert run_cli(capsys, "shares", "--d", "5", "--secret-coeffs", "3,x", "--xs", "1")[0] == 2
    # an empty entry is refused, not dropped: 5,,3 would otherwise share 5 + 3x
    for argv in (["shares", "--d", "7", "--secret-coeffs", "5,,3", "--xs", "1,2"],
                 ["simulate", "--d", "4", "--s-vector", "3,0,0,"],
                 ["simulate", "--d", "4", "--s-vector", ","],
                 # a space inside an entry does not join two numbers into 53
                 ["shares", "--d", "97", "--secret-coeffs", "5 3,2", "--xs", "1,2"]):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert "expected comma-separated integers" in err


def run_python(*argv, stdout=subprocess.PIPE):
    """python with argv in a new interpreter, with this package first on its path."""
    src = str(Path(quditshare.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


def run_module(*argv, stdout=subprocess.PIPE):
    """python -m quditshare, run as run_python runs it."""
    return run_python("-m", "quditshare", *argv, stdout=stdout)


def test_import_binds_only_the_version():
    probe = run_python("-c", (
        "import json, sys, quditshare; print(json.dumps(["
        "sorted(vars(quditshare)), 'numpy' in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('quditshare.'))]))"))
    assert probe.returncode == 0, probe.stderr
    names, numpy_loaded, submodules = json.loads(probe.stdout)
    assert "__version__" in names
    assert [n for n in names if not (n.startswith("__") and n.endswith("__"))] == []
    assert not numpy_loaded
    assert submodules == []


def test_python_m_entry_point(capsys):
    failed = run_module("shares", "--d", "4", "--secret-coeffs", "3,2", "--xs", "1,3")
    assert failed.returncode == 3
    assert "2 is not invertible mod 4" in failed.stderr
    argv = ["shares", "--d", "7", "--secret-coeffs", "5,3,2", "--xs", "1,2,3,4"]
    ok = run_module(*argv)
    assert ok.returncode == 0
    assert ok.stdout == run_cli(capsys, *argv)[1]


# one valid command line per command
COMMANDS = {"shares": SHARES, "simulate": SIMULATE, "example": ["example"], "sweep": ["sweep"]}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_writes_nothing_but_stdout(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, *COMMANDS[command])
    assert (rc, err) == (0, "")
    assert out
    assert list(tmp_path.iterdir()) == []


class FullStdout:
    """Stub stdout whose write or flush fails as a full disk does."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        self._fail("write")
        return len(text)

    def flush(self):
        self._fail("flush")

    def _fail(self, call):
        if call == self.failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_unwritable_stdout_exit_2(capsys, monkeypatch, command, failing):
    monkeypatch.setattr(sys, "stdout", FullStdout(failing))
    rc, _, err = run_cli(capsys, *COMMANDS[command])
    assert rc == 2
    assert err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_full_device_stdout_exit_2_without_traceback():
    # the interpreter's own exit-time flush must find nothing left to write
    with open("/dev/full", "w") as full:
        run = run_module("sweep", stdout=full)
    assert run.returncode == 2
    assert run.stderr.splitlines() == [f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}"]


def test_random_seed_flag_varies_outcomes(capsys):
    outs = set()
    for _ in range(6):
        rc, out, _ = run_cli(
            capsys, "simulate", "--d", "4", "--s-vector", "3,0,0", "--seed", "random"
        )
        assert rc == 0
        outs.add(out)
    assert len(outs) > 1  # entropy seeding should not repeat all six transcripts


DRAWING = {
    "simulate": ["simulate", "--d", "4", "--s-vector", "3,0,0"],
    "example": ["example"],
}


@pytest.mark.parametrize("command", list(DRAWING))
def test_seed_random_replays_byte_for_byte(capsys, command):
    rc, out, _ = run_cli(capsys, *DRAWING[command], "--seed", "random")
    assert rc == 0
    seed = re.search(r"seed=(\d+)", out).group(1)
    assert run_cli(capsys, *DRAWING[command], "--seed", seed) == (0, out, "")


@pytest.mark.parametrize("command", list(DRAWING))
def test_seed_flag_refusals_exit_2(capsys, command):
    rc, out, err = run_cli(capsys, *DRAWING[command], "--random-seed")
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --random-seed" in err
    rc, out, err = run_cli(capsys, *DRAWING[command], "--seed", "abc")
    assert (rc, out) == (2, "")
    assert "argument --seed: expected an integer or 'random', got 'abc'" in err
