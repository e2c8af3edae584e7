"""CLI: exit codes, output formats, verdicts, file emission."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quditshare
from quditshare import cli, protocol
from quditshare.analysis import ReproductionError, reproduce_example_d4
from quditshare.cli import main
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


def test_simulate_rejects_contradictory_t(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--d", "4", "--s-vector", "3,0,0", "--t", "2")
    assert rc == 2
    assert "contradicts" in err


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


@pytest.mark.parametrize("value", ["0", "-5", "abc", "²"])
def test_invalid_size_cap_env_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("QUDITSHARE_SIZE_CAP", value)
    rc, out, err = run_cli(capsys, "simulate", "--d", "4", "--s-vector", "3,0,0")
    assert rc == 2
    assert out == ""
    assert "QUDITSHARE_SIZE_CAP" in err


def test_simulate_size_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("QUDITSHARE_SIZE_CAP", "16")
    rc, _, err = run_cli(capsys, "simulate", "--d", "4", "--s-vector", "3,0,0")
    assert rc == 2
    assert "cap" in err


def test_out_of_memory_exit_2_names_size_cap(capsys, monkeypatch):
    # a cap raised past the machine's memory lets 65536^2 amplitudes through; every
    # allocating constructor is stubbed so the test itself never allocates them
    monkeypatch.setenv("QUDITSHARE_SIZE_CAP", str(65536**2))

    def no_memory(*args):
        raise MemoryError("Unable to allocate 64.0 GiB")

    for name in ("make_ghz", "phase_gate", "qft_inv"):
        monkeypatch.setattr(protocol, name, no_memory)
    rc, out, err = run_cli(capsys, "simulate", "--d", "65536", "--s-vector", "1,2")
    assert rc == 2
    assert out == ""
    assert "QUDITSHARE_SIZE_CAP" in err


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_simulate_not_invertible_exit_3_every_variant(capsys, variant):
    # the product flow interpolates the terms too, so 2 = 3 - 1 has no inverse mod 4 there as well
    rc, out, err = run_cli(capsys, "simulate", "--variant", variant, "--d", "4",
                           "--secret-coeffs", "3,2", "--xs", "1,3")
    assert rc == 3
    assert out == ""
    assert "2 is not invertible mod 4" in err


def test_simulate_gate_size_cap_exit_2(capsys, monkeypatch):
    # one qudit of 5 amplitudes fits the cap, its 5 x 5 gates do not
    monkeypatch.setenv("QUDITSHARE_SIZE_CAP", "16")
    rc, out, err = run_cli(capsys, "simulate", "--variant", "product-counterfactual",
                           "--d", "5", "--s-vector", "1")
    assert rc == 2
    assert out == ""
    assert "5^2 amplitudes exceed the cap of 16" in err


# example -----------------------------------------------------------------------

def test_example_text_output(capsys):
    rc, out, _ = run_cli(capsys, "example", "--trials", "300", "--seed", "9")
    assert rc == 0
    assert "exact success probability: 0.25" in out
    assert "marginal of qudit 1: 0.25 0.25 0.25 0.25" in out
    assert "verdict:" in out


def test_example_structured_matches_library(capsys):
    rc, out, _ = run_cli(
        capsys, "example", "--trials", "250", "--seed", "11", "--format", "structured"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc == reproduce_example_d4(trials=250, seed=11).to_dict()
    assert json.loads(json.dumps(doc)) == doc


def test_example_deterministic_bytes(capsys):
    _, out1, _ = run_cli(capsys, "example", "--trials", "200", "--seed", "4")
    _, out2, _ = run_cli(capsys, "example", "--trials", "200", "--seed", "4")
    assert out1 == out2


def test_example_custom_split(capsys):
    rc, out, _ = run_cli(capsys, "example", "--trials", "100", "--s-vector", "1,1,1")
    assert rc == 0
    assert "split=1,1,1" in out


def test_example_rejects_bad_split(capsys):
    rc, _, err = run_cli(capsys, "example", "--trials", "100", "--s-vector", "1,1,0")
    assert rc == 2


def test_example_reproduction_failure_exit_4(capsys, monkeypatch):
    def boom(**kwargs):
        raise ReproductionError("forced mismatch")

    monkeypatch.setattr(cli, "reproduce_example_d4", boom)
    rc, _, err = run_cli(capsys, "example", "--trials", "10")
    assert rc == 4
    assert "reproduction failed" in err


# sweep -------------------------------------------------------------------------

def test_sweep_song_original(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--d-max", "5", "--t-max", "3",
                         "--format", "structured")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 4 * 3
    for e in doc["entries"]:
        expected = 1.0 if e["t"] == 1 else 1.0 / e["d"]
        assert e["p"] == pytest.approx(expected, abs=1e-10)
        assert e["expected"] == pytest.approx(expected, abs=1e-15)


def test_sweep_repaired_all_ones(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--d-max", "4", "--t-max", "3",
                         "--variant", "repaired", "--format", "structured")
    assert rc == 0
    doc = json.loads(out)
    assert all(e["p"] == pytest.approx(1.0, abs=1e-10) for e in doc["entries"])


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_sweep_every_variant(capsys, variant):
    rc, out, _ = run_cli(capsys, "sweep", "--d-max", "3", "--t-max", "2", "--variant", variant)
    assert rc == 0
    assert out.rstrip().endswith("all entries match expected: yes")


def test_sweep_text_table(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--d-max", "3", "--t-max", "2")
    assert rc == 0
    assert out.rstrip().endswith("all entries match expected: yes")
    assert " 2  1  1" in out


def test_sweep_range_limits_exit_2(capsys):
    for argv in (["--d-max", "9"], ["--t-max", "5"], ["--d-max", "1"]):
        rc, _, err = run_cli(capsys, "sweep", *argv)
        assert rc == 2
        assert "error:" in err


def test_sweep_size_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("QUDITSHARE_SIZE_CAP", "16")
    rc, out, err = run_cli(capsys, "sweep")
    assert rc == 2
    assert out == ""
    assert "cap" in err


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
    "t-against-s-vector": (["simulate", "--d", "4", "--s-vector", "3,0,0", "--t", "2"],
                           "threshold t=2 contradicts the 3-entry s_vector"),
    "t-against-polynomial": (["simulate", "--d", "7", "--secret-coeffs", "5,3,2",
                              "--xs", "1,2,3", "--t", "2"],
                             "threshold t=2 contradicts the 3-coefficient polynomial"),
    "n-against-abscissae": (["simulate", "--d", "7", "--secret-coeffs", "5,3,2",
                             "--xs", "1,2,3", "--n", "4"],
                            "agent count n=4 contradicts the 3 abscissae"),
    "shares-too-few-xs": (["shares", "--d", "7", "--secret-coeffs", "5,3,2", "--xs", "1,2"],
                          "threshold t=3 exceeds agent count n=2"),
    "example-2-entries": (["example", "--trials", "10", "--s-vector", "3,0"],
                          "threshold t=3 contradicts the 2-entry s_vector"),
    "example-4-entries": (["example", "--trials", "10", "--s-vector", "3,0,0,0"],
                          "threshold t=3 contradicts the 4-entry s_vector"),
    "example-split-sum": (["example", "--trials", "10", "--s-vector", "1,1,0"],
                          "split (1, 1, 0) does not sum to 3 mod 4"),
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


def test_malformed_int_list_exit_2(capsys):
    assert run_cli(capsys, "shares", "--d", "5", "--secret-coeffs", "3,x", "--xs", "1")[0] == 2


def test_python_m_entry_point(capsys):
    src = str(Path(quditshare.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "quditshare", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    failed = run_module("shares", "--d", "4", "--secret-coeffs", "3,2", "--xs", "1,3")
    assert failed.returncode == 3
    assert "2 is not invertible mod 4" in failed.stderr
    argv = ["shares", "--d", "7", "--secret-coeffs", "5,3,2", "--xs", "1,2,3,4"]
    ok = run_module(*argv)
    assert ok.returncode == 0
    assert ok.stdout == run_cli(capsys, *argv)[1]


def test_out_writes_only_configured_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, "example", "--trials", "120", "--seed", "2",
        "--format", "structured", "--out", str(target),
    )
    assert rc == 0
    assert out == ""  # nothing on stdout when --out is set
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc == reproduce_example_d4(trials=120, seed=2).to_dict()


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_out_unwritable_exit_2(capsys, tmp_path, where):
    target = tmp_path / "missing" / "report.txt" if where == "missing-parent" else tmp_path
    rc, out, err = run_cli(capsys, "shares", "--d", "5", "--secret-coeffs", "3,2", "--xs", "1,2",
                           "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


def test_random_seed_flag_varies_outcomes(capsys):
    outs = set()
    for _ in range(6):
        rc, out, _ = run_cli(
            capsys, "simulate", "--d", "4", "--s-vector", "3,0,0", "--random-seed"
        )
        assert rc == 0
        outs.add(out)
    assert len(outs) > 1  # entropy seeding should not repeat all six transcripts
