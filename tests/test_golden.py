"""Golden bytes: SHA-256 of CLI outputs that no refactor may alter.

The first seven hashes were recorded at quditshare 0.1.0. The rest pin outputs
that draw from the generator: Monte-Carlo estimates and repaired per-agent
outcomes. Their stream is the 0.2.0 one (one uniform per trial of a single
default_rng(seed), inverted on the measurers' outcome table), recorded at
0.2.0; changing it is a deliberate byte change.

Two pins were re-recorded at 0.2.1, when the Fourier gate became an FFT and
the phase gate a broadcast multiply: sweep-repaired-structured and
example-structured. Their JSON carries floats at full precision, and a few
moved in the last bits (by at most 4.4e-16); every other output is unchanged.
Those floats now rest on numpy's FFT, so a numpy that rounds its FFT
differently can move them again.

Each output is also stored as tests/golden/<name>.txt (.json for structured
output) and compared byte for byte, so a mismatch shows as a unified diff; the
hash stays as a second check, and each file must hash to its pin.
"""

import difflib
import hashlib
from pathlib import Path

import pytest

from quditshare.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "shares": (
        ["shares", "--d", "5", "--secret-coeffs", "3,2", "--xs", "1,2"],
        "916f4a34f44a8efb9292298aead3fcd1827a70b66b97e63fc0455e8afa9dcaab",
    ),
    "simulate-song-original": (
        ["simulate", "--variant", "song-original", "--d", "4", "--s-vector", "3,0,0", "--seed", "7"],
        "e0178f3aae8b44d56da70e59b55608c7fcd3ba3d1c77f50219c1cd67b209bc5c",
    ),
    "simulate-song-original-polynomial-structured": (
        ["simulate", "--d", "7", "--secret-coeffs", "5,3,2", "--xs", "1,2,3", "--format", "structured"],
        "f2b4615b69b0b629509f94f112bfbe5e71b84fd805299b6542cad088ee057617",
    ),
    "simulate-product-counterfactual": (
        ["simulate", "--variant", "product-counterfactual", "--d", "4", "--s-vector", "3"],
        "42ff4152f24b81e10fbe3b753cfaed9c8b30cb51d2c5b111f486bb6b787127cd",
    ),
    "sweep": (
        ["sweep"],
        "2cfd3100ffa1cb64c32206021e9aa590a66c7df48c1eabf92808a263c4ea2d23",
    ),
    "sweep-repaired-structured": (
        ["sweep", "--variant", "repaired", "--format", "structured"],
        "43421a19c91d73f92260bff2729cdb9a858711cccf011da12fc6154510360ed2",
    ),
    # the tables, marginal and exact lines; the Monte-Carlo line is cut off
    "example-above-monte-carlo": (
        ["example", "--trials", "10"],
        "bbc2228b05c5b5c2be84a549cfb4a15736b206c3b86eefeb93f6f974e0e1e5d0",
    ),
    # 0.2.0 stream
    "simulate-repaired-polynomial": (
        ["simulate", "--variant", "repaired", "--d", "7", "--secret-coeffs", "5,3,2", "--xs", "1,2,3"],
        "d6954913daeed6ad974ff33b07b35f9f5bf05e566faabc8653fbd86158238bde",
    ),
    "example": (
        ["example"],
        "73459dd5784d77af3c13c33d2e6316212978d74336c1bfb02478d70702217d5e",
    ),
    "example-structured": (
        ["example", "--format", "structured"],
        "da24a0a5dd58ff3eb4143792b2d1c56343029545fabf61b57356a77619c2a9c5",
    ),
    "simulate-repaired-structured": (
        ["simulate", "--variant", "repaired", "--d", "4", "--s-vector", "3,0,0", "--format", "structured"],
        "2c28ab96acc23648d7346e63180495dd49d0f36cece22501abea2b62c897bc83",
    ),
}


def golden_path(name: str) -> Path:
    argv, _ = GOLDEN[name]
    return GOLDEN_DIR / (name + (".json" if "structured" in argv else ".txt"))


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_file_matches_its_pin(name):
    assert hashlib.sha256(golden_path(name).read_bytes()).hexdigest() == GOLDEN[name][1]


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_bytes_unchanged(capsys, name):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if name == "example-above-monte-carlo":
        out = out[: out.index("monte carlo:")]
    path = golden_path(name)
    expected = path.read_bytes()
    if out.encode() != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(keepends=True), out.splitlines(keepends=True),
            fromfile=str(path.relative_to(GOLDEN_DIR.parent)), tofile="output",
        )
        pytest.fail("output differs from its golden file:\n" + "".join(diff), pytrace=False)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
