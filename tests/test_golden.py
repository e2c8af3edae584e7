"""Golden bytes: SHA-256 of CLI outputs that no refactor may alter.

The first six hashes were recorded at quditshare 0.1.0. The rest pin outputs
that draw from the generator: Monte-Carlo estimates and repaired per-agent
outcomes. Their stream is the 0.2.0 one (one uniform per trial of a single
default_rng(seed), inverted on the measurers' outcome table), recorded at
0.2.0; changing it is a deliberate byte change.

Two pins were re-recorded at 0.2.1, when the Fourier gate became an FFT and
the phase gate a broadcast multiply: sweep-repaired-structured and
example-structured. Their JSON carried probabilities at full precision, and a
few moved in the last bits (by at most 4.4e-16).

At 0.2.2 structured output publishes every probability at the 12 significant
digits the text output prints, so the published bytes no longer rest on how
numpy's FFT rounds. Only sweep-repaired-structured moved: each of its p is now
1.0 exactly. example-structured kept its bytes; its amplitude tables still
carry numpy's raw exp and FFT floats, so they can still move with numpy.

At 0.3.0 the runner and Monte Carlo read one law per variant, the final
outcome's, and the measurers' d^t joint table is gone. Monte Carlo inverts
one uniform per trial on that law, as before. A run's first uniform draws
the final outcome F; when every agent measures, agents 1..t-1 then read
rng.integers(0, d, t-1) and agent t announces F minus their sum mod d. Only
the two repaired transcripts moved, simulate-repaired-polynomial and
simulate-repaired-structured; both still recover the secret. Every
Monte-Carlo estimate and every song-original and product transcript kept its
bytes, since a lone measurer's table already was its law.

At 0.4.0 sweep is one fixed table and draws nothing. A law depends on the
terms only through their sum mod d, so for every variant, cell and secret S
it checks the law of the split (S, 0, ..., 0), which is the law of every
term vector with that secret; it had checked one seeded term vector per cell
for one variant. Its rows now give each variant's least and greatest p over
the d secrets, and it has no seed to print. So sweep moved, and
sweep-repaired-structured became sweep-structured, the same table as JSON.
The other nine files kept their bytes.

Later in 0.4.0 example lost --trials and always draws 10^4 trials. So the
prefix file example-above-monte-carlo, example at 10 trials cut at its
Monte-Carlo line, went: its bytes were those of example.txt up to that line,
so example already pinned all it pinned. No output byte moved.

At 0.5.0 one rule publishes every float: the CLI maps each float of a
structured document through analysis.published, which gives 0.0 below
PRUNE_TOL (so never -0.0) and 12 significant digits otherwise, the value the
text prints. example-structured's amplitude tables lost their exp and FFT
dust (each ~1e-17 component is now 0.0), and sweep-structured's expected
went from 1/d at full precision to 12 digits, as its min_p and max_p
already were. The Monte Carlo reports the 95% Wilson score interval in place
of the binomial stderr, which was 0 whenever every trial hit or none did, so
example's monte carlo: line and example-structured's "mc" moved too. Those
three files moved; the other seven, sweep included, kept their bytes.

At 0.6.0 the CLI alone formats output, and published moved to it: each
command's text is rendered from the published document that --format
structured writes, so the two print the same values by construction. No
output byte moved.

Each output is also stored as tests/golden/<name>.txt (.json for structured
output) and compared byte for byte, so a mismatch shows as a unified diff; the
hash stays as a second check, and each file must hash to its pin.
"""

import difflib
import hashlib
import json
from pathlib import Path

import pytest

from quditshare.cli import _parser, main, published

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
    # 0.4.0's one table: every variant, every secret
    "sweep": (
        ["sweep"],
        "03ac49db21237dc9643a59e2098de0427b978c7cb72aaa20b789f3cf6fe1b7d4",
    ),
    "sweep-structured": (
        ["sweep", "--format", "structured"],
        "6fbbe351220231a295334996ff72161b5e2e69df1497077cdd56b59a2edf7b41",
    ),
    # 0.2.0 stream; the repaired transcripts are 0.3.0's
    "simulate-repaired-polynomial": (
        ["simulate", "--variant", "repaired", "--d", "7", "--secret-coeffs", "5,3,2", "--xs", "1,2,3"],
        "1fa9f73bffe224cace652c4586b3a29d0f40b4664b50263eab0c7c9b5e0dd939",
    ),
    "example": (
        ["example"],
        "9afb3350e7bbb2a8578a498a70cc48324d754588ab4c724448fb602d9075a9c5",
    ),
    "example-structured": (
        ["example", "--format", "structured"],
        "f9d7ed0437064a6b97e1c043fc7fe4b7227999930947ad9fe739d2e500c0abde",
    ),
    "simulate-repaired-structured": (
        ["simulate", "--variant", "repaired", "--d", "4", "--s-vector", "3,0,0", "--format", "structured"],
        "33085336625c2eed6a9917431823ba66a4d3ebe79d91d7996134443974708902",
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
    path = golden_path(name)
    expected = path.read_bytes()
    if out.encode() != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(keepends=True), out.splitlines(keepends=True),
            fromfile=str(path.relative_to(GOLDEN_DIR.parent)), tofile="output",
        )
        pytest.fail("output differs from its golden file:\n" + "".join(diff), pytrace=False)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


STRUCTURED = [name for name, (argv, _) in GOLDEN.items() if "structured" in argv]


@pytest.mark.parametrize("name", STRUCTURED)
def test_text_is_the_structured_document_rendered(capsys, name):
    # the command's renderer, applied to the document its structured golden
    # holds, prints what the same argv prints as text, and the pinned text
    # where that argv has a golden file of its own
    argv = GOLDEN[name][0]
    at = argv.index("--format")
    text_argv = argv[:at] + argv[at + 2:]
    rendered = _parser().parse_args(text_argv).render(json.loads(golden_path(name).read_text()))
    assert main(text_argv) == 0
    assert rendered == capsys.readouterr().out
    pinned = [golden_path(other).read_text() for other, (other_argv, _) in GOLDEN.items() if other_argv == text_argv]
    assert pinned == [rendered] * len(pinned)


@pytest.mark.parametrize("argv", [
    *(GOLDEN[name][0] for name in STRUCTURED),
    [*GOLDEN["shares"][0], "--format", "structured"],
], ids=lambda argv: " ".join(argv))
def test_structured_output_publishes_every_float(capsys, argv):
    # one rule for every float in every document: no dust, no -0.0, 12 significant digits
    assert main(argv) == 0
    floats = []
    json.loads(capsys.readouterr().out, parse_float=lambda text: floats.append(float(text)) or floats[-1])
    assert [x for x in floats if repr(x) != repr(published(x))] == []  # repr tells -0.0 from 0.0
