"""Standing mutant check: each one-line mutant of src/ must make the tests named for it fail.

Every case copies src/, tests/ and pyproject.toml to a temporary directory,
applies one mutant there and runs the node ids that kill it in a subprocess,
which must exit 1 (tests failed), not 2 or 4 (interrupted, or a usage or
collection error). The old string must occur exactly once, so a mutant whose
line has changed fails loudly instead of going quiet. Run it with

    python3 -m pytest mutation

A change to a mutated line updates its row here.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killers: tuple[str, ...]
    why: str


QUDIT_SIM = "src/quditshare/qudit_sim.py"
PROTOCOL = "src/quditshare/protocol.py"
ANALYSIS = "src/quditshare/analysis.py"
CLI = "src/quditshare/cli.py"

MUTANTS = (
    Mutant("fourier-rows-searched-right", QUDIT_SIM,
           "fibres[base.searchsorted(keys), digit]", 'fibres[base.searchsorted(keys, side="right"), digit]',
           ("tests/test_acceptance.py::test_criterion_1_inverse_transform_expansions",),
           "each entry's fibre row is the index of its own key; side='right' files it under the next key"),
    Mutant("label-slice-one-short", QUDIT_SIM,
           "text[i:i + t] for i", "text[i:i + t - 1] for i",
           ("tests/test_analysis.py::test_amplitude_table_ghz_pair",),
           "every amplitude-table label would lose its last qudit's digit"),
    Mutant("table-drops-prune-tol-rows", ANALYSIS,
           "keep = mags >= PRUNE_TOL", "keep = mags > PRUNE_TOL",
           ("tests/test_analysis.py::test_amplitude_table_matches_plain_loop",),
           "a row of modulus exactly PRUNE_TOL is listed; only the plain loop's PRUNE_TOL example tells them apart"),
    Mutant("draw-scaled-by-first-cdf-entry", QUDIT_SIM,
           "top = float(cumsum[-1])", "top = float(cumsum[0])",
           ("tests/test_qudit_sim.py::test_inverse_cdf_matches_plain_bisect",
            "tests/test_acceptance.py::test_criterion_7_monte_carlo_consistency"),
           "uniforms scaled by the wrong total pile every draw onto the first branches"),
    Mutant("draw-masks-prune-tol-itself", QUDIT_SIM,
           "np.abs(probs) < PRUNE_TOL", "np.abs(probs) <= PRUNE_TOL",
           ("tests/test_qudit_sim.py::test_inverse_cdf_matches_plain_bisect",),
           "an entry of exactly PRUNE_TOL keeps its CDF width; masking it moves draws on the boundary"),
    Mutant("exponents-not-reduced", PROTOCOL,
           "    e %= d\n", "",
           ("tests/test_protocol.py::test_sweep_splits_cover_every_term_vector",),
           "without e mod d, splits with one sum get different float phases, so sweep's split claim fails"),
    Mutant("law-read-through-ifft", PROTOCOL,
           'np.fft.fft(branch.values, norm="ortho")', 'np.fft.ifft(branch.values, norm="ortho")',
           ("tests/test_analysis.py::test_repaired_success_probability_exact",),
           "qft_inv is numpy's forward FFT; the inverse reads the secret as -S mod d, so the repaired flow misses it"),
    Mutant("mc-z-rounded", ANALYSIS,
           "MC_Z = 1.959963984540054", "MC_Z = 1.96",
           ("tests/test_golden.py::test_output_bytes_unchanged[example]",),
           "the published Wilson interval rests on the exact 0.975 normal quantile"),
    Mutant("wilson-upper-from-hits", ANALYSIS,
           "1.0 - lower(trials - hits)", "1.0 - lower(hits)",
           ("tests/test_analysis.py::test_mc_single_agent_is_exact",),
           "the upper end is 1 minus the misses' lower root; from the hits it drops below the estimate"),
    Mutant("sweep-min-max-swapped", CLI,
           "{e['min_p']:<14.12g}  {e['max_p']:<14.12g}", "{e['max_p']:<14.12g}  {e['min_p']:<14.12g}",
           ("tests/test_cli.py::test_sweep_text_prints_each_column_its_own_key",),
           "sweep's text would print max_p under the min_p header and the reverse"),
    Mutant("law-accepts-a-negative-entry", QUDIT_SIM,
           '        _check_tol(-probs.min(initial=0.0), NORM_TOL, "probabilities must lie in [0, 1]: -min(probs)")\n',
           "",
           ("tests/test_tolerances.py::test_draw_refuses_a_negative_entry",
            "tests/test_tolerances.py::test_marginal_range_keeps_its_rounded_upper_bound"),
           "MarginalDistribution is the one check of a law; inverse_cdf draws without repeating it"),
    Mutant("clamp-past-last-branch", QUDIT_SIM,
           'side="right"), probs.size - 1)', 'side="right"), probs.size)',
           ("tests/test_protocol.py::test_draw_uniform_past_one_raises",
            "tests/test_qudit_sim.py::test_inverse_cdf_matches_plain_bisect"),
           "a draw past the CDF's top must land on the last branch, or be refused as ZeroNormProjection"),
)

# Mutants that no test can kill, because they change no result; listed, never run.
EQUIVALENT = (
    Mutant("lone-measurer-law-as-formula", PROTOCOL,
           "np.vdot(branch.values, branch.values).real / d", "1.0 / d", (),
           "sum_k |c_k|^2 is 1 for every register QuditRegister accepts, so the dephased law is 1/d either way; "
           "only the test oracles compute the dephasing on d^t registers"),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(cwd: Path, node_ids) -> subprocess.CompletedProcess:
    # a fixed hypothesis seed makes a property's kill repeatable; PYTHONPATH is the copy's src alone
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *node_ids],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(cwd / "src")}, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("mutant", EQUIVALENT, ids=lambda m: m.name)
def test_equivalent_mutant_still_applies(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1


def test_killers_pass_unmutated(tmp_path):
    # a kill means something only if every named test passes on the code as it is
    _copy(tmp_path)
    killers = dict.fromkeys(node for mutant in MUTANTS for node in mutant.killers)
    proc = _pytest(tmp_path, killers)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(tmp_path, mutant):
    _copy(tmp_path)
    path = tmp_path / mutant.file
    text = path.read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, f"{mutant.name}: the old string occurs {text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    proc = _pytest(tmp_path, mutant.killers)
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
