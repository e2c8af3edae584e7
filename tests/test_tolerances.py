"""Tolerance checks: every invariant meets its bound through one comparison, which NaN and inf fail."""

from types import SimpleNamespace

import numpy as np
import pytest

from quditshare import analysis, cli
from quditshare.analysis import (
    REF_TOL,
    AmplitudeTable,
    ReproductionError,
    verify_reference_states,
)
from quditshare.protocol import Variant
from quditshare.qudit_sim import (
    NORM_TOL,
    DiagonalGate,
    JointDistribution,
    MarginalDistribution,
    _check_tol,
    inverse_cdf,
)

from register_checks import register

BAD = {"nan": np.nan, "inf": np.inf}

# validator -> call building it with one entry replaced by x
VALIDATORS = {
    "register-norm": lambda x: register(2, 1, [x, 1.0]),
    "register-norm-sparse": lambda x: register(2, 2, [x, 0.0, 0.0, 1.0]),  # support {0, 3} of 4
    "diagonal-gate": lambda x: DiagonalGate([x, 1.0]),
    "marginal": lambda x: MarginalDistribution([x, 1.0]),
    "joint": lambda x: JointDistribution({(0,): x}),
    "amplitude-table": lambda x: AmplitudeTable(d=2, t=1, rows=(("0", 1.0, 0.0),), norm_check=x),
}


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("name", list(VALIDATORS))
def test_validators_refuse_nan_and_inf(name, bad):
    # |inf|^2 from vdot can come out as nan; either way the check refuses it
    with pytest.raises(ValueError, match="is (nan|inf), not within the bound"):
        VALIDATORS[name](BAD[bad])


@pytest.mark.parametrize("table", [[1.0, np.nan], [np.nan, 1.0], [1.0, np.inf], [np.inf], [-np.inf, 1.0]])
def test_draw_refuses_a_non_finite_table(table):
    with pytest.raises(ValueError, match="must be finite"):
        inverse_cdf(np.array(table), np.random.default_rng(0).random(5))


@pytest.mark.parametrize("table", [[-0.5, 1.0, 0.5], [1.0, -2 * NORM_TOL]])
def test_draw_refuses_a_negative_entry(table):
    with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]: -min\(probs\) is "):
        inverse_cdf(np.array(table), np.random.default_rng(0).random(5))


def test_check_tol_edges():
    _check_tol(NORM_TOL, NORM_TOL, "x")  # equal to the bound passes, as `> tol` refused only above it
    _check_tol(0.0, NORM_TOL, "x")
    for deviation in (np.nextafter(NORM_TOL, 1.0), np.nan, np.inf):
        with pytest.raises(ValueError, match="^x is .*, not within the bound 1e-10$"):
            _check_tol(deviation, NORM_TOL, "x")
    with pytest.raises(ReproductionError):
        _check_tol(np.nan, REF_TOL, "x", ReproductionError)


def test_marginal_range_keeps_its_rounded_upper_bound():
    # max(probs) is bounded by 1.0 + NORM_TOL as rounded (above 1 + 1e-10), and min by -NORM_TOL
    top = 1.0 + NORM_TOL
    MarginalDistribution([top, -NORM_TOL])
    with pytest.raises(ValueError, match=r"max\(probs\)"):
        MarginalDistribution([np.nextafter(top, 2.0), -NORM_TOL])
    with pytest.raises(ValueError, match=r"-min\(probs\)"):
        MarginalDistribution([top, np.nextafter(-NORM_TOL, -1.0)])


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("which", ["encoded", "transformed"])
def test_reference_check_refuses_a_non_finite_closed_form(monkeypatch, capsys, which, bad):
    # corrupts the closed form's |000> entry: branch 0's phase, or column 0's j = 0 amplitude
    if which == "encoded":
        monkeypatch.setattr(analysis, "_REF_BRANCH_PHASES", (BAD[bad], *analysis._REF_BRANCH_PHASES[1:]))
    else:
        columns = analysis._REF_TRANSFORMED_COLUMNS
        monkeypatch.setattr(analysis, "_REF_TRANSFORMED_COLUMNS",
                            ((BAD[bad], *columns[0][1:]), *columns[1:]))
    with pytest.raises(ReproductionError, match=f"^{which} state deviates .* is {bad}, "):
        verify_reference_states()
    assert cli.main(["example"]) == cli.EXIT_REPRODUCTION
    assert "reference reproduction failed" in capsys.readouterr().err


@pytest.mark.parametrize("bad", list(BAD))
def test_sweep_check_refuses_a_non_finite_distribution(monkeypatch, capsys, bad):
    def corrupted(self, params):  # bypasses MarginalDistribution, which would refuse it first
        probs = np.eye(params.d)[params.expected_secret]
        probs[0] = BAD[bad]
        return SimpleNamespace(probs=probs)

    monkeypatch.setattr(Variant, "distribution", corrupted)
    args = cli._parser().parse_args(["sweep"])
    with pytest.raises(ReproductionError, match=f"deviates from expected: max\\|error\\| is {bad}, "):
        cli.cmd_sweep(args)
    assert cli.main(["sweep"]) == cli.EXIT_REPRODUCTION
    assert capsys.readouterr().out == ""
