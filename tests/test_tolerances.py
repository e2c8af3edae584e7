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
    LocalUnitary,
    MarginalDistribution,
    QuditRegister,
    _check_tol,
    draw,
)

BAD = {"nan": np.nan, "inf": np.inf}

# validator -> call building it with one entry replaced by x
VALIDATORS = {
    "register-norm": lambda x: QuditRegister(2, 1, [x, 1.0]),
    "local-unitary": lambda x: LocalUnitary(2, [[x, 0.0], [0.0, 1.0]]),
    "diagonal-gate": lambda x: DiagonalGate([x, 1.0]),
    "marginal": lambda x: MarginalDistribution([x, 1.0]),
    "joint": lambda x: JointDistribution({(0,): x}),
    "amplitude-table": lambda x: AmplitudeTable(d=2, t=1, rows=(("0", 1.0, 0.0),), norm_check=x),
}


# numpy notes the inf * 0 inside m @ m^dagger before the check refuses the matrix
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("name", list(VALIDATORS))
def test_validators_refuse_nan_and_inf(name, bad):
    # |inf|^2 from vdot can come out as nan; either way the check refuses it
    with pytest.raises(ValueError, match="is (nan|inf), not within the bound"):
        VALIDATORS[name](BAD[bad])


@pytest.mark.parametrize("table", [[1.0, np.nan], [np.nan, 1.0], [1.0, np.inf], [np.inf], [-np.inf, 1.0]])
def test_draw_refuses_a_non_finite_table(table):
    with pytest.raises(ValueError, match="must be finite"):
        draw(np.array(table), np.random.default_rng(0), 5)


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
    closed_form = {
        "encoded": "_reference_post_encoding_amps",
        "transformed": "_reference_transformed_amps",
    }[which]
    original = getattr(analysis, closed_form)

    def corrupted():
        amps = original()
        amps[0] = BAD[bad]
        return amps

    monkeypatch.setattr(analysis, closed_form, corrupted)
    with pytest.raises(ReproductionError, match=f"^{which} state deviates .* is {bad}, "):
        verify_reference_states()
    assert cli.main(["example", "--trials", "10"]) == cli.EXIT_REPRODUCTION
    assert "reference reproduction failed" in capsys.readouterr().err


@pytest.mark.parametrize("bad", list(BAD))
def test_sweep_check_refuses_a_non_finite_distribution(monkeypatch, capsys, bad):
    def corrupted(self, params):  # bypasses MarginalDistribution, which would refuse it first
        probs = np.eye(params.d)[params.expected_secret]
        probs[0] = BAD[bad]
        return SimpleNamespace(probs=probs)

    monkeypatch.setattr(Variant, "distribution", corrupted)
    args = cli._parser().parse_args(["sweep", "--d-max", "2", "--t-max", "1"])
    with pytest.raises(ReproductionError, match=f"deviates from expected: max\\|error\\| is {bad}, "):
        cli.cmd_sweep(args)
    assert cli.main(["sweep", "--d-max", "2", "--t-max", "1"]) == cli.EXIT_REPRODUCTION
    assert capsys.readouterr().out == ""
