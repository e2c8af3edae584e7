"""Integer inputs: a non-integer is refused where it enters, naming the quantity."""

import numpy as np
import pytest

from quditshare.analysis import success_probability_mc
from quditshare.modmath import Share, SharePolynomial, eval_poly, gen_shares, lagrange_term, mod_inverse
from quditshare.protocol import ProtocolParams, run_repaired_all_measure
from quditshare.qudit_sim import apply_local, make_ghz, phase_gate, qft_inv

SHARES = [Share(1, 0), Share(2, 2)]
PARAMS = ProtocolParams(d=5, t=2, s_vector=(1, 2))

# case -> (call, quantity its ValueError names; None: the call returns a Python int)
CASES = {
    "params-d": (lambda: ProtocolParams(d=5.0, t=2, s_vector=(1, 2)), "modulus"),
    "params-t": (lambda: ProtocolParams(d=5, t=2.0, s_vector=(1, 2)), "threshold"),
    "params-n": (lambda: ProtocolParams(d=5, t=2, n=2.5, s_vector=(1, 2)), "agent count"),
    "run-seed": (lambda: run_repaired_all_measure(PARAMS, seed=1.5), "seed"),
    "polynomial-d": (lambda: SharePolynomial(5.0, (1, 2)), "modulus"),
    "mod-inverse-residue": (lambda: mod_inverse(2.0, 5), "residue"),
    "eval-poly-point": (lambda: eval_poly(SharePolynomial(5, (3, 2)), 2.0), "evaluation point"),
    "lagrange-share-value": (lambda: lagrange_term([Share(1, 2.0)], 1, 5), "share value"),
    "lagrange-index": (lambda: lagrange_term(SHARES, 1.0, 5), "participant index"),
    # a float zero is refused as a non-integer, not as the reserved abscissa 0
    "abscissa-float-zero": (lambda: gen_shares(SharePolynomial(5, (3, 2)), [0.0, 1]), "abscissa"),
    "ghz-d": (lambda: make_ghz(3.0, 2), "local dimension"),
    "ghz-d-text": (lambda: make_ghz("3", 2), "local dimension"),
    "gate-d": (lambda: qft_inv(2.0), "local dimension"),
    "apply-qudit": (lambda: apply_local(make_ghz(3, 2), 1.0, phase_gate(3, 1)), "qudit index"),
    "mc-trials": (lambda: success_probability_mc(PARAMS, 10.0), "trial count"),
    "mc-seed": (lambda: success_probability_mc(PARAMS, 10, seed=1.5), "seed"),
    "mod-inverse-numpy": (lambda: mod_inverse(np.int64(3), 7), None),
}


@pytest.mark.parametrize("case", list(CASES))
def test_integer_inputs(case):
    call, quantity = CASES[case]
    if quantity is None:
        assert type(call()) is int
    else:
        with pytest.raises(ValueError, match=f"^{quantity} must be an integer"):
            call()
