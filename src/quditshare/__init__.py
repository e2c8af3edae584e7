"""Qudit protocol simulator and threshold secret-sharing toolkit.

Simulates the reconstruction phase of a (t, n) threshold d-level quantum
secret sharing scheme: Shamir share arithmetic over Z_d, a dense state-vector
engine for t qudits, protocol runs with full transcripts, and analysis tools
quantifying when the lone measuring agent can (and cannot) recover the secret.
"""

from .analysis import (
    AmplitudeTable,
    ExampleReport,
    ReproductionError,
    amplitude_table,
    outcome_marginal,
    repaired_success_probability_exact,
    reproduce_example_d4,
    success_probability_exact,
    success_probability_mc,
    verify_reference_states,
)
from .modmath import (
    MAX_MODULUS,
    DuplicateAbscissa,
    NotInvertible,
    Share,
    SharePolynomial,
    ZeroAbscissa,
    eval_poly,
    gen_shares,
    lagrange_term,
    lagrange_terms,
    mod_inverse,
    reconstruct_classical,
)
from .protocol import (
    DEFAULT_SEED,
    PRODUCT_COUNTERFACTUAL,
    REPAIRED,
    SONG_ORIGINAL,
    VARIANTS,
    ProtocolParams,
    Transcript,
    Variant,
    post_encoding_state,
    run_repaired_all_measure,
    run_song_original,
)
from .qudit_sim import (
    DEFAULT_SIZE_CAP,
    NORM_TOL,
    PRUNE_TOL,
    DimensionMismatch,
    IndexOutOfRange,
    JointDistribution,
    LocalUnitary,
    MarginalDistribution,
    QuditRegister,
    SizeCapExceeded,
    ZeroNormProjection,
    apply_local,
    basis_digits,
    basis_label,
    joint_distribution,
    make_ghz,
    marginal,
    measure,
    phase_gate,
    qft_inv,
)

__version__ = "0.5.0"
