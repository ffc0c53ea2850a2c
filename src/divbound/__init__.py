"""divbound: f-divergences on finite alphabets and their tight bounds.

The library computes f-divergences between finite discrete distributions
with the standard zero-mass conventions, evaluates closed-form infima of
symmetric divergences at fixed total variation distance, compares redundancy
bounds for uniquely decodable source codes, and verifies everything against
brute-force oracles.  All public objects are immutable and all operations
are pure functions.
"""

from .bounds import (
    BoundCurve,
    ExtremalPair,
    bhattacharyya_bounds,
    bound_curve,
    capacitory_min,
    chernoff_min,
    exact_kl_min,
    extremal_pair,
    inverse_exact_kl,
    inverse_jeffreys,
    jeffreys_min,
    symmetric_fdiv_min,
)
from .coding import (
    CodeSpec,
    CodingReport,
    code_distribution,
    csiszar_bound,
    dual_kl_identity_check,
    jeffreys_bound,
    kl_identity_check,
    l1_bounds,
    redundancy_sweep,
    shannon_code,
    tightened_bound,
)
from .dist import (
    FiniteDist,
    align,
    binary_divergence,
    entropy_base,
    make_dist,
    total_variation,
)
from .errors import (
    BoundViolationError,
    DistFileError,
    DistributionError,
    DivboundError,
    GeneratorError,
    KraftViolationError,
)
from .fdiv import bhattacharyya, chernoff_information, f_divergence
from .generators import (
    REGISTRY,
    FGenerator,
    check_symmetry,
    get_generator,
    register_generator,
    validate_generator,
)
from .jensen import (
    SandwichResult,
    chi2_exp_bound_check,
    dragomir_sandwich_check,
    jensen_functional,
    sandwich,
)
from .oracle import (
    ORACLE_MEASURES,
    VerifyPointReport,
    grid_verify,
    sample_pair,
    verify_min,
)
from .textio import fmt_g12, parse_dist_text, read_dist_file

__version__ = "0.1.0"
