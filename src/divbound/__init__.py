"""divbound: f-divergences on finite alphabets and their tight bounds.

The library computes f-divergences between finite discrete distributions
with the standard zero-mass conventions, evaluates closed-form infima of
symmetric divergences at fixed total variation distance, compares redundancy
bounds for uniquely decodable source codes, and verifies everything against
brute-force oracles.  All public objects are immutable and all operations
are pure functions.
"""

import importlib

from .bounds import (
    bound_curve,
    exact_kl_min,
    extremal_pair,
    inverse_exact_kl,
    inverse_jeffreys,
    symmetric_fdiv_min,
)
from .dist import (
    FiniteDist,
    align,
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
    get_generator,
    register_generator,
    validate_generator,
)
from .jensen import (
    SandwichResult,
    batch_chi2_exp_bound_check,
    batch_sandwich,
    chi2_exp_bound_check,
    jensen_functional,
    sandwich,
)
from .textio import fmt_g12, parse_dist_text, read_dist_file, read_dist_pair

# names whose modules load on first access (PEP 562): only verify and the
# coding commands need them, so `import divbound` and the CLI skip both
_LAZY = {
    "coding": (
        "CodeSpec", "CodingReport", "csiszar_bound", "dual_kl_identity_check",
        "jeffreys_bound", "kl_identity_check", "l1_bounds", "redundancy_sweep", "shannon_code",
        "tightened_bound",
    ),
    "oracle": ("ORACLE_MEASURES", "VerifyPointReport", "grid_verify", "sample_pair", "verify_min"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "bound_curve", "exact_kl_min", "extremal_pair", "inverse_exact_kl", "inverse_jeffreys",
    "symmetric_fdiv_min",
    "FiniteDist", "align", "entropy_base", "make_dist", "total_variation",
    "BoundViolationError", "DistFileError", "DistributionError", "DivboundError",
    "GeneratorError", "KraftViolationError",
    "bhattacharyya", "chernoff_information", "f_divergence",
    "REGISTRY", "FGenerator", "get_generator", "register_generator",
    "validate_generator",
    "SandwichResult", "batch_chi2_exp_bound_check", "batch_sandwich", "chi2_exp_bound_check",
    "jensen_functional", "sandwich",
    "fmt_g12", "parse_dist_text", "read_dist_file", "read_dist_pair",
    *_HOME,
]


def __getattr__(name: str):
    # read from the module on every access, so a rebound module attribute shows here
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})


__version__ = "0.1.0"
