"""Uniquely decodable codes and L1 bounds driven by the code redundancy.

A code is modeled by its codeword lengths l(u) and code alphabet size d.  The
identity checks and l1_bounds take P strictly positive and the code on P's
labels in P's order, and check both in one set-up.  Write c = sum_u d^{-l(u)}
for the Kraft sum and Q(u) = d^{-l(u)} / c for the induced distribution; a
code holds one c, the exact sum rounded once, which both normalizes Q and
enters the identities.
With redundancy Delta = avg_length - entropy_d(P), measured in base-d units,

    D(P || Q) = Delta log d + log c                          (identity)
    D(Q || P) = -log c - (log d / c) E_P[delta(U) d^{-delta(U)}]

with delta(u) = l(u) + log_d P(u).  Three upper bounds on the L1 distance
between P and Q follow, all consuming x = Delta log d in natural units:

    csiszar    min{ sqrt(2 x), 2 }              (quadratic lower bound on KL)
    tightened  2 L^{-1}(x)                      (exact KL curve inverted)
    jeffreys   2 eps(x / 2)                     (needs delta >= 0 everywhere)

where eps(.) inverts eps log((1+eps)/(1-eps)) by a Newton climb in
s = atanh eps, on which the curve is 2 s tanh s.  The delta >= 0 condition
holds for Shannon lengths by construction and excludes, e.g., Huffman codes;
when it fails the jeffreys bound is reported as absent rather than invalid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import _check_inside, inverse_exact_kl, inverse_jeffreys
from .dist import FiniteDist, _check_base, _checked_labels, entropy_base, make_dist
from .errors import BoundViolationError, DistributionError, KraftViolationError
from .fdiv import batch_total_variation, f_divergence
from .generators import REGISTRY

__all__ = [
    "CodeSpec",
    "CodingReport",
    "shannon_code",
    "kl_identity_check",
    "dual_kl_identity_check",
    "l1_bounds",
    "csiszar_bound",
    "tightened_bound",
    "jeffreys_bound",
    "redundancy_sweep",
]

_KRAFT_SLACK = 1e-12
# Shannon lengths snap log_d(1/P) to an integer within this tolerance before
# taking the ceiling, so exactly-dyadic masses are not pushed up a level by
# round-off; delta(u) >= -_DELTA_SLACK is treated as nonnegative to match.
_DELTA_SLACK = 1e-9


def _integral(n) -> int:
    """n as an int if int(n) == n, as _check_base rules, else DistributionError."""
    try:
        if int(n) == n:
            return int(n)
    except (TypeError, ValueError, OverflowError):  # "x", nan, inf
        pass
    raise DistributionError("codeword lengths must be positive integers")


@dataclass(frozen=True)
class CodeSpec:
    """A uniquely decodable code: alphabet, codeword lengths, code base.

    Construction also fixes, read-only: ``length_array``, the lengths as an
    integer array; ``kraft_terms``, the terms d^{-l(u)} in alphabet order;
    and ``kraft_sum``, their exact sum rounded once.  Lengths that do not
    make an integer array are taken one by one by the rule int(n) == n, so
    3.0 passes and 1.9 or "1" raise.
    """

    alphabet: tuple[str, ...]
    lengths: tuple[int, ...]
    base_d: int
    length_array: np.ndarray = field(init=False, repr=False, compare=False)
    kraft_terms: np.ndarray = field(init=False, repr=False, compare=False)
    kraft_sum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alphabet = self.alphabet
        if not isinstance(alphabet, (tuple, list)):
            alphabet = tuple(alphabet)
        # the lengths as a tuple of Python ints and as an array
        length_array = np.array(self.lengths)
        if length_array.dtype.kind in "iu":
            lengths = tuple(length_array.tolist())
        else:
            lengths = tuple(map(_integral, self.lengths))
            length_array = np.array(lengths)  # object dtype past int64
        if len(alphabet) != len(lengths):
            raise DistributionError(
                f"{len(alphabet)} symbols but {len(lengths)} lengths"
            )
        alphabet = _checked_labels(alphabet, "code alphabet labels must be unique")
        if lengths and length_array.min() < 1:
            raise DistributionError("codeword lengths must be positive integers")
        _check_base(self.base_d, "code base")
        # Python's own d ** -n, once per distinct length, and their exact sum
        # rounded once: the Kraft sum owes nothing to numpy's power or to the
        # order of the terms
        d = float(self.base_d)
        distinct = sorted(set(lengths))
        kraft_terms = np.array([d ** -n for n in distinct], dtype=float)
        kraft_terms = kraft_terms[np.searchsorted(distinct, length_array)]
        kraft_sum = math.fsum(kraft_terms.tolist())
        length_array.setflags(write=False)
        kraft_terms.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "base_d", int(self.base_d))
        object.__setattr__(self, "length_array", length_array)
        object.__setattr__(self, "kraft_terms", kraft_terms)
        object.__setattr__(self, "kraft_sum", kraft_sum)
        if kraft_sum > 1.0 + _KRAFT_SLACK:
            raise KraftViolationError(
                f"Kraft sum {kraft_sum!r} exceeds 1; "
                "no uniquely decodable code has these lengths"
            )


@dataclass(frozen=True)
class CodingReport:
    """Everything the L1 bound comparison produces for one (P, code) pair."""

    avg_length: float
    entropy_d: float
    redundancy: float  # base-d units
    kraft_sum: float
    kl_pq: float
    kl_qp: float
    jeffreys_val: float
    actual_l1: float
    bound_csiszar: float
    bound_tightened: float
    bound_jeffreys: Optional[float]
    delta_nonneg: bool


def _code_distribution(code: CodeSpec) -> FiniteDist:
    """The distribution Q(u) = d^{-l(u)} normalized by the Kraft sum."""
    return FiniteDist(code.alphabet, code.kraft_terms / code.kraft_sum)


def _require_strictly_positive(p: FiniteDist):
    if np.any(p.mass <= 0.0):
        raise DistributionError("source distribution must be strictly positive")


def shannon_code(p: FiniteDist, d: int) -> CodeSpec:
    """Shannon lengths l(u) = ceil(log_d(1 / P(u))) for a strictly positive source.

    Kraft holds automatically and delta(u) = l(u) + log_d P(u) is nonnegative
    for every symbol.
    """
    _require_strictly_positive(p)
    _check_base(d, "code base")
    v = -np.log(p.mass) / math.log(d)
    nearest = np.rint(v)
    lengths = np.where(np.abs(v - nearest) <= _DELTA_SLACK, nearest, np.ceil(v))
    lengths = np.maximum(lengths.astype(int), 1)
    return CodeSpec(p.labels, lengths, int(d))


def _terms(p: FiniteDist, code: CodeSpec) -> tuple[FiniteDist, float]:
    """(Q, log d), once P and the code are checked."""
    _require_strictly_positive(p)
    if p.labels != code.alphabet:
        raise DistributionError("distribution and code alphabets differ")
    return _code_distribution(code), math.log(code.base_d)


def _delta(p: FiniteDist, code: CodeSpec, logd: float) -> np.ndarray:
    return code.length_array.astype(float) + np.log(p.mass) / logd


def kl_identity_check(p: FiniteDist, code: CodeSpec) -> tuple[float, float]:
    """(direct D(P||Q), Delta log d + log c); equal up to round-off."""
    q, logd = _terms(p, code)
    lhs = f_divergence(REGISTRY["kl"], p, q)
    avg_len = float(np.dot(p.mass, code.length_array))
    delta_d = avg_len - entropy_base(p, code.base_d)
    rhs = delta_d * logd + math.log(code.kraft_sum)
    return lhs, rhs


def dual_kl_identity_check(p: FiniteDist, code: CodeSpec) -> tuple[float, float]:
    """(direct D(Q||P), -log c - (log d / c) E_P[delta d^{-delta}]).

    The expectation is under the source distribution P, which is the reading
    forced by consistency with the forward identity; the pair of checks in
    the test suite confirms it.
    """
    q, logd = _terms(p, code)
    lhs = f_divergence(REGISTRY["kl"], q, p)
    c = code.kraft_sum
    dl = _delta(p, code, logd)
    expectation = float(np.dot(p.mass, dl * np.power(float(code.base_d), -dl)))
    rhs = -math.log(c) - (logd / c) * expectation
    return lhs, rhs


def csiszar_bound(x):
    """min{sqrt(2 x), 2} as a function of x = Delta log d in nats; float or array."""
    xa = np.asarray(x, dtype=float)
    _check_inside(xa, xa >= 0.0, "x={!r} must be nonnegative")
    # clamped before the multiply, so 2 x cannot overflow; sqrt(4) is 2
    out = np.minimum(np.sqrt(2.0 * np.minimum(xa, 2.0)), 2.0)
    return float(out) if out.ndim == 0 else out


def tightened_bound(x):
    """2 L^{-1}(x): the exact-KL-curve refinement of the quadratic bound; float or array."""
    return 2.0 * inverse_exact_kl(x)


def jeffreys_bound(x):
    """2 eps(x / 2); valid only when delta(u) >= 0 for every symbol; float or array."""
    xa = np.asarray(x, dtype=float)
    _check_inside(xa, xa >= 0.0, "x={!r} must be nonnegative")  # x itself, not x / 2
    return 2.0 * inverse_jeffreys(0.5 * xa)


def l1_bounds(p: FiniteDist, code: CodeSpec) -> CodingReport:
    """Assemble the full report and verify the orderings that must hold.

    Raises BoundViolationError if the actual L1 distance exceeds an
    applicable bound or the tightened bound exceeds the csiszar bound,
    beyond a 1e-9 slack.
    """
    q, logd = _terms(p, code)
    avg_len = float(np.dot(p.mass, code.length_array))
    h_d = entropy_base(p, code.base_d)
    delta_d = avg_len - h_d
    # x = D(P || Q) - log c >= 0, as c <= 1, but a code with no redundancy
    # can come out a hair below 0; clamp that round-off, nothing else
    x = max(delta_d * logd, 0.0)

    kl_pq = f_divergence(REGISTRY["kl"], p, q)
    kl_qp = f_divergence(REGISTRY["kl"], q, p)
    actual_l1 = 2.0 * float(batch_total_variation(p.mass, q.mass)[0])

    dl = _delta(p, code, logd)
    delta_nonneg = bool(np.all(dl >= -_DELTA_SLACK))

    b_csiszar = csiszar_bound(x)
    b_tight = tightened_bound(x)
    b_jeff = jeffreys_bound(x) if delta_nonneg else None

    slack = 1e-9
    if actual_l1 > b_csiszar + slack or actual_l1 > b_tight + slack:
        raise BoundViolationError(
            f"L1 distance {actual_l1!r} exceeds a redundancy bound "
            f"(csiszar {b_csiszar!r}, tightened {b_tight!r})"
        )
    if b_jeff is not None and actual_l1 > b_jeff + slack:
        raise BoundViolationError(
            f"L1 distance {actual_l1!r} exceeds the jeffreys bound {b_jeff!r}"
        )
    if b_tight > b_csiszar + slack:
        raise BoundViolationError(
            f"tightened bound {b_tight!r} exceeds the csiszar bound {b_csiszar!r}"
        )

    return CodingReport(
        avg_length=avg_len,
        entropy_d=h_d,
        redundancy=delta_d,
        kraft_sum=code.kraft_sum,
        kl_pq=kl_pq,
        kl_qp=kl_qp,
        jeffreys_val=0.5 * (kl_pq + kl_qp),
        actual_l1=actual_l1,
        bound_csiszar=b_csiszar,
        bound_tightened=b_tight,
        bound_jeffreys=b_jeff,
        delta_nonneg=delta_nonneg,
    )


def redundancy_sweep(x_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three bounds tabulated over a grid of x = Delta log d values.

    Returns (csiszar, tightened, jeffreys) arrays aligned with x_grid.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    cs = csiszar_bound(x_grid)
    ti = tightened_bound(x_grid)
    je = jeffreys_bound(x_grid)
    return cs, ti, je
