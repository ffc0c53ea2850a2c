"""Uniquely decodable codes and L1 bounds driven by the code redundancy.

A code is modeled by its codeword lengths l(u) and code alphabet size d.
Write c = sum_u d^{-l(u)} for the Kraft sum and Q(u) = d^{-l(u)} / c for the
induced distribution.  With redundancy Delta = avg_length - entropy_d(P),
measured in base-d units,

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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import inverse_exact_kl, inverse_jeffreys
from .dist import FiniteDist, entropy_base, make_dist
from .errors import BoundViolationError, DistributionError, KraftViolationError
from .fdiv import f_divergence
from .generators import REGISTRY

__all__ = [
    "CodeSpec",
    "CodingReport",
    "code_distribution",
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


@dataclass(frozen=True)
class CodeSpec:
    """A uniquely decodable code: alphabet, codeword lengths, code base."""

    alphabet: tuple[str, ...]
    lengths: tuple[int, ...]
    base_d: int

    def __post_init__(self):
        alphabet = tuple(str(x) for x in self.alphabet)
        lengths = tuple(int(n) for n in self.lengths)
        if len(alphabet) != len(lengths):
            raise DistributionError(
                f"{len(alphabet)} symbols but {len(lengths)} lengths"
            )
        if len(set(alphabet)) != len(alphabet):
            raise DistributionError("code alphabet labels must be unique")
        if any(n < 1 for n in lengths):
            raise DistributionError("codeword lengths must be positive integers")
        if int(self.base_d) != self.base_d or self.base_d < 2:
            raise DistributionError(f"code base d={self.base_d!r} must be >= 2")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "base_d", int(self.base_d))
        if self.kraft_sum > 1.0 + _KRAFT_SLACK:
            raise KraftViolationError(
                f"Kraft sum {self.kraft_sum!r} exceeds 1; "
                "no uniquely decodable code has these lengths"
            )

    @property
    def kraft_sum(self) -> float:
        d = float(self.base_d)
        return float(sum(d ** -n for n in self.lengths))


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


def code_distribution(code: CodeSpec) -> FiniteDist:
    """The distribution Q(u) = d^{-l(u)} normalized by the Kraft sum."""
    d = float(code.base_d)
    w = np.array([d ** -n for n in code.lengths])
    return FiniteDist(code.alphabet, w / w.sum())


def _require_strictly_positive(p: FiniteDist):
    if np.any(p.mass <= 0.0):
        raise DistributionError("source distribution must be strictly positive")


def shannon_code(p: FiniteDist, d: int) -> CodeSpec:
    """Shannon lengths l(u) = ceil(log_d(1 / P(u))) for a strictly positive source.

    Kraft holds automatically and delta(u) = l(u) + log_d P(u) is nonnegative
    for every symbol.
    """
    _require_strictly_positive(p)
    if int(d) != d or d < 2:
        raise DistributionError(f"code base d={d!r} must be >= 2")
    v = -np.log(p.mass) / math.log(d)
    nearest = np.rint(v)
    lengths = np.where(np.abs(v - nearest) <= _DELTA_SLACK, nearest, np.ceil(v))
    lengths = np.maximum(lengths.astype(int), 1)
    return CodeSpec(p.labels, tuple(int(n) for n in lengths), int(d))


def _delta(p: FiniteDist, code: CodeSpec) -> np.ndarray:
    if p.labels != code.alphabet:
        raise DistributionError("distribution and code alphabets differ")
    logd = math.log(code.base_d)
    return np.array(code.lengths, dtype=float) + np.log(p.mass) / logd


def kl_identity_check(p: FiniteDist, code: CodeSpec) -> tuple[float, float]:
    """(direct D(P||Q), Delta log d + log c); equal up to round-off."""
    _require_strictly_positive(p)
    q = code_distribution(code)
    lhs = f_divergence(REGISTRY["kl"], p, q)
    logd = math.log(code.base_d)
    avg_len = float(np.dot(p.mass, code.lengths))
    delta_d = avg_len - entropy_base(p, code.base_d)
    rhs = delta_d * logd + math.log(code.kraft_sum)
    return lhs, rhs


def dual_kl_identity_check(p: FiniteDist, code: CodeSpec) -> tuple[float, float]:
    """(direct D(Q||P), -log c - (log d / c) E_P[delta d^{-delta}]).

    The expectation is under the source distribution P, which is the reading
    forced by consistency with the forward identity; the pair of checks in
    the test suite confirms it.
    """
    _require_strictly_positive(p)
    q = code_distribution(code)
    lhs = f_divergence(REGISTRY["kl"], q, p)
    logd = math.log(code.base_d)
    c = code.kraft_sum
    dl = _delta(p, code)
    expectation = float(np.dot(p.mass, dl * np.power(float(code.base_d), -dl)))
    rhs = -math.log(c) - (logd / c) * expectation
    return lhs, rhs


def csiszar_bound(x):
    """min{sqrt(2 x), 2} as a function of x = Delta log d in nats; float or array."""
    xa = np.asarray(x, dtype=float)
    if not np.all(xa >= 0.0):
        raise ValueError(f"x={x!r} must be nonnegative")
    out = np.minimum(np.sqrt(2.0 * xa), 2.0)
    return float(out) if out.ndim == 0 else out


def tightened_bound(x):
    """2 L^{-1}(x): the exact-KL-curve refinement of the quadratic bound; float or array."""
    return 2.0 * inverse_exact_kl(x)


def jeffreys_bound(x):
    """2 eps(x / 2); valid only when delta(u) >= 0 for every symbol; float or array."""
    return 2.0 * inverse_jeffreys(0.5 * np.asarray(x, dtype=float))


def l1_bounds(p: FiniteDist, code: CodeSpec) -> CodingReport:
    """Assemble the full report and verify the orderings that must hold.

    Raises BoundViolationError if the actual L1 distance exceeds an
    applicable bound or the tightened bound exceeds the csiszar bound,
    beyond a 1e-9 slack.
    """
    _require_strictly_positive(p)
    q = code_distribution(code)
    logd = math.log(code.base_d)
    avg_len = float(np.dot(p.mass, code.lengths))
    h_d = entropy_base(p, code.base_d)
    delta_d = avg_len - h_d
    x = delta_d * logd

    kl_pq = f_divergence(REGISTRY["kl"], p, q)
    kl_qp = f_divergence(REGISTRY["kl"], q, p)
    actual_l1 = float(np.abs(p.mass - q.mass).sum())

    dl = _delta(p, code)
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
