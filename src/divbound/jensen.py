"""A sandwich inequality relating f-divergences, via a refined Jensen inequality.

For convex f with f(1) = 0 such that g(t) = -t f(t) is also convex, and for
strictly positive P, Q on a common finite alphabet,

    min_x P(x)/Q(x) * D_f(P||Q)
        <=  -D_g(P||Q) - f(1 + chi2(P, Q))
        <=  max_x P(x)/Q(x) * D_f(P||Q).

Two (f, g) pairings are certified here, keyed by the registry name of f:

    f = dual_kl     g = kl       middle term = log(1 + chi2) - D(P||Q)
    f = dual_chi2   g = t - 1    middle term = chi2 / (1 + chi2)

The partner t - 1 of dual_chi2 gives D_g = 0 for every pair, so it lives
here rather than in the registry.  Any other f is accepted at the caller's
risk: the derived g is spot-checked for convexity at call time and rejected
loudly when the check fails.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dist import FiniteDist, align
from .errors import BoundViolationError, DistributionError, GeneratorError
from .fdiv import batch_f_divergence, f_divergence
from .generators import REGISTRY, FGenerator, validate_generator

__all__ = [
    "SandwichResult",
    "sandwich",
    "jensen_functional",
    "dragomir_sandwich_check",
    "chi2_exp_bound_check",
]

# Strict positivity guard: masses below this count as zero (denormal floor).
_POSITIVE_FLOOR = 1e-300

_LINEAR = FGenerator(
    "linear", lambda t: np.asarray(t, dtype=float) - 1.0, -1.0, 1.0, 1.0, symmetry_constant=2.0
)
validate_generator(_LINEAR)

_CERTIFIED_G = {
    "dual_kl": REGISTRY["kl"],
    "dual_chi2": _LINEAR,
}

_ORDER_SLACK = 1e-10


@dataclass(frozen=True)
class SandwichResult:
    """The three terms of the sandwich plus the likelihood-ratio range."""

    r_min: float
    r_max: float
    left: float
    middle: float
    right: float
    chi2: float


def _require_positive(p: FiniteDist, q: FiniteDist):
    labels, pm, qm = align(p, q)
    if np.any(pm < _POSITIVE_FLOOR) or np.any(qm < _POSITIVE_FLOOR):
        raise DistributionError(
            "both distributions must be strictly positive on the common alphabet"
        )
    return labels, pm, qm


def _derived_g(gen: FGenerator) -> FGenerator:
    def g_fn(t):
        t = np.asarray(t, dtype=float)
        return -t * gen.fn(t)

    # Boundary limits are never consulted: sandwich() only evaluates g on
    # strictly positive pairs.
    g = FGenerator(
        name=f"neg_t_{gen.name}",
        fn=g_fn,
        f_at_0=None,
        slope_at_inf=None,
        fprime_at_1=-gen.fprime_at_1,
    )
    try:
        validate_generator(g)
    except GeneratorError as exc:
        raise GeneratorError(
            f"g(t) = -t f(t) for f = {gen.name} is not convex; "
            f"the sandwich hypothesis fails ({exc})"
        ) from exc
    return g


def sandwich(gen: FGenerator, p: FiniteDist, q: FiniteDist) -> SandwichResult:
    """Evaluate the three sandwich terms for the generator pair (f, g)."""
    _, pm, qm = _require_positive(p, q)
    g = _CERTIFIED_G.get(gen.name) or _derived_g(gen)

    ratio = pm / qm
    r_min = float(ratio.min())
    r_max = float(ratio.max())
    d_f = float(batch_f_divergence(gen, pm[None, :], qm[None, :])[0])
    d_g = float(batch_f_divergence(g, pm[None, :], qm[None, :])[0])
    chi2 = float((pm * pm / qm).sum() - 1.0)
    chi2 = max(chi2, 0.0)

    f_at_shifted = float(gen.fn(1.0 + chi2))
    middle = -d_g - f_at_shifted
    if not math.isfinite(middle):
        warnings.warn(
            f"sandwich middle term is {middle!r} (chi2 = {chi2!r}); "
            "inputs are too extreme for a finite evaluation",
            RuntimeWarning,
            stacklevel=2,
        )
    left = r_min * d_f
    right = r_max * d_f

    if not (left <= middle + _ORDER_SLACK and middle <= right + _ORDER_SLACK):
        raise BoundViolationError(
            f"sandwich ordering violated for f = {gen.name}: "
            f"{left!r} <= {middle!r} <= {right!r} fails"
        )
    return SandwichResult(r_min, r_max, left, middle, right, chi2)


def jensen_functional(gen: FGenerator, u, weights: FiniteDist) -> float:
    """Jensen gap sum_i W_i f(u_i) - f(sum_i W_i u_i), nonnegative by convexity."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] != len(weights):
        raise ValueError(
            f"u has shape {u.shape}, weights have {len(weights)} entries"
        )
    if np.any(u <= 0.0):
        raise ValueError("u entries must be strictly positive")
    w = weights.mass
    return float((w * gen.fn(u)).sum() - gen.fn(float((w * u).sum())))


def dragomir_sandwich_check(
    gen: FGenerator, u, p: FiniteDist, q: FiniteDist
) -> tuple[float, float, float]:
    """The refined Jensen inequality on an arbitrary positive tuple u:

        min_i(P_i/Q_i) J(f,u,Q)  <=  J(f,u,P)  <=  max_i(P_i/Q_i) J(f,u,Q).

    Returns (left, middle, right).
    """
    _, pm, qm = _require_positive(p, q)
    j_q = jensen_functional(gen, u, q)
    j_p = jensen_functional(gen, u, p)
    ratio = pm / qm
    return float(ratio.min() * j_q), j_p, float(ratio.max() * j_q)


def chi2_exp_bound_check(p: FiniteDist, q: FiniteDist) -> tuple[float, float]:
    """Both sides of chi2(P,Q) >= e^{D(P||Q)} - 1 for strictly positive pairs."""
    _, pm, qm = _require_positive(p, q)
    chi2 = float((pm * pm / qm).sum() - 1.0)
    d = f_divergence(REGISTRY["kl"], p, q)
    return chi2, math.expm1(d)
