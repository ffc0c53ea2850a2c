"""A sandwich inequality relating f-divergences, via a refined Jensen inequality.

For convex f with f(1) = 0 such that g(t) = -t f(t) is also convex, and for
strictly positive P, Q on a common finite alphabet,

    min_x P(x)/Q(x) * D_f(P||Q)
        <=  -D_g(P||Q) - f(1 + chi2(P, Q))
        <=  max_x P(x)/Q(x) * D_f(P||Q).

Whether g is convex depends on f alone, so :data:`PARTNERS` settles it once,
at import, keyed by the registry name of f:

    f = dual_kl     g = kl        middle term = log(1 + chi2) - D(P||Q)
    f = dual_chi2   g = t - 1     middle term = chi2 / (1 + chi2)
    any other f     g = -t f(t)   if g passes validate_generator (capacitory)

t - 1 (D_g = 0 for every pair) is private to this module.  A generator with
no entry, including one added later by register_generator, raises GeneratorError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dist import FiniteDist, align
from .errors import BoundViolationError, DistributionError, GeneratorError
from .fdiv import _as_2d, _row_extremes, _row_sums, batch_f_divergence
from .generators import REGISTRY, FGenerator, validate_generator

__all__ = [
    "PARTNERS",
    "SandwichResult",
    "batch_sandwich",
    "sandwich",
    "jensen_functional",
    "batch_chi2_exp_bound_check",
    "chi2_exp_bound_check",
]

# Strict positivity guard: masses below this count as zero (denormal floor).
_POSITIVE_FLOOR = 1e-300

_LINEAR = FGenerator("linear", lambda t: np.asarray(t, dtype=float) - 1.0, -1.0, 1.0, 1.0)
validate_generator(_LINEAR)

_ORDER_SLACK = 1e-10


def _neg_t(f: FGenerator) -> FGenerator:
    """g(t) = -t f(t), without boundary limits: the sandwich evaluates g
    only on strictly positive pairs."""
    return FGenerator(
        f"neg_t_{f.name}", lambda t: -np.asarray(t, dtype=float) * f.fn(t),
        None, None, -f.fprime_at_1,
    )


def _certified_partners() -> dict[str, FGenerator]:
    partners = {"dual_kl": REGISTRY["kl"], "dual_chi2": _LINEAR}
    for name, f in REGISTRY.items():
        if name in partners:
            continue
        g = _neg_t(f)
        try:
            validate_generator(g)
        except GeneratorError:
            continue
        partners[name] = g
    return partners


PARTNERS: dict[str, FGenerator] = _certified_partners()


@dataclass(frozen=True)
class SandwichResult:
    """The three terms of the sandwich plus the likelihood-ratio range."""

    r_min: float
    r_max: float
    left: float
    middle: float
    right: float
    chi2: float


def _require_positive(pm: np.ndarray, qm: np.ndarray) -> None:
    """Raise DistributionError naming the row with the least mass below the floor."""
    low = np.fmin(pm, qm)
    below = low < _POSITIVE_FLOOR
    if below.any():
        i, j = divmod(int(np.argmin(np.where(below, low, np.inf))), low.shape[1])
        raise DistributionError(
            "both distributions must be strictly positive on the common alphabet: "
            f"row {i} has mass {float(low[i, j])!r}"
        )


def batch_sandwich(gen: FGenerator, pm, qm):
    """The columns (r_min, r_max, left, middle, right, chi2) of the sandwich,
    row by row on (n, k) mass matrices.  A row that breaks the ordering by
    more than the slack raises BoundViolationError naming the worst row.
    """
    g = PARTNERS.get(gen.name)
    if g is None:
        raise GeneratorError(
            f"f = {gen.name} has no certified sandwich partner g(t) = -t f(t); "
            f"certified: {', '.join(sorted(PARTNERS))}"
        )
    pm, qm = _as_2d(pm, qm)
    _require_positive(pm, qm)

    ratio = pm / qm
    r_min, r_max = _row_extremes(ratio)
    d_f = batch_f_divergence(gen, pm, qm)
    d_g = batch_f_divergence(g, pm, qm)
    chi2 = np.maximum(_row_sums(pm * pm / qm) - 1.0, 0.0)

    middle = -d_g - gen.fn(1.0 + chi2)
    bad = ~np.isfinite(middle)
    if bad.any():
        i = int(np.argmax(bad))
        warnings.warn(
            f"sandwich middle term is {float(middle[i])!r} (chi2 = {float(chi2[i])!r}) "
            f"in row {i}; inputs are too extreme for a finite evaluation",
            RuntimeWarning,
            stacklevel=2,
        )
    left, right = r_min * d_f, r_max * d_f

    ok = (left <= middle + _ORDER_SLACK) & (middle <= right + _ORDER_SLACK)
    if not ok.all():
        # the row that misses by the most; a NaN row counts as the worst
        excess = np.nan_to_num(np.maximum(left - middle, middle - right), nan=np.inf)
        i = int(np.argmax(np.where(ok, -np.inf, excess)))
        raise BoundViolationError(
            f"sandwich ordering violated for f = {gen.name} in row {i}: "
            f"{float(left[i])!r} <= {float(middle[i])!r} <= {float(right[i])!r} fails"
        )
    return r_min, r_max, left, middle, right, chi2


def sandwich(gen: FGenerator, p: FiniteDist, q: FiniteDist) -> SandwichResult:
    """Evaluate the three sandwich terms for the generator pair (f, g)."""
    _, pm, qm = align(p, q)
    cols = batch_sandwich(gen, pm[None, :], qm[None, :])
    return SandwichResult(*(float(c[0]) for c in cols))


def jensen_functional(gen: FGenerator, u, weights: FiniteDist) -> float:
    """Jensen gap sum_i W_i f(u_i) - f(sum_i W_i u_i), nonnegative by convexity."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] != len(weights):
        raise ValueError(
            f"u has shape {u.shape}, weights have {len(weights)} entries"
        )
    if not np.all((u > 0.0) & (u < math.inf)):  # NaN fails this too
        raise ValueError("u entries must be finite and strictly positive")
    w = weights.mass
    return float((w * gen.fn(u)).sum() - gen.fn(float((w * u).sum())))


def batch_chi2_exp_bound_check(pm, qm) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of chi2(P,Q) >= e^{D(P||Q)} - 1, row by row on (n, k)
    strictly positive mass matrices.  A mass below the floor raises
    DistributionError naming the row with the least one.
    """
    pm, qm = _as_2d(pm, qm)
    _require_positive(pm, qm)
    chi2 = _row_sums(pm * pm / qm) - 1.0
    d = batch_f_divergence(REGISTRY["kl"], pm, qm)
    # libm's expm1, as the pairwise form always took: numpy's SIMD expm1 can
    # differ from it in the last bit
    return chi2, np.fromiter(map(math.expm1, d.tolist()), float, d.size)


def chi2_exp_bound_check(p: FiniteDist, q: FiniteDist) -> tuple[float, float]:
    """Both sides of chi2(P,Q) >= e^{D(P||Q)} - 1 for strictly positive pairs."""
    _, pm, qm = align(p, q)
    chi2, rhs = batch_chi2_exp_bound_check(pm, qm)
    return float(chi2[0]), float(rhs[0])
