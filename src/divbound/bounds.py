"""Closed-form tight lower bounds at fixed total variation distance.

For a symmetric f-divergence the infimum over all pairs at total variation
distance eps has the closed form

    (1 - eps) f((1 + eps) / (1 - eps)) - a eps,

with a the symmetry constant (a = 2 f'(1) for smooth f).  Specializations:

    Bhattacharyya coefficient:  1 - eps <= Z <= sqrt(1 - eps^2)
    Chernoff information:       -1/2 log(1 - eps^2),  +inf at eps = 1
    capacitory discrimination:  2 d((1-eps)/2 || 1/2)         on [0, 1)
    Jeffreys divergence:        eps log((1+eps)/(1-eps))      on [0, 1)

The relative entropy is asymmetric.  Its exact infimum curve L(eps) has the
closed parametrization of Fedotov, Harremoes & Topsoe, "Refinements of
Pinsker's inequality" (IEEE TIT 49(6), 2003): for t >= 0,

    V(t) = t (1 - (coth t - 1/t)^2)           (the L1 distance, 2 eps)
    L(t) = log(t / sinh t) + t coth t - t^2 / sinh^2 t

V(t) and sqrt(2 L(t)) increase with t and are concave, so L(eps) and its
inverse are each one Newton solve for t from below, vectorized over a grid:
V(t) = 2 eps forward, L(t) = x backward.
Together with the monotone inverse of the Jeffreys curve they serve the
source-coding bounds.  Each bound is attained by an explicit 2- or 3-element
pair, see :func:`extremal_pair`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import FiniteDist, binary_divergence, make_dist
from .errors import DivboundError
from .generators import REGISTRY, FGenerator
from .search import bisect_increasing
# perfbench/spans.py rebinds bounds.golden_section_min by name; keep it importable
from .search import golden_section_min  # noqa: F401

__all__ = [
    "ExtremalPair",
    "BoundCurve",
    "symmetric_fdiv_min",
    "bhattacharyya_bounds",
    "chernoff_min",
    "capacitory_min",
    "jeffreys_min",
    "exact_kl_min",
    "inverse_exact_kl",
    "inverse_jeffreys",
    "extremal_pair",
    "CURVE_MEASURES",
    "bound_curve",
]

PAIR_KINDS = ("two_point", "three_point")


@dataclass(frozen=True)
class ExtremalPair:
    """The 2- or 3-element pair attaining a tight bound at distance eps."""

    p: FiniteDist
    q: FiniteDist
    eps: float
    kind: str


def extremal_pair(eps: float, kind: str) -> ExtremalPair:
    """Construct the designated bound-attaining pair at total variation eps.

    two_point:    P = ((1-eps)/2, (1+eps)/2), Q mirrored.
    three_point:  P = (eps, 1-eps, 0),        Q = (0, 1-eps, eps).
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps={eps!r} outside [0, 1]")
    if kind == "two_point":
        lo, hi = (1.0 - eps) / 2.0, (1.0 + eps) / 2.0
        p = make_dist(("x1", "x2"), (lo, hi))
        q = make_dist(("x1", "x2"), (hi, lo))
    elif kind == "three_point":
        p = make_dist(("x1", "x2", "x3"), (eps, 1.0 - eps, 0.0))
        q = make_dist(("x1", "x2", "x3"), (0.0, 1.0 - eps, eps))
    else:
        raise ValueError(f"kind={kind!r}, expected one of {PAIR_KINDS}")
    return ExtremalPair(p, q, eps, kind)


def symmetric_fdiv_min(gen: FGenerator, eps: float) -> float:
    """Infimum of a symmetric f-divergence at total variation eps.

    Requires a generator with a symmetry constant.  At eps = 1 the formula
    degenerates to 0 * inf; the limit equals 2 slope_at_inf - a and is
    returned as an extended real.
    """
    if gen.symmetry_constant is None:
        raise ValueError(f"{gen.name} is not symmetric; the closed form needs a")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps={eps!r} outside [0, 1]")
    a = gen.symmetry_constant
    if eps == 1.0:
        if gen.slope_at_inf is None:
            raise ValueError(f"{gen.name}: slope_at_inf needed at eps = 1")
        if math.isinf(gen.slope_at_inf):
            return math.inf
        return 2.0 * gen.slope_at_inf - a
    return float((1.0 - eps) * gen.fn((1.0 + eps) / (1.0 - eps)) - a * eps)


def bhattacharyya_bounds(eps: float) -> tuple[float, float]:
    """Tight (lower, upper) bounds on the Bhattacharyya coefficient."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps={eps!r} outside [0, 1]")
    return 1.0 - eps, math.sqrt(max(0.0, (1.0 - eps) * (1.0 + eps)))


def chernoff_min(eps: float) -> float:
    """Minimum Chernoff information at total variation eps; +inf at eps = 1."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps={eps!r} outside [0, 1]")
    if eps == 1.0:
        return math.inf
    return -0.5 * math.log1p(-eps * eps)


def capacitory_min(eps: float) -> float:
    """Minimum capacitory discrimination at total variation eps, eps in [0, 1).

    The closed form is 2 d((1-eps)/2 || 1/2); its limit as eps -> 1 is
    2 log 2, but eps = 1 itself is outside the domain.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps={eps!r} outside [0, 1)")
    return 2.0 * binary_divergence((1.0 - eps) / 2.0, 0.5)


def jeffreys_min(eps: float) -> float:
    """Minimum Jeffreys divergence at total variation eps, eps in [0, 1)."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps={eps!r} outside [0, 1)")
    if eps == 0.0:
        return 0.0
    return eps * (math.log1p(eps) - math.log1p(-eps))


# Below _T_SERIES, coth t - 1/t cancels, so V and L come from their Taylor
# series V(t) = t sum_k a_k t^(2k) and L(t) = t^2 sum_k b_k t^(2k) (exact
# rationals from the Bernoulli series of coth); at t = _T_SERIES the first
# omitted term is below 1e-18 of the sum.
_T_SERIES = 0.25
_V_SERIES = (
    1.0, -1 / 9, 2 / 135, -1 / 525, 2 / 8505, -1382 / 49116375, 4 / 1216215,
    -3617 / 9577693125, 87734 / 2051541867375,
)
_L_SERIES = (
    1 / 2, -1 / 12, 1 / 81, -1 / 600, 1 / 4725, -691 / 26790750, 2 / 654885,
    -3617 / 10216206000, 43867 / 1086110400375,
)
_DV_SERIES = tuple((2 * k + 1) * a for k, a in enumerate(_V_SERIES))


def _even_series(coeffs, t2: np.ndarray) -> np.ndarray:
    acc = np.full_like(t2, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * t2 + c
    return acc


def _fht(t: np.ndarray):
    """(V, dV/dt, L) of the FHT pair with parameter t >= 0, elementwise.

    Above _T_SERIES everything is written in q = exp(-2u), with
    coth u = 1 + p and sinh u = (1 - q) e^u / 2, so nothing overflows
    however large u gets.  The relative entropy has dL/dt = t dV/dt.
    """
    t2 = t * t
    small = t < _T_SERIES
    u = np.maximum(t, _T_SERIES)
    q = np.exp(-2.0 * u)
    w = -np.expm1(-2.0 * u)
    p = 2.0 * q / w
    r = 1.0 / u - p  # 1 - (coth u - 1/u)
    v = np.where(small, t * _even_series(_V_SERIES, t2), u * r * (2.0 - r))
    # arranged so that the 1/u^2 tail does not cancel between two 2/u terms
    dv_closed = 1.0 / (u * u) - p * (p + 2.0) + 4.0 * u * (1.0 - r) * p / w
    dv = np.where(small, _even_series(_DV_SERIES, t2), dv_closed)
    # log(u / sinh u) + u coth u - u^2 / sinh^2 u
    l_closed = np.log(2.0 * u) - np.log1p(-q) + u * p - 2.0 * u * u * p / w
    return v, dv, np.where(small, t2 * _even_series(_L_SERIES, t2), l_closed)


def _fht_g_slope(t: np.ndarray):
    """sqrt(2 L(t)) and its slope: unlike L, concave in t."""
    _, dv, l = _fht(t)
    g = np.sqrt(2.0 * l)
    return g, t * dv / g


def _climb(curve_slope, target: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Solve curve(t) = target elementwise by Newton's method from below.

    curve_slope(t) returns the curve and its slope.  The curve must be
    increasing and concave, and t must start at or below each root.  The
    tangent of a concave function lies above it, so every step lands at or
    below the root: the iterates climb monotonically and converge
    quadratically.  An element stops once a step no longer moves it up,
    which happens where the rounded curve meets the target.  Elements never
    interact, so a point gets the same t alone or in a grid.
    """
    active = np.ones(t.shape, dtype=bool)
    while active.any():
        value, slope = curve_slope(t)
        nxt = t + (target - value) / slope
        active &= nxt > t
        t = np.where(active, nxt, t)
    return t


# inverse_exact_kl saturates here; V(2^31) / 2 already exceeds it, so no x
# needs a t beyond _T_SATURATE, where exp(-2t) underflows and L(t) = log 2t.
_EPS_SATURATE = 1.0 - 1e-9
_T_SATURATE = 2.0 ** 31
_L_SATURATE = math.log(2.0 * _T_SATURATE)


def exact_kl_min(eps):
    """Exact infimum L(eps) of the relative entropy at total variation eps.

    Solves V(t) = 2 eps for the FHT parameter t and returns L(t).  eps may
    be a float (float out) or an array (array out); each point gets the same
    value either way.  The result dominates the quadratic 2 eps^2.
    """
    e = np.asarray(eps, dtype=float)
    if not np.all((e >= 0.0) & (e < 1.0)):
        raise ValueError(f"eps={eps!r} outside [0, 1)")
    flat = np.atleast_1d(e)
    out = np.zeros(flat.shape)
    pos = flat > 0.0
    v = 2.0 * flat[pos]
    # lower bounds on the root: V(t) <= t always, and V(t) <= 2 - 1/t for
    # t >= 1, which is where V(t) >= 1
    start = np.where(v < 1.0, v, 1.0 / (2.0 - v))
    out[pos] = _fht(_climb(lambda t: _fht(t)[:2], v, start))[2]
    return float(out[0]) if e.ndim == 0 else out


def inverse_exact_kl(x):
    """The eps in [0, 1) with exact_kl_min(eps) = x.

    Solves L(t) = x for the FHT parameter t and returns V(t) / 2, so the
    round trip through exact_kl_min holds to floating-point resolution.
    x beyond L(1 - 1e-9) saturates at 1 - 1e-9.  Float or array, as for
    :func:`exact_kl_min`.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(xa >= 0.0):
        raise ValueError(f"x={x!r} must be nonnegative")
    flat = np.atleast_1d(xa)
    out = np.zeros(flat.shape)
    pos = flat > 0.0
    target = np.sqrt(2.0 * np.minimum(flat[pos], _L_SATURATE))
    # sqrt(2 L(t)) <= t, so the target itself lies at or below the root
    t = _climb(_fht_g_slope, target, target)
    out[pos] = np.minimum(0.5 * _fht(t)[0], _EPS_SATURATE)
    return float(out[0]) if xa.ndim == 0 else out


def inverse_jeffreys(x: float, tol: float = 1e-12) -> float:
    """The eps in [0, 1) solving eps log((1+eps)/(1-eps)) = x, by bisection.

    For x near 0 the solution behaves like sqrt(x / 2).
    """
    if x < 0.0:
        raise ValueError(f"x={x!r} must be nonnegative")
    if x == 0.0:
        return 0.0
    hi = 1.0 - 1e-12
    return bisect_increasing(jeffreys_min, 0.0, hi, x, tol=tol)


@dataclass(frozen=True)
class BoundCurve:
    """A named, tabulated (eps, value) curve; CSV-serializable."""

    name: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(e), float(v)) for e, v in self.points)
        eps = [e for e, _ in pts]
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise DivboundError(f"curve {self.name!r}: grid not strictly increasing")
        for e, v in pts:
            if not math.isfinite(v) and e != 1.0:
                raise DivboundError(
                    f"curve {self.name!r}: non-finite value {v!r} at eps={e!r} < 1"
                )
        object.__setattr__(self, "points", pts)

    def eps_grid(self) -> np.ndarray:
        return np.array([e for e, _ in self.points])

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.points])

    def to_csv(self) -> str:
        from .textio import fmt_g12

        lines = ["eps,value"]
        lines += [f"{fmt_g12(e)},{fmt_g12(v)}" for e, v in self.points]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, name: str, text: str) -> "BoundCurve":
        rows = [r for r in text.strip().splitlines() if r]
        if not rows or rows[0] != "eps,value":
            raise DivboundError("expected an 'eps,value' CSV header")
        pts = []
        for r in rows[1:]:
            e, v = r.split(",")
            pts.append((float(e), float(v)))
        return cls(name, tuple(pts))


def _pointwise(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    return lambda eps: np.array([fn(float(e)) for e in eps])


def _curve_via_generator(gen_name: str) -> Callable[[np.ndarray], np.ndarray]:
    gen = REGISTRY[gen_name]
    return _pointwise(lambda eps: symmetric_fdiv_min(gen, eps))


def _exact_kl_curve(eps: np.ndarray) -> np.ndarray:
    out = np.full(eps.shape, math.inf)
    below = eps < 1.0
    out[below] = exact_kl_min(eps[below])
    return out


# eps grid -> closed-form values, extended reals allowed at eps = 1 only
CURVE_MEASURES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tv": _curve_via_generator("total_variation"),
    "hellinger2": _curve_via_generator("squared_hellinger"),
    "jeffreys": _curve_via_generator("jeffreys"),
    "capacitory": _curve_via_generator("capacitory"),
    "chernoff": _pointwise(chernoff_min),
    "bhattacharyya_lower": _pointwise(lambda eps: bhattacharyya_bounds(eps)[0]),
    "bhattacharyya_upper": _pointwise(lambda eps: bhattacharyya_bounds(eps)[1]),
    "exact_kl": _exact_kl_curve,
}


def bound_curve(measure: str, eps_grid) -> BoundCurve:
    """Tabulate one closed-form bound family over an increasing eps grid."""
    try:
        fn = CURVE_MEASURES[measure]
    except KeyError:
        known = ", ".join(sorted(CURVE_MEASURES))
        raise ValueError(f"unknown measure {measure!r}; known: {known}") from None
    grid = np.asarray(eps_grid, dtype=float)
    return BoundCurve(measure, tuple(zip(grid, fn(grid))))
