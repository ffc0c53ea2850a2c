"""Closed-form tight bounds at fixed total variation distance.

For a symmetric f-divergence the infimum over all pairs at total variation
distance eps has the closed form

    (1 - eps) f((1 + eps) / (1 - eps)) - a eps,

with a = 2 f'(1) the symmetry constant, which the generator measures.
:data:`MEASURES` holds one record per bounded measure: its closed form on
[0, 1), its value at eps = 1, the pair attaining it (:func:`extremal_pair`)
and the evaluator the oracle checks it with.  :func:`bound_curve` is the one public route to a
bound's value: ``bound_curve("chernoff", 0.5)`` for a float, or a grid for an
array.  The closed forms, and their values at eps = 1:

    total variation:            eps                                 1
    squared Hellinger:          2 eps^2 / (1 + sqrt(1 - eps^2))     2
    Jeffreys divergence:        eps log((1+eps)/(1-eps))            +inf
    capacitory discrimination:  log(1 - eps^2) + 2 eps atanh(eps)   2 log 2
    Chernoff information:       -1/2 log(1 - eps^2)                 +inf
    Bhattacharyya coefficient:  1 - eps <= Z <= sqrt(1 - eps^2)     0

The Hellinger and capacitory forms are the stable ones: 2 - 2 sqrt(1 - eps^2)
and 2 d((1-eps)/2 || 1/2) lose digits to cancellation as eps -> 0.

The relative entropy is asymmetric.  Its exact infimum curve L(eps) has the
closed parametrization of Fedotov, Harremoes & Topsoe, "Refinements of
Pinsker's inequality" (IEEE TIT 49(6), 2003): for t >= 0,

    V(t) = t (1 - (coth t - 1/t)^2)           (the L1 distance, 2 eps)
    L(t) = log(t / sinh t) + t coth t - t^2 / sinh^2 t

V(t) and sqrt(2 L(t)) increase with t and are concave, so L(eps) and its
inverse are each one Newton solve for t from below, vectorized over a grid:
V(t) = 2 eps forward, L(t) = x backward.  Near eps = 1 the forward solve is
ill-conditioned, as V is flat in t there, but not needed: for t >= 25,
V = 2 - 1/t and L = log 2t to within 4 t^2 exp(-2t) < 5e-19, so wherever
1 - eps <= 1/50, L(eps) = -log(1 - eps), with 1 - eps exact in floats.
The same climb in s = atanh eps, where the Jeffreys curve reads
2 s tanh s, inverts that curve too; the two inverses serve the
source-coding bounds.  Each point is evaluated by one of two branches, a
series below t = 2 and a form in exp(-2t) from there on, and only the
branches its grid needs run.  The climb's stopping pass, which
moves no point, is taken at every root, so the output (L, or V / 2) is read
from it rather than from a further evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dist import FiniteDist, make_dist
from .errors import BoundViolationError
from .fdiv import (
    _chernoff_floor,
    batch_bhattacharyya,
    batch_chernoff,
    batch_f_divergence,
    batch_total_variation,
)
from .generators import FGenerator, get_generator
# unused here, but perfbench/spans.py rebinds both names on this module
from .search import bisect_increasing, golden_section_min  # noqa: F401

__all__ = [
    "Measure",
    "MEASURES",
    "symmetric_fdiv_min",
    "exact_kl_min",
    "inverse_exact_kl",
    "inverse_jeffreys",
    "extremal_pair",
    "bound_curve",
    "checked_measures",
]

PAIR_KINDS = ("two_point", "three_point")


def extremal_pair(eps: float, kind: str) -> tuple[FiniteDist, FiniteDist]:
    """The designated pair (P, Q) attaining a tight bound at total variation eps.

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
    return p, q


def symmetric_fdiv_min(gen: FGenerator, eps: float) -> float:
    """Infimum of a symmetric f-divergence at total variation eps.

    Requires a generator whose symmetry_constant is not None.  At eps = 1
    the formula degenerates to 0 * inf; the limit equals 2 slope_at_inf - a and is
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


# The closed forms on [0, 1), written with numpy ufuncs so that a float or an
# array goes through the same arithmetic; bound_curve checks eps for them.
_tv = np.copy  # the bound on total variation is eps itself


def _hellinger2(eps):
    # 2 - 2 sqrt(1 - eps^2) without the cancellation: eps^2 + eps^4/4 + ...
    return 2.0 * eps * eps / (1.0 + np.sqrt((1.0 - eps) * (1.0 + eps)))


def _log1m_sq(eps):
    """log(1 - eps^2) on [0, 1) to full precision.

    Near 1, eps * eps rounds off by about 1e-16, which log1p(-eps * eps)
    turns into 1e-16 / (1 - eps) relative; near 0, the split form
    log1p(-eps) + log1p(eps) cancels.  So the first form serves below 1/2
    and the second from 1/2 on.
    """
    return np.where(eps < 0.5, np.log1p(-eps * eps), np.log1p(-eps) + np.log1p(eps))


def _jeffreys(eps):
    return eps * (np.log1p(eps) - np.log1p(-eps))


def _capacitory(eps):
    # 2 d((1-eps)/2 || 1/2), split at 1/2 as _log1m_sq is: below, the form
    # through log1p(-eps^2) has no cancellation at small eps (eps^2 +
    # eps^4/6 + ...); from 1/2 on, log(1 - eps^2) and 2 eps atanh(eps)
    # cancel towards 2 log 2, and the form through log1p(+-eps) does not
    return np.where(
        eps < 0.5,
        np.log1p(-eps * eps) + 2.0 * eps * np.arctanh(eps),
        (1.0 + eps) * np.log1p(eps) + (1.0 - eps) * np.log1p(-eps),
    )


def _chernoff(eps):
    return -0.5 * _log1m_sq(eps)


def _bhattacharyya_lower(eps):
    return 1.0 - eps


def _bhattacharyya_upper(eps):
    return np.sqrt((1.0 - eps) * (1.0 + eps))


# Below _T_SERIES the closed forms in q cancel (L to 1.3e-14 relative at
# t = 0.26), so V, dV/dt and L come from a = sinh t / t - 1 and
# b = cosh t - sinh t / t, series in t^2 with positive terms (rows of
# coefficients for the powers _AB_POWERS); the tail is below 1e-18 there.
_T_SERIES = 2.0
_AB_POWERS = np.arange(2, 26, 2)
_AB_SERIES = np.array([
    [1 / math.factorial(k + 1) for k in _AB_POWERS],
    [k / math.factorial(k + 1) for k in _AB_POWERS],
])


def _fht_series(t: np.ndarray):
    """(V, dV/dt, L) for 0 < t < _T_SERIES, from the series a and b."""
    a, b = (t[..., None, None] ** _AB_POWERS * _AB_SERIES).sum(axis=-1).T
    c = b / (1.0 + a)
    k = c / t
    z = a * (2.0 + a) / (1.0 + a) ** 2
    return t - c * k, 1.0 - k * (k + 2.0 * z / t), c + z - np.log1p(a)


def _fht_far(u: np.ndarray):
    """(V, dV/dt, L) for u >= _T_SERIES, in q = exp(-2u)."""
    q = np.exp(-2.0 * u)
    w = -np.expm1(-2.0 * u)
    p = 2.0 * q / w
    r = 1.0 / u - p  # 1 - (coth u - 1/u)
    # arranged so that the 1/u^2 tail does not cancel between two 2/u terms
    dv = 1.0 / (u * u) - p * (p + 2.0) + 4.0 * u * (1.0 - r) * p / w
    # log(u / sinh u) + u coth u - u^2 / sinh^2 u
    l = np.log(2.0 * u) - np.log1p(-q) + u * p - 2.0 * u * u * p / w
    return u * r * (2.0 - r), dv, l


def _fht(t: np.ndarray):
    """(V, dV/dt, L) of the FHT pair with parameter t > 0, elementwise.

    Below _T_SERIES they are t - c k, 1 - k (k + 2 z / t) and
    c + z - log(1 + a), with c = t coth t - 1, k = c / t and
    z = 1 - t^2 / sinh^2 t; V and L lose only a few units in the last place.
    From _T_SERIES on, they are written in q = exp(-2u), with coth u = 1 + p
    and sinh u = (1 - q) e^u / 2, so nothing overflows however large u gets.
    Each point goes through its own branch alone, and a branch no point
    needs is not evaluated, so a point's values do not depend on the grid.
    """
    small = t < _T_SERIES
    if small.all():
        return _fht_series(t)
    if not small.any():
        return _fht_far(t)
    out = np.empty((3,) + t.shape)
    out[:, small] = _fht_series(t[small])
    out[:, ~small] = _fht_far(t[~small])
    return tuple(out)


def _fht_g_slope(t: np.ndarray):
    """sqrt(2 L(t)), its slope from dL/dt = t dV/dt, and V(t).

    Unlike L, sqrt(2 L) is concave in t.
    """
    v, dv, l = _fht(t)
    g = np.sqrt(2.0 * l)
    return g, t * dv / g, v


def _climb(curve_slope, target: np.ndarray, t: np.ndarray):
    """Solve curve(t) = target elementwise by Newton's method from below.

    curve_slope(t) returns the curve and its slope first, then anything
    else the caller wants at the root.  The curve must be increasing and
    concave, and t must start at or below each root.  The tangent of a
    concave function lies above it, so every step lands at or below the
    root: the iterates climb monotonically and converge quadratically.  An
    element stops once a step no longer moves it up, which happens where
    the rounded curve meets the target.  Elements never interact, so a
    point gets the same t alone or in a grid.

    Returns t and curve_slope(t): the stopping pass moves no element, so
    its evaluation was taken at every element's final t.
    """
    active = np.ones(t.shape, dtype=bool)
    while True:
        ev = curve_slope(t)
        nxt = t + (target - ev[0]) / ev[1]
        active &= nxt > t
        if not active.any():
            return t, ev
        t = np.where(active, nxt, t)


# from here on 1 - eps is small enough for the closed form L = -log(1 - eps)
_KL_TAIL = 1.0 / 50.0


def exact_kl_min(eps):
    """Exact infimum L(eps) of the relative entropy at total variation eps.

    Solves V(t) = 2 eps for the FHT parameter t and returns L(t), for a float
    or an array of eps in [0, 1); where 1 - eps <= 1/50, L is -log(1 - eps)
    (see the module docstring).  Each point takes its route alone.  The
    result dominates the quadratic 2 eps^2.
    """
    e = np.asarray(eps, dtype=float)
    # past 1 the start below would sit under zero; NaN fails this too
    if not np.all((e >= 0.0) & (e < 1.0)):
        raise ValueError(f"eps={eps!r} outside [0, 1)")
    out = np.zeros(e.shape)
    tail = 1.0 - e <= _KL_TAIL
    out[tail] = -np.log1p(-e[tail])
    pos = (e > 0.0) & ~tail
    v = 2.0 * e[pos]
    # lower bounds on the root: V(t) <= t always, and V(t) <= 2 - 1/t for
    # t >= 1, which is where V(t) >= 1
    start = np.where(v < 1.0, v, 1.0 / (2.0 - v))
    _, (_, _, l) = _climb(_fht, v, start)
    out[pos] = l
    return float(out) if e.ndim == 0 else out


def _jeffreys_h_slope(s: np.ndarray):
    """sqrt(s tanh s) and its slope: at eps = tanh s the Jeffreys curve is 2 s tanh s."""
    th = np.tanh(s)
    h = np.sqrt(s * th)
    return h, (th + s / np.cosh(s) ** 2) / (2.0 * h)


def _invert(x, scale: float, curve_slope, to_eps, x_sat: float, eps_sat: float):
    """The eps at which a curve reaches x >= 0, for a float or an array.

    The curve reads g(t) = sqrt(scale x) in a parameter t, with g
    increasing, concave and g(t) <= t, so _climb can start from the target
    itself.  to_eps maps the root t and curve_slope(t) there to eps.  Every
    x beyond x_sat, the curve at eps_sat, gives eps_sat.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(xa >= 0.0):  # NaN fails this too
        raise ValueError(f"x={x!r} must be nonnegative")
    target = np.sqrt(scale * np.minimum(xa, x_sat))
    pos = target > 0.0  # scale * x may underflow to 0 for the least subnormal x
    out = np.zeros(xa.shape)
    out[pos] = np.minimum(to_eps(*_climb(curve_slope, target[pos], target[pos])), eps_sat)
    return float(out) if xa.ndim == 0 else out


# (x_sat, eps_sat): the inverses saturate at eps_sat, where the curves reach x_sat
_KL_SATURATE = (exact_kl_min(1.0 - 1e-9), 1.0 - 1e-9)
_J_SATURATE = (float(_jeffreys(1.0 - 1e-12)), 1.0 - 1e-12)


def inverse_exact_kl(x):
    """The eps in [0, 1) with exact_kl_min(eps) = x.

    Solves sqrt(2 L(t)) = sqrt(2 x) for the FHT parameter t and returns
    V(t) / 2, so the round trip through exact_kl_min holds to floating-point
    resolution.  x beyond L(1 - 1e-9) saturates at 1 - 1e-9.  Float or array.
    """
    return _invert(x, 2.0, _fht_g_slope, lambda t, ev: 0.5 * ev[2], *_KL_SATURATE)


def inverse_jeffreys(x):
    """The eps in [0, 1) solving eps log((1+eps)/(1-eps)) = x.

    With eps = tanh s the curve is 2 s tanh s, so this solves
    sqrt(s tanh s) = sqrt(x / 2) for s and returns tanh s, which behaves like
    sqrt(x / 2) for x near 0.  x beyond the curve at 1 - 1e-12 saturates
    there.  Float or array.
    """
    return _invert(x, 0.5, _jeffreys_h_slope, lambda s, ev: np.tanh(s), *_J_SATURATE)


def _f_divergence(name: str):
    gen = get_generator(name)
    # batch_f_divergence is looked up when called, so rebinding the name reaches it
    return lambda p, q: batch_f_divergence(gen, p, q)


@dataclass(frozen=True)
class Measure:
    """One tight bound: closed form on [0, 1), value at 1, extremal pair, evaluator.

    closed_form is the unchecked array form on [0, 1): it maps a float or an
    array of eps elementwise and need not check it, so at eps = 1 or outside
    [0, 1] it may give anything.  Read a bound through :func:`bound_curve`,
    which checks eps and gives at_one at eps = 1.  The relative entropy has no
    extremal_kind and no evaluate: its infimum is attained off the symmetric
    two-point family, and the oracle skips it.

    screen, when set, is (name, floor): floor maps the values of the entry
    name's evaluator on some rows to a bound on this entry's evaluate value
    of each row, from below for "min" and from above for "max".  It serves
    verify_min alone, which solves only the rows the bound cannot rule out
    (see divbound.oracle), and finds the evaluator in the oracle's table
    when it runs, as it does the entries'.  Only chernoff has one: the
    Bhattacharyya exponent -log Z.
    """

    direction: str  # "min" or "max"
    extremal_kind: Optional[str]
    closed_form: Callable
    at_one: float
    evaluate: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]
    screen: Optional[tuple[str, Callable[[np.ndarray], np.ndarray]]] = None


# keyed by the command-line name, which an f-divergence shares with its generator
MEASURES: dict[str, Measure] = {
    "tv": Measure("min", "two_point", _tv, 1.0, batch_total_variation),
    "hellinger2": Measure("min", "two_point", _hellinger2, 2.0, _f_divergence("hellinger2")),
    "jeffreys": Measure("min", "two_point", _jeffreys, math.inf, _f_divergence("jeffreys")),
    "capacitory": Measure(
        "min", "two_point", _capacitory, 2.0 * math.log(2.0), _f_divergence("capacitory")
    ),
    "chernoff": Measure(
        "min", "two_point", _chernoff, math.inf, batch_chernoff,
        screen=("bhattacharyya_lower", _chernoff_floor),
    ),
    "bhattacharyya_lower": Measure("min", "three_point", _bhattacharyya_lower, 0.0, batch_bhattacharyya),
    "bhattacharyya_upper": Measure("max", "two_point", _bhattacharyya_upper, 0.0, batch_bhattacharyya),
    # looked up when called, as the evaluators are, so rebinding the name reaches it
    "exact_kl": Measure("min", None, lambda eps: exact_kl_min(eps), math.inf, None),
}


def checked_measures() -> dict[str, Measure]:
    """The MEASURES entries with an evaluate: those the oracle can check."""
    return {k: m for k, m in MEASURES.items() if m.evaluate is not None}


def find_measure(table: dict[str, Measure], name: str) -> Measure:
    """table[name], or a ValueError that lists the known names."""
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown measure {name!r}; known: {known}") from None


def bound_curve(measure: str, eps):
    """A tight bound at eps in [0, 1]: a float for a float, an array for a grid.

    eps = 1 gives the measure's at_one.  Raises BoundViolationError if a
    value is NaN, or infinite below eps = 1.
    """
    m = find_measure(MEASURES, measure)
    grid = np.asarray(eps, dtype=float)
    outside = ~((grid >= 0.0) & (grid <= 1.0))
    if outside.any():
        raise ValueError(f"grid point eps={float(grid[outside][0])!r} outside [0, 1]")
    values = np.full(grid.shape, m.at_one)
    below = grid < 1.0
    values[below] = m.closed_form(grid[below])
    bad = np.isnan(values) | (np.isinf(values) & below)
    if bad.any():
        i = int(np.argmax(bad))
        raise BoundViolationError(
            f"bound {measure!r}: value {float(values.flat[i])!r} at eps={float(grid.flat[i])!r}; "
            "only eps = 1 may be inf"
        )
    return float(values) if grid.ndim == 0 else values
