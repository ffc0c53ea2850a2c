"""Reference values for the output checks, computed without divbound.

Everything here uses the standard library and numpy only, so a check never
trusts the code it checks.  The exact KL curve comes from the closed
parametrization of Fedotov, Harremoes & Topsoe, "Refinements of Pinsker's
inequality" (IEEE TIT 49(6), 2003):

    V(t) = t (1 - (coth t - 1/t)^2)                   (the L1 distance, 2 eps)
    L(t) = log(t / sinh t) + t coth t - t^2 / sinh^2 t

Below T_SERIES both are evaluated from their Taylor series, because the
closed forms cancel there; above it from forms written with q = exp(-2t),
which cannot overflow however large t gets.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

# One unit in the last place of a float64 near 1.
ULP = 2.0 ** -52
# The CSV renders floats with 12 significant digits, so a rendered value
# differs from the float behind it by at most half a unit in the 12th digit.
RENDER_REL = 5e-12

T_SERIES = 0.25
# t^2/2 - t^4/12 + t^6/81 - ..., derived symbolically; at t = 0.25 the first
# omitted term is below 1e-17 of L.
_L_SERIES = (1 / 2, -1 / 12, 1 / 81, -1 / 600, 1 / 4725, -691 / 26790750, 2 / 654885)
# t - t^3/9 + 2 t^5/135 - ...
_V_SERIES = (1.0, -1 / 9, 2 / 135, -1 / 525, 2 / 8505, -1382 / 49116375, 4 / 1216215)


def render_tol(*values: float) -> float:
    """Largest difference 12-digit rendering can put between CSV and float."""
    return RENDER_REL * sum(abs(v) for v in values)


def fht_v(t: float) -> float:
    """L1 distance V(t) = 2 eps of the FHT parametrization, t >= 0."""
    if t < T_SERIES:
        t2 = t * t
        return t * sum(c * t2 ** k for k, c in enumerate(_V_SERIES))
    q = math.exp(-2.0 * t)
    one_minus_q = -math.expm1(-2.0 * t)
    one_minus_c = 1.0 / t - 2.0 * q / one_minus_q  # 1 - (coth t - 1/t)
    return t * one_minus_c * (2.0 - one_minus_c)


def fht_l(t: float) -> float:
    """Minimal relative entropy L(t) of the FHT parametrization, t >= 0."""
    if t < T_SERIES:
        t2 = t * t
        return t2 * sum(c * t2 ** k for k, c in enumerate(_L_SERIES))
    q = math.exp(-2.0 * t)
    one_minus_q = -math.expm1(-2.0 * t)
    # log(t / sinh t) + t coth t - t^2 / sinh^2 t with sinh t = (1 - q) e^t / 2
    return (
        math.log(2.0 * t)
        - math.log1p(-q)
        + 2.0 * t * q / one_minus_q
        - 4.0 * t * t * q / (one_minus_q * one_minus_q)
    )


def _t_of_eps(eps: float) -> float:
    """The t with V(t) = 2 eps, by bisection to floating-point resolution."""
    target = 2.0 * eps
    lo, hi = 0.0, 1.0
    while fht_v(hi) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if fht_v(mid) < target:
            lo = mid
        else:
            hi = mid


def exact_kl(eps: float) -> float:
    """L(eps): the least relative entropy of a pair at total variation eps."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps={eps!r} outside [0, 1)")
    return 0.0 if eps == 0.0 else fht_l(_t_of_eps(eps))


def exact_kl_slope(eps: float) -> float:
    """dL/deps, by a central difference; used only to size tolerances."""
    h = 1e-6 * max(eps, 1e-3)
    lo = max(eps - h, 0.0)
    return (exact_kl(eps + h) - exact_kl(lo)) / (eps + h - lo)


def jeffreys_curve(eps: float) -> float:
    """eps log((1 + eps) / (1 - eps)), the least Jeffreys divergence at eps."""
    return eps * (math.log1p(eps) - math.log1p(-eps))


def jeffreys_slope(eps: float) -> float:
    return math.log1p(eps) - math.log1p(-eps) + 2.0 * eps / (1.0 - eps * eps)


def inverse_jeffreys(y: float) -> float:
    """The eps in [0, 1) with jeffreys_curve(eps) = y, by safeguarded Newton."""
    if y <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    e = min(math.sqrt(0.5 * y), 0.5)
    for _ in range(200):
        r = jeffreys_curve(e) - y
        if r < 0.0:
            lo = e
        else:
            hi = e
        step = e - r / jeffreys_slope(e)
        nxt = step if lo < step < hi else 0.5 * (lo + hi)
        if nxt == e:
            break
        e = nxt
    return e


# Closed forms of the tight bounds at total variation eps, written out from
# their definitions rather than through the divbound generator table.
CLOSED_FORMS = {
    "tv": lambda e: e,
    "hellinger2": lambda e: 2.0 - 2.0 * math.sqrt((1.0 - e) * (1.0 + e)),
    "jeffreys": jeffreys_curve,
    "capacitory": lambda e: (
        (1.0 + e) * math.log1p(e) + ((1.0 - e) * math.log1p(-e) if e < 1.0 else 0.0)
    ),
    "chernoff": lambda e: -0.5 * math.log1p(-e * e) if e < 1.0 else math.inf,
    "bhattacharyya_lower": lambda e: 1.0 - e,
    "bhattacharyya_upper": lambda e: math.sqrt(max(0.0, (1.0 - e) * (1.0 + e))),
}


def huffman_lengths(mass) -> list[int]:
    """Binary Huffman codeword lengths, by merging the two lightest subtrees."""
    mass = [float(m) for m in mass]
    if len(mass) == 1:
        return [1]
    lengths = [0] * len(mass)
    # (weight, tie-breaker, symbols in the subtree)
    heap = [(m, i, [i]) for i, m in enumerate(mass)]
    heapq.heapify(heap)
    tie = len(mass)
    while len(heap) > 1:
        w1, _, s1 = heapq.heappop(heap)
        w2, _, s2 = heapq.heappop(heap)
        for i in s1:
            lengths[i] += 1
        for i in s2:
            lengths[i] += 1
        heapq.heappush(heap, (w1 + w2, tie, s1 + s2))
        tie += 1
    return lengths


# The coding layer's documented slack: Shannon lengths snap log_d(1/P) to an
# integer this close before the ceiling, and delta >= -DELTA_SLACK counts as
# nonnegative.
DELTA_SLACK = 1e-9


def shannon_lengths(p: np.ndarray, d: int) -> np.ndarray:
    """ceil(log_d(1 / p)), snapping values within DELTA_SLACK of an integer."""
    v = -np.log(p) / math.log(d)
    nearest = np.rint(v)
    lengths = np.where(np.abs(v - nearest) <= DELTA_SLACK, nearest, np.ceil(v))
    return np.maximum(lengths, 1.0)


def code_delta(p: np.ndarray, lengths: np.ndarray, d: int) -> np.ndarray:
    """delta(u) = l(u) + log_d p(u); the Jeffreys bound needs it >= 0."""
    return lengths + np.log(p) / math.log(d)


def summation_tol(n: int, abs_terms_sum: float) -> float:
    """Worst-case rounding of a float64 sum of n terms plus per-term error.

    Recursive summation errs by at most n ulp of the sum of magnitudes; eight
    more ulp cover the rounding inside each term (a log, a divide, a product).
    """
    return (n + 8) * ULP * abs_terms_sum


def normalized(mass) -> np.ndarray:
    """Masses rescaled to sum to 1, with an exactly rounded sum."""
    m = np.asarray(mass, dtype=float)
    return m / math.fsum(m)
