"""Scalar searches: golden-section minimization and monotone bisection.

Both routines are written against explicit stopping rules (absolute interval
width for golden section, function-value residual for bisection) because the
callers' contracts are phrased in exactly those terms.
`golden_section_min` also accepts arrays of intervals and a vectorized
objective, which the oracle harness uses to minimize one function per row.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
_MACHINE_EPS = float(np.finfo(float).eps)


def golden_section_min(
    fn: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """Minimize a unimodal function on [lo, hi] to interval width <= tol.

    Returns (x, fn(x)) with x the midpoint of the final bracket.  `lo`/`hi`
    may be scalars or same-shape arrays; `fn` must map arrays elementwise.
    Both probe points are recomputed each iteration, which costs one extra
    evaluation per step but keeps the array form simple.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    scalar = a.ndim == 0 and b.ndim == 0
    a, b = np.broadcast_arrays(a, b)
    a, b = a.copy(), b.copy()
    for _ in range(max_iter):
        if not np.any(b - a > tol):
            break
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        shrink_right = fn(c) < fn(d)
        b = np.where(shrink_right, d, b)
        a = np.where(shrink_right, a, c)
    x = 0.5 * (a + b)
    fx = fn(x)
    if scalar:
        return float(x), float(fx)
    return x, fx


def bisect_increasing(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float,
    x_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve fn(x) = target for strictly increasing fn on [lo, hi].

    Stops once |fn(mid) - target| <= tol AND the bracket is narrower than
    x_tol; the extra width condition matters where fn is flat, since a value
    residual alone can leave the root badly located there.  Gives up when
    the bracket collapses to floating point resolution or after max_iter
    halvings.  A target outside [fn(lo), fn(hi)] returns the nearer endpoint.
    """
    flo = fn(lo)
    if target <= flo:
        return lo
    fhi = fn(hi)
    if target >= fhi:
        return hi
    a, b = lo, hi
    mid = 0.5 * (a + b)
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fmid = fn(mid)
        if abs(fmid - target) <= tol and b - a <= x_tol:
            return mid
        if fmid < target:
            a = mid
        else:
            b = mid
        if b - a <= _MACHINE_EPS * max(1.0, abs(a), abs(b)):
            break
    return mid
