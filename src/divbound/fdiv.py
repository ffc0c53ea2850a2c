"""Generic f-divergence evaluation with zero-mass conventions.

The divergence sum is D_f(P||Q) = sum_x Q(x) f(P(x)/Q(x)) with

    0 f(0/0) = 0,
    P(x) = a > 0, Q(x) = 0  contributing  a * lim_{u->inf} f(u)/u,
    P(x) = 0, Q(x) > 0      contributing  Q(x) * lim_{t->0+} f(t).

Infinities are values, never errors; NaN is always a bug and raises
BoundViolationError.  The ``batch_*`` functions operate on (n, k) mass
matrices, one pair per row, and are what the oracle harness drives; the
scalar operations wrap them.
"""

from __future__ import annotations

import math

import numpy as np

from .dist import FiniteDist, align
from .errors import BoundViolationError
from .generators import FGenerator
# unused here, but perfbench/spans.py rebinds the name on this module
from .search import golden_section_min  # noqa: F401

__all__ = [
    "f_divergence",
    "bhattacharyya",
    "chernoff_information",
    "batch_f_divergence",
    "batch_total_variation",
    "batch_bhattacharyya",
    "batch_chernoff",
]


def _as_2d(p, q):
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if p.shape != q.shape:
        raise ValueError(f"mass matrices differ in shape: {p.shape} vs {q.shape}")
    return p, q


def batch_f_divergence(gen: FGenerator, p, q) -> np.ndarray:
    """D_f(P||Q) row by row for (n, k) mass matrices."""
    p, q = _as_2d(p, q)
    both = (p > 0.0) & (q > 0.0)
    ratio = np.divide(p, q, out=np.ones_like(p), where=both)
    vals = gen.fn(ratio)  # ratio is 1 where masked, and f(1) = 0
    out = np.sum(np.where(both, q * vals, 0.0), axis=-1)

    mass_no_q = np.sum(np.where((q <= 0.0) & (p > 0.0), p, 0.0), axis=-1)
    if np.any(mass_no_q > 0.0):
        if gen.slope_at_inf is None:
            raise ValueError(
                f"{gen.name}: slope_at_inf not supplied but Q has zero mass "
                "where P does not"
            )
        if math.isinf(gen.slope_at_inf):
            out = np.where(mass_no_q > 0.0, np.inf, out)
        else:
            out = out + mass_no_q * gen.slope_at_inf

    mass_no_p = np.sum(np.where((p <= 0.0) & (q > 0.0), q, 0.0), axis=-1)
    if np.any(mass_no_p > 0.0):
        if gen.f_at_0 is None:
            raise ValueError(
                f"{gen.name}: f_at_0 not supplied but P has zero mass "
                "where Q does not"
            )
        if math.isinf(gen.f_at_0):
            out = np.where(mass_no_p > 0.0, np.inf, out)
        else:
            out = out + mass_no_p * gen.f_at_0

    if np.isnan(out).any():
        raise BoundViolationError(f"NaN in {gen.name} divergence evaluation")
    return out


def batch_total_variation(p, q) -> np.ndarray:
    p, q = _as_2d(p, q)
    return 0.5 * np.abs(p - q).sum(axis=-1)


def batch_bhattacharyya(p, q) -> np.ndarray:
    p, q = _as_2d(p, q)
    return np.sqrt(p * q).sum(axis=-1)


# rows per block of the Chernoff solve: every step is row-wise, so the block
# size bounds the working memory and changes no value
_CHERNOFF_BLOCK_ROWS = 1 << 14
# the tilt is solved to this Newton step or bracket width
_TILT_TOL = 1e-12
# a row also stops once |g'| (hi - lo) is this small relative to g: where
# |d| is near 690, g is flat to rounding and Newton creeps through it
_TILT_CERT = 4e-16
# a safeguard only: bisection alone narrows [0, 1] to _TILT_TOL in 40 passes
_MAX_TILT_PASSES = 100


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) for a few columns, added column by column: numpy's
    reduction over a short last axis costs several times more per row."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def _min_log_tilt(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, int]:
    """Row minima over lam in [0, 1] of g(lam) = log sum_x P(x)^lam Q(x)^(1-lam).

    The sum runs over the common support; rows without one give -inf.  With
    d = log(P/Q) and w = P^lam Q^(1-lam), g' = E_w[d] and g'' = Var_w[d], so
    g is convex.  Its endpoint values and slopes come from the masses; a
    row whose slope does not change sign on [0, 1] is done there.  The other
    rows start at the secant root of g' and take Newton steps on g' = 0,
    bisecting their bracket whenever a step leaves it, one exp pass per
    step.  A row also stops once |g'(lam)| (hi - lo), which bounds
    g(lam) - min g by convexity, is within rounding of g(lam).  Returns the
    minima and the number of passes made.
    """
    common = (p > 0.0) & (q > 0.0)
    pc = np.where(common, p, 0.0)
    qc = np.where(common, q, 0.0)
    lq = np.log(q, out=np.zeros(q.shape), where=common)
    d = np.log(p, out=np.zeros(p.shape), where=common) - lq  # 0 off the common support
    lq[~common] = -np.inf  # so exp(lq + lam * d) is 0 there
    sp, sq = _row_sums(pc), _row_sums(qc)
    has_common = sq > 0.0
    sp, sq = np.where(has_common, sp, 1.0), np.where(has_common, sq, 1.0)
    gmin = np.where(has_common, np.minimum(np.log(sp), np.log(sq)), -np.inf)
    slope0 = _row_sums(qc * d) / sq
    slope1 = _row_sums(pc * d) / sp

    rows = np.flatnonzero(has_common & (slope0 < 0.0) & (slope1 > 0.0))
    lam = slope0[rows] / (slope0[rows] - slope1[rows])
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    passes = 0
    while rows.size and passes < _MAX_TILT_PASSES:
        passes += 1
        dr = d[rows]
        w = np.exp(lq[rows] + lam[:, None] * dr)
        wd = w * dr
        sw, swd, swdd = _row_sums(w), _row_sums(wd), _row_sums(wd * dr)
        g = np.log(sw)
        gmin[rows] = np.minimum(gmin[rows], g)
        slope = swd / sw
        curv = swdd / sw - slope * slope
        lo = np.where(slope < 0.0, lam, lo)
        hi = np.where(slope > 0.0, lam, hi)
        step = np.divide(slope, curv, out=np.full(rows.size, np.inf), where=curv > 0.0)
        # the stop test comes before the safeguard: a step below one ulp of
        # lam would otherwise count as leaving the bracket
        going = (np.abs(step) > _TILT_TOL) & (hi - lo > _TILT_TOL)
        going &= np.abs(slope) * (hi - lo) > _TILT_CERT * np.maximum(1.0, np.abs(g))
        nxt = lam - step
        nxt = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
        rows, lam, lo, hi = rows[going], nxt[going], lo[going], hi[going]
    return gmin, passes


def batch_chernoff(p, q) -> np.ndarray:
    """Chernoff information per row: -min over lam in [0,1] of g(lam),
    g(lam) = log sum_x P(x)^lam Q(x)^(1-lam).

    Solved to floating-point resolution by a safeguarded Newton iteration
    on the tilt (see _min_log_tilt), in blocks of rows.  Rows whose
    supports are disjoint give +inf.
    """
    p, q = _as_2d(p, q)
    out = np.empty(p.shape[0])
    for i in range(0, p.shape[0], _CHERNOFF_BLOCK_ROWS):
        block = slice(i, i + _CHERNOFF_BLOCK_ROWS)
        out[block] = -_min_log_tilt(p[block], q[block])[0]
    if np.isnan(out).any():
        raise BoundViolationError("NaN in Chernoff evaluation")
    # the minimum of a function whose minimum is exactly 0 (P = Q) can come
    # out a hair above 0; clamp that round-off, nothing else
    if not np.all(out > -1e-9):
        raise BoundViolationError("Chernoff information came out negative")
    return np.maximum(out, 0.0)


def f_divergence(gen: FGenerator, p: FiniteDist, q: FiniteDist) -> float:
    """f-divergence between two distributions, aligned on the union alphabet."""
    _, pm, qm = align(p, q)
    return float(batch_f_divergence(gen, pm[None, :], qm[None, :])[0])


def bhattacharyya(p: FiniteDist, q: FiniteDist) -> float:
    """Bhattacharyya coefficient sum_x sqrt(P(x) Q(x)), in [0, 1]."""
    _, pm, qm = align(p, q)
    return float(batch_bhattacharyya(pm, qm)[0])


def chernoff_information(p: FiniteDist, q: FiniteDist) -> float:
    """Chernoff information; +inf exactly when the supports are disjoint."""
    _, pm, qm = align(p, q)
    return float(batch_chernoff(pm[None, :], qm[None, :])[0])
