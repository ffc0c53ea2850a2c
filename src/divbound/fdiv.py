"""Generic f-divergence evaluation with zero-mass conventions.

The divergence sum is D_f(P||Q) = sum_x Q(x) f(P(x)/Q(x)) with

    0 f(0/0) = 0,
    P(x) = a > 0, Q(x) = 0  contributing  a * lim_{u->inf} f(u)/u,
    P(x) = 0, Q(x) > 0      contributing  Q(x) * lim_{t->0+} f(t).

Infinite divergences are values, never errors; a NaN result is always a
bug and raises BoundViolationError.  The ``batch_*`` functions operate on
(n, k) mass matrices, one pair per row, and are what the oracle harness
drives; a NaN, infinite or negative mass in either matrix raises
DistributionError, as FiniteDist does (-0.0 counts as 0), and an input of
more than 2 dimensions raises ValueError.  The scalar operations wrap them.
Every batch evaluator gives the same bits on every memory layout of its
matrices: each row sum goes through _row_sums, which adds in the order numpy
adds a C-ordered row.

The Chernoff tilt solve works on the transposed layout: a (k, m) array
with one contiguous row per column of the masses, m the pairs still
active.  Each Newton pass is then whole-row arithmetic, the tilt lam of
each pair broadcast along the rows, and its sums are _row_sums of the
transpose.  The active pairs are compacted with np.take along axis 1, and
only in a pass where one finishes: a boolean index on that axis costs
about ten times as much.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dist import FiniteDist, align
from .errors import BoundViolationError, DistributionError
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
    if p.ndim > 2:
        raise ValueError(f"mass matrices must have at most 2 dimensions, got {p.ndim}")
    if p.shape != q.shape:
        raise ValueError(f"mass matrices differ in shape: {p.shape} vs {q.shape}")
    # NaN fails every mass test (> 0, <= 0) and would drop out of the sums;
    # min and max propagate it, and -0.0 >= 0.0 holds
    if p.size and not all(m.min() >= 0.0 and m.max() < math.inf for m in (p, q)):
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise DistributionError("non-finite probability mass")
        raise DistributionError("negative probability mass")
    return p, q


def _row_sums(a: np.ndarray) -> np.ndarray:
    """np.ascontiguousarray(a).sum(axis=-1), bit for bit, on any layout of a,
    by whole-column adds on 2 to 8 columns.

    numpy's reduction over a short last axis costs 10-40 times more per row
    than the same adds over columns, so every short-row sum of the batch
    evaluators and the sampler comes here.  The order copies numpy's on a
    C-ordered row: below 8 columns it adds them in order to +0.0; at 8 it
    adds the pairwise tree ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
    to +0.0.  Every other width goes to numpy on a C-ordered copy.  The +0.0
    start makes a row of -0.0 sum to +0.0.
    """
    k = a.shape[-1]
    if not 2 <= k <= 8:
        return np.ascontiguousarray(a).sum(axis=-1)
    c = [a[..., j] for j in range(k)]
    if k == 8:
        c = [((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))]
    out = c[0] + c[0].dtype.type(0)
    for col in c[1:]:
        out += col
    return out


def _row_extremes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a.min(axis=1), a.max(axis=1)), bit for bit, by whole-column
    np.minimum and np.maximum on 2 to 8 columns, as _row_sums adds them;
    every other width goes to numpy."""
    if not 2 <= a.shape[1] <= 8:
        return a.min(axis=1), a.max(axis=1)
    cols = list(a.T)
    return functools.reduce(np.minimum, cols), functools.reduce(np.maximum, cols)


def batch_f_divergence(gen: FGenerator, p, q) -> np.ndarray:
    """D_f(P||Q) row by row for (n, k) mass matrices."""
    p, q = _as_2d(p, q)
    both = (p > 0.0) & (q > 0.0)
    ratio = np.divide(p, q, out=np.ones_like(p), where=both)
    vals = gen.fn(ratio)  # ratio is 1 where masked, and f(1) = 0
    out = _row_sums(np.where(both, q * vals, 0.0))

    # one pass per zero-mass case, run only when its mask has an entry: an
    # empty mask sums to zeros, which change nothing
    cases = (
        (p, q, gen.slope_at_inf,
         "slope_at_inf not supplied but Q has zero mass where P does not"),
        (q, p, gen.f_at_0,
         "f_at_0 not supplied but P has zero mass where Q does not"),
    )
    for has, lacks, limit, missing in cases:
        alone = (lacks <= 0.0) & (has > 0.0)
        if alone.any():
            mass = _row_sums(np.where(alone, has, 0.0))
            if limit is None:
                raise ValueError(f"{gen.name}: {missing}")
            if math.isinf(limit):
                out = np.where(mass > 0.0, np.inf, out)
            else:
                out = out + mass * limit

    if np.isnan(out).any():
        raise BoundViolationError(f"NaN in {gen.name} divergence evaluation")
    return out


def batch_total_variation(p, q) -> np.ndarray:
    p, q = _as_2d(p, q)
    return 0.5 * _row_sums(np.abs(p - q))


def batch_bhattacharyya(p, q) -> np.ndarray:
    p, q = _as_2d(p, q)
    return _row_sums(np.sqrt(p * q))


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

    The solve runs on the (k, m) layout the module docstring describes.
    """
    p, q = np.ascontiguousarray(p.T), np.ascontiguousarray(q.T)
    common = (p > 0.0) & (q > 0.0)
    lq = np.log(q, out=np.full(q.shape, -np.inf), where=common)  # exp(lq + lam * d) is 0 off it
    d = np.log(p, out=np.zeros(p.shape), where=common)
    np.subtract(d, lq, out=d, where=common)  # 0 off the common support
    # the masses on the common support, in place of the copies
    p, q = np.where(common, p, 0.0), np.where(common, q, 0.0)
    sp, sq = _row_sums(p.T), _row_sums(q.T)
    has_common = sq > 0.0
    sp, sq = np.where(has_common, sp, 1.0), np.where(has_common, sq, 1.0)
    gmin = np.where(has_common, np.minimum(np.log(sp), np.log(sq)), -np.inf)
    slope0 = _row_sums((q * d).T) / sq
    slope1 = _row_sums((p * d).T) / sp
    del p, q, common  # not needed in the passes, where the peak is reached

    rows = np.flatnonzero(has_common & (slope0 < 0.0) & (slope1 > 0.0))
    d, lq = np.take(d, rows, axis=1), np.take(lq, rows, axis=1)
    lam = slope0[rows] / (slope0[rows] - slope1[rows])
    lo, hi, low = np.zeros(rows.size), np.ones(rows.size), gmin[rows]
    passes = 0
    while rows.size and passes < _MAX_TILT_PASSES:
        passes += 1
        # w, then w d, then w d^2, in one buffer
        w = lam * d
        w += lq
        np.exp(w, out=w)
        sw = _row_sums(w.T)
        swd = _row_sums(np.multiply(w, d, out=w).T)
        swdd = _row_sums(np.multiply(w, d, out=w).T)
        g = np.log(sw)
        np.minimum(low, g, out=low)
        slope = np.divide(swd, sw, out=swd)
        curv = np.divide(swdd, sw, out=swdd)
        curv -= slope * slope
        lo = np.where(slope < 0.0, lam, lo)
        hi = np.where(slope > 0.0, lam, hi)
        step = np.divide(slope, curv, out=np.full(rows.size, np.inf), where=curv > 0.0)
        # the stop test comes before the safeguard: a step below one ulp of
        # lam would otherwise count as leaving the bracket
        width = hi - lo
        going = (np.abs(step) > _TILT_TOL) & (width > _TILT_TOL)
        going &= np.abs(slope) * width > _TILT_CERT * np.maximum(1.0, np.abs(g))
        lam = lam - step
        lam = np.where((lam > lo) & (lam < hi), lam, 0.5 * (lo + hi))
        if not going.all():
            gmin[rows] = low
            keep = np.flatnonzero(going)
            rows, lam, lo, hi, low = rows[keep], lam[keep], lo[keep], hi[keep], low[keep]
            d, lq = np.take(d, keep, axis=1), np.take(lq, keep, axis=1)
    gmin[rows] = low
    return gmin, passes


def _chernoff_floor(z: np.ndarray) -> np.ndarray:
    """A floor under the Chernoff information of each row whose
    Bhattacharyya coefficient is z: -log(z + 2^-500).

    C = -min g >= -g(1/2) = -log Z holds exactly.  A product P Q that falls
    below the normal range loses at most 2^-1075, so each sqrt(P Q) at most
    2^-537.5 and z at most 2^-500 from k < 2^37 of them; the 2^-500 takes
    that back, and changes no z above 2^-447.  How far batch_chernoff's
    value and this floor may stray from the two sides of the chain is
    bounded at oracle._less_margin, whose margin the oracle takes off.  A
    NaN z gives a NaN floor, which rules nothing out.
    """
    return -np.log(z + 2.0**-500)


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
