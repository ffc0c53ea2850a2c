"""Generic f-divergence evaluation with zero-mass conventions.

The divergence sum is D_f(P||Q) = sum_x Q(x) f(P(x)/Q(x)) with

    0 f(0/0) = 0,
    P(x) = a > 0, Q(x) = 0  contributing  a * lim_{u->inf} f(u)/u,
    P(x) = 0, Q(x) > 0      contributing  Q(x) * lim_{t->0+} f(t).

Infinities are values, never errors; NaN is always a bug and trips an
assertion.  The ``batch_*`` functions operate on (n, k) mass matrices, one
pair per row, and are what the oracle harness drives; the scalar operations
wrap them.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOLS
from .dist import FiniteDist, align
from .generators import FGenerator
from .search import golden_section_min

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

    assert not np.isnan(out).any(), f"NaN in {gen.name} divergence evaluation"
    return out


def batch_total_variation(p, q) -> np.ndarray:
    p, q = _as_2d(p, q)
    return 0.5 * np.abs(p - q).sum(axis=-1)


def batch_bhattacharyya(p, q) -> np.ndarray:
    p, q = _as_2d(p, q)
    return np.sqrt(p * q).sum(axis=-1)


def batch_chernoff(p, q, tol: float = DEFAULT_TOLS.search) -> np.ndarray:
    """Chernoff information per row: -min over lam in [0,1] of g(lam),
    g(lam) = log sum_x P(x)^lam Q(x)^(1-lam).

    g is convex in lam, so a golden-section search (one interval per row)
    converges; `tol` is the bracket width in lam.  Rows whose supports are
    disjoint give +inf.
    """
    p, q = _as_2d(p, q)
    common = (p > 0.0) & (q > 0.0)
    has_common = common.any(axis=-1)
    lp = np.log(np.where(common, p, 1.0))
    lq = np.log(np.where(common, q, 1.0))

    def g(lam):
        lam = np.asarray(lam, dtype=float)[..., None]
        s = np.sum(np.where(common, np.exp(lam * lp + (1.0 - lam) * lq), 0.0), axis=-1)
        return np.log(np.where(s > 0.0, s, 1.0))

    n = p.shape[0]
    _, gmin = golden_section_min(g, np.zeros(n), np.ones(n), tol=tol)
    out = -np.asarray(gmin, dtype=float)
    # the search can land a hair above the true minimum of a function whose
    # minimum is exactly 0 (P = Q); clamp that round-off, nothing else
    assert np.all(out > -1e-9), "Chernoff information came out negative"
    out = np.maximum(out, 0.0)
    out = np.where(has_common, out, np.inf)
    assert not np.isnan(out).any(), "NaN in Chernoff evaluation"
    return out


def f_divergence(gen: FGenerator, p: FiniteDist, q: FiniteDist) -> float:
    """f-divergence between two distributions, aligned on the union alphabet."""
    _, pm, qm = align(p, q)
    return float(batch_f_divergence(gen, pm[None, :], qm[None, :])[0])


def bhattacharyya(p: FiniteDist, q: FiniteDist) -> float:
    """Bhattacharyya coefficient sum_x sqrt(P(x) Q(x)), in [0, 1]."""
    _, pm, qm = align(p, q)
    return float(np.sqrt(pm * qm).sum())


def chernoff_information(p: FiniteDist, q: FiniteDist, tol: float = DEFAULT_TOLS.search) -> float:
    """Chernoff information; +inf exactly when the supports are disjoint."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    _, pm, qm = align(p, q)
    return float(batch_chernoff(pm[None, :], qm[None, :], tol=tol)[0])
