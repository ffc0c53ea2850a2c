"""Finite discrete probability distributions and elementary information quantities.

All masses are plain float64 probabilities in natural units.  Logarithms are
natural throughout the library; base-d quantities are converted at the
boundary (see :func:`entropy_base`).  Values are immutable after construction
and every operation here is a pure function, so everything is safe to share
across threads.

Two tolerances bound the mass sum.  A raw input sum may miss 1 by the
``normalization`` keyword of :func:`make_dist` (default
:data:`NORMALIZATION_TOL`) before it is rescaled; user files reach it
through the text readers and ``--tol-normalization``.  A constructed
:class:`FiniteDist` must sum to 1 within the fixed :data:`EQUALITY_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DistributionError

__all__ = [
    "FiniteDist",
    "make_dist",
    "align",
    "total_variation",
    "binary_divergence",
    "entropy_base",
]

# the default allowed |sum - 1| of raw input before make_dist rescales it
NORMALIZATION_TOL = 1e-9
# the allowed |sum - 1| of a constructed distribution
EQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class FiniteDist:
    """A probability vector on a labeled finite alphabet.

    Invariants (checked at construction): labels are unique, all masses are
    finite and nonnegative, and the masses sum to 1 within
    :data:`EQUALITY_TOL`.  Use :func:`make_dist` to build one from raw user
    input; it clamps tiny negative round-off and renormalizes.
    """

    labels: tuple[str, ...]
    mass: np.ndarray

    def __post_init__(self):
        labels = tuple(map(str, self.labels))
        mass = np.array(self.mass, dtype=float, copy=True)
        if mass.ndim != 1 or len(labels) != mass.shape[0]:
            raise DistributionError(
                f"got {len(labels)} labels but {mass.shape} masses"
            )
        if len(set(labels)) != len(labels):
            raise DistributionError("labels must be unique")
        if not np.isfinite(mass).all():
            raise DistributionError("non-finite probability mass")
        if np.any(mass < 0.0):
            raise DistributionError("negative probability mass")
        s = float(mass.sum())
        if abs(s - 1.0) > EQUALITY_TOL:
            raise DistributionError(f"masses sum to {s!r}, not 1")
        mass.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mass", mass)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, label: str) -> float:
        return float(self.mass[self.labels.index(label)])

    def support_size(self) -> int:
        return int(np.count_nonzero(self.mass))


def make_dist(
    labels: Sequence[str],
    mass: Iterable[float],
    normalization: float = NORMALIZATION_TOL,
) -> FiniteDist:
    """Validate and normalize raw input into a :class:`FiniteDist`.

    Entries in [-1e-15, 0) are treated as round-off and clamped to zero;
    anything more negative is rejected.  The sum must be within
    ``normalization`` (a number >= 0) of 1 and is then rescaled.  The labels
    and the rescaled masses are validated once, by :class:`FiniteDist`.
    """
    if not normalization >= 0.0:  # NaN too, which would pass every sum
        raise ValueError(f"normalization={normalization!r} must be a number >= 0")
    m = np.asarray(mass if isinstance(mass, np.ndarray) else list(mass), dtype=float)
    if len(labels) != m.shape[0]:
        raise DistributionError(
            f"got {len(labels)} labels but {m.shape[0]} masses"
        )
    if np.any(m < -1e-15):
        bad = float(m.min())
        raise DistributionError(f"negative probability mass {bad!r}")
    m = np.where(m < 0.0, 0.0, m)
    s = float(m.sum())
    if abs(s - 1.0) > normalization:
        raise DistributionError(f"masses sum to {s!r}, outside tolerance of 1")
    with np.errstate(invalid="ignore"):  # 0/0 and inf/inf: FiniteDist rejects the NaN
        m = m / s
    return FiniteDist(labels, m)


def align(p: FiniteDist, q: FiniteDist) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Put two distributions on the union alphabet, zero mass where missing.

    The union keeps p's label order first, then q's extra labels in order.
    """
    if p.labels == q.labels:
        return p.labels, p.mass, q.mass
    known = set(p.labels)
    extra = [x for x in q.labels if x not in known]
    labels = p.labels + tuple(extra)
    pm = np.zeros(len(labels))
    qm = np.zeros(len(labels))
    pm[: len(p.labels)] = p.mass
    pos = {x: i for i, x in enumerate(labels)}
    for x, v in zip(q.labels, q.mass):
        qm[pos[x]] = v
    return labels, pm, qm


def total_variation(p: FiniteDist, q: FiniteDist) -> float:
    """Total variation distance, half the L1 distance between the masses."""
    _, pm, qm = align(p, q)
    return 0.5 * float(np.abs(pm - qm).sum())


def binary_divergence(p: float, q: float) -> float:
    """Relative entropy between Bernoulli(p) and Bernoulli(q), natural log.

    d(p||q) = p log(p/q) + (1-p) log((1-p)/(1-q)) with 0 log 0 = 0.
    Requires p in [0,1] and q strictly inside (0,1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p!r} outside [0, 1]")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q={q!r} outside the open interval (0, 1)")
    t1 = p * math.log(p / q) if p > 0.0 else 0.0
    t2 = (1.0 - p) * math.log((1.0 - p) / (1.0 - q)) if p < 1.0 else 0.0
    return t1 + t2


def entropy_base(p: FiniteDist, d: int) -> float:
    """Entropy of p in base-d units, -sum p log_d p with 0 log 0 = 0."""
    if int(d) != d or d < 2:
        raise ValueError(f"base d={d!r} must be an integer >= 2")
    m = p.mass[p.mass > 0.0]
    return float(-(m * np.log(m)).sum() / math.log(d))
