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
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DistributionError

__all__ = [
    "FiniteDist",
    "make_dist",
    "align",
    "total_variation",
    "entropy_base",
]

# the default allowed |sum - 1| of raw input before make_dist rescales it
NORMALIZATION_TOL = 1e-9
# the allowed |sum - 1| of a constructed distribution
EQUALITY_TOL = 1e-12


class _Labels(tuple):
    """Labels already checked to be distinct strs; see :func:`_checked_labels`."""

    __slots__ = ()


def _checked_labels(labels: Sequence, message: str) -> _Labels:
    """labels as distinct strs, marked so that no later check repeats.

    Labels that are not str go through str() first.  Raises
    DistributionError(message) if two of them are equal.  :class:`FiniteDist`
    and :class:`~divbound.coding.CodeSpec` take marked labels as they are,
    so a code built on p.labels, and the distribution it induces, check
    nothing again.
    """
    if type(labels) is _Labels:
        return labels
    labels = _Labels(labels if set(map(type, labels)) <= {str} else map(str, labels))
    if len(set(labels)) != len(labels):
        raise DistributionError(message)
    return labels


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
        labels = self.labels
        if not isinstance(labels, (tuple, list)):
            labels = tuple(labels)
        mass = np.array(self.mass, dtype=float, copy=True)
        if mass.ndim != 1 or len(labels) != mass.shape[0]:
            raise DistributionError(
                f"got {len(labels)} labels but {mass.shape} masses"
            )
        labels = _checked_labels(labels, "labels must be unique")
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
    pos = dict(zip(p.labels, range(len(p.labels))))
    extra = [x for x in q.labels if x not in pos]
    pos.update(zip(extra, range(len(p.labels), len(p.labels) + len(extra))))
    labels = p.labels + tuple(extra)
    pm = np.zeros(len(labels))
    qm = np.zeros(len(labels))
    pm[: len(p.labels)] = p.mass
    # q's labels are unique, so one scatter puts each mass in its place
    qm[np.fromiter(map(pos.__getitem__, q.labels), np.intp, len(q.labels))] = q.mass
    return labels, pm, qm


def total_variation(p: FiniteDist, q: FiniteDist) -> float:
    """Total variation distance, half the L1 distance between the masses."""
    _, pm, qm = align(p, q)
    return 0.5 * float(np.abs(pm - qm).sum())


def _check_base(d, what: str) -> None:
    """Raise DistributionError unless the base d is an integer from 2 to the
    largest float, which the code's float arithmetic needs: NaN fails d >= 2,
    and inf is no integer.  what names d in the message."""
    if not (d >= 2 and d != math.inf and int(d) == d):
        raise DistributionError(f"{what} d={d!r} must be {'>= 2' if d < 2 else 'an integer >= 2'}")
    if d > sys.float_info.max:
        raise DistributionError(f"{what} d={d!r} must be at most the largest float, {sys.float_info.max!r}")


def entropy_base(p: FiniteDist, d: int) -> float:
    """Entropy of p in base-d units, -sum p log_d p with 0 log 0 = 0."""
    _check_base(d, "base")
    m = p.mass[p.mass > 0.0]
    return float(-(m * np.log(m)).sum() / math.log(d))
