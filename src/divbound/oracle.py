"""Brute-force verification of the closed-form bounds.

The harness samples pairs of distributions at a fixed total variation
distance and checks that no sampled value of a measure crosses its
closed-form extreme, that the designated 2- or 3-element pair attains the
extreme, and that the empirical extreme approaches it.  This is
falsification-grade evidence, not a proof.

Sampling construction, per pair: draw P from the uniform simplex via
normalized exponentials, split the alphabet into a sign set B (mass moves
off it) and its complement A, rescale the B side proportionally by
1 - eps / mass(B) and push mass eps onto A with fresh simplex weights.  The
resulting Q stays in the simplex and the pair sits at total variation eps
exactly, which is checked, not assumed.  When a drawn P cannot carry a
mass-eps sign set on a proper subset (min mass > 1 - eps), the smallest
atom is rescaled into the feasible range and the rest renormalized.

Randomness comes from numpy's PCG64 with streams derived from
(seed, grid index, support size), so grid points are independent and a run
is reproducible bit for bit; the generator name is recorded on each report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import MEASURES, BoundCurve, Measure, extremal_pair, find_measure
from .config import DEFAULT_TOLS
from .dist import FiniteDist
from .errors import BoundViolationError, SampleExhaustedError
from .fdiv import batch_total_variation

__all__ = [
    "TVConstrainedSampler",
    "sample_pair",
    "ORACLE_MEASURES",
    "VerifyPointReport",
    "verify_min",
    "grid_verify",
    "fine_grid_pairs",
]

RNG_NAME = "numpy PCG64"
_VIOLATION_SLACK = 1e-9
_ATTAIN_TOL = 1e-9


@dataclass(frozen=True)
class TVConstrainedSampler:
    """Configuration for drawing pairs at fixed total variation distance."""

    support_size: int
    eps_target: float
    seed: int
    tol: float = DEFAULT_TOLS.tv_match

    def __post_init__(self):
        if not 2 <= self.support_size <= 8:
            raise ValueError(f"support_size={self.support_size!r} outside [2, 8]")
        if not 0.0 <= self.eps_target < 1.0:
            raise ValueError(f"eps_target={self.eps_target!r} outside [0, 1)")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


def _simplex(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    e = rng.exponential(size=(n, k))
    return e / e.sum(axis=1, keepdims=True)


def _draw_sign_sets(rng, pm: np.ndarray, eps: float):
    """Random sign sets B with mass(B) >= eps and a nonempty complement.

    Coordinates are visited in a random order until the running mass reaches
    eps; coordinates after that point (except the last, which anchors the
    complement) join B by fair coin flips so that both near-minimal and bulky
    sign sets occur.  Rows whose ordering cannot leave the complement
    nonempty are flagged for retry.
    """
    m, k = pm.shape
    perm = rng.permuted(np.tile(np.arange(k), (m, 1)), axis=1)
    cums = np.cumsum(np.take_along_axis(pm, perm, axis=1), axis=1)
    prefix_len = (cums >= eps).argmax(axis=1)
    ok = prefix_len <= k - 2
    pos = np.arange(k)[None, :]
    in_b = pos <= prefix_len[:, None]
    in_b |= (rng.random((m, k)) < 0.5) & (pos > prefix_len[:, None]) & (pos < k - 1)
    b = np.zeros((m, k), dtype=bool)
    np.put_along_axis(b, perm, in_b, axis=1)
    return b, ok


def _sample_batch(
    rng: np.random.Generator,
    n: int,
    k: int,
    eps: float,
    tol: float = DEFAULT_TOLS.tv_match,
    max_rounds: int = 1000,
) -> tuple[np.ndarray, np.ndarray]:
    """n pairs of k-point distributions at total variation exactly eps."""
    pm = _simplex(rng, n, k)
    if eps == 0.0:
        return pm, pm.copy()
    qm = np.empty_like(pm)
    done = np.zeros(n, dtype=bool)
    for _ in range(max_rounds):
        idx = np.flatnonzero(~done)
        if idx.size == 0:
            break
        sub = pm[idx]

        # no proper subset of these rows carries mass eps: shrink the
        # smallest atom into (0, 1 - eps] and renormalize the rest
        stuck = np.flatnonzero(1.0 - sub.min(axis=1) < eps)
        if stuck.size:
            jmin = sub[stuck].argmin(axis=1)
            old = sub[stuck, jmin]
            new = (1.0 - eps) * rng.random(stuck.size)
            sub[stuck] *= ((1.0 - new) / (1.0 - old))[:, None]
            sub[stuck, jmin] = new
            pm[idx] = sub

        b, ok = _draw_sign_sets(rng, sub, eps)
        if not ok.any():
            continue
        rows = idx[ok]
        b = b[ok]
        sub = sub[ok]
        mass_b = np.where(b, sub, 0.0).sum(axis=1)
        spread = rng.exponential(size=sub.shape) * ~b
        weights = spread / spread.sum(axis=1, keepdims=True)
        q = np.where(b, sub * (1.0 - eps / mass_b)[:, None], sub + eps * weights)
        qm[rows] = np.maximum(q, 0.0)
        done[rows] = True
    if not done.all():
        raise SampleExhaustedError(
            f"could not satisfy TV = {eps!r} on support {k} "
            f"after {max_rounds} rounds"
        )
    tv = batch_total_variation(pm, qm)
    if not np.all(np.abs(tv - eps) <= tol):
        raise BoundViolationError(f"sampler left the TV constraint {eps!r} on support {k}")
    return pm, qm


def sample_pair(sampler: TVConstrainedSampler) -> tuple[FiniteDist, FiniteDist]:
    """The pair determined by the sampler's seed; pure in the sampler."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(sampler.seed)))
    pm, qm = _sample_batch(rng, 1, sampler.support_size, sampler.eps_target, sampler.tol)
    labels = tuple(f"x{i + 1}" for i in range(sampler.support_size))
    return FiniteDist(labels, pm[0]), FiniteDist(labels, qm[0])


def fine_grid_pairs(eps: float, support: int, step: float = 1e-3):
    """Deterministic pair families on supports 2 and 3 at total variation eps.

    Support 2 sweeps the free endpoint: P = (q1 + eps, 1 - q1 - eps),
    Q = (q1, 1 - q1).  Support 3 moves mass eps from the first atom to the
    third across a free middle: P = (a, b, 1 - a - b),
    Q = (a - eps, b, 1 - a - b + eps).  Both families contain every
    designated extremal pair when eps sits on the grid.
    """
    if support == 2:
        n = int(round((1.0 - eps) / step)) + 1
        q1 = np.minimum(np.arange(n) * step, 1.0 - eps)
        p = np.stack([q1 + eps, 1.0 - q1 - eps], axis=1)
        q = np.stack([q1, 1.0 - q1], axis=1)
    elif support == 3:
        n_a = int(round((1.0 - eps) / step)) + 1
        a_vals = np.minimum(eps + np.arange(n_a) * step, 1.0)
        blocks_a, blocks_b = [], []
        for a in a_vals:
            n_b = int(round((1.0 - a) / step)) + 1
            b = np.minimum(np.arange(n_b) * step, 1.0 - a)
            blocks_a.append(np.full(b.size, a))
            blocks_b.append(b)
        a = np.concatenate(blocks_a)
        b = np.concatenate(blocks_b)
        p = np.stack([a, b, 1.0 - a - b], axis=1)
        q = np.stack([a - eps, b, 1.0 - a - b + eps], axis=1)
    else:
        raise ValueError("fine grids are defined for supports 2 and 3 only")
    return np.maximum(p, 0.0), np.maximum(q, 0.0)


# the measures the harness can verify: those with a batch evaluator
ORACLE_MEASURES: dict[str, Measure] = {k: m for k, m in MEASURES.items() if m.evaluate is not None}


@dataclass(frozen=True)
class VerifyPointReport:
    """Outcome of verifying one measure at one eps."""

    measure: str
    direction: str
    eps: float
    closed_form: float
    n_samples: int
    support_sizes: tuple[int, ...]
    seed: int
    rng_name: str
    sample_extreme: float
    fine_extreme: Optional[float]
    extremal_value: float
    violations: int
    witness: Optional[tuple[FiniteDist, FiniteDist]]
    attained: bool
    gap: float
    passed: bool
    failure: Optional[str]


def _stream(seed: int, stream_key: int, support: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_key, support))
    return np.random.Generator(np.random.PCG64(ss))


def verify_min(
    measure: str,
    eps: float,
    n_samples: int,
    closed_form: Optional[float] = None,
    seed: int = 0,
    support_sizes: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    fine_step: Optional[float] = 1e-3,
    gap_threshold: Optional[float] = None,
    stream_key: int = 0,
    tol: float = DEFAULT_TOLS.tv_match,
) -> VerifyPointReport:
    """Stress one closed-form extreme at one eps.

    Draws n_samples pairs per support size, adds deterministic fine grids on
    supports 2 and 3 plus the designated extremal pair, and checks that
    (i) no value crosses the closed form by more than 1e-9,
    (ii) the extremal pair attains it within 1e-9, and
    (iii) the empirical extreme is within gap_threshold when one is given.
    """
    om = find_measure(ORACLE_MEASURES, measure)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps={eps!r} outside the sampler domain [0, 1)")
    cf = om.closed_form(eps) if closed_form is None else float(closed_form)
    sign = 1.0 if om.direction == "min" else -1.0

    best = math.inf
    violations = 0
    witness = None

    def scan(pm, qm):
        nonlocal best, violations, witness
        vals = sign * om.evaluate(pm, qm)
        crossing = vals < sign * cf - _VIOLATION_SLACK
        if crossing.any():
            violations += int(crossing.sum())
            if witness is None:
                i = int(np.argmin(vals))
                labels = tuple(f"x{j + 1}" for j in range(pm.shape[1]))
                witness = (FiniteDist(labels, pm[i]), FiniteDist(labels, qm[i]))
        return float(vals.min())

    if n_samples > 0:
        for s in support_sizes:
            rng = _stream(seed, stream_key, s)
            pm, qm = _sample_batch(rng, n_samples, s, eps, tol)
            best = min(best, scan(pm, qm))

    fine_best = None
    if fine_step is not None:
        fine_best = math.inf
        for s in (2, 3):
            pm, qm = fine_grid_pairs(eps, s, step=fine_step)
            fine_best = min(fine_best, scan(pm, qm))
        best = min(best, fine_best)
        fine_best = sign * fine_best

    pair = extremal_pair(eps, om.extremal_kind)
    extremal_value = float(om.evaluate(pair.p.mass[None, :], pair.q.mass[None, :])[0])
    attained = abs(extremal_value - cf) <= _ATTAIN_TOL
    best = min(best, sign * extremal_value)
    gap = abs(sign * best - cf)

    failure = None
    if violations:
        failure = (
            f"{violations} sampled pair(s) crossed the closed form; "
            f"worst witness retained"
        )
    elif not attained:
        failure = (
            f"extremal {om.extremal_kind} pair gives {extremal_value!r}, "
            f"closed form {cf!r}"
        )
    elif gap_threshold is not None and gap > gap_threshold:
        failure = f"empirical gap {gap!r} exceeds threshold {gap_threshold!r}"

    return VerifyPointReport(
        measure=measure,
        direction=om.direction,
        eps=eps,
        closed_form=cf,
        n_samples=n_samples,
        support_sizes=tuple(support_sizes),
        seed=seed,
        rng_name=RNG_NAME,
        sample_extreme=sign * best,
        fine_extreme=fine_best,
        extremal_value=extremal_value,
        violations=violations,
        witness=witness,
        attained=attained,
        gap=gap,
        passed=failure is None,
        failure=failure,
    )


def grid_verify(
    measure: str,
    eps_grid,
    n_samples: int,
    seed: int = 0,
    support_sizes: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    fine_step: Optional[float] = 1e-3,
    gap_threshold: Optional[float] = None,
    tol: float = DEFAULT_TOLS.tv_match,
) -> tuple[BoundCurve, BoundCurve, list[VerifyPointReport]]:
    """Run verify_min over a grid; returns (closed curve, empirical curve, reports).

    The whole grid is domain-checked before any sampling starts.
    """
    eps_grid = [float(e) for e in eps_grid]
    find_measure(ORACLE_MEASURES, measure)
    outside = [e for e in eps_grid if not 0.0 <= e < 1.0]
    if outside:
        raise ValueError(f"grid point eps={outside[0]!r} outside the sampler domain [0, 1)")

    reports = []
    for i, e in enumerate(eps_grid):
        reports.append(
            verify_min(
                measure,
                e,
                n_samples,
                seed=seed,
                support_sizes=support_sizes,
                fine_step=fine_step,
                gap_threshold=gap_threshold,
                stream_key=i,
                tol=tol,
            )
        )
    closed = BoundCurve(
        f"{measure}_closed", tuple((r.eps, r.closed_form) for r in reports)
    )
    empirical = BoundCurve(
        f"{measure}_empirical", tuple((r.eps, r.sample_extreme) for r in reports)
    )
    return closed, empirical, reports
