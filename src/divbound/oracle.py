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
exactly, which is checked, not assumed: a batch with a pair farther than the
fixed ``TV_MATCH_TOL`` = 1e-9 from eps raises BoundViolationError (the draw
meets eps to a few ulps).  When a drawn P cannot carry a mass-eps sign set
on a proper subset (min mass > 1 - eps), the smallest atom is rescaled into
the feasible range and the rest renormalized.

B is the prefix of a random order of the atoms that first reaches mass eps,
plus fair coins on the later atoms but the last, the anchor, which stays in
A and so must lie in S = {j : P_j <= 1 - eps}.  The anchor is drawn
uniformly from S and swapped into the last slot of an independent uniform
permutation: a uniform order conditioned on ending in S, as when whole
orders were redrawn until one did (the tests keep that reference route).

Randomness comes from numpy's PCG64 with streams derived from
(seed, grid index, support size), so grid points are independent and a run
is reproducible bit for bit; the generator name is recorded on each report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import MEASURES, Measure, extremal_pair, find_measure
from .dist import FiniteDist
from .errors import BoundViolationError
from .fdiv import batch_total_variation

__all__ = [
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
# the largest |TV - eps| a sampled pair may show
TV_MATCH_TOL = 1e-9


def _simplex(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    e = rng.exponential(size=(n, k))
    return e / e.sum(axis=1, keepdims=True)


# kept as its own function, called once per batch: perfbench/spans.py
# counts oracle.sign_sets.* from its calls
def _draw_sign_sets(rng, pm: np.ndarray, eps: float):
    """Random sign sets B with mass(B) >= eps, one pass, built as the module
    docstring says; near-minimal and bulky sets both occur.  Every row needs
    an atom of mass <= 1 - eps.  Returns B and an all-True row mask.
    """
    m, k = pm.shape
    perm = rng.permuted(np.tile(np.arange(k), (m, 1)), axis=1)
    feasible = pm <= 1.0 - eps
    rank = rng.integers(feasible.sum(axis=1))
    anchor = (np.cumsum(feasible, axis=1) > rank[:, None]).argmax(axis=1)
    slot = (perm == anchor[:, None]).argmax(axis=1)
    perm[np.arange(m), slot] = perm[:, -1]
    perm[:, -1] = anchor
    cums = np.cumsum(np.take_along_axis(pm, perm, axis=1), axis=1)
    # the mass before the anchor is 1 - p(anchor) >= eps, but its float sum
    # can land an ulp below eps: the anchor never joins the prefix
    prefix_len = np.minimum((cums >= eps).argmax(axis=1), k - 2)
    pos = np.arange(k)[None, :]
    in_b = pos <= prefix_len[:, None]
    in_b |= (rng.random((m, k)) < 0.5) & (pos > prefix_len[:, None]) & (pos < k - 1)
    b = np.zeros((m, k), dtype=bool)
    np.put_along_axis(b, perm, in_b, axis=1)
    return b, np.ones(m, dtype=bool)


def _sample_batch(
    rng: np.random.Generator, n: int, k: int, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """n pairs of k-point distributions at total variation exactly eps."""
    pm = _simplex(rng, n, k)
    if eps == 0.0:
        return pm, pm.copy()

    # no proper subset of these rows carries mass eps: shrink the smallest
    # atom into [0, 1 - eps), a possible anchor, and renormalize the rest
    stuck = np.flatnonzero(1.0 - pm.min(axis=1) < eps)
    if stuck.size:
        jmin = pm[stuck].argmin(axis=1)
        old = pm[stuck, jmin]
        new = (1.0 - eps) * rng.random(stuck.size)
        pm[stuck] *= ((1.0 - new) / (1.0 - old))[:, None]
        pm[stuck, jmin] = new

    b, _ = _draw_sign_sets(rng, pm, eps)
    mass_b = np.where(b, pm, 0.0).sum(axis=1)
    spread = rng.exponential(size=pm.shape) * ~b
    weights = spread / spread.sum(axis=1, keepdims=True)
    qm = np.maximum(np.where(b, pm * (1.0 - eps / mass_b)[:, None], pm + eps * weights), 0.0)
    tv = batch_total_variation(pm, qm)
    if not np.all(np.abs(tv - eps) <= TV_MATCH_TOL):
        raise BoundViolationError(f"sampler left the TV constraint {eps!r} on support {k}")
    return pm, qm


def sample_pair(support_size: int, eps: float, seed: int) -> tuple[FiniteDist, FiniteDist]:
    """One pair on support_size atoms at total variation eps; pure in its arguments."""
    if not 2 <= support_size <= 8:
        raise ValueError(f"support_size={support_size!r} outside [2, 8]")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps={eps!r} outside [0, 1)")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    pm, qm = _sample_batch(rng, 1, support_size, eps)
    labels = tuple(f"x{i + 1}" for i in range(support_size))
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
        # b runs over j * step, j = 0 .. n_b - 1, for each a
        n_b = np.rint((1.0 - a_vals) / step).astype(np.intp) + 1
        a = np.repeat(a_vals, n_b)
        j = np.arange(a.size) - np.repeat(np.cumsum(n_b) - n_b, n_b)
        b = np.minimum(j * step, 1.0 - a)
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
    seed: int = 0,
    support_sizes: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    fine_step: Optional[float] = 1e-3,
    gap_threshold: Optional[float] = None,
    stream_key: int = 0,
) -> VerifyPointReport:
    """Stress one closed-form extreme at one eps.

    Draws n_samples pairs per support size, adds deterministic fine grids on
    supports 2 and 3 plus the designated extremal pair, and checks that
    (i) no value crosses the closed form by more than 1e-9,
    (ii) the extremal pair attains it within 1e-9, and
    (iii) the empirical extreme is within gap_threshold when one is given.
    The witness is the worst crossing pair over every batch and fine grid.
    """
    om = find_measure(ORACLE_MEASURES, measure)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps={eps!r} outside the sampler domain [0, 1)")
    if gap_threshold is not None and math.isnan(gap_threshold):
        raise ValueError("gap_threshold is NaN, which would pass every gap")
    cf = om.closed_form(eps)
    sign = 1.0 if om.direction == "min" else -1.0
    line = sign * cf - _VIOLATION_SLACK  # a signed value below it crosses

    best = math.inf  # the least signed value scanned so far
    violations = 0
    witness = None

    def scan(pm, qm):
        nonlocal best, violations, witness
        vals = sign * om.evaluate(pm, qm)
        violations += int(np.count_nonzero(vals < line))
        i = int(np.argmin(vals))
        low = float(vals[i])
        if low < min(best, line):
            labels = tuple(f"x{j + 1}" for j in range(pm.shape[1]))
            witness = (FiniteDist(labels, pm[i]), FiniteDist(labels, qm[i]))
        best = min(best, low)
        return low

    if n_samples > 0:
        for s in support_sizes:
            scan(*_sample_batch(_stream(seed, stream_key, s), n_samples, s, eps))

    fine_best = None
    if fine_step is not None:
        fine_best = sign * min(scan(*fine_grid_pairs(eps, s, step=fine_step)) for s in (2, 3))

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
) -> list[VerifyPointReport]:
    """Run verify_min at each grid point, on stream key = the point's index.

    The whole grid is domain-checked before any sampling starts.
    """
    eps_grid = [float(e) for e in eps_grid]
    find_measure(ORACLE_MEASURES, measure)
    outside = [e for e in eps_grid if not 0.0 <= e < 1.0]
    if outside:
        raise ValueError(f"grid point eps={outside[0]!r} outside the sampler domain [0, 1)")
    return [
        verify_min(
            measure,
            e,
            n_samples,
            seed=seed,
            support_sizes=support_sizes,
            fine_step=fine_step,
            gap_threshold=gap_threshold,
            stream_key=i,
        )
        for i, e in enumerate(eps_grid)
    ]
