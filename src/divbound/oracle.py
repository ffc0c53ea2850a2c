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

B is built from the atoms in column order: the prefix that first reaches
mass eps, plus fair coins on the later atoms, all but the anchor, which
stays in A and so must lie in S = {j : P_j <= 1 - eps}.  The anchor is drawn
uniformly from S.  No permutation is drawn, because the columns of P are
exchangeable: P is a normalized vector of i.i.d. exponentials, and the
shrink of stuck rows acts on the smallest atom, whichever column holds it.
So the column order of the atoms besides the anchor is already a uniform
random order, whichever atom the anchor is, and each pair has, up to a
relabelling of atoms, the law of a uniform order conditioned on ending in
S: the law of the rejection route that redrew whole orders until one did.
The tests keep that route, and the permutation draw this one replaced, as
references.  _draw_sign_sets sees only the columns it is given and relies
on its caller for the exchangeability.

A pair has only 2 to 8 masses, and numpy runs an operation over so short
a row 10-40 times slower than over a long one.  So the sampler works on
the transposed layout: a (k, n) array per batch, one contiguous row of n
masses per atom, and each step is a whole-array or whole-row call.  Row
sums of the pairs are fdiv._row_sums of the transpose, whose bits do not
depend on the layout; the running sums of the sign sets add row after
row, in np.cumsum's order; minima and first positions are exact in any
order.  So the draws are those of the row layout bit for bit: the tests
keep it as the reference.  The exponential draws (rng.standard_exponential,
the bits of rng.exponential at scale 1 for less work) fill (n, k) arrays,
one pair per row as before, and are copied to the column layout with
x.T.copy().  The pairs go to the evaluators as (n, k) views of the
columns, P.T and Q.T.

Randomness comes from numpy's PCG64 with streams derived from
(seed, grid index, support size), so grid points are independent and a run
is reproducible bit for bit; the generator name is recorded on each report.

verify_min scans blocks on a thread pool with one worker per CPU the
process may run on (numpy releases the GIL inside its loops).  A block is
one sampled support, drawn from its own stream, or the whole fine grid at
one eps, which the worker builds itself.  The streams do not depend on the
measure, so one block serves every measure of the run: the worker draws or
builds it once, calls each distinct evaluator on it once (the two
Bhattacharyya entries share one), and returns per measure its crossing
count and its least signed value with that row, the first on ties or NaN,
as np.argmin picks.  The main thread merges each measure's results in a
fixed order: supports 2 to 8 (SUPPORT_SIZES), then the fine grid, whatever
the order they were submitted in (largest support first).  A row
becomes the witness only when it lies strictly below the line and every
value before it.  So a report does not depend on the number of CPUs, on
which block finishes first, or on the other measures of the run.

The fine grid is one 1-D family: two rows of each run of the support-3
pairs P = (a, b, c), Q = (a - eps, b, c + eps), b + c = 1 - a, one run per
value of a: its first row (b = 0) and its last (the least c, 0 when the
step divides 1 - a).  The other rows of a run add nothing.  Merging atoms
2 and 3 of any row gives the run's first row, and merging two atoms never
raises an f-divergence or Chernoff information and never lowers
Z = sum sqrt(PQ) (data processing), so the first row holds the run's least
value of hellinger2, jeffreys, capacitory and chernoff and its largest Z.
For bhattacharyya_lower, Z = sqrt(a (a - eps)) + b + sqrt(c (c + eps)),
and sqrt(c (c + eps)) - c grows with c, so the last row holds the run's
least Z.  tv is eps on every row.  The tests check this on the whole 2-D
grid, up to rounding.  A first row is the binary pair (a, 1 - a),
(a - eps, 1 - a + eps) with a zero atom between, which adds nothing to any
measure, so the first rows also sweep the binary pairs at TV eps, to
which Harremoes and Vajda reduce such bounds; no support-2 grid is
scanned besides them.

The scan skips what cannot matter by one rule: a row whose floor less the
margin lies above both the line and t, a real row's signed value, can
neither cross nor hold the least value, so every report is that of the
full scan bit for bit.  A measure with a screen (bounds.Measure.screen;
only chernoff has one) floors each row by the chain
C(P, Q) >= -log Z(P, Q) >= -1/2 log(1 - eps^2), for the price of one
Bhattacharyya pass, which the rows share with a Bhattacharyya entry of the
same scan.  The row with the least floor is solved, its value is t, and
then only the rows the rule keeps: on verify's blocks at 5000 samples per
support about one row in 3500.  The margin, 2^-36 max(1, |floor|), covers
the rounding of the sums and the Chernoff solver's shortfall (derived at
_less_margin).  The tilt solve treats each row on its own, so the values
are those of the full solve.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import Measure, checked_measures, extremal_pair, find_measure
from .dist import FiniteDist
from .errors import BoundViolationError
from .fdiv import _row_sums, batch_total_variation

__all__ = [
    "sample_pair",
    "SUPPORT_SIZES",
    "ORACLE_MEASURES",
    "VerifyPointReport",
    "verify_min",
    "grid_verify",
    "fine_grid_pairs",
]

RNG_NAME = "numpy PCG64"
# the supports verify samples, in merge order
SUPPORT_SIZES = (2, 3, 4, 5, 6, 7, 8)
_VIOLATION_SLACK = 1e-9
_ATTAIN_TOL = 1e-9
# the largest |TV - eps| a sampled pair may show
TV_MATCH_TOL = 1e-9
# glibc's malloc maps each allocation above its threshold (128 KB at start)
# afresh and unmaps it on free, so the 80-400 KB arrays of each batch would
# fault their pages in anew, batch after batch.  Freeing a mapped chunk
# raises the threshold to its size for the rest of the process, so the
# import takes and frees this many floats (4 MB, never touched), and every
# caller of the sampler gets the lifted threshold; other allocators just
# hand the array out and take it back
_HEAP_WARM_FLOATS = 1 << 19
np.empty(_HEAP_WARM_FLOATS)


def _simplex(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """n points of the uniform simplex on k atoms, as a (k, n) array that
    holds each atom's masses in one contiguous row."""
    e = rng.standard_exponential(size=(n, k)).T.copy()
    e /= _row_sums(e.T)
    return e


# bit j of a byte, for j = 0..7, one per row
_BITS = (1 << np.arange(8, dtype=np.uint8))[:, None]


def _accumulate(a: np.ndarray) -> np.ndarray:
    """a replaced by its running sums down the first axis, which
    np.cumsum(a, axis=0) gives bit for bit, row add by row add: numpy
    accumulates down the first axis of a C-ordered array 5-10 times slower."""
    for j in range(1, len(a)):
        np.add(a[j - 1], a[j], out=a[j])
    return a


# kept as its own function, called once per batch, and still returning an
# all-True row mask: perfbench/spans.py counts oracle.sign_sets.* from its
# calls and reads the mask
def _draw_sign_sets(rng, p: np.ndarray, eps: float):
    """Random sign sets B with mass(B) >= eps, one pass, built as the module
    docstring says; near-minimal and bulky sets both occur.  p holds m
    pairs' masses as (k, m) columns, one row per atom, and every pair needs
    an atom of mass <= 1 - eps.  Returns B, shaped as p, and an all-True
    mask over the pairs.

    B follows the row order of p, so each pair's atoms must come in a
    uniform random order: the caller's atoms must be exchangeable, as
    _sample_batch's are.  On a fixed order the prefix always starts at the
    same atom.
    """
    k, m = p.shape
    feasible = p <= 1.0 - eps
    counts = _accumulate(feasible.astype(np.uint8))  # running counts of feasible anchors
    rank = rng.integers(counts[-1].astype(np.int_))
    # the anchor: the feasible column where the count first exceeds rank
    free = counts != (rank + 1).astype(np.uint8)
    free |= ~feasible
    # fair coins: bits 0..k-1 of one byte per row, as a (k, m) bool array
    coins = rng.integers(0, 256, size=m, dtype=np.uint8)
    b = (coins & _BITS[:k]) != 0
    # column j joins the prefix while the mass of the free columns before it
    # is below eps; the coins matter only past the prefix, and never on the
    # anchor.  The mass besides the anchor is 1 - p(anchor) >= eps, but its
    # float sum can land an ulp below eps: then every free column is in B
    b[0] |= eps > 0.0  # no mass comes before column 0
    b[1:] |= _accumulate(p[:-1] * free[:-1]) < eps
    b &= free
    return b, np.ones(m, dtype=bool)


def _q_columns(p: np.ndarray, b: np.ndarray, e: np.ndarray, eps: float) -> np.ndarray:
    """Q for the (k, m) columns p, the sign sets b and exponential draws e,
    which it overwrites: outside B, q = p + eps * (e / its row sum); inside,
    p shrunk to carry eps less."""
    # p >= +0.0, so p * b is np.where(b, p, 0.0) bit for bit, without the
    # branch per element that a random mask makes costly
    mass_b = _row_sums((p * b).T)
    off = ~b
    e *= off
    e /= _row_sums(e.T)
    e *= eps
    # q = spread + p * f, with f the factor on B and 1 off it, where spread
    # is 0: each element gets 0 + p * factor or spread + p * 1, the bits of
    # a np.where on b, without its branch per element
    f = b * (1.0 - eps / mass_b)
    f += off
    f *= p
    e += f
    return np.maximum(e, 0.0, out=e)


def _sample_batch(
    rng: np.random.Generator, n: int, k: int, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """n pairs of k-point distributions at total variation exactly eps, as
    (n, k) views of (k, n) column arrays."""
    p = _simplex(rng, n, k)
    if eps == 0.0:
        return p.T, p.copy().T

    # no proper subset of these rows carries mass eps: shrink the smallest
    # atom into [0, 1 - eps), a possible anchor, and renormalize the rest
    low = p.min(axis=0)
    stuck = np.flatnonzero(1.0 - low < eps)
    if stuck.size:
        sub = p[:, stuck]
        at = ((sub == low[stuck]).argmax(axis=0), np.arange(stuck.size))  # each first least atom
        old = sub[at]
        new = (1.0 - eps) * rng.random(stuck.size)
        sub *= (1.0 - new) / (1.0 - old)
        sub[at] = new
        p[:, stuck] = sub

    b = _draw_sign_sets(rng, p, eps)[0]
    q = _q_columns(p, b, rng.standard_exponential(size=(n, k)).T.copy(), eps)
    pm, qm = p.T, q.T
    tv = batch_total_variation(pm, qm)
    if not np.all(np.abs(tv - eps) <= TV_MATCH_TOL):
        raise BoundViolationError(f"sampler left the TV constraint {eps!r} on support {k}")
    return pm, qm


def _check_integer(value, name: str) -> None:
    """TypeError naming the argument unless operator.index takes value, as
    it takes a Python or numpy integer."""
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _check_seed(seed: int) -> None:
    _check_integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed={seed!r} is negative; the RNG takes seeds >= 0")


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 1.0:  # NaN fails this too
        raise ValueError(f"eps={eps!r} outside [0, 1)")


def sample_pair(support_size: int, eps: float, seed: int) -> tuple[FiniteDist, FiniteDist]:
    """One pair on support_size atoms at total variation eps; pure in its arguments."""
    _check_integer(support_size, "support_size")
    if support_size not in SUPPORT_SIZES:
        raise ValueError(f"support_size={support_size!r} outside [2, 8]")
    _check_eps(eps)
    _check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    pm, qm = _sample_batch(rng, 1, support_size, eps)
    labels = tuple(f"x{i + 1}" for i in range(support_size))
    return FiniteDist(labels, pm[0]), FiniteDist(labels, qm[0])


# the least fine-grid step: at most 2,000,002 rows, 48 MB each for P and Q
_MIN_STEP = 1e-6


def _check_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"fine_step={step!r}: the fine-grid step must be finite and > 0")
    if step < _MIN_STEP:
        raise ValueError(f"fine_step={step!r} is below {_MIN_STEP!r}, which bounds the fine grid's rows")


def fine_grid_pairs(eps: float, step: float = 1e-3):
    """A deterministic pair family on support 3 at total variation eps.

    It moves mass eps from the first atom to the third across a free
    middle: P = (a, b, 1 - a - b), Q = (a - eps, b, 1 - a - b + eps), with
    a = eps + i * step, i = 0 .. n - 1, n = round((1 - eps) / step) + 1.
    Of each run of rows b = j * step, j = 0 .. n_b - 1,
    n_b = round((1 - a) / step) + 1, only the ends are kept, which bound the
    rest (see the module docstring): row 2i has b = 0, a binary pair with a
    zero middle atom, and row 2i + 1 has j = n_b - 1.  Each coordinate is
    capped so that the masses stay in the simplex.  The family contains
    every designated extremal pair when eps sits on the grid.
    """
    _check_eps(eps)
    _check_step(step)
    rows = np.arange(2 * (int(round((1.0 - eps) / step)) + 1))
    a = np.minimum(eps + (rows // 2) * step, 1.0)
    last = np.rint((1.0 - a) / step).astype(np.intp)  # n_b - 1
    b = np.minimum(rows % 2 * last * step, 1.0 - a)
    c = 1.0 - a - b
    p = np.stack([a, b, c], axis=1)
    q = np.stack([a - eps, b, c + eps], axis=1)
    return np.maximum(p, 0.0, out=p), np.maximum(q, 0.0, out=q)


# the measures the harness can verify: those with a batch evaluator
ORACLE_MEASURES: dict[str, Measure] = checked_measures()


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


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream(seed: int, stream_key: int, support: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_key, support))
    return np.random.Generator(np.random.PCG64(ss))


def _check_run(measures, eps_grid, n_samples, seed, fine_step, gap_threshold):
    """The checks verify_min and grid_verify make before any sampling.
    Returns the measure names, one name or a sequence of them, as a list."""
    names = [measures] if isinstance(measures, str) else list(measures)
    if not names:
        raise ValueError("no measure to verify")
    for name in names:
        find_measure(ORACLE_MEASURES, name)
    for eps in eps_grid:
        _check_eps(eps)
    if gap_threshold is not None and math.isnan(gap_threshold):
        raise ValueError("gap_threshold is NaN, which would pass every gap")
    _check_integer(n_samples, "n_samples")
    if n_samples < 0:
        raise ValueError(f"n_samples={n_samples!r} is negative")
    most = np.iinfo(np.intp).max
    if n_samples > most:
        raise ValueError(f"n_samples={n_samples!r} exceeds {most}, numpy's largest array dimension")
    _check_seed(seed)
    if fine_step is not None:
        _check_step(fine_step)
    return names


def _screened(evaluate, sign: float, line: float, floor: np.ndarray, pm, qm) -> np.ndarray:
    """sign * evaluate(pm, qm) on the rows that can cross the line or hold
    the least signed value, and +inf on the others.

    floor[i] <= sign * evaluate's value of row i.  The row with the least
    floor is solved first.  A row whose floor lies above both the line and
    that row's value can then do neither, since its own value lies strictly
    above both.  Every other row is solved, a NaN floor's included.
    """
    i = int(np.argmin(floor))
    first = sign * evaluate(pm[i : i + 1], qm[i : i + 1])[0]
    solve = ~(floor > max(first, line))
    solve[i] = False
    v = np.full(len(floor), np.inf)
    v[i] = first
    if solve.any():
        v[solve] = sign * evaluate(pm[solve], qm[solve])
    return v


# the one margin of the scan's rule: relative to |floor| above 1, absolute below
_MARGIN = 2.0**-36


def _less_margin(floor: np.ndarray) -> np.ndarray:
    """floor - _MARGIN max(1, |floor|) for each floor; +-inf stay as they
    are, with no inf - inf, and NaN stays NaN.

    A floor F holds for exact values: a row's Bhattacharyya exponent
    -log Z (the chain), while the rows' values are computed.  A computed
    value V can fall short of F by the sum of these, each bounded for a row
    whose V lies within a hair of F (otherwise V clears the floor anyway):
    - the sums.  Every term of Z is >= 0, so each computed term (the
      product and sqrt) and the sum of k <= 8 terms carry about k + 2 ulps
      relative of Z, and -log Z one more of its own: under 1e-15 of
      max(1, |F|);
    - the Chernoff solver.  A row stops at an end lam of a bracket that
      holds the minimizer, so by convexity its value falls short of C by
      at most |g'(lam)| (hi - lo): under fdiv._TILT_CERT max(1, C) by the
      certificate rule, and under sup g'' fdiv._TILT_TOL^2 by the bracket
      rule, as g' changes sign inside the bracket, or by the step rule,
      whose g'^2 / (2 g'') is the same bound to higher order.  g'' =
      Var_w(d) < 6e5, as |log P/Q| < 2 * 745 for doubles, so that is below
      6e-19.  g(lam), the log of a sum of k <= 8 exponentials of arguments
      below 2 * 745 in size, carries under 3e3 ulps (3.3e-13) absolute and
      k + 2 ulps relative.  So a row's value falls short of its C by under
      4e-13 + 1e-15 max(1, C).
    The worst case adds up to under 1e-12 + 1e-14 max(1, |F|), which
    2^-36 max(1, |F|) (1.46e-11 at |F| <= 1) covers ten times over.
    """
    return np.minimum(floor - _MARGIN, floor * (1.0 - np.copysign(_MARGIN, floor)))


def _signed_values(scan, pm, qm) -> list:
    """Per (measure, sign, line) of scan, its signed values on the rows pm,
    qm, with +inf on the rows its screen, less the margin, rules out.  Each
    distinct evaluator runs on the rows once; a screen's source is looked
    up in ORACLE_MEASURES, as the entries are."""
    values = {}

    def of(evaluate):
        if evaluate not in values:
            values[evaluate] = evaluate(pm, qm)
        return values[evaluate]

    out = []
    for om, sign, line in scan:
        if om.screen is None:
            out.append(sign * of(om.evaluate))
        else:
            source, floor = om.screen
            floor = _less_margin(sign * floor(of(ORACLE_MEASURES[source].evaluate)))
            out.append(_screened(om.evaluate, sign, line, floor, pm, qm))
    return out


def verify_min(
    measures: str | Sequence[str],
    eps: float,
    n_samples: int,
    seed: int = 0,
    fine_step: Optional[float] = 1e-3,
    gap_threshold: Optional[float] = None,
    stream_key: int = 0,
) -> VerifyPointReport | list[VerifyPointReport]:
    """Stress closed-form extremes at one eps.

    Draws n_samples pairs on each of SUPPORT_SIZES, 2 to 8, adds the
    deterministic fine grid at step fine_step (fine_grid_pairs: the first
    and the last row of each run of the support-3 grid) plus the designated
    extremal pair, and checks that
    (i) no value crosses the closed form by more than 1e-9,
    (ii) the extremal pair attains it within 1e-9, and
    (iii) the empirical extreme is within gap_threshold when one is given.
    The witness is the worst crossing pair over every batch and the fine
    grid.

    Each block is held whole while it is scanned: n_samples sets the rows
    of a sampled block, and fine_step those of the fine block,
    2 round((1 - eps) / fine_step) + 2.  At the default step that is at
    most 2,002 rows, 48 KB each for P and Q; a step below 1e-6, over
    2,000,002 rows, raises ValueError.

    The sampled blocks are submitted to the pool largest support first,
    then the fine block, so that the blocks left for the last free worker
    are short ones.  Their results are merged in ascending support and
    then the fine grid, and a failed block raises in that order.

    measures is one name, which gives its VerifyPointReport, or a sequence
    of names, which gives a list of reports in the same order.  Every
    measure is checked on the same blocks, each drawn or built once and
    passed once to each distinct evaluator, and each report equals that of
    its single-measure run.
    """
    names = _check_run(measures, [eps], n_samples, seed, fine_step, gap_threshold)
    oms = [ORACLE_MEASURES[name] for name in names]
    cfs = [float(om.closed_form(eps)) for om in oms]
    signs = [1.0 if om.direction == "min" else -1.0 for om in oms]
    # a signed value below its line crosses
    lines = [sign * cf - _VIOLATION_SLACK for sign, cf in zip(signs, cfs)]
    scan = list(zip(oms, signs, lines))

    def least(pm, qm):
        # per measure: crossings, the least signed value and its row, of one
        # block; the row is copied so that the result does not keep the
        # batch alive
        out = []
        for v, (_, _, line) in zip(_signed_values(scan, pm, qm), scan):
            i = int(np.argmin(v))
            out.append((int(np.count_nonzero(v < line)), float(v[i]), pm[i].copy(), qm[i].copy()))
        return out

    def sampled(s):
        return least(*_sample_batch(_stream(seed, stream_key, s), n_samples, s, eps))

    def fine():
        # built here, on the worker that scans it
        return least(*fine_grid_pairs(eps, fine_step))

    from concurrent.futures import ThreadPoolExecutor  # here: `divbound --help` skips its import

    # the blocks in merge order: supports 2 to 8, then the fine grid.  The
    # largest supports, the costliest blocks, are submitted first, so that
    # the blocks left to the last free worker are the short ones
    sizes = SUPPORT_SIZES if n_samples > 0 else ()
    pool = ThreadPoolExecutor(max_workers=_cpu_count())
    try:
        submitted = {s: pool.submit(sampled, s) for s in reversed(sizes)}
        blocks = [submitted[s] for s in sizes]
        if fine_step is not None:
            blocks.append(pool.submit(fine))
        results = [f.result() for f in blocks]
    finally:
        pool.shutdown(cancel_futures=True)
    n_sampled = len(sizes)

    def report(j):
        om, cf, sign, line = oms[j], cfs[j], signs[j], lines[j]
        best = math.inf  # the least signed value merged so far
        witness = None
        for block in results:
            _, low, p, q = block[j]
            if low < min(best, line):
                labels = tuple(f"x{i + 1}" for i in range(p.size))
                witness = (FiniteDist(labels, p), FiniteDist(labels, q))
            best = min(best, low)
        fine_best = None if fine_step is None else sign * results[-1][j][1]

        p, q = extremal_pair(eps, om.extremal_kind)
        extremal_value = float(om.evaluate(p.mass[None, :], q.mass[None, :])[0])
        attained = abs(extremal_value - cf) <= _ATTAIN_TOL
        best = min(best, sign * extremal_value)
        gap = abs(sign * best - cf)

        sampled_crossings = sum(b[j][0] for b in results[:n_sampled])
        fine_crossings = sum(b[j][0] for b in results[n_sampled:])
        violations = sampled_crossings + fine_crossings
        failure = None
        if violations:
            failure = (
                f"{sampled_crossings} sampled and {fine_crossings} fine-grid pair(s) crossed "
                f"the closed form; worst witness retained"
            )
        elif not attained:
            failure = (
                f"extremal {om.extremal_kind} pair gives {extremal_value!r}, "
                f"closed form {cf!r}"
            )
        elif gap_threshold is not None and gap > gap_threshold:
            failure = f"empirical gap {gap!r} exceeds threshold {gap_threshold!r}"

        return VerifyPointReport(
            measure=names[j],
            direction=om.direction,
            eps=eps,
            closed_form=cf,
            n_samples=n_samples,
            support_sizes=SUPPORT_SIZES,
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

    reports = [report(j) for j in range(len(oms))]
    return reports[0] if isinstance(measures, str) else reports


def grid_verify(
    measures: str | Sequence[str],
    eps_grid,
    n_samples: int,
    seed: int = 0,
    fine_step: Optional[float] = 1e-3,
    gap_threshold: Optional[float] = None,
) -> list[VerifyPointReport]:
    """Run verify_min at each grid point, on stream key = the point's index.

    measures is one name or a sequence of names; every measure of a point
    shares that point's one scan.  The reports come measure by measure in
    the order given, each measure's in grid order.  The whole grid is
    domain-checked before any sampling starts.
    """
    eps_grid = [float(e) for e in eps_grid]
    names = _check_run(measures, eps_grid, n_samples, seed, fine_step, gap_threshold)
    points = [
        verify_min(
            names,
            e,
            n_samples,
            seed=seed,
            fine_step=fine_step,
            gap_threshold=gap_threshold,
            stream_key=i,
        )
        for i, e in enumerate(eps_grid)
    ]
    return [point[j] for j in range(len(names)) for point in points]
