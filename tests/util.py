"""Shared helpers for the test suite."""

import dataclasses
import functools
import math

import numpy as np

from divbound import fdiv
from divbound.dist import FiniteDist
from divbound.generators import REGISTRY
from divbound.jensen import _LINEAR

# Every built-in generator, jensen's private partner of dual_chi2 included,
# keyed by the pytest id the registry-wide tests give it: the divergence
# spelled out, where the registry uses the short command-line name.
GENERATORS = {
    "total_variation": REGISTRY["tv"],
    "kl": REGISTRY["kl"],
    "dual_kl": REGISTRY["dual_kl"],
    "squared_hellinger": REGISTRY["hellinger2"],
    "jeffreys": REGISTRY["jeffreys"],
    "capacitory": REGISTRY["capacitory"],
    "chi_squared": REGISTRY["chi2"],
    "dual_chi_squared": REGISTRY["dual_chi2"],
    "linear": _LINEAR,
}


def seeded_triples(n: int = 1000) -> np.ndarray:
    """Convexity triples drawn from default_rng(20150426), s, t and u in three
    rows: the reference route for validate_generator's fixed point set."""
    rng = np.random.default_rng(20150426)
    pts = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(n, 3)))
    pts.sort(axis=1)
    return pts.T.copy()


def labels(k: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(k))


def random_simplex(rng, n: int, k: int) -> np.ndarray:
    e = rng.exponential(size=(n, k))
    return e / e.sum(axis=1, keepdims=True)


def random_positive_pairs(rng, n: int, k: int):
    """n independent strictly positive pairs on a k-letter alphabet."""
    p = random_simplex(rng, n, k)
    q = random_simplex(rng, n, k)
    return p, q


def random_pairs_with_zeros(rng, n: int, k: int):
    """Pairs where some coordinates are zeroed, to exercise the conventions."""
    p, q = random_positive_pairs(rng, n, k)
    kill_p = rng.random((n, k)) < 0.15
    kill_q = rng.random((n, k)) < 0.15
    # never zero an entire row
    kill_p[:, 0] = False
    kill_q[:, -1] = False
    p = np.where(kill_p, 0.0, p)
    q = np.where(kill_q, 0.0, q)
    return p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)


def binary_divergence(p: float, q: float) -> float:
    """Relative entropy between Bernoulli(p) and Bernoulli(q), natural log: a
    reference value for the two-point closed forms.

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


def as_dist(row: np.ndarray) -> FiniteDist:
    return FiniteDist(labels(len(row)), np.asarray(row, dtype=float))


def rejection_sign_sets(rng, pm: np.ndarray, eps: float) -> np.ndarray:
    """Sign sets B by rejection: the reference route for the sampler's one-pass draw.

    Each row draws a uniform order of the atoms and fair coins; B is the
    prefix that first reaches mass eps plus the coin-chosen atoms after it,
    except the last.  A row whose prefix needs the last atom is redrawn
    until it does not.
    """
    m, k = pm.shape
    b = np.zeros((m, k), dtype=bool)
    todo = np.arange(m)
    pos = np.arange(k)[None, :]
    while todo.size:
        sub = pm[todo]
        perm = rng.permuted(np.tile(np.arange(k), (todo.size, 1)), axis=1)
        cums = np.cumsum(np.take_along_axis(sub, perm, axis=1), axis=1)
        prefix_len = (cums >= eps).argmax(axis=1)
        in_b = pos <= prefix_len[:, None]
        in_b |= (rng.random(sub.shape) < 0.5) & (pos > prefix_len[:, None]) & (pos < k - 1)
        drawn = np.zeros(sub.shape, dtype=bool)
        np.put_along_axis(drawn, perm, in_b, axis=1)
        ok = prefix_len <= k - 2
        b[todo[ok]] = drawn[ok]
        todo = todo[~ok]
    return b


def cumsum_rows(mask: np.ndarray) -> np.ndarray:
    """np.cumsum(mask, axis=1) for a bool matrix, bit for bit, by running
    column adds."""
    out = np.empty(mask.shape, dtype=np.int_)
    out[:, 0] = mask[:, 0]
    for j in range(1, mask.shape[1]):
        np.add(out[:, j - 1], mask[:, j], out=out[:, j])
    return out


def first_true(mask: np.ndarray) -> np.ndarray:
    """mask.argmax(axis=1) for a bool matrix, column by column: the first
    True column of each row, counted as its leading False columns, and 0
    where a row has none."""
    none = ~mask[:, 0]
    idx = none.astype(np.intp)
    for j in range(1, mask.shape[1]):
        none &= ~mask[:, j]
        idx += none
    idx[none] = 0
    return idx


def row_sign_sets(rng, pm: np.ndarray, eps: float) -> np.ndarray:
    """oracle._draw_sign_sets on the row layout, column by column: the
    reference route for its draw on contiguous columns, for row_sample_batch.

    B is the prefix of the atoms in column order that first reaches mass
    eps, plus fair coins on the later atoms, all but the anchor, drawn
    uniformly from S = {j : P_j <= 1 - eps}, which stays in A.
    """
    m, k = pm.shape
    counts = cumsum_rows(pm <= 1.0 - eps)  # running counts of feasible anchors
    rank = rng.integers(counts[:, -1])
    anchor = first_true(counts > rank[:, None])
    # fair coins: bits 0..k-1 of one byte per row, as an (m, k) bool matrix
    coins = rng.integers(0, 256, size=m, dtype=np.uint8)
    b = np.unpackbits(coins[:, None], axis=1, count=k, bitorder="little").view(bool)
    # column j joins the prefix while the mass of the free columns before it
    # is below eps; the coins matter only past the prefix, and never on the
    # anchor.  The mass besides the anchor is 1 - p(anchor) >= eps, but its
    # float sum can land an ulp below eps: then every free column is in B
    total = np.zeros(m)
    for j in range(k):
        free = anchor != j
        col = b[:, j]
        col |= total < eps
        col &= free
        if j < k - 1:
            total += pm[:, j] * free
    return b


def reference_sign_sets(rng, pm: np.ndarray, eps: float) -> np.ndarray:
    """Sign sets B from an explicit permutation: the sampler's draw before it
    followed the column order, for reference_sample_batch.

    B is the prefix of a random order of the atoms that first reaches mass
    eps, plus fair coins on the later atoms but the last, the anchor, which
    stays in A and so must lie in S = {j : P_j <= 1 - eps}.  The anchor is
    drawn uniformly from S and swapped into the last slot of an independent
    uniform permutation.
    """
    m, k = pm.shape
    perm = rng.permuted(np.tile(np.arange(k), (m, 1)), axis=1)
    counts = cumsum_rows(pm <= 1.0 - eps)  # running counts of feasible anchors
    rank = rng.integers(counts[:, -1])
    anchor = first_true(counts > rank[:, None])
    slot = first_true(perm == anchor[:, None])
    # perm becomes flat indices into pm: one gather and one scatter below
    # cost less than take_along_axis and put_along_axis
    rows = np.arange(0, m * k, k)
    perm += rows[:, None]
    perm.ravel()[rows + slot] = perm[:, -1]
    perm[:, -1] = rows + anchor
    # the prefix sums run as _cumsum_rows adds them; the mass before the
    # anchor is 1 - p(anchor) >= eps, but its float sum can land an ulp
    # below eps: the anchor never joins the prefix
    masses = np.take(pm, perm)
    total = masses[:, 0]
    short = total < eps
    prefix_len = short.astype(np.intp)
    for j in range(1, k):
        total = total + masses[:, j]
        short &= total < eps
        prefix_len += short
    prefix_len[short] = 0
    np.minimum(prefix_len, k - 2, out=prefix_len)
    # the coins only matter past the prefix, which joins B whatever they
    # show, and never on the anchor's slot
    in_b = rng.random((m, k)) < 0.5
    in_b[:, -1] = False
    in_b |= np.arange(k) <= prefix_len[:, None]
    b = np.empty((m, k), dtype=bool)
    b.ravel()[perm] = in_b  # each row's perm covers the row once
    return b


def row_sample_batch(rng, n: int, k: int, eps: float, sign_sets=row_sign_sets):
    """oracle._sample_batch on the row layout, one pair per C-ordered row,
    with the sign sets of sign_sets: the reference route for its sampler on
    contiguous columns, whose bytes it gives."""
    from divbound.errors import BoundViolationError
    from divbound.oracle import TV_MATCH_TOL

    pm = rng.exponential(size=(n, k))
    pm /= fdiv._row_sums(pm)[:, None]
    if eps == 0.0:
        return pm, pm.copy()

    # no proper subset of these rows carries mass eps: shrink the smallest
    # atom into [0, 1 - eps), a possible anchor, and renormalize the rest
    low = functools.reduce(np.minimum, pm.T)  # the row minima, column by column
    stuck = np.flatnonzero(1.0 - low < eps)
    if stuck.size:
        jmin = first_true(pm[stuck] == low[stuck, None])
        old = pm[stuck, jmin]
        new = (1.0 - eps) * rng.random(stuck.size)
        pm[stuck] *= ((1.0 - new) / (1.0 - old))[:, None]
        pm[stuck, jmin] = new

    b = sign_sets(rng, pm, eps)
    # pm >= +0.0, so pm * b is np.where(b, pm, 0.0) bit for bit, without
    # the branch per element that a random mask makes costly
    mass_b = fdiv._row_sums(pm * b)
    # outside B, q = p + eps * (spread / its row sum); inside, p shrunk to
    # carry eps less
    spread = rng.exponential(size=pm.shape)
    spread *= ~b
    spread /= fdiv._row_sums(spread)[:, None]
    spread *= eps
    # q = p * f + spread, with f the factor on B and 1 off it, where spread
    # is 0: each element gets p * factor + 0 or p * 1 + spread, the bits of
    # a np.where on b, without its branch per element
    qm = b * (1.0 - eps / mass_b)[:, None]
    qm += ~b
    qm *= pm
    qm += spread
    np.maximum(qm, 0.0, out=qm)
    tv = fdiv.batch_total_variation(pm, qm)
    if not np.all(np.abs(tv - eps) <= TV_MATCH_TOL):
        raise BoundViolationError(f"sampler left the TV constraint {eps!r} on support {k}")
    return pm, qm


def reference_sample_batch(rng, n: int, k: int, eps: float):
    """row_sample_batch with the permutation draw of reference_sign_sets:
    the reference route for the law of the sampler's column-order draw."""
    return row_sample_batch(rng, n, k, eps, reference_sign_sets)


def reference_grid3(eps: float, step: float):
    """The whole 2-D support-3 grid, built one run at a time: the reference
    route for fine_grid_pairs' two rows per run.

    Run i has first mass a = min(eps + i step, 1) and n_b = round((1 - a) /
    step) + 1 rows b = min(j step, 1 - a), j = 0 .. n_b - 1, each the pair
    P = (a, b, 1 - a - b), Q = (a - eps, b, 1 - a - b + eps) with negative
    masses set to 0.  Returns P, Q and each run's n_b.
    """
    n_a = int(round((1.0 - eps) / step)) + 1
    runs_a, runs_b = [], []
    for a in np.minimum(eps + np.arange(n_a) * step, 1.0):
        b = np.minimum(np.arange(int(round((1.0 - a) / step)) + 1) * step, 1.0 - a)
        runs_a.append(np.full(b.size, a))
        runs_b.append(b)
    a, b = np.concatenate(runs_a), np.concatenate(runs_b)
    p = np.maximum(np.stack([a, b, 1.0 - a - b], axis=1), 0.0)
    q = np.maximum(np.stack([a - eps, b, 1.0 - a - b + eps], axis=1), 0.0)
    return p, q, np.array([r.size for r in runs_b])


def reference_grid2(eps: float, step: float):
    """The binary fine grid: the reference route for the first rows of
    fine_grid_pairs, which are these pairs with a zero middle atom, up to
    the rounding of two masses.

    Row i is P = (q1 + eps, 1 - q1 - eps), Q = (q1, 1 - q1), with
    q1 = min(i step, 1 - eps), i = 0 .. round((1 - eps) / step), and
    negative masses set to 0.  Returns P and Q.
    """
    q1 = np.minimum(np.arange(int(round((1.0 - eps) / step)) + 1) * step, 1.0 - eps)
    p = np.maximum(np.stack([q1 + eps, 1.0 - q1 - eps], axis=1), 0.0)
    q = np.maximum(np.stack([q1, 1.0 - q1], axis=1), 0.0)
    return p, q


def end_rows(n_b: np.ndarray) -> np.ndarray:
    """The first and last row of each run of reference_grid3, run by run."""
    first = np.cumsum(n_b) - n_b
    return np.stack([first, first + n_b - 1], axis=1).ravel()


# the supports verify samples, in the order it merges them
SUPPORTS = (2, 3, 4, 5, 6, 7, 8)


def reference_verify_min(
    measure: str,
    eps: float,
    n_samples: int,
    seed: int = 0,
    fine_step=1e-3,
    gap_threshold=None,
    stream_key: int = 0,
    fine_grids=None,
):
    """verify_min as one sequential scan of whole arrays: the reference route for its block scan.

    Each sampled batch, then each fine grid, is evaluated in one call and
    merged as it comes: the worst crossing row replaces the witness only
    when it lies strictly below both the line and every value seen so far.
    fine_grids is a sequence of builders called as (eps, fine_step), the
    oracle's one family, fine_grid_pairs, when None.
    """
    from divbound import oracle
    from divbound.bounds import extremal_pair, find_measure

    om = find_measure(oracle.ORACLE_MEASURES, measure)
    cf = float(om.closed_form(eps))
    sign = 1.0 if om.direction == "min" else -1.0
    line = sign * cf - oracle._VIOLATION_SLACK

    best = math.inf
    crossed = {"sampled": 0, "fine": 0}
    witness = None

    def scan(pm, qm, source):
        nonlocal best, witness
        vals = sign * om.evaluate(pm, qm)
        crossed[source] += int(np.count_nonzero(vals < line))
        i = int(np.argmin(vals))
        low = float(vals[i])
        if low < min(best, line):
            witness = (as_dist(pm[i]), as_dist(qm[i]))
        best = min(best, low)
        return low

    if n_samples > 0:
        for s in SUPPORTS:
            scan(*oracle._sample_batch(oracle._stream(seed, stream_key, s), n_samples, s, eps), "sampled")

    fine_best = None
    if fine_step is not None:
        builders = (oracle.fine_grid_pairs,) if fine_grids is None else fine_grids
        fine_best = sign * min(scan(*build(eps, fine_step), "fine") for build in builders)

    p, q = extremal_pair(eps, om.extremal_kind)
    extremal_value = float(om.evaluate(p.mass[None, :], q.mass[None, :])[0])
    attained = abs(extremal_value - cf) <= oracle._ATTAIN_TOL
    best = min(best, sign * extremal_value)
    gap = abs(sign * best - cf)

    violations = crossed["sampled"] + crossed["fine"]
    failure = None
    if violations:
        failure = (
            f"{crossed['sampled']} sampled and {crossed['fine']} fine-grid pair(s) crossed "
            "the closed form; worst witness retained"
        )
    elif not attained:
        failure = f"extremal {om.extremal_kind} pair gives {extremal_value!r}, closed form {cf!r}"
    elif gap_threshold is not None and gap > gap_threshold:
        failure = f"empirical gap {gap!r} exceeds threshold {gap_threshold!r}"

    return oracle.VerifyPointReport(
        measure=measure,
        direction=om.direction,
        eps=eps,
        closed_form=cf,
        n_samples=n_samples,
        support_sizes=SUPPORTS,
        seed=seed,
        rng_name=oracle.RNG_NAME,
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


def assert_same_report(a, b) -> None:
    """Every field of two VerifyPointReports equal, floats to the bit and witness masses by np.array_equal."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "witness":
            assert (x is None) == (y is None), f.name
            if x is not None:
                for dx, dy in zip(x, y):
                    assert dx.labels == dy.labels and np.array_equal(dx.mass, dy.mass), f.name
        elif isinstance(x, float):
            assert isinstance(y, float) and x.hex() == y.hex(), (f.name, x, y)
        else:
            assert x == y, (f.name, x, y)


def reference_min_log_tilt(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, int]:
    """fdiv._min_log_tilt on the row layout: the reference route for its column solve.

    Each pass gathers the active rows of the (n, k) matrices d = log(P/Q)
    and log Q and takes one safeguarded Newton step on g' = 0 for each, as
    the solve's docstring says.  Returns the row minima of g and the passes.
    """
    common = (p > 0.0) & (q > 0.0)
    pc = np.where(common, p, 0.0)
    qc = np.where(common, q, 0.0)
    lq = np.log(q, out=np.zeros(q.shape), where=common)
    d = np.log(p, out=np.zeros(p.shape), where=common) - lq  # 0 off the common support
    lq[~common] = -np.inf  # so exp(lq + lam * d) is 0 there
    sp, sq = fdiv._row_sums(pc), fdiv._row_sums(qc)
    has_common = sq > 0.0
    sp, sq = np.where(has_common, sp, 1.0), np.where(has_common, sq, 1.0)
    gmin = np.where(has_common, np.minimum(np.log(sp), np.log(sq)), -np.inf)
    slope0 = fdiv._row_sums(qc * d) / sq
    slope1 = fdiv._row_sums(pc * d) / sp

    rows = np.flatnonzero(has_common & (slope0 < 0.0) & (slope1 > 0.0))
    lam = slope0[rows] / (slope0[rows] - slope1[rows])
    lo, hi = np.zeros(rows.size), np.ones(rows.size)
    passes = 0
    while rows.size and passes < fdiv._MAX_TILT_PASSES:
        passes += 1
        dr = d[rows]
        w = np.exp(lq[rows] + lam[:, None] * dr)
        wd = w * dr
        sw, swd, swdd = fdiv._row_sums(w), fdiv._row_sums(wd), fdiv._row_sums(wd * dr)
        g = np.log(sw)
        gmin[rows] = np.minimum(gmin[rows], g)
        slope = swd / sw
        curv = swdd / sw - slope * slope
        lo = np.where(slope < 0.0, lam, lo)
        hi = np.where(slope > 0.0, lam, hi)
        step = np.divide(slope, curv, out=np.full(rows.size, np.inf), where=curv > 0.0)
        # the stop test comes before the safeguard: a step below one ulp of
        # lam would otherwise count as leaving the bracket
        going = (np.abs(step) > fdiv._TILT_TOL) & (hi - lo > fdiv._TILT_TOL)
        going &= np.abs(slope) * (hi - lo) > fdiv._TILT_CERT * np.maximum(1.0, np.abs(g))
        nxt = lam - step
        nxt = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
        rows, lam, lo, hi = rows[going], nxt[going], lo[going], hi[going]
    return gmin, passes
