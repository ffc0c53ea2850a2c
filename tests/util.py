"""Shared helpers for the test suite."""

import dataclasses
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


def reference_verify_min(
    measure: str,
    eps: float,
    n_samples: int,
    seed: int = 0,
    support_sizes: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    fine_step=1e-3,
    gap_threshold=None,
    stream_key: int = 0,
):
    """verify_min as one sequential scan of whole arrays: the reference route for its block scan.

    Each sampled batch, then each whole fine grid, is evaluated in one call
    and merged as it comes: the worst crossing row replaces the witness only
    when it lies strictly below both the line and every value seen so far.
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
        for s in support_sizes:
            scan(*oracle._sample_batch(oracle._stream(seed, stream_key, s), n_samples, s, eps), "sampled")

    fine_best = None
    if fine_step is not None:
        fine_best = sign * min(
            scan(*oracle.fine_grid_pairs(eps, s, step=fine_step), "fine") for s in (2, 3)
        )

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
        support_sizes=tuple(support_sizes),
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
