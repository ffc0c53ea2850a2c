"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import math
import time

import numpy as np

from divbound.bounds import (
    bound_curve,
    exact_kl_min,
    extremal_pair,
    inverse_exact_kl,
    inverse_jeffreys,
)
from divbound.coding import (
    csiszar_bound,
    dual_kl_identity_check,
    jeffreys_bound,
    kl_identity_check,
    l1_bounds,
    shannon_code,
    tightened_bound,
)
from divbound.dist import make_dist
from divbound.fdiv import batch_f_divergence, bhattacharyya, chernoff_information, f_divergence
from divbound.generators import REGISTRY
from divbound.jensen import batch_chi2_exp_bound_check, batch_sandwich
from divbound.oracle import verify_min

from util import as_dist, random_positive_pairs, random_simplex

ATTAINMENT_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
VALIDITY_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
ORACLE_MEASURE_NAMES = (
    "jeffreys",
    "capacitory",
    "chernoff",
    "bhattacharyya_lower",
    "bhattacharyya_upper",
)
SEED = 20150426


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status} [{elapsed:.2f}s]"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


def test_criterion_1_attainment():
    t0 = time.perf_counter()
    bad = []
    for eps in ATTAINMENT_GRID:
        two = extremal_pair(eps, "two_point")
        three = extremal_pair(eps, "three_point")
        checks = [
            ("bhattacharyya_upper", bhattacharyya(*two)),
            ("bhattacharyya_lower", bhattacharyya(*three)),
            ("chernoff", chernoff_information(*two)),
            ("capacitory", f_divergence(REGISTRY["capacitory"], *two)),
            ("jeffreys", f_divergence(REGISTRY["jeffreys"], *two)),
        ]
        for name, got in checks:
            want = bound_curve(name, eps)
            if abs(got - want) > 1e-9:
                bad.append((name, eps, got, want))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _report(1, "attainment", ok, elapsed, f"violations={bad[:3]}" if bad else "")


def test_criterion_2_validity():
    t0 = time.perf_counter()
    failures = []
    # 7 support sizes x 14286 samples > 1e5 pairs per grid point and
    # measure; every measure at a point checks the same draw
    for eps in VALIDITY_GRID:
        for r in verify_min(ORACLE_MEASURE_NAMES, eps, 14286, seed=SEED, fine_step=None):
            if r.violations or not r.attained:
                failures.append((r.measure, eps, r.failure))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(2, "validity", ok, elapsed, f"failures={failures[:3]}" if failures else "")


def test_criterion_3_oracle_gap():
    t0 = time.perf_counter()
    failures = []
    for name in ORACLE_MEASURE_NAMES:
        for eps in ATTAINMENT_GRID:
            r = verify_min(
                name,
                eps,
                0,
                seed=SEED,
                fine_step=1e-3,
                gap_threshold=5e-3,
            )
            if not r.passed:
                failures.append((name, eps, r.failure))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(3, "oracle-gap", ok, elapsed, f"failures={failures[:3]}" if failures else "")


def test_criterion_4_sqrt2_asymptotic():
    t0 = time.perf_counter()
    xs = np.geomspace(1e-6, 1.0, 25)
    ratios = np.array([jeffreys_bound(float(x)) / csiszar_bound(float(x)) for x in xs])
    target = 1.0 / math.sqrt(2.0)
    in_band = target * 0.99 <= ratios[0] <= target * 1.01
    diffs = np.diff(ratios)
    monotone = bool(np.all(diffs < 0) or np.all(diffs > 0))
    elapsed = time.perf_counter() - t0
    ok = in_band and monotone and elapsed < 1.0
    _report(
        4,
        "sqrt2-asymptotic",
        ok,
        elapsed,
        f"ratio(1e-6)={ratios[0]:.6f} monotone={monotone}",
    )


def test_criterion_5_identities():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 5))
        p = as_dist(random_simplex(rng, 1, k)[0])
        code = shannon_code(p, d)
        lhs, rhs = kl_identity_check(p, code)
        worst = max(worst, abs(lhs - rhs))
        lhs, rhs = dual_kl_identity_check(p, code)
        worst = max(worst, abs(lhs - rhs))
    identities_ok = worst <= 1e-10

    # worked example, values frozen from independent direct summation
    p = make_dist(["a", "b", "c"], [0.6, 0.3, 0.1])
    code = shannon_code(p, 2)
    rep = l1_bounds(p, code)
    example_ok = (
        code.lengths == (1, 2, 4)
        and abs(rep.kraft_sum - 13.0 / 16.0) <= 1e-12
        and abs(rep.avg_length - 1.6) <= 1e-12
        and abs(rep.redundancy * math.log(2.0) - 0.21108976403913272) <= 1e-9
        and abs(rep.kl_pq - 0.0034503992608882173) <= 1e-9
    )
    elapsed = time.perf_counter() - t0
    ok = identities_ok and example_ok and elapsed < 5.0
    _report(5, "identities", ok, elapsed, f"worst={worst:.2e} example={example_ok}")


def test_criterion_6_bound_ordering():
    t0 = time.perf_counter()
    slack = 1e-9
    sweep_ok = True
    for x in np.geomspace(1e-6, 1.0, 25):
        x = float(x)
        cs, ti, je = csiszar_bound(x), tightened_bound(x), jeffreys_bound(x)
        if ti > cs + slack or je > cs + slack:
            sweep_ok = False

    rng = np.random.default_rng(SEED + 1)
    instances_ok = True
    for _ in range(200):
        k = int(rng.integers(2, 8))
        p = as_dist(random_simplex(rng, 1, k)[0])
        rep = l1_bounds(p, shannon_code(p, 2))
        if not (
            rep.actual_l1 <= rep.bound_jeffreys + slack
            and rep.bound_jeffreys <= rep.bound_csiszar + slack
            and rep.actual_l1 <= rep.bound_tightened + slack
            and rep.bound_tightened <= rep.bound_csiszar + slack
        ):
            instances_ok = False

    pinsker_ok = all(
        exact_kl_min(float(e)) >= 2.0 * float(e) ** 2 - 1e-12
        for e in np.linspace(0.0, 0.95, 100)
    )
    elapsed = time.perf_counter() - t0
    ok = sweep_ok and instances_ok and pinsker_ok
    _report(
        6,
        "bound-ordering",
        ok,
        elapsed,
        f"sweep={sweep_ok} instances={instances_ok} pinsker={pinsker_ok}",
    )


def test_criterion_7_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    kl = REGISTRY["kl"]
    worst_order = math.inf
    worst_log_identity = 0.0
    worst_dual = 0.0
    eq16_ok = True
    n_total = 10000
    per_k = n_total // 7
    for k in range(2, 9):
        pm, qm = random_positive_pairs(rng, per_k, k)
        _, _, left1, mid1, right1, chi2_1 = batch_sandwich(REGISTRY["dual_kl"], pm, qm)
        _, _, left2, mid2, right2, chi2_2 = batch_sandwich(REGISTRY["dual_chi2"], pm, qm)
        worst_order = min(
            worst_order,
            float((mid1 - left1).min()),
            float((right1 - mid1).min()),
            float((mid2 - left2).min()),
            float((right2 - mid2).min()),
        )
        log_form = np.log1p(chi2_1) - batch_f_divergence(kl, pm, qm)
        worst_log_identity = max(worst_log_identity, float(np.abs(mid1 - log_form).max()))
        worst_dual = max(worst_dual, float(np.abs(mid2 - chi2_2 / (1.0 + chi2_2)).max()))
        chi2, rhs = batch_chi2_exp_bound_check(pm, qm)
        if np.any(chi2 < rhs - 1e-12):
            eq16_ok = False
    elapsed = time.perf_counter() - t0
    ok = (
        worst_order >= -1e-10
        and worst_log_identity <= 1e-10
        and worst_dual <= 1e-10
        and eq16_ok
        and elapsed < 30.0
    )
    _report(
        7,
        "sandwich",
        ok,
        elapsed,
        f"min_slack={worst_order:.2e} log_identity={worst_log_identity:.2e} dual={worst_dual:.2e}",
    )


def test_criterion_8_inverse_round_trips():
    t0 = time.perf_counter()
    grid = np.linspace(0.005, 0.95, 100)
    worst_kl = max(
        abs(inverse_exact_kl(exact_kl_min(float(e))) - float(e)) for e in grid
    )
    worst_je = max(
        abs(inverse_jeffreys(bound_curve("jeffreys", float(e))) - float(e)) for e in grid
    )
    small_x = inverse_jeffreys(1e-6)
    small_ok = abs(small_x - math.sqrt(5e-7)) <= 0.01 * math.sqrt(5e-7)
    elapsed = time.perf_counter() - t0
    ok = worst_kl <= 1e-6 and worst_je <= 1e-6 and small_ok
    _report(
        8,
        "inverse-round-trips",
        ok,
        elapsed,
        f"kl={worst_kl:.2e} jeffreys={worst_je:.2e} small_x={small_ok}",
    )
