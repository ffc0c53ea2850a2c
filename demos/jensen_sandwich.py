#!/usr/bin/env python3
"""The refined-Jensen sandwich between f-divergences, on concrete pairs.

Shows the three-term inequality for the closed-form pairings dual_kl and
dual_chi2 (capacitory, the third certified f, pairs with -t f(t)),
the specialization that wedges log(1 + chi^2) - D(P||Q) between scaled
copies of the dual divergence, and the classical chi^2 >= e^D - 1 bound it
strengthens.
"""

import math

import numpy as np

from divbound import (
    REGISTRY,
    batch_chi2_exp_bound_check,
    batch_sandwich,
    chi2_exp_bound_check,
    f_divergence,
    jensen_functional,
    make_dist,
    sandwich,
)

p = make_dist(["a", "b"], [0.5, 0.5])
q = make_dist(["a", "b"], [0.25, 0.75])

print("Sandwich for f = dual_kl (so g = kl) on P = (1/2, 1/2), Q = (1/4, 3/4)")
print("=" * 72)
r = sandwich(REGISTRY["dual_kl"], p, q)
print(f"likelihood ratios  : r_min = {r.r_min:.6f}, r_max = {r.r_max:.6f}")
print(f"chi^2(P, Q)        : {r.chi2:.12f}")
print(f"left   r_min D(Q||P)              = {r.left:.12f}")
print(f"middle log(1 + chi^2) - D(P||Q)   = {r.middle:.12f}")
print(f"right  r_max D(Q||P)              = {r.right:.12f}")
assert r.left <= r.middle <= r.right

print()
print("Sandwich for f = dual_chi2 (so g = t - 1, D_g = 0)")
print("-" * 72)
r2 = sandwich(REGISTRY["dual_chi2"], p, q)
print(f"middle equals chi^2/(1 + chi^2)   = {r2.middle:.12f}")
print(f"check: chi2/(1+chi2)              = {r2.chi2 / (1 + r2.chi2):.12f}")
print(f"bracketed by r_min chi^2(Q,P) = {r2.left:.6f} and r_max chi^2(Q,P) = {r2.right:.6f}")

print()
print("Underlying Jensen gap functional")
print("-" * 72)
w = make_dist(["a", "b"], [0.5, 0.5])
j = jensen_functional(REGISTRY["kl"], [2.0, 0.5], w)
print(f"J(t log t, u=(2, 1/2), W=(1/2, 1/2)) = {j:.12f}   (nonnegative by convexity)")
ratio = p.mass / q.mass
j_spec = jensen_functional(REGISTRY["kl"], ratio, q)
print(f"with u = P/Q and weights Q it equals D(P||Q): {j_spec:.12f}")
print(f"direct D(P||Q)                              : {f_divergence(REGISTRY['kl'], p, q):.12f}")

print()
print("chi^2 >= e^D - 1, and the sandwich strengthens it")
print("-" * 72)
chi2, rhs = chi2_exp_bound_check(p, q)
print(f"chi^2(P,Q)     = {chi2:.12f}")
print(f"e^(D(P||Q)) - 1 = {rhs:.12f}")
gap = math.log1p(chi2) - f_divergence(REGISTRY["kl"], p, q)
floor = r.r_min * f_divergence(REGISTRY["kl"], q, p)
print(f"the log-form gap {gap:.12f} stays above r_min D(Q||P) = {floor:.12f} >= 0")

print()
print("Random strictly positive pairs never violate the ordering, nor chi^2 >= e^D - 1:")
rng = np.random.default_rng(0)
by_support = {}
for _ in range(2000):
    k = int(rng.integers(2, 8))
    a = rng.dirichlet(np.ones(k))
    b = rng.dirichlet(np.ones(k))
    labels = [f"x{i}" for i in range(k)]
    by_support.setdefault(k, []).append((make_dist(labels, a).mass, make_dist(labels, b).mass))
worst = worst_exp = math.inf
for rows in by_support.values():
    pm, qm = (np.array(side) for side in zip(*rows))
    _, _, left, middle, right, _ = batch_sandwich(REGISTRY["dual_kl"], pm, qm)
    worst = min(worst, float((middle - left).min()), float((right - middle).min()))
    chi2, rhs = batch_chi2_exp_bound_check(pm, qm)
    worst_exp = min(worst_exp, float((chi2 - rhs).min()))
print(f"smallest slack over 2000 pairs: {worst:.3e}")
print(f"smallest chi^2 - (e^D - 1) over them: {worst_exp:.3e}")
assert worst_exp >= 0.0
