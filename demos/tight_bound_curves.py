#!/usr/bin/env python3
"""Walk through the closed-form divergence minima at fixed total variation.

For each symmetric measure we tabulate the tight lower bound over a grid of
total variation distances and show that the designated 2- or 3-element pair
sits exactly on the bound.
"""

import numpy as np

from divbound import (
    REGISTRY,
    bhattacharyya,
    bound_curve,
    chernoff_information,
    extremal_pair,
    f_divergence,
    symmetric_fdiv_min,
)

eps_grid = np.arange(0.1, 1.0, 0.1)
# bound_curve gives a bound at one eps as a float, over a grid as a float array
columns = {
    name: bound_curve(name, eps_grid)
    for name in ("jeffreys", "capacitory", "chernoff", "hellinger2",
                 "bhattacharyya_lower", "bhattacharyya_upper")
}

print("Tight lower bounds as functions of the total variation distance eps")
print("=" * 74)
header = f"{'eps':>5} {'jeffreys':>12} {'capacitory':>12} {'chernoff':>12} {'hellinger^2':>12} {'Z lower':>9} {'Z upper':>9}"
print(header)
for i, e in enumerate(eps_grid.tolist()):
    jef, cap, che, hel, lo, hi = (c[i] for c in columns.values())
    print(f"{e:>5.2f} {jef:>12.6f} {cap:>12.6f} {che:>12.6f} {hel:>12.6f} {lo:>9.4f} {hi:>9.4f}")

# a bounded f-divergence has one name, shared by its measure and its
# generator; symmetric_fdiv_min reads D_f at the two-point pair
hell = REGISTRY["hellinger2"]
at_pair = [symmetric_fdiv_min(hell, e) for e in eps_grid.tolist()]
assert np.allclose(columns["hellinger2"], at_pair, rtol=0.0, atol=1e-12)

print()
print("Attainment at eps = 0.6")
print("-" * 74)
e = 0.6
two = extremal_pair(e, "two_point")
three = extremal_pair(e, "three_point")
print(f"two-point pair   P = {two[0].mass}, Q = {two[1].mass}")
print(f"three-point pair P = {three[0].mass}, Q = {three[1].mass}")

rows = [
    ("jeffreys on two-point", f_divergence(REGISTRY["jeffreys"], *two), bound_curve("jeffreys", e)),
    ("capacitory on two-point", f_divergence(REGISTRY["capacitory"], *two), bound_curve("capacitory", e)),
    ("chernoff on two-point", chernoff_information(*two), bound_curve("chernoff", e)),
    ("Z on two-point (upper)", bhattacharyya(*two), bound_curve("bhattacharyya_upper", e)),
    ("Z on three-point (lower)", bhattacharyya(*three), bound_curve("bhattacharyya_lower", e)),
]
for name, got, want in rows:
    print(f"{name:<26} value = {got:.12f}   closed form = {want:.12f}")

print()
print("The value at the attaining pair, D_f on the two-point pair, reproduces")
print("each specialized curve; e.g. for the capacitory generator at eps = 0.35:")
e = 0.35
print(f"  at the pair : {symmetric_fdiv_min(REGISTRY['capacitory'], e):.12f}")
print(f"  closed form : {bound_curve('capacitory', e):.12f}")
