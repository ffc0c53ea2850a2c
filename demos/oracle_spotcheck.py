#!/usr/bin/env python3
"""Brute-force spot check of the tight bounds.

Random pairs at a fixed total variation distance must never beat a closed
form, the designated extremal pair must land exactly on it, and on small
supports a deterministic fine grid should close the gap.  Smaller sample
counts than the full acceptance run, so this finishes in seconds.
"""

from divbound import grid_verify, sample_pair, total_variation

print("A single constrained draw (support 4, eps = 0.37, seed 11):")
p, q = sample_pair(4, 0.37, seed=11)
print(f"  P = {p.mass}")
print(f"  Q = {q.mass}")
print(f"  total variation = {total_variation(p, q):.15f}")

grid = [0.1, 0.3, 0.5, 0.7, 0.9]
for measure in ("jeffreys", "chernoff", "bhattacharyya_lower", "bhattacharyya_upper"):
    reports = grid_verify(measure, grid, n_samples=2000, seed=11)
    print()
    print(f"{measure}: random search vs closed form")
    print(f"{'eps':>5} {'closed':>14} {'empirical':>14} {'gap':>10} {'ok':>4}")
    for r in reports:
        print(
            f"{r.eps:>5.2f} {r.closed_form:>14.9f} {r.sample_extreme:>14.9f} "
            f"{r.gap:>10.2e} {'yes' if r.passed else 'NO'}"
        )
    assert all(r.passed for r in reports)

print()
print("Every report above also certifies that the designated extremal pair")
print("attains the closed form to 1e-9 and that no sampled pair crossed it.")
