"""Seeded inputs and command plans for the three workloads.

A plan is the list of CLI commands one round of a workload issues, in
order, with what the output checks need to know about each and the units of
work it does.  Every input comes from the seed and is written to files
before timing starts; the program sees only those files and the arguments.

Sizes (chosen so that one round takes a few seconds on a 2-core Xeon):

    verify_mix      verify for 6 measures at each point of 0.1:0.2:0.9, one
                    command per measure and point, 5000 samples per
                    support, --seed = the benchmark seed
    curves_coding   sourcecode-sweep over 1e-6:1:50 in ten 5-point
                    commands, bounds for exact_kl and the
                    seven closed-form curves on 0.05:0.05:0.95 (the grid the
                    CLI help gives as its example), sourcecode with Shannon
                    and Huffman lengths on sources of 6, 24 and 96 symbols
    large_alphabet  one same-order pair of 100000 labels (divergence kl,
                    divergence hellinger2, sandwich dual_kl, sourcecode) and
                    one pair of 3000 labels whose q file and lengths file
                    are permuted (divergence jeffreys, sourcecode --lengths)
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from reference import DELTA_SLACK, code_delta, huffman_lengths, normalized, shannon_lengths

VERIFY_MEASURES = ("tv", "hellinger2", "jeffreys", "capacitory", "chernoff", "bhattacharyya")
VERIFY_GRID = (0.1, 0.2, 0.9)  # start, step, stop
VERIFY_SAMPLES = 5000
VERIFY_SUPPORTS = 7  # the CLI samples supports 2..8
FINE_STEP = 1e-3  # the CLI's fine-grid step

SWEEP_GRID = (1e-6, 1.0, 50)  # start, stop, points
SWEEP_PIECE = 5  # points per sourcecode-sweep command
BOUNDS_GRID = (0.05, 0.05, 0.95)
CLOSED_CURVES = (
    "tv",
    "hellinger2",
    "jeffreys",
    "capacitory",
    "chernoff",
    "bhattacharyya_lower",
    "bhattacharyya_upper",
)
SMALL_SOURCES = ((6, 2), (24, 3), (96, 2))  # (alphabet size, Shannon code base)

BIG_LABELS = 100_000
PERMUTED_LABELS = 3000

WORKLOADS = ("verify_mix", "curves_coding", "large_alphabet")
# The throughput each workload reports, named as a user would count the work.
WORK_UNITS = {
    "verify_mix": ("verify_pairs_per_s", "pairs/s"),
    "curves_coding": ("curve_points_per_s", "points/s"),
    "large_alphabet": ("labels_per_s", "labels/s"),
}


@dataclass
class Command:
    """One CLI invocation: argv, what to check, and the work it does."""

    argv: list[str]
    kind: str
    check: dict
    units: float


@dataclass
class Plan:
    workload: str
    seed: int
    commands: list[Command] = field(default_factory=list)
    # file name -> (labels, masses as written); the checks read these back
    dists: dict = field(default_factory=dict)
    lengths: dict = field(default_factory=dict)


def linear_grid(start: float, step: float, stop: float) -> list[float]:
    """start, start + step, ... up to stop inclusive."""
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def grid_arg(start, step, stop) -> str:
    return f"{start!r}:{step!r}:{stop!r}"


def fine_grid_pairs(eps: float, step: float = FINE_STEP) -> int:
    """Pairs in the oracle's deterministic grids on supports 2 and 3 at eps.

    Support 2 sweeps one endpoint over [0, 1 - eps]; support 3 sweeps
    a over [eps, 1] and b over [0, 1 - a], both at the given step.
    """
    n2 = int(round((1.0 - eps) / step)) + 1
    a_vals = np.minimum(eps + np.arange(int(round((1.0 - eps) / step)) + 1) * step, 1.0)
    n3 = sum(int(round((1.0 - a) / step)) + 1 for a in a_vals)
    return n2 + n3


def _simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.exponential(size=n)
    return m / m.sum()


def _perturbed(rng: np.random.Generator, p: np.ndarray) -> np.ndarray:
    # a second distribution near p, with likelihood ratios of modest range
    q = p * np.exp(0.5 * rng.standard_normal(p.size))
    return q / q.sum()


def _write_dist(plan: Plan, workdir: str, name: str, labels, mass) -> str:
    path = os.path.join(workdir, name)
    values = [repr(float(m)) for m in mass]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{lab}\t{v}\n" for lab, v in zip(labels, values)))
    # keep exactly what the file says, so the checks see the program's input
    plan.dists[path] = (list(labels), np.array([float(v) for v in values]))
    return path


def _write_lengths(plan: Plan, workdir: str, name: str, labels, lengths) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{lab}\t{int(n)}\n" for lab, n in zip(labels, lengths)))
    plan.lengths[path] = dict(zip(labels, (int(n) for n in lengths)))
    return path


def _verify_mix(plan: Plan, workdir: str, rng: np.random.Generator):
    # one command per grid point, so that each latency sample is short
    for eps in linear_grid(*VERIFY_GRID):
        pairs = VERIFY_SAMPLES * VERIFY_SUPPORTS + fine_grid_pairs(eps) + 1
        for m in VERIFY_MEASURES:
            names = ["bhattacharyya_lower", "bhattacharyya_upper"] if m == "bhattacharyya" else [m]
            argv = [
                "verify", "--measure", m, "--grid", grid_arg(eps, VERIFY_GRID[1], eps),
                "--samples", str(VERIFY_SAMPLES), "--seed", str(plan.seed),
            ]
            plan.commands.append(Command(argv, "verify", {"names": names, "eps": [eps]}, pairs * len(names)))


def _emitted_bounds(plan: Plan, p_path: str, base: int, l_path) -> int:
    """Bound values a sourcecode command prints: Jeffreys only if delta >= 0."""
    p = normalized(plan.dists[p_path][1])
    if l_path is None:
        lengths = shannon_lengths(p, base)
    else:
        table = plan.lengths[l_path]
        lengths = np.array([table[x] for x in plan.dists[p_path][0]], dtype=float)
    return 2 + int(bool(np.all(code_delta(p, lengths, base) >= -DELTA_SLACK)))


def _sourcecode(plan: Plan, p_path: str, base: int, l_path=None, units=None) -> None:
    argv = ["sourcecode", "--dist", p_path, "--base", str(base)]
    if l_path is not None:
        argv += ["--lengths", l_path]
    if units is None:
        units = _emitted_bounds(plan, p_path, base, l_path)
    plan.commands.append(
        Command(argv, "sourcecode", {"dist": p_path, "base": base, "lengths": l_path}, units)
    )


def _curves_coding(plan: Plan, workdir: str, rng: np.random.Generator):
    # the 50-point grid as consecutive 5-point pieces, so that each latency
    # sample is short
    xs = np.geomspace(*SWEEP_GRID)
    for j in range(0, len(xs), SWEEP_PIECE):
        lo, hi = float(xs[j]), float(xs[j + SWEEP_PIECE - 1])
        piece = [float(x) for x in np.geomspace(lo, hi, SWEEP_PIECE)]
        plan.commands.append(
            Command(
                ["sourcecode-sweep", "--grid", f"{lo!r}:{hi!r}:{SWEEP_PIECE}"],
                "sweep",
                {"x": piece},
                3 * SWEEP_PIECE,
            )
        )
    eps = linear_grid(*BOUNDS_GRID)
    for m in ("exact_kl",) + CLOSED_CURVES:
        plan.commands.append(
            Command(
                ["bounds", "--measure", m, "--grid", grid_arg(*BOUNDS_GRID)],
                "bounds",
                {"measure": m, "eps": eps},
                len(eps),
            )
        )
    for i, (size, base) in enumerate(SMALL_SOURCES):
        labels = [f"a{j}" for j in range(size)]
        p_path = _write_dist(plan, workdir, f"src{i}.tsv", labels, _simplex(rng, size))
        _sourcecode(plan, p_path, base)
        # Huffman lengths are binary, so that command always uses d = 2
        lengths = huffman_lengths(plan.dists[p_path][1])
        _sourcecode(plan, p_path, 2, _write_lengths(plan, workdir, f"src{i}.len", labels, lengths))


def _pair_command(plan: Plan, cmd: str, flag: str, name: str, p_path: str, q_path: str, units: int):
    """divergence or sandwich on two distribution files."""
    argv = [cmd, flag, name, "--p", p_path, "--q", q_path]
    key = "measure" if cmd == "divergence" else "f"
    plan.commands.append(Command(argv, cmd, {key: name, "p": p_path, "q": q_path}, units))


def _large_alphabet(plan: Plan, workdir: str, rng: np.random.Generator):
    labels = [f"w{j:07d}" for j in range(BIG_LABELS)]
    p = _simplex(rng, BIG_LABELS)
    p_path = _write_dist(plan, workdir, "big_p.tsv", labels, p)
    q_path = _write_dist(plan, workdir, "big_q.tsv", labels, _perturbed(rng, p))
    for name in ("kl", "hellinger2"):
        _pair_command(plan, "divergence", "--divergence", name, p_path, q_path, 2 * BIG_LABELS)
    _pair_command(plan, "sandwich", "--f", "dual_kl", p_path, q_path, 2 * BIG_LABELS)
    _sourcecode(plan, p_path, 2, units=BIG_LABELS)

    # the relabelled minority: q and the lengths list the labels permuted
    small = [f"v{j:05d}" for j in range(PERMUTED_LABELS)]
    sp = _simplex(rng, PERMUTED_LABELS)
    sq = _perturbed(rng, sp)
    perm = rng.permutation(PERMUTED_LABELS)
    sp_path = _write_dist(plan, workdir, "perm_p.tsv", small, sp)
    sq_path = _write_dist(plan, workdir, "perm_q.tsv", [small[i] for i in perm], sq[perm])
    _pair_command(plan, "divergence", "--divergence", "jeffreys", sp_path, sq_path, 2 * PERMUTED_LABELS)
    lengths = huffman_lengths(plan.dists[sp_path][1])
    l_path = _write_lengths(
        plan, workdir, "perm_p.len", [small[i] for i in perm], [lengths[i] for i in perm]
    )
    _sourcecode(plan, sp_path, 2, l_path, units=2 * PERMUTED_LABELS)


# Untimed commands run once after the timed rounds.  Their mismatches are
# printed as findings and not counted as failures: the exact-KL curve above
# the workload's grid, where golden section is known to overshoot.
FINDING_PROBES = [
    Command(
        ["bounds", "--measure", "exact_kl", "--grid", grid_arg(0.96, 0.01, 0.99)],
        "bounds",
        {"measure": "exact_kl", "eps": linear_grid(0.96, 0.01, 0.99)},
        0,
    )
]


def make_plan(workload: str, seed: int, workdir: str) -> Plan:
    """Generate the workload's inputs under workdir and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    plan = Plan(workload, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    {"verify_mix": _verify_mix, "curves_coding": _curves_coding, "large_alphabet": _large_alphabet}[
        workload
    ](plan, workdir, rng)
    return plan
