"""Shared helpers for the test suite."""

import numpy as np

from divbound.dist import FiniteDist


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
