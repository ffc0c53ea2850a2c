"""Convex generators f for f-divergences, plus the named registry.

A generator packages the function f on (0, inf) together with its boundary
behavior, which is what the zero-mass conventions of the divergence sum need:
the limit f(0+), the limit of f(u)/u at infinity, and f'(1).  Symmetric
divergences additionally carry the constant a of the characterization
f(u) = u f(1/u) + a (u - 1); when f is differentiable at 1, a = 2 f'(1).

:data:`REGISTRY` holds the built-ins under the names the command line takes
and each generator carries as its ``name``: ``tv``, ``kl``, ``dual_kl``,
``hellinger2``, ``jeffreys``, ``capacitory``, ``chi2`` and ``dual_chi2``.
It is built once at import; user generators can be added through
:func:`register_generator`, which runs the same spot-checks as the built-ins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GeneratorError

__all__ = [
    "FGenerator",
    "REGISTRY",
    "get_generator",
    "register_generator",
    "check_symmetry",
    "validate_generator",
]

_LN2 = math.log(2.0)
INF = math.inf


@dataclass(frozen=True)
class FGenerator:
    """A convex function f on (0, inf) with f(1) = 0 and its limit data.

    ``fn`` must accept scalars and numpy arrays of strictly positive values.
    ``f_at_0`` / ``slope_at_inf`` may be ``math.inf``; ``None`` means the
    limit was not supplied, in which case divergence evaluation fails loudly
    if a zero-mass term actually needs it.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    f_at_0: Optional[float]
    slope_at_inf: Optional[float]
    fprime_at_1: float
    symmetry_constant: Optional[float] = None


def _tv_fn(t):
    return 0.5 * np.abs(np.asarray(t, dtype=float) - 1.0)


def _kl_fn(t):
    t = np.asarray(t, dtype=float)
    return t * np.log(t)


def _dual_kl_fn(t):
    return -np.log(np.asarray(t, dtype=float))


def _hellinger2_fn(t):
    s = np.sqrt(np.asarray(t, dtype=float))
    return (s - 1.0) ** 2


def _jeffreys_fn(t):
    t = np.asarray(t, dtype=float)
    return 0.5 * (t - 1.0) * np.log(t)


def _capacitory_fn(t):
    # Two algebraically equal forms: t log t - (t+1) log(1+t) + 2 log 2 up
    # to t = 1, and above it -t log(1 + 1/t) - log(1+t) + 2 log 2, which
    # avoids the inf - inf the first gives once t log t overflows.  Both are
    # t h - m log(1+t) + 2 log 2, so whole-array passes give each element its
    # own form's value bit for bit (-t x is -(t x), 1 * x is x); 1/t is taken
    # of max(t, 1), as it overflows for a tiny t that does not use it.
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    big = t > 1.0
    h = np.maximum(t, 1.0)
    np.log1p(np.divide(1.0, h, out=h), out=h)
    h = np.where(big, np.negative(h, out=h), np.log(t))
    out = np.multiply(t, h, out=h)
    out -= np.where(big, 1.0, t + 1.0) * np.log1p(t)
    out += 2.0 * _LN2
    return out[0] if scalar else out


def _chi2_fn(t):
    return (np.asarray(t, dtype=float) - 1.0) ** 2


def _dual_chi2_fn(t):
    return 1.0 / np.asarray(t, dtype=float) - 1.0


_SYMMETRY_GRID = np.logspace(-6.0, 6.0, 121)


def check_symmetry(gen: FGenerator, tol: float = 1e-10) -> Optional[float]:
    """Fit a = 2 f'(1) and test f(u) = u f(1/u) + a (u-1) on a log grid.

    Returns the constant on success, None when the identity fails anywhere
    on the grid u in [1e-6, 1e6].  The residual is compared against a
    magnitude-scaled tolerance because the right-hand side involves a
    cancellation of order u at the grid extremes.
    """
    a = 2.0 * gen.fprime_at_1
    u = _SYMMETRY_GRID
    mirrored = u * gen.fn(1.0 / u)
    shift = a * (u - 1.0)
    resid = np.abs(gen.fn(u) - mirrored - shift)
    scale = np.maximum(1.0, np.abs(mirrored) + np.abs(shift))
    if np.all(resid <= tol * scale):
        return float(a)
    return None


def validate_generator(gen: FGenerator, n_triples: int = 1000) -> None:
    """Spot-check the generator invariants; raises GeneratorError on failure.

    Checks f(1) = 0, convexity on random triples, and (when a symmetry
    constant is declared) consistency with the symmetry characterization.
    """
    v1 = float(gen.fn(1.0))
    if not abs(v1) <= 1e-12:
        raise GeneratorError(f"{gen.name}: f(1) = {v1!r}, expected 0")

    rng = np.random.default_rng(20150426)
    pts = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(n_triples, 3)))
    pts.sort(axis=1)
    s, t, u = pts[:, 0], pts[:, 1], pts[:, 2]
    fs, ft, fu = gen.fn(s), gen.fn(t), gen.fn(u)
    lam = (u - t) / (u - s)
    chord = lam * fs + (1.0 - lam) * fu
    slack = 1e-10 + 1e-12 * (np.abs(fs) + np.abs(fu))
    bad = ft > chord + slack
    if np.any(bad):
        i = int(np.argmax(ft - chord))
        raise GeneratorError(
            f"{gen.name}: convexity violated at "
            f"(s, t, u) = ({float(s[i])!r}, {float(t[i])!r}, {float(u[i])!r})"
        )

    if gen.symmetry_constant is not None:
        fitted = check_symmetry(gen)
        if fitted is None:
            raise GeneratorError(
                f"{gen.name}: declared symmetric but the symmetry identity fails"
            )
        if abs(fitted - gen.symmetry_constant) > 1e-12:
            raise GeneratorError(
                f"{gen.name}: symmetry constant {gen.symmetry_constant!r} "
                f"inconsistent with 2 f'(1) = {fitted!r}"
            )


# fprime_at_1 of the total variation generator: f has a kink at 1; 0 is the
# midpoint subgradient and the unique value consistent with a = 0.
_BUILTINS = [
    FGenerator("tv", _tv_fn, 0.5, 0.5, 0.0, symmetry_constant=0.0),
    FGenerator("kl", _kl_fn, 0.0, INF, 1.0),
    FGenerator("dual_kl", _dual_kl_fn, INF, 0.0, -1.0),
    FGenerator("hellinger2", _hellinger2_fn, 1.0, 1.0, 0.0, symmetry_constant=0.0),
    FGenerator("jeffreys", _jeffreys_fn, INF, INF, 0.0, symmetry_constant=0.0),
    FGenerator(
        "capacitory", _capacitory_fn, 2.0 * _LN2, 0.0, -_LN2, symmetry_constant=-2.0 * _LN2
    ),
    FGenerator("chi2", _chi2_fn, 1.0, INF, 0.0),
    FGenerator("dual_chi2", _dual_chi2_fn, INF, 0.0, -1.0),
]

REGISTRY: dict[str, FGenerator] = {}
for _g in _BUILTINS:
    validate_generator(_g)
    REGISTRY[_g.name] = _g

def get_generator(name: str) -> FGenerator:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise GeneratorError(f"unknown generator {name!r}; known: {known}") from None


def register_generator(gen: FGenerator) -> FGenerator:
    """Add a user generator to the registry after running the spot-checks."""
    if gen.name in REGISTRY:
        raise GeneratorError(f"generator {gen.name!r} already registered")
    validate_generator(gen)
    REGISTRY[gen.name] = gen
    return gen
