"""Convex generators f for f-divergences, plus the named registry.

A generator packages the function f on (0, inf) together with its boundary
behavior, which is what the zero-mass conventions of the divergence sum need:
the limit f(0+), the limit of f(u)/u at infinity, and f'(1).  A symmetric
divergence has a constant a with f(u) = u f(1/u) + a (u - 1), and then
a = 2 f'(1).  It is measured, not declared: ``symmetry_constant`` tests the
identity on a log grid and reads 2 f'(1) when it holds, None when not.

:data:`REGISTRY` holds the built-ins under the names the command line takes
and each generator carries as its ``name``: ``tv``, ``kl``, ``dual_kl``,
``hellinger2``, ``jeffreys``, ``capacitory``, ``chi2`` and ``dual_chi2``.
It is built once at import; user generators can be added through
:func:`register_generator`, which runs the same spot-checks as the built-ins.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def symmetry_constant(self) -> Optional[float]:
        """a of f(u) = u f(1/u) + a (u - 1), as _check_symmetry measures it:
        2 f'(1) when the identity holds, None when not."""
        return _check_symmetry(self)


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
_SYMMETRY_TOL = 1e-10


def _check_symmetry(gen: FGenerator) -> Optional[float]:
    """Fit a = 2 f'(1) and test f(u) = u f(1/u) + a (u-1) on a log grid.

    Returns the constant on success, None when the identity fails anywhere
    on the grid u in [1e-6, 1e6].  The residual is compared against a
    magnitude-scaled tolerance because the right-hand side involves a
    cancellation of order u at the grid extremes.
    """
    a = 2.0 * gen.fprime_at_1
    u = _SYMMETRY_GRID.copy()  # a fresh array, as gen.fn may write to its argument
    mirrored = u * gen.fn(1.0 / u)
    shift = a * (u - 1.0)
    resid = np.abs(gen.fn(u) - mirrored - shift)
    scale = np.maximum(1.0, np.abs(mirrored) + np.abs(shift))
    if np.all(resid <= _SYMMETRY_TOL * scale):
        return float(a)
    return None


# Convexity is checked on _N_TRIPLES fixed triples s < t < u; _TRIPLES holds
# their s, t and u in its three rows.  The additive recurrence
# frac(0.5 + i (1/phi, 1/phi^2, 1/phi^3)), i = 1.._N_TRIPLES, with phi the
# positive root of x^4 = x + 1, covers the unit cube evenly; each point is
# mapped onto [log 1e-3, log 1e3]^3, exponentiated and sorted.
_N_TRIPLES = 1000
_PHI = 1.2207440846057596
_LOG_LO, _LOG_HI = math.log(1e-3), math.log(1e3)
_UNIT = np.modf(0.5 + np.arange(1.0, _N_TRIPLES + 1.0)[:, None] * _PHI ** -np.arange(1.0, 4.0))[0]
_TRIPLES = np.sort(np.exp(_LOG_LO + (_LOG_HI - _LOG_LO) * _UNIT), axis=1).T.copy()


def validate_generator(gen: FGenerator) -> None:
    """Spot-check the generator invariants; raises GeneratorError on failure.

    Checks f(1) = 0 and convexity on a fixed set of triples spread
    log-evenly over [1e-3, 1e3].
    """
    v1 = float(gen.fn(1.0))
    if not abs(v1) <= 1e-12:
        raise GeneratorError(f"{gen.name}: f(1) = {v1!r}, expected 0")

    s, t, u = _TRIPLES.copy()  # fresh arrays, as gen.fn may write to its argument
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


# fprime_at_1 of the total variation generator: f has a kink at 1; 0 is the
# midpoint subgradient and the unique value consistent with a = 0.
_BUILTINS = [
    FGenerator("tv", _tv_fn, 0.5, 0.5, 0.0),
    FGenerator("kl", _kl_fn, 0.0, INF, 1.0),
    FGenerator("dual_kl", _dual_kl_fn, INF, 0.0, -1.0),
    FGenerator("hellinger2", _hellinger2_fn, 1.0, 1.0, 0.0),
    FGenerator("jeffreys", _jeffreys_fn, INF, INF, 0.0),
    FGenerator("capacitory", _capacitory_fn, 2.0 * _LN2, 0.0, -_LN2),
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
