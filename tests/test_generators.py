import ast
import math

import numpy as np
import pytest

from divbound import generators, jensen
from divbound.bounds import symmetric_fdiv_min
from divbound.errors import GeneratorError
from divbound.generators import (
    REGISTRY,
    FGenerator,
    _check_symmetry,
    get_generator,
    register_generator,
    validate_generator,
)

from util import GENERATORS, seeded_triples

LN2 = math.log(2.0)

SYMMETRIC = {
    "total_variation": 0.0,
    "squared_hellinger": 0.0,
    "jeffreys": 0.0,
    "capacitory": -2.0 * LN2,
    "linear": 2.0,
}
ASYMMETRIC = ("kl", "dual_kl", "chi_squared", "dual_chi_squared")
# the names the command line takes, one per built-in generator
CLI_NAMES = ("capacitory", "chi2", "dual_chi2", "dual_kl", "hellinger2", "jeffreys", "kl", "tv")
CONCAVE = FGenerator("concave", lambda t: -((np.asarray(t) - 1.0) ** 2), 0.0, 0.0, 0.0)


def test_registry_contents():
    assert sorted(REGISTRY) == list(CLI_NAMES)
    for name, gen in REGISTRY.items():
        assert gen.name == name
    # the tables below cover every built-in and nothing else
    assert sorted(GENERATORS) == sorted([*SYMMETRIC, *ASYMMETRIC])
    assert {g.name for g in GENERATORS.values()} == {*REGISTRY, "linear"}


@pytest.mark.parametrize("gen", GENERATORS.values(), ids=list(GENERATORS))
def test_all_generators_pass_spot_checks(gen):
    validate_generator(gen)


@pytest.mark.parametrize("gen", GENERATORS.values(), ids=list(GENERATORS))
def test_f_of_one_is_zero(gen):
    assert abs(float(gen.fn(1.0))) <= 1e-12


@pytest.mark.parametrize("name,constant", sorted(SYMMETRIC.items()))
def test_symmetric_entries_carry_constant(name, constant):
    gen = GENERATORS[name]
    assert gen.symmetry_constant == constant
    assert _check_symmetry(gen) == pytest.approx(constant, abs=1e-12)


@pytest.mark.parametrize("name", ASYMMETRIC)
def test_asymmetric_entries_carry_none(name):
    gen = GENERATORS[name]
    assert gen.symmetry_constant is None
    assert _check_symmetry(gen) is None


def test_kl_symmetry_residual_at_two():
    # the fitted a = 2 f'(1) = 2 leaves a visible residual at u = 2
    gen = REGISTRY["kl"]
    u = 2.0
    resid = float(gen.fn(u)) - u * float(gen.fn(1.0 / u)) - 2.0 * (u - 1.0)
    assert abs(resid) > 1e-3


def test_capacitory_constant_value():
    # f'(1) = -log 2, hence a = -2 log 2
    assert _check_symmetry(REGISTRY["capacitory"]) == pytest.approx(-2.0 * LN2)


def test_jeffreys_constant_is_zero():
    assert _check_symmetry(REGISTRY["jeffreys"]) == pytest.approx(0.0, abs=1e-15)


def test_capacitory_fn_stable_at_extremes():
    fn = REGISTRY["capacitory"].fn
    assert math.isfinite(float(fn(1e300)))
    assert math.isfinite(float(fn(1e-300)))
    # limits: slope 0 at +inf (approached at rate log t / t), 2 log 2 at 0+
    assert float(fn(1e12)) / 1e12 == pytest.approx(0.0, abs=1e-10)
    assert float(fn(1e-14)) == pytest.approx(2.0 * LN2, abs=1e-12)


def _split_capacitory(t):
    """The capacitory generator by a boolean split of t at 1: the reference
    route for its whole-array form."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.empty_like(t)
    big = t > 1.0
    tb, ts = t[big], t[~big]
    out[big] = -tb * np.log1p(1.0 / tb) - np.log1p(tb) + 2.0 * LN2
    out[~big] = ts * np.log(ts) - (ts + 1.0) * np.log1p(ts) + 2.0 * LN2
    return out[0] if scalar else out


def test_capacitory_fn_equals_the_split_form_bit_for_bit():
    fn = REGISTRY["capacitory"].fn
    rng = np.random.default_rng(89)
    one = [1.0, *np.nextafter(1.0, [0.0, 2.0]), *(1.0 + np.arange(-4, 5) * 2.0**-52)]
    t = np.concatenate([
        10.0 ** rng.uniform(-300.0, 300.0, 20_000),
        np.exp(rng.normal(0.0, 2.0, 20_000)),
        1.0 + rng.uniform(-1e-6, 1e-6, 2000),
        [1e-300, 1e300, *one],
    ])
    with np.errstate(all="raise"):
        got, want = fn(t), _split_capacitory(t)
        assert got.tobytes() == want.tobytes()
        assert fn(t.reshape(-1, 2)).tobytes() == want.tobytes()
        for x in [*t[::400], *one]:
            got, want = fn(float(x)), _split_capacitory(float(x))
            assert type(got) is type(want) and got.tobytes() == want.tobytes(), x


def test_generator_fns_vectorized():
    t = np.array([0.5, 1.0, 2.0, 10.0])
    for gen in GENERATORS.values():
        out = np.asarray(gen.fn(t), dtype=float)
        assert out.shape == t.shape
        assert np.isfinite(out).all()


def test_get_generator_unknown():
    with pytest.raises(GeneratorError) as info:
        get_generator("renyi")
    known = str(info.value).split("; known: ")[1]
    assert known.split(", ") == sorted(REGISTRY)
    # one name per generator: the spelled-out names and the private partner are unknown
    for name in ("total_variation", "squared_hellinger", "chi_squared", "linear"):
        with pytest.raises(GeneratorError):
            get_generator(name)


def test_convexity_error_prints_plain_floats():
    with pytest.raises(GeneratorError) as info:
        validate_generator(CONCAVE)
    message = str(info.value)
    assert "np.float64" not in message
    triple = message.split("(s, t, u) = ")[1]
    s, t, u = ast.literal_eval(triple)
    assert all(type(x) is float for x in (s, t, u)) and s < t < u


def test_register_rejects_nonconvex():
    with pytest.raises(GeneratorError):
        register_generator(CONCAVE)


def _verdict(gen):
    """None if gen passes validate_generator, else which check failed."""
    try:
        validate_generator(gen)
    except GeneratorError as exc:
        return str(exc).split(" at ")[0]
    return None


# the built-ins, -t f(t) of each registry entry (a superset of the sandwich
# partners jensen tries) and a concave f
VERDICT_CASES = {
    **GENERATORS,
    **{f"neg_t_{name}": jensen._neg_t(f) for name, f in REGISTRY.items()},
    "concave": CONCAVE,
}


@pytest.mark.parametrize("gen", VERDICT_CASES.values(), ids=list(VERDICT_CASES))
def test_fixed_triples_give_the_seeded_draws_verdict(gen, monkeypatch):
    fixed = _verdict(gen)
    monkeypatch.setattr(generators, "_TRIPLES", seeded_triples())
    assert _verdict(gen) == fixed


def test_register_rejects_nonzero_at_one():
    bad = FGenerator("shifted", lambda t: np.asarray(t) * 0 + 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(GeneratorError):
        register_generator(bad)


def test_register_rejects_duplicate_name():
    dup = FGenerator("kl", lambda t: np.asarray(t) - 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(GeneratorError):
        register_generator(dup)


def test_user_generator_gets_its_symmetry_constant_measured():
    # triangular discrimination (u - 1)^2 / (u + 1) plus 3/2 (u - 1): it
    # obeys f(u) = u f(1/u) + a (u - 1) with a = 2 f'(1) = 3, which nobody
    # declares, and its tight bound is then 2 eps^2
    def fn(t):
        t = np.asarray(t, dtype=float)
        return (t - 1.0) ** 2 / (t + 1.0) + 1.5 * (t - 1.0)

    with pytest.raises(TypeError):
        FGenerator("triangular_shifted", fn, -0.5, 2.5, 1.5, symmetry_constant=3.0)
    gen = FGenerator("triangular_shifted", fn, -0.5, 2.5, 1.5)
    try:
        register_generator(gen)
        assert get_generator("triangular_shifted").symmetry_constant == 3.0
        for eps in (0.1, 0.5, 0.9):
            assert symmetric_fdiv_min(gen, eps) == pytest.approx(2.0 * eps * eps, rel=1e-12)
    finally:
        REGISTRY.pop("triangular_shifted", None)


def test_symmetry_check_hands_fn_a_fresh_grid(monkeypatch):
    # a total variation generator that writes its result into its argument
    def fn(t):
        t = np.asarray(t, dtype=float)
        t -= 1.0
        np.abs(t, out=t)
        t *= 0.5
        return t

    # patched with a copy, so that a failure cannot leak into other tests
    monkeypatch.setattr(generators, "_SYMMETRY_GRID", generators._SYMMETRY_GRID.copy())
    grid = generators._SYMMETRY_GRID.copy()
    assert _check_symmetry(FGenerator("tv_in_place", fn, 0.5, 0.5, 0.0)) == 0.0
    assert np.array_equal(generators._SYMMETRY_GRID, grid)


def test_register_accepts_valid_user_generator():
    # Pearson-Vajda style |t - 1|^3 is convex with f(1) = 0
    gen = FGenerator(
        "abs_cubed",
        lambda t: np.abs(np.asarray(t, dtype=float) - 1.0) ** 3,
        1.0,
        math.inf,
        0.0,
    )
    try:
        out = register_generator(gen)
        assert out is gen
        assert get_generator("abs_cubed") is gen
    finally:
        REGISTRY.pop("abs_cubed", None)
