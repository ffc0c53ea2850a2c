import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import divbound.generators as generators
import divbound.jensen as jensen
from divbound.dist import make_dist
from divbound.errors import BoundViolationError, DistributionError, GeneratorError
from divbound.fdiv import f_divergence
from divbound.generators import REGISTRY, FGenerator, register_generator, validate_generator
from divbound.jensen import (
    PARTNERS,
    batch_chi2_exp_bound_check,
    batch_sandwich,
    chi2_exp_bound_check,
    jensen_functional,
    sandwich,
)

from util import as_dist, random_positive_pairs

P = make_dist(["a", "b"], [0.5, 0.5])
Q = make_dist(["a", "b"], [0.25, 0.75])


class TestSandwich:
    def test_equal_pair_collapses_to_zero(self):
        d = make_dist(["a", "b", "c"], [0.2, 0.3, 0.5])
        r = sandwich(REGISTRY["dual_kl"], d, d)
        assert r.left == pytest.approx(0.0, abs=1e-12)
        assert r.middle == pytest.approx(0.0, abs=1e-12)
        assert r.right == pytest.approx(0.0, abs=1e-12)
        assert r.chi2 == pytest.approx(0.0, abs=1e-12)

    def test_dual_kl_reproduces_log_chi2_identity(self):
        r = sandwich(REGISTRY["dual_kl"], P, Q)
        assert r.chi2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        # middle = log(1 + chi2) - D(P||Q) = log(4/3) - (1/2) log(4/3)
        assert r.middle == pytest.approx(0.14384103622589045, abs=1e-12)
        assert r.r_min == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert r.r_max == pytest.approx(2.0, abs=1e-15)
        assert r.left <= r.middle <= r.right

    def test_dual_chi_squared_middle_form(self):
        rng = np.random.default_rng(61)
        gen = REGISTRY["dual_chi2"]
        for k in (2, 3, 5):
            pm, qm = random_positive_pairs(rng, 100, k)
            for a, b in zip(pm, qm):
                r = sandwich(gen, as_dist(a), as_dist(b))
                assert r.middle == pytest.approx(r.chi2 / (1.0 + r.chi2), abs=1e-10)

    def test_ratio_bounds_are_ordered_around_one(self):
        r = sandwich(REGISTRY["dual_kl"], P, Q)
        assert r.r_min <= 1.0 <= r.r_max

    def test_zero_mass_rejected(self):
        z = make_dist(["a", "b"], [1.0, 0.0])
        with pytest.raises(DistributionError):
            sandwich(REGISTRY["dual_kl"], z, Q)
        with pytest.raises(DistributionError):
            sandwich(REGISTRY["dual_kl"], P, z)

    def test_certified_pairings_are_keyed_by_registry_names(self):
        assert sorted(PARTNERS) == ["capacitory", "dual_chi2", "dual_kl"]
        assert set(PARTNERS) <= set(REGISTRY)
        # one rule for every partner: g(t) = -t f(t), bit for bit
        t = np.geomspace(1e-3, 1e3, 1001)
        for name, g in PARTNERS.items():
            f = REGISTRY[name]
            assert g.name == f"neg_t_{name}"
            assert g.fprime_at_1 == -f.fprime_at_1
            assert np.array_equal(g.fn(t), -t * f.fn(t))

    def test_dual_kl_partner_is_kl_bit_for_bit(self):
        # -t (-log t) and t log t round alike: negation is exact
        t = np.geomspace(1e-300, 1e300, 60001)
        assert np.array_equal(PARTNERS["dual_kl"].fn(t), REGISTRY["kl"].fn(t))

    def test_dual_chi2_partner_is_t_minus_one_to_rounding(self):
        # -t (1/t - 1) rounds 1/t first, so it is t - 1 only to a few ulp of t
        t = np.geomspace(1e-6, 1e6, 1001)
        g = PARTNERS["dual_chi2"].fn(t)
        assert np.all(np.abs(g - (t - 1.0)) <= 4e-16 * np.maximum(t, 1.0))

    def test_kl_pairing_rejected(self):
        # g(t) = -t^2 log t is not convex on all of (0, inf)
        with pytest.raises(
            GeneratorError,
            match=r"f = kl has no certified .*; certified: capacitory, dual_chi2, dual_kl$",
        ):
            sandwich(REGISTRY["kl"], P, Q)

    def test_registered_generator_gets_no_partner(self, monkeypatch):
        # the table is settled at import: a later generator is refused even
        # when its -t f(t) is convex (here a copy of capacitory)
        monkeypatch.setattr(generators, "REGISTRY", dict(REGISTRY))
        cap = REGISTRY["capacitory"]
        gen = register_generator(
            FGenerator("capacitory_copy", cap.fn, cap.f_at_0, cap.slope_at_inf, cap.fprime_at_1)
        )
        with pytest.raises(GeneratorError, match="f = capacitory_copy has no certified"):
            sandwich(gen, P, Q)

    def test_ordering_violation_is_a_typed_error(self, monkeypatch):
        # a negative slack makes every evaluation fail the ordering check
        monkeypatch.setattr(jensen, "_ORDER_SLACK", -1.0)
        with pytest.raises(BoundViolationError, match="sandwich ordering violated"):
            sandwich(REGISTRY["dual_kl"], P, Q)

    def test_ordering_on_random_pairs(self):
        rng = np.random.default_rng(67)
        for gen_name in ("dual_kl", "dual_chi2"):
            gen = REGISTRY[gen_name]
            for k in (2, 4, 8):
                pm, qm = random_positive_pairs(rng, 300, k)
                for a, b in zip(pm, qm):
                    r = sandwich(gen, as_dist(a), as_dist(b))
                    assert r.left <= r.middle + 1e-10
                    assert r.middle <= r.right + 1e-10


def _neg_t(gen):
    return FGenerator(
        f"neg_t_{gen.name}", lambda t: -np.asarray(t, dtype=float) * gen.fn(t), None, None, 0.0
    )


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_partner_table_holds_exactly_the_convex_partners(name):
    try:
        validate_generator(_neg_t(REGISTRY[name]))
        convex = True
    except GeneratorError:
        convex = False
    assert (name in PARTNERS) == convex


class TestBatchSandwich:
    @pytest.mark.parametrize("name", sorted(PARTNERS))
    def test_rows_equal_the_pairwise_route_bit_for_bit(self, name):
        rng = np.random.default_rng(97)
        gen = REGISTRY[name]
        for k in range(2, 9):
            pm, qm = random_positive_pairs(rng, 200, k)
            cols = batch_sandwich(gen, pm, qm)
            assert all(c.shape == (200,) for c in cols)
            for i in range(200):
                r = sandwich(gen, as_dist(pm[i]), as_dist(qm[i]))
                got = [float(c[i]).hex() for c in cols]
                want = [r.r_min, r.r_max, r.left, r.middle, r.right, r.chi2]
                assert got == [v.hex() for v in want]

    def test_violation_names_the_worst_row(self, monkeypatch):
        rng = np.random.default_rng(101)
        pm, qm = random_positive_pairs(rng, 50, 4)
        _, _, left, middle, right, _ = batch_sandwich(REGISTRY["dual_kl"], pm, qm)
        worst = int(np.argmax(np.maximum(left - middle, middle - right)))
        monkeypatch.setattr(jensen, "_ORDER_SLACK", -1.0)
        with pytest.raises(BoundViolationError, match=rf"for f = dual_kl in row {worst}: "):
            batch_sandwich(REGISTRY["dual_kl"], pm, qm)

    def test_non_finite_middle_warns_with_its_row(self, monkeypatch):
        # a partner that overflows on ratios above 2 gives a middle of -inf;
        # the ordering check then fails on that row too
        inf_g = FGenerator(
            "inf_above_2",
            lambda t: np.where(np.asarray(t, dtype=float) > 2.0, np.inf, 0.0),
            None, None, 0.0,
        )
        monkeypatch.setitem(jensen.PARTNERS, "dual_kl", inf_g)
        pm = np.array([[0.5, 0.5], [0.9, 0.1], [0.95, 0.05]])
        qm = np.array([[0.5, 0.5], [0.3, 0.7], [0.3, 0.7]])
        with pytest.warns(RuntimeWarning, match=r"middle term is -inf .* in row 1;"):
            with pytest.raises(BoundViolationError, match="in row 1: "):
                batch_sandwich(REGISTRY["dual_kl"], pm, qm)

    def test_zero_mass_rejected(self):
        pm = np.array([[0.5, 0.5], [1.0, 0.0]])
        qm = np.array([[0.25, 0.75], [0.25, 0.75]])
        with pytest.raises(DistributionError):
            batch_sandwich(REGISTRY["dual_kl"], pm, qm)
        with pytest.raises(DistributionError):
            batch_sandwich(REGISTRY["dual_kl"], qm, pm)


class TestJensenFunctional:
    def test_constant_tuple_gives_zero(self):
        w = make_dist(["a", "b", "c"], [0.2, 0.3, 0.5])
        assert jensen_functional(REGISTRY["kl"], [3.0, 3.0, 3.0], w) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_hand_value(self):
        w = make_dist(["a", "b"], [0.5, 0.5])
        got = jensen_functional(REGISTRY["kl"], [2.0, 0.5], w)
        # (1/2) 2 log 2 + (1/2)(1/2) log(1/2) - (5/4) log(5/4),
        # frozen from high-precision evaluation
        assert got == pytest.approx(0.24093094627719679, abs=1e-14)

    def test_likelihood_ratio_tuple_reproduces_divergence(self):
        rng = np.random.default_rng(71)
        for gen_name in ("kl", "dual_kl", "chi2", "hellinger2"):
            gen = REGISTRY[gen_name]
            pm, qm = random_positive_pairs(rng, 100, 4)
            for a, b in zip(pm, qm):
                p, q = as_dist(a), as_dist(b)
                got = jensen_functional(gen, a / b, q)
                assert got == pytest.approx(f_divergence(gen, p, q), abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(73)
        for _ in range(500):
            k = int(rng.integers(2, 8))
            w = as_dist(random_positive_pairs(rng, 1, k)[0][0])
            u = np.exp(rng.normal(size=k))
            for gen_name in ("kl", "dual_kl", "chi2"):
                assert jensen_functional(REGISTRY[gen_name], u, w) >= -1e-12

    def test_length_mismatch(self):
        w = make_dist(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            jensen_functional(REGISTRY["kl"], [1.0, 2.0, 3.0], w)

    def test_nonpositive_entry(self):
        w = make_dist(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            jensen_functional(REGISTRY["kl"], [1.0, 0.0], w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        w = make_dist(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite and strictly positive"):
            jensen_functional(REGISTRY["kl"], [bad, 1.0], w)


class TestChi2ExpBound:
    def test_equal_pair(self):
        d = make_dist(["a", "b"], [0.4, 0.6])
        chi2, rhs = chi2_exp_bound_check(d, d)
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        chi2, rhs = chi2_exp_bound_check(P, Q)
        assert chi2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rhs == pytest.approx(0.15470053837925153, abs=1e-12)
        assert chi2 > rhs

    def test_near_equal_second_order(self):
        delta = 1e-3
        p = make_dist(["a", "b"], [0.5 + delta, 0.5 - delta])
        q = make_dist(["a", "b"], [0.5, 0.5])
        chi2, rhs = chi2_exp_bound_check(p, q)
        # chi2 = 4 delta^2 exactly; the exponential side is 2 delta^2 + O(delta^4)
        assert chi2 == pytest.approx(4.0 * delta * delta, rel=1e-9, abs=0.0)
        assert rhs == pytest.approx(2.0 * delta * delta, rel=1e-4, abs=0.0)
        assert rhs == pytest.approx(2.0000033333394667e-06, rel=1e-9, abs=0.0)
        assert chi2 >= rhs

    def test_never_violated_and_strengthened(self):
        rng = np.random.default_rng(89)
        kl = REGISTRY["kl"]
        for k in (2, 4, 6):
            pm, qm = random_positive_pairs(rng, 300, k)
            for a, b in zip(pm, qm):
                p, q = as_dist(a), as_dist(b)
                chi2, rhs = chi2_exp_bound_check(p, q)
                assert chi2 >= rhs - 1e-12
                # the sandwich left term wedges between 0 and the gap
                r_min = float((a / b).min())
                gap = math.log1p(chi2) - f_divergence(kl, p, q)
                assert gap >= r_min * f_divergence(kl, q, p) - 1e-10
                assert r_min * f_divergence(kl, q, p) >= -1e-12

    def test_zero_mass_rejected(self):
        z = make_dist(["a", "b"], [1.0, 0.0])
        with pytest.raises(DistributionError):
            chi2_exp_bound_check(z, Q)

    def test_batch_rows_equal_the_pairwise_formula_bit_for_bit(self):
        rng = np.random.default_rng(103)
        kl = REGISTRY["kl"]
        for k in (2, 3, 5, 8, 13, 40):
            pm, qm = random_positive_pairs(rng, 100, k)
            chi2, rhs = batch_chi2_exp_bound_check(pm, qm)
            assert chi2.shape == rhs.shape == (100,)
            for i in range(100):
                p, q = as_dist(pm[i]), as_dist(qm[i])
                want = (
                    float(((pm[i] - qm[i]) ** 2 / qm[i]).sum()),
                    math.expm1(f_divergence(kl, p, q)),
                )
                got = (float(chi2[i]), float(rhs[i]))
                assert [v.hex() for v in got] == [v.hex() for v in want]
                assert [v.hex() for v in chi2_exp_bound_check(p, q)] == [v.hex() for v in want]

    def test_chi2_is_nonnegative_and_exact_to_rounding_on_near_equal_pairs(self):
        # Q = P (1 + 1e-8 N(0, 1)), renormalized: sum p^2 / q - 1 cancels to
        # noise here and can go below 0, and q (p/q - 1)^2 keeps only 8 digits;
        # p - q is exact, so (p - q)^2 / q loses only the rounding of its ops
        rng = np.random.default_rng(1)
        for k in range(2, 9):
            pm = rng.exponential(size=(300, k))
            pm /= pm.sum(axis=1, keepdims=True)
            qm = pm * (1.0 + 1e-8 * rng.standard_normal((300, k)))
            qm /= qm.sum(axis=1, keepdims=True)
            want = batch_chi2_exp_bound_check(pm, qm)[0]
            assert np.all(want > 0.0)
            for name in sorted(PARTNERS):
                chi2 = batch_sandwich(REGISTRY[name], pm, qm)[5]
                assert [v.hex() for v in chi2.tolist()] == [v.hex() for v in want.tolist()]
            for a, b, got in zip(pm.tolist(), qm.tolist(), want.tolist()):
                exact = sum((Fraction(x) - Fraction(y)) ** 2 / Fraction(y) for x, y in zip(a, b))
                assert abs(Fraction(got) - exact) <= 2 * k * 2.0 ** -53 * exact

    def test_chi2_stays_finite_at_the_largest_ratios_above_the_floor(self):
        # P / Q = 5e159: the registry's q (t - 1)^2 overflows in (t - 1)^2,
        # while each (p - q)^2 / q is at most 1e300
        pm, qm = np.array([[0.5, 0.5]]), np.array([[1.0 - 1e-160, 1e-160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert batch_chi2_exp_bound_check(pm, qm)[0].tolist() == [2.5e159]
            for name in sorted(PARTNERS):
                _, _, left, middle, right, chi2 = batch_sandwich(REGISTRY[name], pm, qm)
                assert chi2.tolist() == [2.5e159]
                assert left[0] <= middle[0] <= right[0] < math.inf

    @pytest.mark.parametrize("check", [
        batch_chi2_exp_bound_check,
        lambda pm, qm: batch_sandwich(REGISTRY["dual_kl"], pm, qm),
    ], ids=["chi2_exp", "sandwich"])
    def test_batch_zero_mass_names_the_worst_row(self, check):
        rng = np.random.default_rng(107)
        pm, qm = random_positive_pairs(rng, 6, 3)
        pm[1, 2] = 1e-310
        qm[4, 0] = 0.0
        with pytest.raises(DistributionError, match=r"row 4 has mass 0\.0$"):
            check(pm, qm)
        with pytest.raises(DistributionError, match=r"row 4 has mass 0\.0$"):
            check(qm, pm)
