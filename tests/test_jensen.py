import math

import numpy as np
import pytest

import divbound.jensen as jensen
from divbound.dist import make_dist
from divbound.errors import BoundViolationError, DistributionError, GeneratorError
from divbound.fdiv import f_divergence
from divbound.generators import REGISTRY
from divbound.jensen import (
    chi2_exp_bound_check,
    dragomir_sandwich_check,
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
        assert sorted(jensen._CERTIFIED_G) == ["dual_chi2", "dual_kl"]
        assert set(jensen._CERTIFIED_G) <= set(REGISTRY)
        # the partner of dual_chi2 is private: D_g = 0 for every pair
        assert jensen._CERTIFIED_G["dual_chi2"].name not in REGISTRY

    def test_kl_pairing_rejected(self):
        # g(t) = -t^2 log t is not convex on all of (0, inf)
        with pytest.raises(GeneratorError):
            sandwich(REGISTRY["kl"], P, Q)

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


class TestDragomir:
    def test_equal_pair_degenerates(self):
        d = make_dist(["a", "b"], [0.4, 0.6])
        left, mid, right = dragomir_sandwich_check(REGISTRY["kl"], [2.0, 0.5], d, d)
        assert left == pytest.approx(mid, abs=1e-12)
        assert right == pytest.approx(mid, abs=1e-12)

    def test_ordering_on_random_instances(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            pm, qm = random_positive_pairs(rng, 1, 5)
            u = np.exp(rng.normal(size=5))
            left, mid, right = dragomir_sandwich_check(
                REGISTRY["kl"], u, as_dist(pm[0]), as_dist(qm[0])
            )
            assert left <= mid + 1e-10
            assert mid <= right + 1e-10

    def test_likelihood_ratio_specialization_matches_sandwich(self):
        rng = np.random.default_rng(83)
        gen = REGISTRY["dual_kl"]
        pm, qm = random_positive_pairs(rng, 100, 4)
        for a, b in zip(pm, qm):
            p, q = as_dist(a), as_dist(b)
            _, mid, _ = dragomir_sandwich_check(gen, a / b, p, q)
            assert mid == pytest.approx(sandwich(gen, p, q).middle, abs=1e-10)


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
        assert chi2 == pytest.approx(4.0 * delta * delta, rel=1e-9)
        assert rhs == pytest.approx(2.0 * delta * delta, rel=1e-4)
        assert rhs == pytest.approx(2.0000033333394667e-06, rel=1e-9)
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
