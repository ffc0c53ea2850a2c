import dataclasses

import numpy as np
import pytest

import divbound.oracle as oracle
from divbound.bounds import jeffreys_min
from divbound.dist import total_variation
from divbound.errors import BoundViolationError
from divbound.oracle import (
    TVConstrainedSampler,
    fine_grid_pairs,
    grid_verify,
    sample_pair,
    verify_min,
)


class TestSampler:
    def test_invalid_support(self):
        for k in (1, 9):
            with pytest.raises(ValueError):
                TVConstrainedSampler(support_size=k, eps_target=0.5, seed=0)

    def test_invalid_eps(self):
        for eps in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                TVConstrainedSampler(support_size=3, eps_target=eps, seed=0)

    def test_deterministic_given_seed(self):
        s = TVConstrainedSampler(support_size=4, eps_target=0.37, seed=123)
        p1, q1 = sample_pair(s)
        p2, q2 = sample_pair(s)
        assert np.array_equal(p1.mass, p2.mass)
        assert np.array_equal(q1.mass, q2.mass)

    def test_different_seeds_differ(self):
        a = sample_pair(TVConstrainedSampler(support_size=4, eps_target=0.3, seed=1))
        b = sample_pair(TVConstrainedSampler(support_size=4, eps_target=0.3, seed=2))
        assert not np.array_equal(a[0].mass, b[0].mass)

    def test_eps_zero_returns_same_dist(self):
        p, q = sample_pair(TVConstrainedSampler(support_size=3, eps_target=0.0, seed=5))
        assert np.array_equal(p.mass, q.mass)

    def test_extreme_eps_small_support(self):
        # the mirrored two-point family is feasible for every eps < 1
        s = TVConstrainedSampler(support_size=2, eps_target=0.999, seed=11)
        p, q = sample_pair(s)
        assert total_variation(p, q) == pytest.approx(0.999, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 5, 8])
    @pytest.mark.parametrize("eps", [0.05, 0.5, 0.9])
    def test_constraint_always_met(self, k, eps):
        s = TVConstrainedSampler(support_size=k, eps_target=eps, seed=31)
        for seed in range(31, 41):
            p, q = sample_pair(
                TVConstrainedSampler(support_size=k, eps_target=eps, seed=seed)
            )
            assert abs(total_variation(p, q) - eps) <= s.tol
            assert np.all(p.mass >= 0.0) and np.all(q.mass >= 0.0)


class TestFineGrids:
    def test_support2_shape_and_constraint(self):
        p, q = fine_grid_pairs(0.25, 2, step=1e-3)
        assert p.shape == q.shape
        tv = 0.5 * np.abs(p - q).sum(axis=1)
        np.testing.assert_allclose(tv, 0.25, atol=1e-12)

    def test_support3_contains_extremal_rows(self):
        eps = 0.4
        p, q = fine_grid_pairs(eps, 3, step=1e-3)
        tv = 0.5 * np.abs(p - q).sum(axis=1)
        np.testing.assert_allclose(tv, eps, atol=1e-12)
        # the designated three-point pair sits on the grid
        target = np.array([eps, 1 - eps, 0.0])
        hit = np.all(np.abs(p - target) < 1e-9, axis=1)
        assert hit.any()
        i = int(np.argmax(hit))
        np.testing.assert_allclose(q[i], [0.0, 1 - eps, eps], atol=1e-9)

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            fine_grid_pairs(0.3, 4)


class TestVerifyMin:
    def test_jeffreys_passes(self):
        r = verify_min("jeffreys", 0.5, 500, seed=7)
        assert r.passed and r.attained and r.violations == 0
        assert r.closed_form == pytest.approx(jeffreys_min(0.5), abs=1e-15)
        assert r.sample_extreme >= r.closed_form - 1e-9
        assert r.rng_name == "numpy PCG64"

    def test_bhattacharyya_both_directions(self):
        lo = verify_min("bhattacharyya_lower", 0.6, 500, seed=7)
        hi = verify_min("bhattacharyya_upper", 0.6, 500, seed=7)
        assert lo.passed and hi.passed
        assert lo.extremal_value == pytest.approx(0.4, abs=1e-12)
        assert hi.extremal_value == pytest.approx(0.8, abs=1e-12)
        assert hi.direction == "max"
        assert hi.sample_extreme <= hi.closed_form + 1e-9

    def test_chernoff_at_zero(self):
        r = verify_min("chernoff", 0.0, 200, seed=3)
        assert r.passed
        assert r.closed_form == 0.0
        assert r.sample_extreme == pytest.approx(0.0, abs=1e-9)

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            verify_min("nope", 0.5, 10)

    def test_eps_outside_domain(self):
        with pytest.raises(ValueError):
            verify_min("jeffreys", 1.0, 10)

    def test_forced_failure_records_witness(self):
        # an impossibly high closed form must be crossed by samples
        r = verify_min("jeffreys", 0.3, 200, closed_form=10.0, seed=7)
        assert not r.passed
        assert r.violations > 0
        assert r.witness is not None
        assert r.failure is not None

    def test_gap_threshold_enforced(self):
        r = verify_min("jeffreys", 0.5, 100, seed=7, gap_threshold=-1.0)
        assert not r.passed and "gap" in r.failure

    def test_fine_grid_disabled(self):
        r = verify_min("capacitory", 0.5, 100, seed=7, fine_step=None)
        assert r.fine_extreme is None
        assert r.passed


class TestGridVerify:
    def test_empty_grid(self):
        closed, empirical, reports = grid_verify("jeffreys", [], 10)
        assert closed.points == ()
        assert empirical.points == ()
        assert reports == []

    def test_domain_error_before_sampling(self):
        with pytest.raises(ValueError):
            grid_verify("jeffreys", [0.2, 1.2], 10)

    def test_curves_and_reports(self):
        closed, empirical, reports = grid_verify(
            "capacitory", [0.2, 0.5, 0.8], 300, seed=13
        )
        assert [e for e, _ in closed.points] == [0.2, 0.5, 0.8]
        assert all(r.passed for r in reports)
        assert np.all(empirical.values() >= closed.values() - 1e-9)

    def test_bit_for_bit_determinism(self):
        kw = dict(n_samples=300, seed=99, support_sizes=(2, 3, 4), fine_step=None)
        r1 = verify_min("jeffreys", 0.4, **kw)
        r2 = verify_min("jeffreys", 0.4, **kw)
        for f in dataclasses.fields(r1):
            if f.name == "witness":
                continue
            assert getattr(r1, f.name) == getattr(r2, f.name), f.name


def test_pair_off_the_tv_constraint_raises(monkeypatch):
    # the check is a typed error, not an assert that python -O would drop
    monkeypatch.setattr(oracle, "batch_total_variation", lambda p, q: np.full(len(p), 0.5))
    rng = np.random.default_rng(3)
    with pytest.raises(BoundViolationError, match="left the TV constraint 0.3 on support 3"):
        oracle._sample_batch(rng, 10, 3, 0.3)
