import dataclasses
import math

import numpy as np
import pytest

import divbound.oracle as oracle
from divbound.bounds import jeffreys_min
from divbound.dist import total_variation
from divbound.errors import BoundViolationError
from divbound.fdiv import batch_total_variation
from divbound.oracle import TV_MATCH_TOL, fine_grid_pairs, grid_verify, sample_pair, verify_min

from util import random_simplex, rejection_sign_sets


class TestSampler:
    def test_invalid_support(self):
        for k in (1, 9):
            with pytest.raises(ValueError, match="support_size"):
                sample_pair(k, 0.5, seed=0)

    def test_invalid_eps(self):
        for eps in (-0.1, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="eps"):
                sample_pair(3, eps, seed=0)

    def test_deterministic_given_seed(self):
        p1, q1 = sample_pair(4, 0.37, seed=123)
        p2, q2 = sample_pair(4, 0.37, seed=123)
        assert np.array_equal(p1.mass, p2.mass)
        assert np.array_equal(q1.mass, q2.mass)

    def test_different_seeds_differ(self):
        a = sample_pair(4, 0.3, seed=1)
        b = sample_pair(4, 0.3, seed=2)
        assert not np.array_equal(a[0].mass, b[0].mass)

    def test_eps_zero_returns_same_dist(self):
        p, q = sample_pair(3, 0.0, seed=5)
        assert np.array_equal(p.mass, q.mass)

    def test_extreme_eps_small_support(self):
        # the mirrored two-point family is feasible for every eps < 1
        p, q = sample_pair(2, 0.999, seed=11)
        assert total_variation(p, q) == pytest.approx(0.999, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 5, 8])
    @pytest.mark.parametrize("eps", [0.05, 0.5, 0.9])
    def test_constraint_always_met(self, k, eps):
        for seed in range(31, 41):
            p, q = sample_pair(k, eps, seed=seed)
            assert abs(total_variation(p, q) - eps) <= TV_MATCH_TOL
            assert np.all(p.mass >= 0.0) and np.all(q.mass >= 0.0)

    def test_same_draw_as_one_row_of_a_batch(self):
        pm, qm = oracle._sample_batch(
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(17))), 1, 6, 0.42
        )
        p, q = sample_pair(6, 0.42, seed=17)
        assert p.mass.tobytes() == pm[0].tobytes() and q.mass.tobytes() == qm[0].tobytes()


def _force_closed_form(monkeypatch, name: str, value: float):
    """Make the oracle check name against a constant closed form."""
    om = oracle.ORACLE_MEASURES[name]
    monkeypatch.setitem(
        oracle.ORACLE_MEASURES, name, dataclasses.replace(om, closed_form=lambda eps: value)
    )


def _chi2_bound(dof: int) -> float:
    """The 0.999 quantile of chi-square on dof degrees of freedom (Wilson-Hilferty)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + 3.09 * math.sqrt(c)) ** 3


def _draws(monkeypatch):
    """Record each (P, B) that _sample_batch passes through _draw_sign_sets."""
    seen = []
    draw = oracle._draw_sign_sets

    def recorded(rng, pm, eps):
        b, ok = draw(rng, pm, eps)
        seen.append((pm.copy(), b))
        return b, ok

    monkeypatch.setattr(oracle, "_draw_sign_sets", recorded)
    return seen


class TestSignSets:
    """The one-pass sign-set draw against the rejection route it replaced."""

    @pytest.mark.parametrize(
        "p, eps",
        [
            ((0.5, 0.3, 0.2), 0.6),  # S = {0.3, 0.2}, a proper subset
            ((0.6, 0.25, 0.15), 0.5),  # S = {0.25, 0.15}: the order of the rest matters
            ((0.05, 0.15, 0.2, 0.6), 0.5),  # S leaves out 0.6
            ((0.1, 0.2, 0.3, 0.4), 0.3),  # S is every atom
            ((0.3, 0.1, 0.25, 0.2, 0.15), 0.45),
        ],
    )
    def test_patterns_match_the_rejection_draw(self, p, eps):
        n, k = 40000, len(p)
        pm = np.tile(p, (n, 1))
        b, ok = oracle._draw_sign_sets(np.random.default_rng(71), pm, eps)
        assert ok.all()
        ref = rejection_sign_sets(np.random.default_rng(73), pm, eps)
        bits = 1 << np.arange(k)
        new = np.bincount(b @ bits, minlength=2**k)
        old = np.bincount(ref @ bits, minlength=2**k)
        seen = (new + old) > 0
        chi2 = float(((new - old)[seen] ** 2 / (new + old)[seen]).sum())
        assert chi2 < _chi2_bound(int(seen.sum()) - 1)

    def test_one_draw_per_batch(self, monkeypatch):
        seen = _draws(monkeypatch)
        rng = np.random.default_rng(79)
        for k in (2, 5, 8):
            for eps in (0.1, 0.9, 0.999):
                seen.clear()
                oracle._sample_batch(rng, 1000, k, eps)
                assert [pm.shape for pm, _ in seen] == [(1000, k)]

    @pytest.mark.parametrize("eps", [0.75, 0.9, 0.999])
    def test_atom_at_exactly_one_minus_eps(self, monkeypatch, eps):
        # the atom at 1 - eps is the only possible anchor: the others carry
        # about eps, each raised above 1 - eps, and their float sum often
        # lands an ulp below eps
        seen = _draws(monkeypatch)
        rng = np.random.default_rng(89)
        for k in range(2, 9):
            rows = np.empty((2000, k))
            rows[:, 0] = 1.0 - eps
            rows[:, 1:] = eps * random_simplex(rng, 2000, k - 1)
            rows[:, 1:] = np.maximum(rows[:, 1:], np.nextafter(1.0 - eps, 1.0))
            monkeypatch.setattr(oracle, "_simplex", lambda rng, n, k, rows=rows: rows.copy())
            pm, qm = oracle._sample_batch(rng, 2000, k, eps)
            assert not seen[-1][1][:, 0].any()
            assert np.all(qm >= 0.0)
            assert np.all(np.abs(batch_total_variation(pm, qm) - eps) <= TV_MATCH_TOL)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_eps_near_one(self, monkeypatch, k):
        seen = _draws(monkeypatch)
        eps = 0.999
        pm, qm = oracle._sample_batch(np.random.default_rng(97), 5000, k, eps)
        p, b = seen[0]
        # some atom of mass <= 1 - eps stays out of B: the anchor
        assert np.all((~b & (p <= 1.0 - eps)).any(axis=1))
        assert np.all(qm >= 0.0)
        assert np.all(np.abs(batch_total_variation(pm, qm) - eps) <= TV_MATCH_TOL)


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

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5, 0.9, 0.999])
    def test_support3_matches_the_loop_over_a(self, eps):
        step = 1e-3
        # the reference: one block of b values per a, built one a at a time
        n_a = int(round((1.0 - eps) / step)) + 1
        blocks_a, blocks_b = [], []
        for a in np.minimum(eps + np.arange(n_a) * step, 1.0):
            b = np.minimum(np.arange(int(round((1.0 - a) / step)) + 1) * step, 1.0 - a)
            blocks_a.append(np.full(b.size, a))
            blocks_b.append(b)
        a, b = np.concatenate(blocks_a), np.concatenate(blocks_b)
        want_p = np.maximum(np.stack([a, b, 1.0 - a - b], axis=1), 0.0)
        want_q = np.maximum(np.stack([a - eps, b, 1.0 - a - b + eps], axis=1), 0.0)
        p, q = fine_grid_pairs(eps, 3, step=step)
        assert np.array_equal(p, want_p) and np.array_equal(q, want_q)


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

    def test_forced_failure_records_witness(self, monkeypatch):
        # an impossibly high closed form must be crossed by samples
        _force_closed_form(monkeypatch, "jeffreys", 10.0)
        r = verify_min("jeffreys", 0.3, 200, seed=7)
        assert not r.passed
        assert r.violations > 0
        assert r.witness is not None
        assert r.failure is not None

    def test_witness_is_the_worst_crossing_row_over_all_batches(self, monkeypatch):
        # every pair crosses 10; the least sampled value lies in a later
        # batch than the first, and the fine grids go lower still
        _force_closed_form(monkeypatch, "jeffreys", 10.0)
        evaluate = oracle.ORACLE_MEASURES["jeffreys"].evaluate
        sampled = [
            evaluate(*oracle._sample_batch(oracle._stream(7, 0, s), 2000, s, 0.3)).min()
            for s in range(2, 9)
        ]
        assert np.argmin(sampled) > 0

        def witness_value(r):
            wp, wq = r.witness
            return evaluate(wp.mass[None, :], wq.mass[None, :])[0]

        r = verify_min("jeffreys", 0.3, 2000, seed=7, fine_step=None)
        assert witness_value(r) == min(sampled)
        assert len(r.witness[0]) == 2 + int(np.argmin(sampled))
        r = verify_min("jeffreys", 0.3, 2000, seed=7)
        assert witness_value(r) == r.fine_extreme < min(sampled)

    def test_nan_gap_threshold_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            verify_min("jeffreys", 0.5, 10, gap_threshold=math.nan)

    def test_gap_threshold_enforced(self):
        r = verify_min("jeffreys", 0.5, 100, seed=7, gap_threshold=-1.0)
        assert not r.passed and "gap" in r.failure

    def test_fine_grid_disabled(self):
        r = verify_min("capacitory", 0.5, 100, seed=7, fine_step=None)
        assert r.fine_extreme is None
        assert r.passed


class TestGridVerify:
    def test_empty_grid(self):
        assert grid_verify("jeffreys", [], 10) == []

    def test_domain_error_before_sampling(self):
        with pytest.raises(ValueError):
            grid_verify("jeffreys", [0.2, 1.2], 10)

    def test_reports_follow_the_grid(self):
        reports = grid_verify("capacitory", [0.2, 0.5, 0.8], 300, seed=13)
        assert [r.eps for r in reports] == [0.2, 0.5, 0.8]
        assert all(r.passed for r in reports)
        assert all(r.sample_extreme >= r.closed_form - 1e-9 for r in reports)
        # point i draws from stream key i
        assert reports[1] == verify_min("capacitory", 0.5, 300, seed=13, stream_key=1)

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
