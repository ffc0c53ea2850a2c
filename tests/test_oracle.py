import dataclasses
import functools
import hashlib
import inspect
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import divbound.oracle as oracle
from divbound import fdiv
from divbound.bounds import bound_curve
from divbound.dist import total_variation
from divbound.errors import BoundViolationError
from divbound.fdiv import batch_total_variation
from divbound.oracle import TV_MATCH_TOL, fine_grid_pairs, grid_verify, sample_pair, verify_min

from util import (
    assert_same_report,
    cumsum_rows,
    end_rows,
    first_true,
    random_simplex,
    reference_grid2,
    reference_grid3,
    reference_sample_batch,
    reference_verify_min,
    rejection_sign_sets,
    row_sample_batch,
)


# sha256 over the P and Q bytes of _sample_batch(_stream(7, 3, k), 2000, k, eps)
# for k = 2..8 in turn, recorded when the sign sets came to follow the
# column order
SAMPLER_PINS = {
    0.0: "34520bc1c9cc409c527d485403f516ab4aa20f676eb16145a2971e75cb67c050",
    0.1: "9d3b623e4e4a910038c09cde1404a73fe1e7f0cfd3ea6e724964a4a63229c45c",
    0.5: "8fadc55eb20c4e905f7903b168a8c9387fc6cfb34e70330dca5e8948f3122715",
    0.9: "4c78206edb832b396ef11c1194595d33da399daf6292cdecca1eeec8a285adeb",
    0.999: "34432bade4bfad855a6330e3caf6f8dee2f81eff35002b97692a6b9122fae29d",
}
# the same over reference_sample_batch, which draws the sign sets through a
# permutation, recorded from _sample_batch while it did so
REFERENCE_SAMPLER_PINS = {
    0.0: "34520bc1c9cc409c527d485403f516ab4aa20f676eb16145a2971e75cb67c050",
    0.1: "dde3e185458a7a7ed5eb1627ab2a46262dfe0902ef844a98a0557a054a97eb09",
    0.5: "4ef4d9525b2f970bb7c5d304b82a650fd7633941ff3a934027ec97acdda31bbf",
    0.9: "7acb9f0ac72243904ce3a741ccd1ff21141b0e33c0e8b4e71fc98adde32b4707",
    0.999: "a856e0f132d232423db0fe5965c21d62e241a9cd6955e6541c1badc9cfab2b78",
}
# the same over the binary grid, reference_grid2(eps, 1e-3), and then the
# whole 2-D support-3 grid, reference_grid3(eps, 1e-3), recorded with them
# when the oracle scanned both grids whole
FULL_GRID_PINS = {
    0.0: "949d7da7bc78405a5da96fd9aeedfe78578426d33e733238dd82866f3d272dc9",
    0.1: "0c4c651c43cba7007a62e4851bd9c33aa146039c4f9f2e30ea630fc4e070b19f",
    0.5: "843b0747397f1556dc1b1dd0927999be9384336aaddb582179bd0559ed19b0b8",
    0.9: "7516c9654291e212065ff760b9e586b453dd1f644c001816f032fb868a7452be",
    0.999: "20316d6734ef625888d43d7b59dc0cc5f1decde811ba1681ca27d8746fb5ec89",
}
# the same over fine_grid_pairs(eps), the end rows of each run of
# reference_grid3(eps, 1e-3), recorded when it became the one fine grid
FINE_GRID_PINS = {
    0.0: "92f95730c01b8da72c8019a3a30908d97bc75e5020472a2e183dba3ae0db6e13",
    0.1: "84e76eb714eccc9a8cb9155b3fbe832923c76f69716b212da2c2cf7862bc5416",
    0.5: "4a1658b5ff15c8952de428593e582e982d4d80a4fdcba5e97b8b1328080b1b02",
    0.9: "52b14f4aa983cae832219975d442f4ced662dde9dee65182ab8b0465423c2937",
    0.999: "5906520409ef7cabf491275213d7565eaa3d7cdbae70470b6f4c13fbd9ad8989",
}


def _sampler_digest(sample_batch, eps: float) -> str:
    """The sha256 that SAMPLER_PINS records, of the batches sample_batch draws."""
    digest = hashlib.sha256()
    for k in range(2, 9):
        pm, qm = sample_batch(oracle._stream(7, 3, k), 2000, k, eps)
        digest.update(pm.tobytes())
        digest.update(qm.tobytes())
    return digest.hexdigest()


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

    @pytest.mark.parametrize("eps", sorted(SAMPLER_PINS))
    def test_stream_is_pinned(self, eps):
        assert _sampler_digest(oracle._sample_batch, eps) == SAMPLER_PINS[eps]

    @pytest.mark.parametrize("eps", sorted(REFERENCE_SAMPLER_PINS))
    def test_reference_stream_is_pinned(self, eps):
        assert _sampler_digest(reference_sample_batch, eps) == REFERENCE_SAMPLER_PINS[eps]

    def test_pins_cover_stuck_rows(self):
        # at eps = 0.999 every support draws rows whose least atom exceeds
        # 1 - eps, so the pinned bytes include the shrink of stuck rows
        for k in range(2, 9):
            p = oracle._simplex(oracle._stream(7, 3, k), 2000, k)
            assert np.any(p.min(axis=0) > 1.0 - 0.999)

    def test_column_helpers_match_numpy(self):
        rng = np.random.default_rng(83)
        for k in range(1, 10):
            for mask in (rng.random((300, k)) < 0.3, np.zeros((300, k), dtype=bool)):
                assert np.array_equal(first_true(mask), mask.argmax(axis=1))
                want = np.cumsum(mask, axis=1)
                assert cumsum_rows(mask).tobytes() == want.tobytes()
                assert cumsum_rows(mask).dtype == want.dtype
            for a in (rng.random((k, 300)), (rng.random((k, 300)) < 0.3).astype(np.uint8)):
                want = np.cumsum(a, axis=0, dtype=a.dtype)
                assert oracle._accumulate(a.copy()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(2, 9))
    def test_same_bytes_as_the_row_layout(self, k):
        # the sampler on contiguous columns against the row layout it
        # replaced, on one stream; eps 0.999 and 1 - 1e-9 draw stuck rows
        for eps in (0.0, 1e-9, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9):
            if eps >= 0.999:
                assert np.any(oracle._simplex(oracle._stream(3, 1, k), 5000, k).min(axis=0) > 1.0 - eps)
            for n in (1, 2, 3, 5000):
                pm, qm = oracle._sample_batch(oracle._stream(3, 1, k), n, k, eps)
                want_p, want_q = row_sample_batch(oracle._stream(3, 1, k), n, k, eps)
                assert pm.shape == qm.shape == (n, k)
                assert pm.tobytes() == want_p.tobytes() and qm.tobytes() == want_q.tobytes(), (eps, n)
                # views of contiguous columns, which the evaluators take as they are
                assert pm.T.flags.c_contiguous and qm.T.flags.c_contiguous
                assert not np.shares_memory(pm, qm)

    def test_same_draw_as_one_row_of_a_batch(self):
        pm, qm = oracle._sample_batch(
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(17))), 1, 6, 0.42
        )
        p, q = sample_pair(6, 0.42, seed=17)
        assert p.mass.tobytes() == pm[0].tobytes() and q.mass.tobytes() == qm[0].tobytes()


def _force_bound(monkeypatch, name: str, value: float):
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
    """Record each (P, B) that _sample_batch passes through _draw_sign_sets,
    both as (k, n) columns."""
    seen = []
    draw = oracle._draw_sign_sets

    def recorded(rng, p, eps):
        b, ok = draw(rng, p, eps)
        seen.append((p.copy(), b))
        return b, ok

    monkeypatch.setattr(oracle, "_draw_sign_sets", recorded)
    return seen


class TestSignSets:
    """The one-pass sign-set draw against the rejection route and the
    permutation draw it replaced."""

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
        # the draw follows the column order, so it sees each row in a
        # uniform random order of its own, as _sample_batch's exchangeable
        # rows come, and B is mapped back to the atoms of p
        perm = np.random.default_rng(67).permuted(np.tile(np.arange(k), (n, 1)), axis=1)
        shuffled, ok = oracle._draw_sign_sets(
            np.random.default_rng(71), np.take_along_axis(pm, perm, axis=1).T, eps
        )
        assert ok.all()
        b = np.empty_like(pm, dtype=bool)
        np.put_along_axis(b, perm, shuffled.T, axis=1)
        ref = rejection_sign_sets(np.random.default_rng(73), pm, eps)
        bits = 1 << np.arange(k)
        new = np.bincount(b @ bits, minlength=2**k)
        old = np.bincount(ref @ bits, minlength=2**k)
        seen = (new + old) > 0
        chi2 = float(((new - old)[seen] ** 2 / (new + old)[seen]).sum())
        assert chi2 < _chi2_bound(int(seen.sum()) - 1)

    @pytest.mark.parametrize("k", [3, 5, 8])
    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_law_matches_the_permutation_draw(self, eps, k):
        # the column-order draw and the permutation draw give one law of
        # pairs up to a relabelling of atoms, so of Z and hellinger2.  A
        # two-sample Kolmogorov-Smirnov test at level 1e-3, on different
        # streams: the largest gap between the two empirical CDFs of n rows
        # each stays below sqrt(-log(1e-3 / 2) / 2) sqrt(2 / n)
        n = 200_000
        new = oracle._sample_batch(oracle._stream(11, 0, k), n, k, eps)
        ref = reference_sample_batch(oracle._stream(13, 0, k), n, k, eps)
        bound = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / n)
        for evaluate in (fdiv.batch_bhattacharyya, oracle.ORACLE_MEASURES["hellinger2"].evaluate):
            a, b = np.sort(evaluate(*new)), np.sort(evaluate(*ref))
            x = np.concatenate([a, b])
            gap = np.abs(np.searchsorted(a, x, "right") - np.searchsorted(b, x, "right")).max()
            assert gap / n < bound

    def test_one_draw_per_batch(self, monkeypatch):
        seen = _draws(monkeypatch)
        rng = np.random.default_rng(79)
        for k in (2, 5, 8):
            for eps in (0.1, 0.9, 0.999):
                seen.clear()
                oracle._sample_batch(rng, 1000, k, eps)
                assert [p.shape for p, _ in seen] == [(k, 1000)]

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
            monkeypatch.setattr(oracle, "_simplex", lambda rng, n, k, rows=rows: rows.T.copy())
            pm, qm = oracle._sample_batch(rng, 2000, k, eps)
            assert not seen[-1][1][0].any()
            assert np.all(qm >= 0.0)
            assert np.all(np.abs(batch_total_variation(pm, qm) - eps) <= TV_MATCH_TOL)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_eps_near_one(self, monkeypatch, k):
        seen = _draws(monkeypatch)
        eps = 0.999
        pm, qm = oracle._sample_batch(np.random.default_rng(97), 5000, k, eps)
        p, b = seen[0]
        # some atom of mass <= 1 - eps stays out of B: the anchor
        assert np.all((~b & (p <= 1.0 - eps)).any(axis=0))
        assert np.all(qm >= 0.0)
        assert np.all(np.abs(batch_total_variation(pm, qm) - eps) <= TV_MATCH_TOL)


class TestFineGrids:
    @pytest.mark.parametrize("eps", sorted(FINE_GRID_PINS))
    def test_grids_are_pinned(self, eps):
        def digest(*arrays):
            return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

        assert digest(*fine_grid_pairs(eps)) == FINE_GRID_PINS[eps]
        # the reference grids are the ones the oracle scanned whole
        p, q, _ = reference_grid3(eps, 1e-3)
        assert digest(*reference_grid2(eps, 1e-3), p, q) == FULL_GRID_PINS[eps]

    def test_support2_shape_and_constraint(self):
        # the first rows are binary pairs at TV eps with a zero middle atom
        p, q = fine_grid_pairs(0.25, step=1e-3)
        assert p.shape == q.shape == (2 * 751, 3)
        assert not p[::2, 1].any() and not q[::2, 1].any()
        tv = 0.5 * np.abs(p[::2] - q[::2]).sum(axis=1)
        np.testing.assert_allclose(tv, 0.25, atol=1e-12)

    @pytest.mark.parametrize("step", [1e-3, 7e-3])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_first_rows_are_the_binary_grid(self, eps, step):
        # row 2i, its zero atom dropped, is row i of the binary grid up to
        # the rounding of the masses 1 - a and a - eps: 2^-53, half an ulp
        # of a mass in [0.5, 1), at most
        p, q = fine_grid_pairs(eps, step)
        p2, q2 = reference_grid2(eps, step)
        assert len(p) == 2 * len(p2) and not p[::2, 1].any() and not q[::2, 1].any()
        assert np.abs(p[::2][:, [0, 2]] - p2).max() <= 2.0**-53
        assert np.abs(q[::2][:, [0, 2]] - q2).max() <= 2.0**-53

    def test_support3_contains_extremal_rows(self):
        eps = 0.4
        p, q = fine_grid_pairs(eps, step=1e-3)
        tv = 0.5 * np.abs(p - q).sum(axis=1)
        np.testing.assert_allclose(tv, eps, atol=1e-12)
        # the designated pairs sit on the grid: the three-point pair as the
        # last row of the first run, the two-point pair as a first row
        for want_p, want_q in (([eps, 1 - eps, 0.0], [0.0, 1 - eps, eps]), ([0.7, 0.0, 0.3], [0.3, 0.0, 0.7])):
            hit = np.all(np.abs(p - want_p) < 1e-9, axis=1)
            assert hit.any()
            np.testing.assert_allclose(q[int(np.argmax(hit))], want_q, atol=1e-9)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5, 0.9, 0.999])
    def test_support3_matches_the_loop_over_a(self, eps):
        # the reference builds the whole grid one a at a time; the family is
        # the first and last row of each a, to the byte
        for step in (1e-3, 7e-3, 0.05, 0.3):
            p, q, n_b = reference_grid3(eps, step)
            fp, fq = fine_grid_pairs(eps, step)
            at = end_rows(n_b)
            assert fp.tobytes() == p[at].tobytes() and fq.tobytes() == q[at].tobytes(), step

    @pytest.mark.parametrize("eps", [-0.5, 1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_eps_outside_the_unit_interval(self, eps):
        # one ValueError naming eps, the sampler's, where -0.5 built rows off
        # the simplex and 1.5 or NaN failed later
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"eps=.* outside \[0, 1\)"):
                fine_grid_pairs(eps)


class TestVerifyMin:
    def test_jeffreys_passes(self):
        r = verify_min("jeffreys", 0.5, 500, seed=7)
        assert r.passed and r.attained and r.violations == 0
        assert r.closed_form == pytest.approx(bound_curve("jeffreys", 0.5), abs=1e-15)
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
        _force_bound(monkeypatch, "jeffreys", 10.0)
        r = verify_min("jeffreys", 0.3, 200, seed=7)
        assert not r.passed
        assert r.violations > 0
        assert r.witness is not None
        assert r.failure is not None

    @pytest.mark.parametrize("fine_step", [1e-3, None])
    def test_failure_counts_sampled_and_fine_pairs_apart(self, monkeypatch, fine_step):
        _force_bound(monkeypatch, "jeffreys", 10.0)
        r = verify_min("jeffreys", 0.5, 20, fine_step=fine_step)
        m = re.fullmatch(
            r"(\d+) sampled and (\d+) fine-grid pair\(s\) crossed the closed form; "
            r"worst witness retained",
            r.failure,
        )
        sampled, fine = int(m[1]), int(m[2])
        assert sampled <= 20 * len(r.support_sizes)
        assert sampled + fine == r.violations
        assert (fine > 0) == (fine_step is not None)

    def test_witness_is_the_worst_crossing_row_over_all_batches(self, monkeypatch):
        # every pair crosses 10; the least sampled value lies in a later
        # batch than the first, and the fine grid goes lower still
        _force_bound(monkeypatch, "jeffreys", 10.0)
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

    def test_bit_for_bit_determinism(self, monkeypatch):
        # fine grid on, so the blocked scan is pinned; the forced closed
        # form makes the second pair of runs keep a witness
        kw = dict(n_samples=300, seed=99, fine_step=2e-3)
        for forced in (False, True):
            if forced:
                _force_bound(monkeypatch, "jeffreys", 10.0)
            r1 = verify_min("jeffreys", 0.4, **kw)
            r2 = verify_min("jeffreys", 0.4, **kw)
            assert (r1.witness is not None) == forced
            assert_same_report(r1, r2)

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_fine_step_must_be_finite_and_positive(self, monkeypatch, step):
        called = []

        def no_sampling(*args):
            called.append(args)
            raise AssertionError("sampled before the fine step was checked")

        monkeypatch.setattr(oracle, "_sample_batch", no_sampling)
        monkeypatch.setattr(oracle, "fine_grid_pairs", no_sampling)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="fine_step=.* must be finite and > 0"):
                verify_min("tv", 0.5, 10, fine_step=step)
            for grid in ([0.2, 0.5], []):
                with pytest.raises(ValueError, match="fine_step=.* must be finite and > 0"):
                    grid_verify("tv", grid, 10, fine_step=step)
            with pytest.raises(ValueError, match="fine_step=.* must be finite and > 0"):
                fine_grid_pairs(0.5, step)
        assert not called

    def test_fine_step_below_the_least_raises_before_building(self, monkeypatch):
        # at step 1e-9 and eps 0.1 the fine grid would be 1.8e9 rows, 86 GB
        # for P and Q; the step is refused before numpy is called at all
        message = re.escape("fine_step=1e-09 is below 1e-06")

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} called before the step was checked")

        with monkeypatch.context() as m:
            m.setattr(oracle, "np", NoNumpy())
            with pytest.raises(ValueError, match=message):
                fine_grid_pairs(0.1, 1e-9)
        called = _no_sampling(monkeypatch)
        with pytest.raises(ValueError, match=message):
            verify_min("tv", 0.1, 0, fine_step=1e-9)
        with pytest.raises(ValueError, match=message):
            grid_verify("tv", [0.1, 0.5], 0, fine_step=1e-9)
        assert not called
        oracle._check_step(1e-6)  # the least step passes


def _no_sampling(monkeypatch):
    """Make drawing or building any block fail; returns the list of attempts."""
    called = []

    def no_sampling(*args):
        called.append(args)
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(oracle, "_sample_batch", no_sampling)
    monkeypatch.setattr(oracle, "fine_grid_pairs", no_sampling)
    return called


class TestArguments:
    def test_negative_sample_count_raises_before_sampling(self, monkeypatch):
        called = _no_sampling(monkeypatch)
        with pytest.raises(ValueError, match="n_samples=-5 is negative"):
            verify_min("tv", 0.5, -5)
        for grid in ([0.2, 0.5], []):
            with pytest.raises(ValueError, match="n_samples=-5 is negative"):
                grid_verify("tv", grid, -5)
        assert not called

    def test_sample_count_past_numpy_raises_before_sampling(self, monkeypatch):
        # 10^20 rows exceed numpy's largest array dimension: the error names
        # n_samples, where numpy's own named no argument
        called = _no_sampling(monkeypatch)
        n = 10**20
        for run in (lambda: verify_min("tv", 0.5, n), lambda: grid_verify("tv", [0.2, 0.5], n)):
            with pytest.raises(ValueError, match=f"n_samples={n} exceeds {np.iinfo(np.intp).max}, "):
                run()
        assert not called

    def test_negative_seed_raises_before_sampling(self, monkeypatch):
        called = _no_sampling(monkeypatch)
        with pytest.raises(ValueError, match="seed=-1 is negative"):
            verify_min("tv", 0.5, 10, seed=-1)
        for grid in ([0.2, 0.5], []):
            with pytest.raises(ValueError, match="seed=-1 is negative"):
                grid_verify("tv", grid, 10, seed=-1)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="seed=-1 is negative"):
            sample_pair(3, 0.5, -1)
        assert not called

    @pytest.mark.parametrize(
        "kw, message",
        [
            # numpy floats that hold an integer are refused too
            (dict(n_samples=np.float64(10.0)), "n_samples must be an integer, got np.float64(10.0)"),
            (dict(seed=np.float64(1.0)), "seed must be an integer, got np.float64(1.0)"),
            (dict(n_samples=10.0), "n_samples must be an integer, got 10.0"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(seed="1"), "seed must be an integer, got '1'"),
        ],
    )
    def test_non_integer_raises_before_sampling(self, monkeypatch, kw, message):
        # the error names the argument, where numpy's own, raised on a
        # worker, named the seed for a support size
        called = _no_sampling(monkeypatch)
        kw = {"n_samples": 10, **kw}
        with pytest.raises(TypeError, match=re.escape(message)):
            verify_min("tv", 0.5, **kw)
        for grid in ([0.2, 0.5], []):
            with pytest.raises(TypeError, match=re.escape(message)):
                grid_verify("tv", grid, **kw)
        assert not called

    def test_sample_pair_takes_integers_only(self, monkeypatch):
        called = _no_sampling(monkeypatch)
        with pytest.raises(TypeError, match=re.escape("support_size must be an integer, got 3.5")):
            sample_pair(3.5, 0.5, 1)
        with pytest.raises(TypeError, match=re.escape("seed must be an integer, got 1.0")):
            sample_pair(3, 0.5, 1.0)
        assert not called

    @pytest.mark.parametrize("size", [0, 1, 9, np.int64(9)])
    def test_sample_pair_support_outside_range(self, monkeypatch, size):
        # the supports verify samples are the only ones sample_pair takes
        called = _no_sampling(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"support_size={size!r} outside [2, 8]")):
            sample_pair(size, 0.5, 1)
        assert not called
        assert oracle.SUPPORT_SIZES == tuple(range(2, 9))

    def test_numpy_integers_pass(self):
        assert verify_min("tv", 0.5, np.int64(20), seed=np.uint8(3)) == verify_min("tv", 0.5, 20, seed=3)
        pair = sample_pair(np.int16(4), 0.5, np.int64(9))
        for a, b in zip(pair, sample_pair(4, 0.5, 9)):
            assert a.labels == b.labels and a.mass.tobytes() == b.mass.tobytes()

    def test_no_measure_raises(self, monkeypatch):
        called = _no_sampling(monkeypatch)
        for run in (lambda: verify_min([], 0.5, 10), lambda: grid_verify((), [0.5], 10)):
            with pytest.raises(ValueError, match="no measure"):
                run()
        assert not called


    @pytest.mark.parametrize("eps", [-0.5, 1.0, 1.5, math.nan])
    def test_eps_outside_raises_one_text_before_sampling(self, monkeypatch, eps):
        # verify_min and grid_verify name a bad eps as the sampler does
        called = _no_sampling(monkeypatch)
        message = rf"^eps={re.escape(repr(eps))} outside \[0, 1\)$"
        for run in (lambda: verify_min("tv", eps, 10), lambda: grid_verify("tv", [0.2, eps], 10)):
            with pytest.raises(ValueError, match=message):
                run()
        assert not called

    def test_checks_run_in_one_order(self, monkeypatch):
        # with every argument from the k-th on bad, the k-th is the one named
        called = _no_sampling(monkeypatch)
        bad = [
            ("measures", [], "no measure"),
            ("eps", 1.5, "eps=1.5 outside"),
            ("gap_threshold", math.nan, "gap_threshold is NaN"),
            ("n_samples", -1, "n_samples=-1"),
            ("seed", -1, "seed=-1"),
            ("fine_step", 0.0, "fine_step=0.0"),
        ]
        good = dict(measures="tv", eps=0.5, n_samples=10, seed=0, fine_step=1e-3)
        for k, (_, _, message) in enumerate(bad):
            kw = {**good, **{name: value for name, value, _ in bad[k:]}}
            eps = kw.pop("eps")
            with pytest.raises(ValueError, match=message):
                verify_min(eps=eps, **kw)
            for grid in ([0.2, eps], [eps]):
                with pytest.raises(ValueError, match=message):
                    grid_verify(eps_grid=grid, **kw)
        assert not called


class TestSeveralMeasures:
    """verify_min and grid_verify on several measures at once: one scan."""

    def test_each_report_equals_its_single_run(self, monkeypatch):
        # the forced bound makes jeffreys fail with a witness while the
        # others pass; the two bhattacharyya entries share one evaluator
        _force_bound(monkeypatch, "jeffreys", 10.0)
        names = ["jeffreys", *sorted(set(oracle.ORACLE_MEASURES) - {"jeffreys"})]
        kw = dict(n_samples=200, seed=5, fine_step=2e-3, stream_key=3)
        reports = verify_min(names, 0.3, **kw)
        assert [r.measure for r in reports] == names
        assert reports[0].witness is not None
        for name, r in zip(names, reports):
            assert_same_report(r, verify_min(name, 0.3, **kw))

    def test_a_name_gives_a_report_and_a_sequence_a_list(self):
        r = verify_min("tv", 0.5, 10, seed=1)
        assert isinstance(r, oracle.VerifyPointReport)
        assert verify_min(("tv",), 0.5, 10, seed=1) == [r]
        assert verify_min(["tv", "tv"], 0.5, 10, seed=1) == [r, r]

    def test_each_block_is_drawn_once_and_each_evaluator_runs_once_on_it(self, monkeypatch):
        draws = []
        sample = oracle._sample_batch

        def counted_sample(*args):
            draws.append(args[2])
            return sample(*args)

        monkeypatch.setattr(oracle, "_sample_batch", counted_sample)
        # one counting wrapper per distinct evaluator, so that the two
        # bhattacharyya entries still share theirs
        calls = []
        wrappers = {}
        names = ["tv", "chernoff", "bhattacharyya_lower", "bhattacharyya_upper"]
        chernoff = oracle.ORACLE_MEASURES["chernoff"].evaluate
        for name in names:
            om = oracle.ORACLE_MEASURES[name]

            def counted(pm, qm, evaluate=om.evaluate):
                calls.append((evaluate, pm))
                return evaluate(pm, qm)

            wrapper = wrappers.setdefault(om.evaluate, counted)
            monkeypatch.setitem(oracle.ORACLE_MEASURES, name, dataclasses.replace(om, evaluate=wrapper))
        reports = verify_min(names, 0.4, 50, seed=2, fine_step=None)
        assert all(r.passed for r in reports)
        assert sorted(draws) == list(range(2, 9))
        assert len(wrappers) == 3
        # tv and the shared bhattacharyya evaluator run once on each whole
        # block, the latter also serving chernoff's screen
        blocks = [e for e, pm in calls if len(pm) == 50]
        assert sorted(map(id, blocks)) == sorted(id(e) for e in wrappers if e is not chernoff for _ in range(7))
        # chernoff runs only on the rows its screen leaves, none twice: here
        # never a whole block
        rows = [r.tobytes() for e, pm in calls if e is chernoff for r in pm]
        assert len(set(rows)) == len(rows) < 7 * 50

    def test_grid_reports_come_measure_by_measure(self):
        names = ["chernoff", "tv", "bhattacharyya_upper"]
        kw = dict(n_samples=100, seed=3, fine_step=1e-2)
        reports = grid_verify(names, [0.2, 0.6, 0.9], **kw)
        singles = [r for name in names for r in grid_verify(name, [0.2, 0.6, 0.9], **kw)]
        assert len(reports) == len(singles) == 9
        for a, b in zip(reports, singles):
            assert_same_report(a, b)


class TestBlockScan:
    """The pooled block scan against one sequential scan of whole arrays."""

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.97])
    @pytest.mark.parametrize("name", sorted(oracle.ORACLE_MEASURES))
    def test_matches_the_whole_array_scan(self, name, eps):
        kw = dict(n_samples=200, seed=5, fine_step=2e-3, stream_key=3)
        assert_same_report(verify_min(name, eps, **kw), reference_verify_min(name, eps, **kw))

    @pytest.mark.parametrize(
        "kw", [dict(n_samples=0), dict(n_samples=300, fine_step=None)], ids=["samples-0", "no-fine-grids"]
    )
    def test_one_kind_of_piece(self, kw):
        for name in ("chernoff", "bhattacharyya_upper"):
            assert_same_report(verify_min(name, 0.3, seed=11, **kw), reference_verify_min(name, 0.3, seed=11, **kw))

    def test_ties_keep_the_first_row(self, monkeypatch):
        # every row sits at TV 0.1 up to rounding and crosses 0.5: the least
        # value recurs across the blocks, and the first row of it wins
        _force_bound(monkeypatch, "tv", 0.5)
        r = verify_min("tv", 0.1, 50, seed=2)
        assert_same_report(r, reference_verify_min("tv", 0.1, 50, seed=2))
        # flatten the support-3 rows below the rest: the sampled support-3
        # block comes before the fine grid, so its first row wins, and with
        # no samples the fine grid's first row does
        om = oracle.ORACLE_MEASURES["tv"]

        def flat(pm, qm):
            return np.zeros(len(pm)) if pm.shape[1] == 3 else om.evaluate(pm, qm)

        monkeypatch.setitem(oracle.ORACLE_MEASURES, "tv", dataclasses.replace(om, evaluate=flat))
        first = {50: oracle._sample_batch(oracle._stream(2, 0, 3), 50, 3, 0.1)[0][0], 0: fine_grid_pairs(0.1)[0][0]}
        for n, row in first.items():
            r = verify_min("tv", 0.1, n, seed=2)
            assert np.array_equal(r.witness[0].mass, row)
            assert_same_report(r, reference_verify_min("tv", 0.1, n, seed=2))

    def test_nan_before_the_least_block(self, monkeypatch):
        # np.argmin stops at the first NaN, so the fine grid, whose least
        # row would be the witness, gives none; the sampled rows keep theirs
        _force_bound(monkeypatch, "jeffreys", 0.2)
        om = oracle.ORACLE_MEASURES["jeffreys"]
        fp, fq = fine_grid_pairs(0.1)
        nan_row = fp[517]
        assert 517 < np.argmin(om.evaluate(fp, fq))

        def with_nan(pm, qm):
            vals = om.evaluate(pm, qm)
            return np.where((pm == nan_row).all(axis=1), math.nan, vals) if pm.shape[1] == 3 else vals

        monkeypatch.setitem(oracle.ORACLE_MEASURES, "jeffreys", dataclasses.replace(om, evaluate=with_nan))
        r = verify_min("jeffreys", 0.1, 50, seed=2)
        assert math.isnan(r.fine_extreme) and r.violations > 0 and r.witness is not None
        assert_same_report(r, reference_verify_min("jeffreys", 0.1, 50, seed=2))

    def test_blocks_are_built_on_the_workers(self, monkeypatch):
        # the fine grid is one block, built whole by the worker that scans it
        build = oracle.fine_grid_pairs
        for name in ("tv", "jeffreys"):
            calls = []

            def recorded(*args, **kwargs):
                p, q = build(*args, **kwargs)
                call = inspect.signature(build).bind(*args, **kwargs)
                call.apply_defaults()
                on_main = threading.current_thread() is threading.main_thread()
                calls.append((call.arguments, len(p), on_main))
                return p, q

            with monkeypatch.context() as m:
                m.setattr(oracle, "fine_grid_pairs", recorded)
                r = verify_min(name, 0.1, 50, seed=4)
            assert_same_report(r, reference_verify_min(name, 0.1, 50, seed=4))
            assert calls == [({"eps": 0.1, "step": 1e-3}, 1802, False)]

    def test_memory_of_the_default_fine_block(self, monkeypatch):
        # the fine block at the default step, 1,802 rows here, is held whole
        # on its worker: 43 KB each for P and Q.  The traced peak of its scan
        # is pinned after an untraced run has made the scan's imports; four
        # workers keep the figure the same on every machine.  Step 1e-4
        # reads about 1.9 MB
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 4)
        verify_min("tv", 0.1, 0, fine_step=None)
        tracemalloc.start()
        try:
            r = verify_min("tv", 0.1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.passed
        assert peak < 0.3e6, f"traced peak {peak / 1e6:.2f} MB"


def _unscreened(monkeypatch):
    """Make verify_min solve every chernoff row."""
    om = oracle.ORACLE_MEASURES["chernoff"]
    monkeypatch.setitem(oracle.ORACLE_MEASURES, "chernoff", dataclasses.replace(om, screen=None))


def _solved_rows(monkeypatch) -> list:
    """Record each row, P then Q, that chernoff's evaluator solves."""
    om = oracle.ORACLE_MEASURES["chernoff"]
    seen = []

    def evaluate(pm, qm):
        seen.extend(np.hstack([pm, qm]).tolist())
        return om.evaluate(pm, qm)

    monkeypatch.setitem(oracle.ORACLE_MEASURES, "chernoff", dataclasses.replace(om, evaluate=evaluate))
    return seen


class TestScreen:
    """verify_min's Chernoff screen against the full solve of every row."""

    @staticmethod
    def _same_as_unscreened(monkeypatch, names, eps, **kw):
        screened = verify_min(names, eps, **kw)
        with monkeypatch.context() as m:
            _unscreened(m)
            full = verify_min(names, eps, **kw)
        for a, b in zip(screened, full):
            assert_same_report(a, b)
        return screened

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99])
    def test_equals_the_full_solve(self, monkeypatch, eps):
        kw = dict(n_samples=300, seed=5, fine_step=2e-3, stream_key=3)
        self._same_as_unscreened(monkeypatch, ["chernoff"], eps, **kw)

    @pytest.mark.parametrize(
        "kw", [dict(n_samples=0), dict(n_samples=500, fine_step=None)], ids=["samples-0", "no-fine-grids"]
    )
    def test_one_kind_of_piece(self, monkeypatch, kw):
        for eps in (0.0, 0.3, 0.9):
            self._same_as_unscreened(monkeypatch, ["chernoff"], eps, seed=11, **kw)

    @pytest.mark.parametrize("eps", [0.0, 0.4, 0.9])
    def test_alongside_bhattacharyya_lower(self, monkeypatch, eps):
        # the block's one Bhattacharyya pass serves both
        kw = dict(n_samples=300, seed=7, fine_step=2e-3)
        self._same_as_unscreened(monkeypatch, ["chernoff", "bhattacharyya_lower"], eps, **kw)

    @pytest.mark.parametrize("factor", [1.2, 1e3])
    def test_forced_high_closed_form(self, monkeypatch, factor):
        # 1.2 times the bound puts the line among the rows' values, so the
        # crossings are some rows only; 1e3 times puts it above them all
        eps = 0.3
        _force_bound(monkeypatch, "chernoff", factor * bound_curve("chernoff", eps))
        kw = dict(n_samples=500, seed=3, fine_step=2e-3)
        (r,) = self._same_as_unscreened(monkeypatch, ["chernoff"], eps, **kw)
        assert r.violations > 0 and r.witness is not None
        assert_same_report(r, reference_verify_min("chernoff", eps, **kw))

    def test_solves_few_rows(self, monkeypatch):
        solved = _solved_rows(monkeypatch)
        r = verify_min("chernoff", 0.5, 5000, seed=1)
        rows = 7 * 5000 + len(fine_grid_pairs(0.5)[0])
        assert r.passed and 0 < len(solved) < rows / 100

    @staticmethod
    def _block(eps=0.4):
        pm, qm = oracle._sample_batch(oracle._stream(3, 0, 4), 200, 4, eps)
        return pm, qm, fdiv.batch_chernoff(pm, qm)

    @staticmethod
    def _spy(values):
        """An evaluator returning values[rows], with the rows of each call."""
        calls = []

        def evaluate(pm, qm):
            rows = [int(r) for r in pm[:, 0]]
            calls.append(rows)
            return values[rows]

        return evaluate, calls

    def test_a_row_just_inside_the_margin_is_solved(self):
        _, _, values = self._block()
        i = int(np.argmin(values))
        t = values[i]
        margin = oracle._MARGIN * max(1.0, t)
        # every row's Z puts its screen far above the least value, but for
        # row i, one row just inside the margin and one just outside
        s = values + 1.0
        s[i] = values[i]
        inside, outside = (i + 1) % 200, (i + 2) % 200
        s[inside], s[outside] = t + 0.5 * margin, t + 2.0 * margin
        floor = oracle._less_margin(fdiv._chernoff_floor(np.exp(-s)))
        evaluate, calls = self._spy(values)
        pm = np.arange(200.0)[:, None]  # each row carries its index
        v = oracle._screened(evaluate, 1.0, -1.0, floor, pm, pm)
        assert calls == [[i], [inside]]
        assert v[i] == values[i] and v[inside] == values[inside] and v[outside] == math.inf
        # a floor exactly at the least value is solved, one an ulp above is not
        floor[outside] = t
        floor[inside] = np.nextafter(t, math.inf)
        evaluate, calls = self._spy(values)
        oracle._screened(evaluate, 1.0, -1.0, floor, pm, pm)
        assert calls == [[i], [outside]]

    def test_ties_keep_the_first_row(self):
        # rows 20 and 50 tie for the least value; row 50 has the lower
        # floor, so it is solved first, and row 20 must still win
        _, _, values = self._block()
        values = values.copy()
        values[20] = values[50] = values.min() - 0.01
        floor = values - 1e-3
        floor[50] = values[50] - 1e-2
        evaluate, calls = self._spy(values)
        pm = np.arange(200.0)[:, None]
        v = oracle._screened(evaluate, 1.0, -1.0, floor, pm, pm)
        assert calls[0] == [50] and 20 in calls[1]
        assert int(np.argmin(v)) == 20

    def test_nan_screen_rows_are_solved(self, monkeypatch):
        # finite masses keep Z from NaN today; a NaN there must not let a
        # row go unchecked, so the rows it hits are solved
        src = oracle.ORACLE_MEASURES["bhattacharyya_lower"]
        hit = {}

        def nan_bhattacharyya(pm, qm):
            z = src.evaluate(pm, qm)
            z[::97] = math.nan
            hit.update((tuple(row), True) for row in np.hstack([pm, qm])[::97].tolist())
            return z

        kw = dict(n_samples=500, seed=2, fine_step=2e-3)
        monkeypatch.setitem(
            oracle.ORACLE_MEASURES, "bhattacharyya_lower", dataclasses.replace(src, evaluate=nan_bhattacharyya)
        )
        solved = _solved_rows(monkeypatch)
        r = verify_min("chernoff", 0.3, **kw)
        assert hit and set(hit) <= set(map(tuple, solved))
        monkeypatch.undo()
        _unscreened(monkeypatch)
        assert_same_report(r, verify_min("chernoff", 0.3, **kw))


# the end row of each run of the support-3 grid whose signed value floors
# the run's, by data processing (see divbound.oracle): the first (b = 0) or
# the last (the least c).  tv, eps on every row up to rounding, has none
RUN_FLOOR = {
    "hellinger2": "first",
    "jeffreys": "first",
    "capacitory": "first",
    "chernoff": "first",
    "bhattacharyya_lower": "last",
    "bhattacharyya_upper": "first",
}
FLOORED = sorted(RUN_FLOOR)
CHECKED_EPS = (0.0, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)


def _within_ulps(short: float, full: float, sign: float) -> bool:
    """short, an extreme over the end rows, equals full, the whole grid's,
    or lies past it by at most 4 ulps of max(1, |full|): above it for
    sign = 1, a least value, and below it for sign = -1, a largest."""
    return short == full or 0.0 <= sign * (short - full) <= 4.0 * np.spacing(max(1.0, abs(full)))


def _assert_within_ulps(short, full) -> None:
    """Two lists of reports, the scan of fewer rows first: the extremes and
    the gap within a few ulps, and, where a report has no crossings, every
    other field equal."""
    for a, b in zip(short, full):
        sign = 1.0 if a.direction == "min" else -1.0
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name in ("sample_extreme", "fine_extreme"):
                assert (x is None) == (y is None) and (x is None or _within_ulps(x, y, sign)), (f.name, x, y)
            elif f.name == "gap":
                assert abs(x - y) <= 4.0 * np.spacing(max(1.0, abs(a.closed_form))), (a.measure, x, y)
            elif a.violations == 0:
                assert x == y, (a.measure, f.name, x, y)


def _full_grid(monkeypatch):
    """Make verify_min scan the whole 2-D support-3 grid, reference_grid3, in
    place of the two end rows of each run."""
    grid = functools.lru_cache(reference_grid3)

    def full_pairs(eps, step=1e-3):
        p, q, _ = grid(eps, step)
        return p.copy(), q.copy()

    monkeypatch.setattr(oracle, "fine_grid_pairs", full_pairs)


class TestRunFloors:
    """The support-3 family's two end rows per run against the whole 2-D grid."""

    def test_the_floored_entries(self):
        # every oracle measure but tv names the end row that floors its runs:
        # a new measure must say which, or the family may miss its extreme
        assert sorted([*RUN_FLOOR, "tv"]) == sorted(oracle.ORACLE_MEASURES)
        assert set(RUN_FLOOR.values()) == {"first", "last"}

    @pytest.mark.parametrize("step", [1e-3, 7e-3, 0.05])
    @pytest.mark.parametrize("name", FLOORED)
    def test_every_row_clears_its_run_floor(self, name, step):
        # the fact behind the two rows per run, on the computed values of the
        # whole grid: no row of a run lies below its floor less the margin,
        # and the margin is at least 1000 times the worst shortfall seen
        om = oracle.ORACLE_MEASURES[name]
        sign = 1.0 if om.direction == "min" else -1.0
        worst = 0.0
        for eps in CHECKED_EPS:
            pm, qm, n_b = reference_grid3(eps, step)
            at = end_rows(n_b)[0 if RUN_FLOOR[name] == "first" else 1 :: 2]
            v = sign * om.evaluate(pm, qm)
            floor = np.repeat(v[at], n_b)
            assert not np.any(v < oracle._less_margin(floor)), eps
            if om.screen is not None:
                # nor below its floor row's screen floor less the margin
                source, screen = om.screen
                s = np.repeat(sign * screen(oracle.ORACLE_MEASURES[source].evaluate(pm[at], qm[at])), n_b)
                assert not np.any(v < oracle._less_margin(s)), eps
            assert np.all(v[floor == math.inf] == math.inf)
            both = np.isfinite(floor) & np.isfinite(v)
            floor, v = floor[both], v[both]
            worst = max(worst, float(np.max((floor - v) / np.maximum(1.0, np.abs(floor)), initial=0.0)))
        assert 1000.0 * worst <= oracle._MARGIN

    @pytest.mark.parametrize("step", [1e-3, 7e-3, 0.05])
    @pytest.mark.parametrize("name", sorted(oracle.ORACLE_MEASURES))
    def test_end_rows_give_the_grid_extreme(self, name, step):
        # the least signed value over the family is the whole grid's to a
        # few ulps; tv's rows differ only by the rounding of their masses
        om = oracle.ORACLE_MEASURES[name]
        sign = 1.0 if om.direction == "min" else -1.0
        for eps in CHECKED_EPS:
            pm, qm, _ = reference_grid3(eps, step)
            full = float(np.min(sign * om.evaluate(pm, qm)))
            short = float(np.min(sign * om.evaluate(*fine_grid_pairs(eps, step))))
            assert _within_ulps(short, full, 1.0), (eps, short, full)

    def test_margin_keeps_infinities(self):
        x = np.array([math.inf, -math.inf, math.nan, 0.0, 0.5, -0.5, 2.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = oracle._less_margin(x)
        m = oracle._MARGIN
        assert out[0] == math.inf and out[1] == -math.inf and math.isnan(out[2])
        assert list(out[3:]) == [-m, 0.5 - m, -0.5 - m, 2.0 - 2.0 * m, -2.0 - 2.0 * m]

    @staticmethod
    def _same_as_full_grid(monkeypatch, names, eps, **kw):
        """verify_min's reports against those of the scan of the whole grid,
        as _assert_within_ulps compares them.  Returns both runs' reports."""
        short = verify_min(names, eps, **kw)
        with monkeypatch.context() as m:
            _full_grid(m)
            full = verify_min(names, eps, **kw)
        _assert_within_ulps(short, full)
        return short, full

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999])
    def test_equals_the_full_scan(self, monkeypatch, eps):
        # each measure on its own, then all in one scan
        kw = dict(n_samples=100, seed=5, fine_step=2e-3, stream_key=3)
        names = sorted(oracle.ORACLE_MEASURES)
        for name in names:
            self._same_as_full_grid(monkeypatch, [name], eps, **kw)
        short, _ = self._same_as_full_grid(monkeypatch, names, eps, **kw)
        assert all(r.passed and r.witness is None for r in short)

    @pytest.mark.parametrize("step", [1e-3, 7e-3])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_equals_the_scan_with_the_binary_grid(self, eps, step):
        # the first rows stand in for the binary grid: each measure's report
        # against the reference scan of the binary grid and then the family
        kw = dict(n_samples=100, seed=5, fine_step=step, stream_key=3)
        names = sorted(oracle.ORACLE_MEASURES)
        short = verify_min(names, eps, **kw)
        both = [reference_verify_min(name, eps, fine_grids=(reference_grid2, fine_grid_pairs), **kw) for name in names]
        _assert_within_ulps(short, both)
        assert all(r.passed and r.witness is None for r in short)

    @pytest.mark.parametrize(
        "kw",
        [dict(n_samples=0), dict(n_samples=300, fine_step=None), dict(n_samples=0, fine_step=0.3)],
        ids=["samples-0", "no-fine-grids", "coarse-step"],
    )
    def test_one_kind_of_piece(self, monkeypatch, kw):
        for eps in (0.0, 0.3, 0.9):
            self._same_as_full_grid(monkeypatch, sorted(oracle.ORACLE_MEASURES), eps, seed=11, **kw)

    @pytest.mark.parametrize("factor", [1.2, 1e3])
    @pytest.mark.parametrize("name", FLOORED)
    def test_forced_closed_form(self, monkeypatch, name, factor):
        # a line 1.2 times the bound lies among the runs, so that rows of
        # several runs cross; 1e3 times puts it above every row.  A "max"
        # entry gets the bound divided by the factor instead.  The family
        # crosses where the whole grid does, with fewer rows, and its least
        # row is the grid's to a few ulps
        eps = 0.3
        om = oracle.ORACLE_MEASURES[name]
        _force_bound(monkeypatch, name, bound_curve(name, eps) * (factor if om.direction == "min" else 1.0 / factor))
        kw = dict(n_samples=0, fine_step=5e-3)
        (r,), (full,) = self._same_as_full_grid(monkeypatch, [name], eps, **kw)
        assert 1 < r.violations < full.violations and len(r.witness[0]) == 3
        assert_same_report(r, reference_verify_min(name, eps, **kw))

    def test_work_pin(self, monkeypatch):
        # at eps 0.1 and step 1e-3 every scan builds the fine grid once: two
        # rows for each of the 901 runs, 1,802 rows, where the whole grid
        # has 406,351
        build = oracle.fine_grid_pairs
        for name in ("jeffreys", "tv"):
            built = []

            def recorded(*args, **kwargs):
                p, q = build(*args, **kwargs)
                built.append(p)
                return p, q

            with monkeypatch.context() as m:
                m.setattr(oracle, "fine_grid_pairs", recorded)
                assert verify_min(name, 0.1, 0).passed
            (p,) = built
            assert len(p) == 1802 and np.unique(p[:, 0]).size == 901
        assert len(reference_grid3(0.1, 1e-3)[0]) == 406351

    def test_chernoff_floor_rows_are_screened(self, monkeypatch):
        # the support-3 rows, which are the runs' floor rows, go through the
        # screen as every block does: each call of the tilt solve gets one row
        om = oracle.ORACLE_MEASURES["chernoff"]
        calls = []

        def evaluate(pm, qm):
            calls.append(len(pm))
            return om.evaluate(pm, qm)

        monkeypatch.setitem(oracle.ORACLE_MEASURES, "chernoff", dataclasses.replace(om, evaluate=evaluate))
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert verify_min("chernoff", eps, 0, seed=1).passed
        assert calls and max(calls) == 1

    @pytest.mark.parametrize("margins, kept", [(0.5, True), (2.0, False)])
    def test_screened_run_floor_at_the_margin(self, monkeypatch, margins, kept):
        # row r of the support-3 family gets its screen floor forced to t
        # plus 0.5 or 2 margins, t the value of the row the screen solves
        # first; so does its value, so that only the screen can rule it out.
        # Half a margin keeps the row, two rule it out unsolved, and the
        # report stays that of the scan of every row
        eps, step, r = 0.1, 1e-3, 200
        fp, fq = fine_grid_pairs(eps, step)
        line = bound_curve("chernoff", eps) - oracle._VIOLATION_SLACK
        floors = oracle._less_margin(fdiv._chernoff_floor(fdiv.batch_bhattacharyya(fp, fq)))
        i = int(np.argmin(floors))
        t = fdiv.batch_chernoff(fp[i : i + 1], fq[i : i + 1])[0]
        assert i != r and t > line
        x = t + margins * oracle._MARGIN * max(1.0, t)
        om = oracle.ORACLE_MEASURES["chernoff"]
        solved = []

        def forced_value(pm, qm):
            at_r = (pm == fp[r]).all(axis=1) if pm.shape[1] == 3 else np.zeros(len(pm), dtype=bool)
            solved.extend(at_r)
            return np.where(at_r, x, om.evaluate(pm, qm))

        def forced_floor(z):
            s = fdiv._chernoff_floor(z)
            if len(z) == len(fp):  # the fine block: no sampled rows here
                s[r] = x
            return s

        monkeypatch.setitem(
            oracle.ORACLE_MEASURES,
            "chernoff",
            dataclasses.replace(om, evaluate=forced_value, screen=(om.screen[0], forced_floor)),
        )
        screened = verify_min("chernoff", eps, 0, fine_step=step)
        assert any(solved) == kept
        _unscreened(monkeypatch)
        assert_same_report(screened, verify_min("chernoff", eps, 0, fine_step=step))


class TestPool:
    @staticmethod
    def _failing_block(monkeypatch, name, eps):
        """Make name's evaluator raise on the fine-grid block only."""
        om = oracle.ORACLE_MEASURES[name]
        first_row = oracle.fine_grid_pairs(eps)[0][0]

        def evaluate(pm, qm):
            if pm.shape[1] == 3 and np.array_equal(pm[0], first_row):
                raise BoundViolationError("evaluator failed on one block")
            return om.evaluate(pm, qm)

        monkeypatch.setitem(oracle.ORACLE_MEASURES, name, dataclasses.replace(om, evaluate=evaluate))

    def test_error_in_one_block_and_threads_joined(self, monkeypatch):
        before = threading.active_count()
        assert verify_min("tv", 0.1, 200, seed=1).passed
        assert threading.active_count() == before
        self._failing_block(monkeypatch, "tv", 0.1)
        with pytest.raises(BoundViolationError, match="one block"):
            verify_min("tv", 0.1, 200, seed=1)
        assert threading.active_count() == before
        assert verify_min("tv", 0.1, 200, seed=1, fine_step=None).passed

    def test_largest_support_is_submitted_first(self, monkeypatch):
        # one worker draws the blocks in the order they were submitted
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
        drawn = []
        sample = oracle._sample_batch

        def recorded(rng, n, k, eps):
            drawn.append(k)
            return sample(rng, n, k, eps)

        monkeypatch.setattr(oracle, "_sample_batch", recorded)
        r = verify_min("tv", 0.1, 50, seed=1)
        assert drawn == [8, 7, 6, 5, 4, 3, 2]
        monkeypatch.undo()
        assert r == verify_min("tv", 0.1, 50, seed=1)

    def test_a_failed_block_surfaces_in_merge_order(self, monkeypatch):
        # supports 8 and 5 both fail; 8 is drawn first, but 5 comes first
        # in merge order, and its error is the one raised
        om = oracle.ORACLE_MEASURES["tv"]

        def evaluate(pm, qm):
            if pm.shape[1] in (5, 8):
                raise BoundViolationError(f"evaluator failed on support {pm.shape[1]}")
            return om.evaluate(pm, qm)

        monkeypatch.setitem(oracle.ORACLE_MEASURES, "tv", dataclasses.replace(om, evaluate=evaluate))
        before = threading.active_count()
        for workers in (1, 2, 4):
            monkeypatch.setattr(oracle, "_cpu_count", lambda: workers)
            with pytest.raises(BoundViolationError, match="on support 5$"):
                verify_min("tv", 0.1, 200, seed=1)
        assert threading.active_count() == before

    def test_cli_exits_one_on_a_failed_block(self, monkeypatch):
        from click.testing import CliRunner

        from divbound.cli import main

        self._failing_block(monkeypatch, "tv", 0.1)
        r = CliRunner().invoke(main, ["verify", "--measure", "tv", "--grid", "0.1:0.1:0.1", "--samples", "50"])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == "error: evaluator failed on one block\n"


def test_pair_off_the_tv_constraint_raises(monkeypatch):
    # the check is a typed error, not an assert that python -O would drop
    monkeypatch.setattr(oracle, "batch_total_variation", lambda p, q: np.full(len(p), 0.5))
    rng = np.random.default_rng(3)
    with pytest.raises(BoundViolationError, match="left the TV constraint 0.3 on support 3"):
        oracle._sample_batch(rng, 10, 3, 0.3)
