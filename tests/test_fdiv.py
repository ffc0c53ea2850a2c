import functools
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divbound
import divbound.fdiv as fdiv
import divbound.oracle as oracle
from divbound.bounds import bound_curve, extremal_pair
from divbound.dist import make_dist, total_variation
from divbound.errors import BoundViolationError, DistributionError
from divbound.fdiv import (
    batch_bhattacharyya,
    batch_chernoff,
    batch_f_divergence,
    batch_total_variation,
    bhattacharyya,
    chernoff_information,
    f_divergence,
)
from divbound.generators import REGISTRY, FGenerator
from divbound.jensen import PARTNERS, batch_chi2_exp_bound_check, batch_sandwich
from divbound.search import golden_section_min

from util import GENERATORS, as_dist, random_pairs_with_zeros, random_positive_pairs, reference_min_log_tilt

P_HALF = make_dist(["a", "b"], [0.5, 0.5])
Q_QUARTER = make_dist(["a", "b"], [0.25, 0.75])


@pytest.mark.parametrize("gen", GENERATORS.values(), ids=list(GENERATORS))
def test_identical_arguments_give_zero(gen):
    d = make_dist(["a", "b", "c"], [0.2, 0.5, 0.3])
    assert f_divergence(gen, d, d) == pytest.approx(0.0, abs=1e-12)


def test_kl_hand_value():
    # 1/2 log(4/3), checked against term-by-term high-precision summation
    assert f_divergence(REGISTRY["kl"], P_HALF, Q_QUARTER) == pytest.approx(
        0.14384103622589045, abs=1e-15
    )


def test_dual_kl_hits_infinity():
    p = make_dist(["a", "b"], [1.0, 0.0])
    q = make_dist(["a", "b"], [0.5, 0.5])
    assert f_divergence(REGISTRY["dual_kl"], p, q) == math.inf


def test_kl_zero_in_q_hits_infinity():
    p = make_dist(["a", "b"], [0.5, 0.5])
    q = make_dist(["a", "b"], [1.0, 0.0])
    assert f_divergence(REGISTRY["kl"], p, q) == math.inf


def test_zero_zero_coordinate_contributes_nothing():
    p = make_dist(["a", "b", "c"], [0.5, 0.5, 0.0])
    q = make_dist(["a", "b", "c"], [0.25, 0.75, 0.0])
    assert f_divergence(REGISTRY["kl"], p, q) == pytest.approx(
        0.14384103622589045, abs=1e-15
    )


def test_tv_generator_matches_total_variation():
    rng = np.random.default_rng(5)
    gen = REGISTRY["tv"]
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        pm, qm = random_pairs_with_zeros(rng, 1, k)
        p, q = as_dist(pm[0]), as_dist(qm[0])
        assert f_divergence(gen, p, q) == pytest.approx(
            total_variation(p, q), abs=1e-12
        )


def test_nonnegativity_all_generators():
    rng = np.random.default_rng(17)
    for k in range(2, 8):
        pm, qm = random_pairs_with_zeros(rng, 200, k)
        for gen in GENERATORS.values():
            vals = batch_f_divergence(gen, pm, qm)
            assert np.all(vals >= -1e-12)


def test_symmetric_generators_are_symmetric():
    rng = np.random.default_rng(23)
    symmetric = [g for g in GENERATORS.values() if g.symmetry_constant is not None]
    for k in (2, 4, 6):
        pm, qm = random_positive_pairs(rng, 200, k)
        for gen in symmetric:
            fwd = batch_f_divergence(gen, pm, qm)
            bwd = batch_f_divergence(gen, qm, pm)
            np.testing.assert_allclose(fwd, bwd, atol=1e-10, rtol=0)


def test_jeffreys_is_half_sum_of_kls():
    rng = np.random.default_rng(29)
    pm, qm = random_positive_pairs(rng, 300, 5)
    jef = batch_f_divergence(REGISTRY["jeffreys"], pm, qm)
    kl = batch_f_divergence(REGISTRY["kl"], pm, qm)
    lk = batch_f_divergence(REGISTRY["kl"], qm, pm)
    np.testing.assert_allclose(jef, 0.5 * (kl + lk), atol=1e-10, rtol=0)


def test_capacitory_is_divergence_to_midpoint():
    rng = np.random.default_rng(31)
    pm, qm = random_positive_pairs(rng, 300, 4)
    cap = batch_f_divergence(REGISTRY["capacitory"], pm, qm)
    mid = 0.5 * (pm + qm)
    kl = REGISTRY["kl"]
    both = batch_f_divergence(kl, pm, mid) + batch_f_divergence(kl, qm, mid)
    np.testing.assert_allclose(cap, both, atol=1e-10, rtol=0)


def test_chi_squared_matches_moment_formula():
    rng = np.random.default_rng(37)
    pm, qm = random_positive_pairs(rng, 300, 6)
    chi = batch_f_divergence(REGISTRY["chi2"], pm, qm)
    direct = (pm * pm / qm).sum(axis=1) - 1.0
    np.testing.assert_allclose(chi, direct, atol=1e-10, rtol=0)


def test_dual_chi_squared_swaps_arguments():
    rng = np.random.default_rng(41)
    pm, qm = random_positive_pairs(rng, 200, 3)
    dual = batch_f_divergence(REGISTRY["dual_chi2"], pm, qm)
    swapped = batch_f_divergence(REGISTRY["chi2"], qm, pm)
    np.testing.assert_allclose(dual, swapped, atol=1e-10, rtol=0)


class TestBhattacharyya:
    def test_identical(self):
        d = make_dist(["a", "b", "c"], [0.2, 0.5, 0.3])
        assert bhattacharyya(d, d) == pytest.approx(1.0, abs=1e-15)

    def test_three_point_pair(self):
        eps = 0.4
        p = make_dist(["a", "b", "c"], [eps, 1 - eps, 0.0])
        q = make_dist(["a", "b", "c"], [0.0, 1 - eps, eps])
        assert bhattacharyya(p, q) == pytest.approx(0.6, abs=1e-15)

    def test_two_point_pair(self):
        eps = 0.6
        p = make_dist(["a", "b"], [(1 - eps) / 2, (1 + eps) / 2])
        q = make_dist(["a", "b"], [(1 + eps) / 2, (1 - eps) / 2])
        assert bhattacharyya(p, q) == pytest.approx(0.8, abs=1e-15)

    def test_hellinger_relation(self):
        # Z = 1 - H^2 / 2
        rng = np.random.default_rng(43)
        pm, qm = random_pairs_with_zeros(rng, 300, 5)
        z = batch_bhattacharyya(pm, qm)
        h2 = batch_f_divergence(REGISTRY["hellinger2"], pm, qm)
        np.testing.assert_allclose(z, 1.0 - h2 / 2.0, atol=1e-12, rtol=0)


class TestChernoff:
    def test_identical(self):
        d = make_dist(["a", "b"], [0.4, 0.6])
        assert chernoff_information(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_pair(self):
        eps = 0.5
        p = make_dist(["a", "b"], [(1 - eps) / 2, (1 + eps) / 2])
        q = make_dist(["a", "b"], [(1 + eps) / 2, (1 - eps) / 2])
        expected = -0.5 * math.log1p(-eps * eps)
        assert chernoff_information(p, q) == pytest.approx(expected, abs=1e-9)

    def test_disjoint_supports(self):
        p = make_dist(["a", "b"], [1.0, 0.0])
        q = make_dist(["a", "b"], [0.0, 1.0])
        assert chernoff_information(p, q) == math.inf

    def test_dominates_bhattacharyya_exponent(self):
        rng = np.random.default_rng(47)
        slack = 1e-8
        for k in (2, 3, 5):
            pm, qm = random_positive_pairs(rng, 100, k)
            for a, b in zip(pm, qm):
                p, q = as_dist(a), as_dist(b)
                c = chernoff_information(p, q)
                assert c >= -math.log(bhattacharyya(p, q)) - slack


# masses of a pair with zeros: an atom is 0 or in [1e-3, 1], before normalizing
_MASS = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))
# the same with 1e-300 atoms, whose log-ratios of about +-690 make g nearly kinked
_TINY_MASS = st.one_of(_MASS, st.just(1e-300))


def _normalized_pair(p, q):
    """One (P, Q) pair of (1, k) mass rows, each row scaled to sum 1."""
    return tuple(np.asarray([m], dtype=float) / sum(m) for m in (p, q))


def _pairs(mass=_MASS):
    """One (P, Q) pair of (1, k) mass rows on 2..8 points, zero masses allowed."""
    row = lambda k: st.lists(mass, min_size=k, max_size=k).filter(lambda m: sum(m) > 0.0)
    return st.integers(2, 8).flatmap(lambda k: st.tuples(row(k), row(k))).map(
        lambda pq: _normalized_pair(*pq)
    )


def _golden_chernoff(p, q) -> float:
    """Chernoff information by golden section on g, the route the solver replaced."""
    common = (p > 0.0) & (q > 0.0)
    if not common.any():
        return math.inf
    lp, lq = np.log(p[common]), np.log(q[common])

    def g(lam):
        lam = np.asarray(lam, dtype=float)[..., None]
        return np.log(np.exp(lam * lp + (1.0 - lam) * lq).sum(axis=-1))

    return -golden_section_min(g, 0.0, 1.0, tol=1e-13)[1]


def _ulp_slack(x: float) -> float:
    """1e-15, or 1e-15 relative where |x| > 1: an ulp or so of x."""
    return 1e-15 * max(1.0, abs(x))


def _grid_chernoff(p, q) -> float:
    """Chernoff information of one strictly positive pair on a lam grid refined
    seven times around its least point, with g summed exactly by math.fsum."""
    lq, d = np.log(q), np.log(p) - np.log(q)

    def g(lam):
        return math.log(math.fsum(np.exp(lq + lam * d)))

    lo, hi = 0.0, 1.0
    for _ in range(7):
        lams = np.linspace(lo, hi, 21)
        vals = [g(lam) for lam in lams]
        i = int(np.argmin(vals))
        lo, hi = lams[max(i - 1, 0)], lams[min(i + 1, 20)]
    return -min(vals)


def _assert_chain(p, q):
    """C >= -log Z >= -1/2 log(1 - eps^2) on each row of (n, k) masses at
    TV eps: the first link as C >= s - 1e-12 max(1, s), s = fdiv._chernoff_floor(Z),
    the second as Z^2 <= 1 - eps^2 within the rounding of eps (a few ulps of 1),
    since near eps = 1 that rounding decides the log."""
    c = batch_chernoff(p, q)
    z = batch_bhattacharyya(p, q)
    s = fdiv._chernoff_floor(z)
    assert np.all(c >= np.minimum(s - 1e-12, s * (1.0 - 1e-12)))
    eps = batch_total_variation(p, q)
    assert np.all(z * z <= (1.0 - eps) * (1.0 + eps) + 16 * np.finfo(float).eps)


class TestChernoffChain:
    """The chain verify's screen rests on, row by row."""

    @settings(max_examples=300, deadline=None)
    @given(_pairs(st.floats(min_value=1e-3, max_value=1.0)))
    def test_positive_rows(self, pair):
        _assert_chain(*pair)

    @settings(max_examples=300, deadline=None)
    @given(_pairs(_TINY_MASS))
    # every product P Q underflows, though the supports meet at 1e-300
    @example(_normalized_pair([1e-300, 1.0, 0.0], [1e-300, 0.0, 1.0]))
    def test_rows_with_zeros_and_tiny_masses(self, pair):
        _assert_chain(*pair)

    def test_sampled_and_fine_grid_rows(self):
        for eps in (0.0, 0.1, 0.5, 0.9, 0.999):
            for k in range(2, 9):
                _assert_chain(*oracle._sample_batch(oracle._stream(9, 0, k), 2000, k, eps))
            _assert_chain(*oracle.fine_grid_pairs(eps))

    def test_disjoint_supports(self):
        p = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        q = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        assert not batch_bhattacharyya(p, q).any()
        assert np.all(batch_chernoff(p, q) == np.inf)
        _assert_chain(p, q)
        # the floor stays finite there: Z = 0 may also be products that
        # underflowed, whose C is finite
        assert fdiv._chernoff_floor(np.zeros(1))[0] == pytest.approx(500 * math.log(2.0), rel=1e-11, abs=0.0)


class TestChernoffSolver:
    """The safeguarded Newton solve of g'(lam) = 0 behind batch_chernoff."""

    @settings(max_examples=300, deadline=None)
    @given(_pairs())
    def test_symmetric(self, pair):
        p, q = pair
        assert batch_chernoff(q, p)[0] == pytest.approx(batch_chernoff(p, q)[0], rel=1e-12, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(_pairs())
    def test_dominates_bhattacharyya_exponent(self, pair):
        p, q = pair
        c = batch_chernoff(p, q)[0]
        z = batch_bhattacharyya(p, q)[0]
        if z == 0.0:
            assert c == math.inf
        else:
            assert c >= -math.log(z) - _ulp_slack(c)

    @settings(max_examples=300, deadline=None)
    @given(_pairs())
    def test_never_below_golden_section(self, pair):
        p, q = pair
        c = batch_chernoff(p, q)[0]
        ref = _golden_chernoff(p[0], q[0])
        if math.isinf(ref):
            assert c == math.inf
        else:
            assert c >= ref - _ulp_slack(ref)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_two_point_pair_attains_the_closed_form(self, eps):
        p, q = extremal_pair(eps, "two_point")
        c = batch_chernoff(p.mass[None, :], q.mass[None, :])[0]
        # -1/2 log(1 - eps^2) with the factors split, so it keeps its digits
        # as eps -> 1; near eps = 0, C ~ eps^2 / 2 is the distance of the
        # tilted sum from 1 and carries its absolute rounding (2 ulps of 1)
        expected = -0.5 * (math.log1p(-eps) + math.log1p(eps))
        assert c == pytest.approx(expected, rel=1e-15, abs=2.0 * np.finfo(float).eps)

    def test_blocks_do_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(53)
        pm, qm = random_pairs_with_zeros(rng, 64, 5)
        whole = batch_chernoff(pm, qm)
        monkeypatch.setattr(fdiv, "_CHERNOFF_BLOCK_ROWS", 7)
        assert np.array_equal(batch_chernoff(pm, qm), whole)
        assert np.array_equal(batch_chernoff(pm[3:], qm[3:]), whole[3:])

    @settings(max_examples=300, deadline=None)
    @given(_pairs(_TINY_MASS))
    # |log P/Q| near 690 leaves g flat to rounding on most of [0, 1]; Newton
    # crept through it in 53 passes before the tangent stop
    @example(_normalized_pair([0, 0, 1, 1, 1e-300, 1, 0], [0, 0, 1e-300, 1, 1, 1e-300, 1]))
    def test_passes_stay_bounded(self, pair):
        p, q = pair
        assert fdiv._min_log_tilt(p, q)[1] <= 25

    def test_passes_stay_bounded_on_a_batch(self):
        rng = np.random.default_rng(61)
        for k in (2, 5, 8):
            pm, qm = random_pairs_with_zeros(rng, 5000, k)
            pm = np.where(rng.random(pm.shape) < 0.1, 1e-300, pm)
            qm = np.where(rng.random(qm.shape) < 0.1, 1e-300, qm)
            assert fdiv._min_log_tilt(pm, qm)[1] <= 25
        # masses 0, 1e-300 and 1 only: these rows ran to the 100-pass cap
        levels = np.array([0.0, 1e-300, 1.0])
        rng = np.random.default_rng(67)
        for k in (3, 5, 8):
            pm, qm = (levels[rng.integers(0, 3, (20000, k))] for _ in range(2))
            keep = (pm.sum(axis=1) > 0.0) & (qm.sum(axis=1) > 0.0)
            pm, qm = (m[keep] / m[keep].sum(axis=1, keepdims=True) for m in (pm, qm))
            assert fdiv._min_log_tilt(pm, qm)[1] <= 25

    def test_wide_rows_match_a_lam_grid_reference(self):
        # a same-order pair of 10^4 labels, as in the benchmark's large files.
        # Row sums past 8 columns are numpy's pairwise sums: blocks of 128
        # terms in 8 running sums, then a tree over the blocks, off by at
        # most about 26 ulps of a sum near 1, which g = log(sum) carries
        tol = 32 * np.finfo(float).eps
        rng = np.random.default_rng(71)
        n = 10_000
        p = rng.exponential(size=n)
        p /= p.sum()
        q = p * np.exp(0.5 * rng.standard_normal(n))
        q /= q.sum()
        labels = [f"w{j:05d}" for j in range(n)]
        c = chernoff_information(make_dist(labels, p), make_dist(labels, q))
        assert c == pytest.approx(_grid_chernoff(p, q), rel=0.0, abs=tol)
        for k in (9, 40):
            pm, qm = random_positive_pairs(rng, 6, k)
            want = [_grid_chernoff(a, b) for a, b in zip(pm, qm)]
            assert batch_chernoff(pm, qm) == pytest.approx(want, rel=0.0, abs=tol)

    def test_column_solve_matches_the_row_reference(self):
        # values to the byte, so sign bits too, and the pass count, against
        # the solve on the row layout; support 8 pins numpy's pairwise tree,
        # which a transposed 8-column view would silently swap for adds in turn
        def cases():
            for eps in (0.0, 0.1, 0.5, 0.9, 0.999):
                for k in range(2, 9):
                    yield oracle._sample_batch(oracle._stream(5, 0, k), 1000, k, eps)
            yield oracle.fine_grid_pairs(0.1)
            rng = np.random.default_rng(73)
            for k in (3, 5, 8, 12):
                yield random_pairs_with_zeros(rng, 400, k)
            yield (
                np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]),
                np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]]),
            )
            p, q = rng.exponential(size=(2, 100_000))
            yield (p / p.sum())[None, :], (q / q.sum())[None, :]

        for p, q in cases():
            got, want = fdiv._min_log_tilt(p, q), reference_min_log_tilt(p, q)
            assert got[0].tobytes() == want[0].tobytes(), p.shape
            assert got[1] == want[1], p.shape

    def test_no_floating_point_warnings_on_zero_masses(self):
        rng = np.random.default_rng(59)
        pm, qm = random_pairs_with_zeros(rng, 500, 4)
        pm = np.vstack([pm, [1.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]])
        qm = np.vstack([qm, [0.0, 0.5, 0.5, 0.0], [0.1, 0.2, 0.3, 0.4]])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            c = batch_chernoff(pm, qm)
        assert c[-2] == math.inf
        assert c[-1] == 0.0


def _row_sum_cases():
    """Float matrices of widths 0 to 12, with zeros, -0.0 rows, +-inf and NaN."""
    rng = np.random.default_rng(43)
    for k in range(13):
        for n in (1, 200):
            a = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-20, 21, (n, k))
            a[rng.random((n, k)) < 0.1] = 0.0
            yield a
            yield np.where(rng.random((n, k)) < 0.5, -0.0, a)
            yield np.full((n, k), -0.0)
            for special in (np.inf, -np.inf, np.nan):
                yield np.where(rng.random((n, k)) < 0.1, special, a)
            yield np.asfortranarray(a)


class TestRowSums:
    """fdiv._row_sums and fdiv._row_extremes against numpy's own reductions, byte for byte."""

    def test_floats_equal_numpy_byte_for_byte(self):
        # on every layout, the bits of numpy's sum over C-ordered rows
        for a in _row_sum_cases():
            got, want = fdiv._row_sums(a), np.ascontiguousarray(a).sum(axis=-1)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), a.shape

    def test_column_layout_sums_equal_numpy_byte_for_byte(self):
        # the sampler and the tilt solve hold each column of a C-ordered
        # matrix as one row of a (k, m) array c and sum it as _row_sums(c.T),
        # which must add as numpy adds the matrix's rows
        for a in _row_sum_cases():
            a = np.ascontiguousarray(a)
            c = np.ascontiguousarray(a.T)
            got, want = fdiv._row_sums(c.T), a.sum(axis=-1)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), a.shape

    def test_row_extremes_equal_numpy_byte_for_byte(self):
        for a in _row_sum_cases():
            if a.shape[1] == 0:  # numpy has no minimum of an empty row
                continue
            got, want = fdiv._row_extremes(a), (a.min(axis=1), a.max(axis=1))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), a.shape

    def test_negative_zero_rows_sum_to_positive_zero(self):
        for k in range(2, 9):
            assert fdiv._row_sums(np.full((3, k), -0.0)).tobytes() == np.zeros(3).tobytes()


def _layouts(a: np.ndarray) -> dict:
    """a as an F-ordered array, as the (n, k) view of contiguous (k, n)
    columns that the sampler hands out, and as a view with strided rows."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return {
        "F": np.asfortranarray(a),
        "transposed": np.ascontiguousarray(a.T).T,
        "strided": wide[:, ::2],
    }


def _result_bytes(out) -> bytes:
    return b"".join(np.asarray(c).tobytes() for c in (out if isinstance(out, tuple) else (out,)))


class TestLayouts:
    """Every batch evaluator gives, on every memory layout of its matrices,
    the bytes it gives on C-ordered ones."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_same_bytes_on_every_layout(self, k):
        rng = np.random.default_rng(500 + k)
        p, q = random_pairs_with_zeros(rng, 300, k)
        # the jensen pair takes strictly positive masses only
        pp, qp = random_positive_pairs(rng, 300, k)
        cases = [
            ("tv", batch_total_variation, p, q),
            ("bhattacharyya", batch_bhattacharyya, p, q),
            ("chernoff", batch_chernoff, p, q),
            ("chi2_exp", batch_chi2_exp_bound_check, pp, qp),
        ]
        cases += [(name, functools.partial(batch_f_divergence, gen), p, q) for name, gen in REGISTRY.items()]
        cases += [
            (f"sandwich {name}", functools.partial(batch_sandwich, REGISTRY[name]), pp, qp)
            for name in sorted(PARTNERS)
        ]
        for name, evaluate, a, b in cases:
            want = _result_bytes(evaluate(np.ascontiguousarray(a), np.ascontiguousarray(b)))
            for (layout, la), lb in zip(_layouts(a).items(), _layouts(b).values()):
                assert _result_bytes(evaluate(la, lb)) == want, (name, layout)


def _f_divergence_by_terms(gen, p, q) -> tuple[float, float]:
    """D_f(P||Q) term by term with the zero-mass conventions, and the sum of |terms|."""
    total = size = 0.0
    for a, b in zip(p.tolist(), q.tolist()):
        if a > 0.0 and b > 0.0:
            term = b * float(gen.fn(np.float64(a / b)))
        elif a > 0.0:  # Q = 0 < P
            term = a * gen.slope_at_inf
        elif b > 0.0:  # P = 0 < Q
            term = b * gen.f_at_0
        else:  # 0 f(0/0) = 0
            term = 0.0
        total += term
        size += abs(term)
    return total, size


class TestBatchEvaluators:
    """Properties of the batch evaluators on random pairs with zero masses."""

    @pytest.mark.parametrize("gen", GENERATORS.values(), ids=list(GENERATORS))
    @settings(max_examples=50, deadline=None)
    @given(pair=_pairs())
    def test_f_divergence_matches_the_term_loop(self, gen, pair):
        p, q = pair
        got = batch_f_divergence(gen, p, q)[0]
        want, size = _f_divergence_by_terms(gen, p[0], q[0])
        if math.isinf(want):
            assert got == want
        else:
            # at most 8 terms, summed in another order: a few ulps of their size
            assert got == pytest.approx(want, rel=0.0, abs=16 * np.finfo(float).eps * size)

    @settings(max_examples=150, deadline=None)
    @given(_pairs())
    def test_bhattacharyya_is_symmetric_and_inside_its_envelope(self, pair):
        p, q = pair
        z = batch_bhattacharyya(p, q)[0]
        assert batch_bhattacharyya(q, p)[0] == z
        tv = min(float(batch_total_variation(p, q)[0]), 1.0)
        lower, upper = (bound_curve(n, tv) for n in ("bhattacharyya_lower", "bhattacharyya_upper"))
        # at most 8 square roots and the TV's own rounding
        assert lower - 1e-14 <= z <= upper + 1e-14


def test_alignment_across_alphabets():
    p = make_dist(["a", "b"], [0.5, 0.5])
    q = make_dist(["b", "c"], [0.5, 0.5])
    # union alphabet (a, b, c): KL hits the q-zero at 'a'
    assert f_divergence(REGISTRY["kl"], p, q) == math.inf
    assert bhattacharyya(p, q) == pytest.approx(0.5, abs=1e-15)


# every batch route that checks its mass matrices
_BATCH_ROUTES = {
    "f_divergence": lambda p, q: batch_f_divergence(REGISTRY["kl"], p, q),
    "total_variation": batch_total_variation,
    "bhattacharyya": batch_bhattacharyya,
    "chernoff": batch_chernoff,
    "sandwich": lambda p, q: batch_sandwich(REGISTRY["dual_kl"], p, q),
    "chi2_exp_bound_check": batch_chi2_exp_bound_check,
}


class TestNumericalGuards:
    """NaN and sign guards are typed errors, so they hold under python -O."""

    def test_nan_divergence_raises(self):
        gen = FGenerator("nan", lambda t: np.full(np.shape(t), math.nan), 0.0, 0.0, 0.0)
        with pytest.raises(BoundViolationError, match="NaN in nan divergence"):
            batch_f_divergence(gen, [[0.5, 0.5]], [[0.25, 0.75]])

    def test_nan_divergence_raises_under_python_O(self):
        script = textwrap.dedent(
            """
            import math
            import numpy as np
            from divbound.errors import BoundViolationError, DistributionError
            from divbound.fdiv import batch_f_divergence
            from divbound.generators import FGenerator

            print("debug:", __debug__)
            gen = FGenerator("nan", lambda t: np.full(np.shape(t), math.nan), 0.0, 0.0, 0.0)
            try:
                batch_f_divergence(gen, [[0.5, 0.5]], [[0.25, 0.75]])
            except BoundViolationError as exc:
                print("raised:", exc)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(divbound.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "debug: False",
            "raised: NaN in nan divergence evaluation",
        ]

    @pytest.mark.parametrize("gmin,message", [(0.5, "negative"), (math.nan, "NaN")])
    def test_chernoff_guards(self, monkeypatch, gmin, message):
        def solve(p, q):
            return np.full(p.shape[0], gmin), 0

        monkeypatch.setattr(fdiv, "_min_log_tilt", solve)
        with pytest.raises(BoundViolationError, match=message):
            fdiv.batch_chernoff([[0.5, 0.5]], [[0.25, 0.75]])

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_negative_mass_raises(self, side):
        # without the check kl came out 1.648 and Chernoff 0.693 on this pair
        good = [[0.5, 0.5], [0.25, 0.75]]
        bad_rows = [[0.5, 0.5], [1.5, -0.5]]
        p, q = (bad_rows, good) if side == "p" else (good, bad_rows)
        for name, route in _BATCH_ROUTES.items():
            with pytest.raises(DistributionError, match="negative probability mass"):
                route(p, q)
                pytest.fail(f"{name} accepted a negative mass in {side}")

    def test_negative_zero_mass_is_zero(self):
        p, q = [[0.5, 0.5, 0.0]], [[0.25, 0.5, 0.25]]
        p_neg = [[0.5, 0.5, -0.0]]
        for name in ("f_divergence", "total_variation", "bhattacharyya", "chernoff"):
            route = _BATCH_ROUTES[name]
            assert route(p_neg, q).tobytes() == route(p, q).tobytes(), name

    def test_more_than_two_dimensions_raises(self):
        cube = np.full((2, 2, 2), 0.5)
        for name, route in _BATCH_ROUTES.items():
            with pytest.raises(ValueError, match="at most 2 dimensions"):
                route(cube, cube)
                pytest.fail(f"{name} accepted a 3-dimensional input")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["p", "q"])
    def test_non_finite_mass_raises(self, bad, side):
        # a NaN atom fails every mass test (> 0, <= 0), so without the check
        # it drops out of the kl and Chernoff sums and gives a finite value
        good = [[0.5, 0.5], [0.25, 0.75]]
        bad_rows = [[0.5, 0.5], [bad, 0.5]]
        p, q = (bad_rows, good) if side == "p" else (good, bad_rows)
        for name, route in _BATCH_ROUTES.items():
            with pytest.raises(DistributionError, match="non-finite probability mass"):
                route(p, q)
                pytest.fail(f"{name} accepted a mass of {bad!r} in {side}")
