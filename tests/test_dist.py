import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbound.dist import (
    FiniteDist,
    align,
    entropy_base,
    make_dist,
    total_variation,
)
from divbound.errors import DistributionError

from util import as_dist, binary_divergence, random_simplex

LN2 = math.log(2.0)


class TestMakeDist:
    def test_uniform_pair(self):
        d = make_dist(["a", "b"], [0.5, 0.5])
        assert d.labels == ("a", "b")
        np.testing.assert_allclose(d.mass, [0.5, 0.5])

    def test_three_point(self):
        d = make_dist(["a", "b", "c"], [0.6, 0.3, 0.1])
        assert float(d.mass.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_sum_deviation_rejected(self):
        with pytest.raises(DistributionError):
            make_dist(["a"], [0.9])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DistributionError):
            make_dist(["a", "b"], [1.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(DistributionError):
            make_dist(["a", "b"], [1.0 + 1e-6, -1e-6])

    def test_tiny_negative_clamped(self):
        d = make_dist(["a", "b"], [1.0, -5e-16])
        assert d.mass[1] == 0.0

    def test_normalization_keyword(self):
        with pytest.raises(DistributionError, match="outside tolerance"):
            make_dist(["a", "b"], [0.5, 0.5 + 2e-9])  # the default is 1e-9
        assert make_dist(["a", "b"], [0.5, 0.6], normalization=0.2).mass[0] == 0.5 / 1.1

    def test_renormalizes(self):
        d = make_dist(["a", "b"], [0.5 + 2e-10, 0.5])
        assert float(d.mass.sum()) == 1.0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DistributionError):
            make_dist(["a", "a"], [0.5, 0.5])

    def test_immutable(self):
        d = make_dist(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            d.mass[0] = 0.3


class TestTotalVariation:
    def test_identity(self):
        d = make_dist(["a", "b"], [0.3, 0.7])
        assert total_variation(d, d) == 0.0

    def test_disjoint(self):
        p = make_dist(["a", "b"], [1.0, 0.0])
        q = make_dist(["a", "b"], [0.0, 1.0])
        assert total_variation(p, q) == 1.0

    def test_mirrored_pair(self):
        eps = 0.3
        p = make_dist(["a", "b"], [(1 - eps) / 2, (1 + eps) / 2])
        q = make_dist(["a", "b"], [(1 + eps) / 2, (1 - eps) / 2])
        assert total_variation(p, q) == pytest.approx(eps, abs=1e-15)

    def test_union_alignment(self):
        p = make_dist(["a", "b"], [0.5, 0.5])
        q = make_dist(["b", "c"], [0.5, 0.5])
        # overlap on b only; |0.5-0| + |0.5-0.5| + |0-0.5| = 1
        assert total_variation(p, q) == pytest.approx(0.5, abs=1e-15)
        lab, pm, qm = align(p, q)
        assert lab == ("a", "b", "c")
        np.testing.assert_allclose(pm, [0.5, 0.5, 0.0])
        np.testing.assert_allclose(qm, [0.0, 0.5, 0.5])

    def test_union_alignment_permuted_large(self):
        # q lists 49k of p's 50k labels permuted, with 2k labels of its own
        # interleaved; the union is p's order, then q's own labels in q's order
        rng = np.random.default_rng(11)
        n = 50_000
        p_labels = [f"s{i}" for i in range(n)]
        q_labels = [p_labels[i] for i in rng.permutation(n)[: n - 1000]]
        q_labels += [f"x{i}" for i in range(2000)]
        q_labels = [q_labels[i] for i in rng.permutation(len(q_labels))]
        p = FiniteDist(tuple(p_labels), random_simplex(rng, 1, n)[0])
        q = FiniteDist(tuple(q_labels), random_simplex(rng, 1, len(q_labels))[0])
        t0 = time.perf_counter()
        lab, pm, qm = align(p, q)
        elapsed = time.perf_counter() - t0
        assert lab == tuple(p_labels) + tuple(x for x in q_labels if x[0] == "x")
        assert np.array_equal(pm[:n], p.mass) and not pm[n:].any()
        q_mass = dict(zip(q_labels, q.mass))
        assert np.array_equal(qm, [q_mass.get(x, 0.0) for x in lab])
        # linear time: the quadratic version takes minutes at this size
        assert elapsed < 5.0

    @pytest.mark.parametrize("shape", ["permuted", "extra", "subset", "disjoint"])
    def test_alignment_matches_the_dict_loop(self, shape):
        # the reference: the union's positions in a dict, q's masses placed
        # one label at a time
        rng = np.random.default_rng(13)
        n = 3000
        p_labels = [f"s{i}" for i in range(n)]
        q_labels = {
            "permuted": p_labels,
            "extra": p_labels[: n - 200] + [f"x{i}" for i in range(500)],
            "subset": p_labels[::3],
            "disjoint": [f"x{i}" for i in range(700)],
        }[shape]
        q_labels = [q_labels[i] for i in rng.permutation(len(q_labels))]
        p = FiniteDist(tuple(p_labels), random_simplex(rng, 1, n)[0])
        q = FiniteDist(tuple(q_labels), random_simplex(rng, 1, len(q_labels))[0])
        known = set(p_labels)
        labels = tuple(p_labels) + tuple(x for x in q_labels if x not in known)
        pos = {x: i for i, x in enumerate(labels)}
        want_p, want_q = np.zeros(len(labels)), np.zeros(len(labels))
        want_p[:n] = p.mass
        for x, v in zip(q.labels, q.mass):
            want_q[pos[x]] = v
        lab, pm, qm = align(p, q)
        assert lab == labels
        assert pm.tobytes() == want_p.tobytes() and qm.tobytes() == want_q.tobytes()

    def test_twice_tv_is_l1(self):
        rng = np.random.default_rng(7)
        for k in range(2, 7):
            pm = random_simplex(rng, 50, k)
            qm = random_simplex(rng, 50, k)
            for a, b in zip(pm, qm):
                tv = total_variation(as_dist(a), as_dist(b))
                assert 2.0 * tv == float(np.abs(a - b).sum())

    def test_metric_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            a, b, c = (as_dist(r) for r in random_simplex(rng, 3, k))
            dab = total_variation(a, b)
            dba = total_variation(b, a)
            assert dab == dba
            assert dab <= total_variation(a, c) + total_variation(c, b) + 1e-12
            assert total_variation(a, a) <= 1e-12


class TestBinaryDivergence:
    def test_equal_arguments(self):
        assert binary_divergence(0.5, 0.5) == 0.0

    def test_quarter_half(self):
        assert binary_divergence(0.25, 0.5) == pytest.approx(
            0.13081203594113696, abs=1e-15
        )

    def test_zero_p(self):
        # 0 log 0 = 0, leaving log(1/0.5)
        assert binary_divergence(0.0, 0.5) == pytest.approx(LN2, abs=1e-15)

    def test_one_p(self):
        assert binary_divergence(1.0, 0.25) == pytest.approx(math.log(4.0), abs=1e-15)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.1])
    def test_degenerate_q_rejected(self, q):
        with pytest.raises(ValueError):
            binary_divergence(0.5, q)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_iff_equal(self, p, q):
        v = binary_divergence(p, q)
        assert v >= -1e-12
        if abs(p - q) <= 1e-12:
            assert v <= 1e-9 * max(1.0, 1.0 / min(q, 1 - q))
        elif abs(p - q) > 1e-4:
            assert v > 0.0


class TestEntropyBase:
    def test_uniform_two_symbols(self):
        d = make_dist(["a", "b"], [0.5, 0.5])
        assert entropy_base(d, 2) == pytest.approx(1.0, abs=1e-15)

    def test_dyadic_three(self):
        d = make_dist(["a", "b", "c"], [0.5, 0.25, 0.25])
        assert entropy_base(d, 2) == pytest.approx(1.5, abs=1e-15)

    def test_point_mass(self):
        d = make_dist(["a", "b"], [1.0, 0.0])
        for base in (2, 3, 10):
            assert entropy_base(d, base) == 0.0

    def test_base_below_two_rejected(self):
        d = make_dist(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            entropy_base(d, 1)

    @pytest.mark.parametrize(
        "base",
        [math.inf, math.nan, 2.5, 1, -math.inf, 10**400],
        ids=["inf", "nan", "non-integer", "below-2", "minus-inf", "past-the-largest-float"],
    )
    def test_base_must_be_an_integer_of_two_or_more(self, base):
        d = make_dist(["a", "b"], [0.5, 0.5])
        with pytest.raises(DistributionError, match=r"^base d=\S+ must be "):
            entropy_base(d, base)

    def test_bounded_by_log_support(self):
        rng = np.random.default_rng(3)
        for k in range(2, 8):
            for row in random_simplex(rng, 20, k):
                d = as_dist(row)
                assert entropy_base(d, 2) <= math.log2(d.support_size()) + 1e-12


def test_finite_dist_rejects_bad_sum():
    with pytest.raises(DistributionError):
        FiniteDist(("a", "b"), np.array([0.6, 0.6]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_mass_rejected(bad):
    # a NaN sum passes |sum - 1| <= tol, so the check is its own
    with pytest.raises(DistributionError, match="non-finite"):
        FiniteDist(("a", "b"), np.array([bad, 0.5]))
    with pytest.raises(DistributionError):
        make_dist(["a", "b"], [bad, 0.5], normalization=math.inf)


def test_make_dist_applies_the_fixed_equality_tolerance():
    # (0.6, 0.3, 0.1) sums to 1 - 2^-53, and rescaled to 1 + 2^-52: inside
    # the fixed 1e-12, which make_dist and direct construction both apply
    mass = np.array([0.6, 0.3, 0.1])
    rescaled = mass / mass.sum()
    assert float(rescaled.sum()) == 1.0 + 2.0**-52
    assert make_dist(["a", "b", "c"], mass).mass.tobytes() == rescaled.tobytes()
    assert FiniteDist(("a", "b", "c"), rescaled).mass.tobytes() == rescaled.tobytes()
    with pytest.raises(DistributionError, match="not 1"):
        FiniteDist(("a", "b"), np.array([0.5, 0.5 + 2e-12]))


@pytest.mark.parametrize("bad", [math.nan, -1e-9, -math.inf])
def test_nan_or_negative_normalization_rejected(bad):
    # NaN would pass every sum, a negative bound none
    with pytest.raises(ValueError, match="normalization"):
        make_dist(["a", "b"], [0.5, 0.5], normalization=bad)

