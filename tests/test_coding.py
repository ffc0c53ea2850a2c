import collections
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbound.coding import (
    CodeSpec,
    _code_distribution,
    csiszar_bound,
    dual_kl_identity_check,
    jeffreys_bound,
    kl_identity_check,
    l1_bounds,
    redundancy_sweep,
    shannon_code,
    tightened_bound,
)
from divbound.dist import FiniteDist, entropy_base, make_dist
from divbound.errors import DistributionError, KraftViolationError
from divbound.textio import read_dist_file

from util import as_dist, random_simplex

LN2 = math.log(2.0)

# worked example: P = (0.6, 0.3, 0.1), d = 2, Shannon lengths (1, 2, 4);
# all values re-derived by independent direct summation before freezing
WORKED_P = make_dist(["a", "b", "c"], [0.6, 0.3, 0.1])
WORKED = {
    "lengths": (1, 2, 4),
    "kraft": 13.0 / 16.0,
    "avg_length": 1.6,
    "entropy2": 1.2954618442383218,
    "redundancy": 0.30453815576167822,
    "redundancy_nats": 0.21108976403913272,
    "kl_pq": 0.0034503992608882173,
    "kl_qp": 0.0031884177956913425,
    "actual_l1": 0.046153846153846154,
}


class TestCodeSpec:
    def test_valid(self):
        c = CodeSpec(("a", "b", "c"), (1, 2, 2), 2)
        assert c.kraft_sum == pytest.approx(1.0, abs=1e-15)

    def test_kraft_violation(self):
        with pytest.raises(KraftViolationError):
            CodeSpec(("a", "b", "c"), (1, 1, 1), 2)

    def test_nonpositive_length(self):
        with pytest.raises(DistributionError):
            CodeSpec(("a", "b"), (0, 2), 2)

    def test_bad_base(self):
        with pytest.raises(DistributionError):
            CodeSpec(("a", "b"), (1, 2), 1)

    @pytest.mark.parametrize(
        "d, rule",
        [(math.inf, "an integer >= 2"), (math.nan, "an integer >= 2"), (2.5, "an integer >= 2"),
         (1, ">= 2"), (-math.inf, ">= 2"), (10**400, f"at most the largest float, {sys.float_info.max!r}")],
        ids=["inf", "nan", "non-integer", "below-2", "minus-inf", "past-the-largest-float"],
    )
    def test_base_must_be_an_integer_of_two_or_more(self, d, rule):
        # one typed error for every bad base, where inf and NaN once
        # escaped as OverflowError and a bare ValueError
        p = make_dist(["a", "b"], [0.5, 0.5])
        for build in (lambda: CodeSpec(("a", "b"), (1, 1), d), lambda: shannon_code(p, d)):
            with pytest.raises(DistributionError) as err:
                build()
            assert str(err.value) == f"code base d={d!r} must be {rule}"

    def test_length_count_mismatch(self):
        with pytest.raises(DistributionError):
            CodeSpec(("a", "b"), (1, 2, 3), 2)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_kraft_sum_is_the_exact_sum_of_powers_rounded_once(self, d):
        # computed once at construction: the exact rational sum of the
        # terms, each Python's d ** -n, rounded to the nearest float
        rng = np.random.default_rng(d)
        lengths = tuple(int(n) for n in rng.integers(d + 8, d + 60, size=10**4))
        code = CodeSpec(tuple(f"s{j}" for j in range(len(lengths))), lengths, d)
        assert code.kraft_sum == float(sum(Fraction(float(d) ** -n) for n in lengths))
        assert code.kraft_terms.tobytes() == np.array([float(d) ** -n for n in lengths]).tobytes()
        assert np.array_equal(code.length_array, lengths)
        assert not code.length_array.flags.writeable and not code.kraft_terms.flags.writeable

    @pytest.mark.parametrize("long", [2**63 + 5, 10**20])
    def test_lengths_past_int64(self, long):
        code = CodeSpec(("a", "b"), (1, long), 2)
        assert code.lengths == (1, long)
        assert code.kraft_sum == 0.5
        rep = l1_bounds(make_dist(["a", "b"], [0.5, 0.5]), code)
        assert rep.avg_length == 0.5 + 0.5 * float(long)

    def test_lengths_of_any_integer_spelling(self):
        # numpy integers, bools and integral floats, as Python ints
        for given in ((np.int32(2), 2), np.array([2, 2], dtype=np.uint8), (3.0, 2), (True, 1), (1, 1e20)):
            code = CodeSpec(("a", "b"), given, 2)
            assert code.lengths == tuple(int(n) for n in given)
            assert all(type(n) is int for n in code.lengths)

    @pytest.mark.parametrize(
        "given", [(1.9, 1.2), ("1", "1"), (1, 2.5), np.array([1.0, 1.5]), (1, math.nan), (1, math.inf), (1, None)]
    )
    def test_non_integral_lengths_raise(self, given):
        # int(n) == n decides, as for the code base: nothing is truncated
        with pytest.raises(DistributionError, match="^codeword lengths must be positive integers$"):
            CodeSpec(("a", "b"), given, 2)

    def test_empty_code(self):
        assert CodeSpec((), (), 2).kraft_sum == 0.0


class TestLabelChecks:
    """Labels are checked once: a code on p.labels and its Q check nothing again."""

    def test_duplicates_raise_the_same_text_on_every_route(self, tmp_path):
        f = tmp_path / "dup.tsv"
        f.write_text("a\t0.5\nb\t0.25\na\t0.25\n", encoding="utf-8")
        routes = [
            lambda: FiniteDist(("a", "b", "a"), np.array([0.5, 0.25, 0.25])),
            lambda: make_dist(["a", "b", "a"], [0.5, 0.25, 0.25]),
            lambda: read_dist_file(f),
        ]
        for route in routes:
            with pytest.raises(DistributionError) as err:
                route()
            assert str(err.value) == "labels must be unique"
        with pytest.raises(DistributionError) as err:
            CodeSpec(("a", "b", "a"), (1, 2, 2), 2)
        assert str(err.value) == "code alphabet labels must be unique"

    def test_labels_that_are_not_str_become_str(self):
        assert make_dist([1, 2], [0.5, 0.5]).labels == ("1", "2")
        assert FiniteDist((1, "b"), np.array([0.5, 0.5])).labels == ("1", "b")
        assert CodeSpec((1, 2), (1, 1), 2).alphabet == ("1", "2")
        # equal once they are strs
        with pytest.raises(DistributionError, match="labels must be unique"):
            make_dist([1, "1"], [0.5, 0.5])
        with pytest.raises(DistributionError, match="code alphabet labels must be unique"):
            CodeSpec((1, "1"), (1, 1), 2)

    def test_a_code_keeps_the_source_labels(self):
        p = make_dist(["a", "b", "c"], [0.6, 0.3, 0.1])
        code = shannon_code(p, 2)
        assert _code_distribution(code).labels == p.labels
        # passed on as they are, not checked and copied again
        assert code.alphabet is p.labels and _code_distribution(code).labels is p.labels

    @pytest.mark.parametrize("route", [kl_identity_check, dual_kl_identity_check, l1_bounds])
    @pytest.mark.parametrize("code", [
        CodeSpec(("c", "a", "b"), (1, 2, 2), 2),
        CodeSpec(("a", "b"), (1, 1), 2),
    ], ids=["reordered", "subset"])
    def test_every_route_requires_the_code_on_p_labels_in_order(self, route, code):
        p = make_dist(("a", "b", "c"), (0.5, 0.25, 0.25))
        with pytest.raises(DistributionError) as err:
            route(p, code)
        assert str(err.value) == "distribution and code alphabets differ"

    def test_a_count_mismatch_is_reported_before_duplicates(self):
        with pytest.raises(DistributionError, match=r"got 3 labels but \(2,\) masses"):
            FiniteDist(("a", "a", "b"), np.array([0.5, 0.5]))
        with pytest.raises(DistributionError, match="got 3 labels but 2 masses"):
            make_dist(["a", "a", "b"], [0.5, 0.5])
        with pytest.raises(DistributionError, match="3 symbols but 2 lengths"):
            CodeSpec(("a", "a", "b"), (1, 1), 2)


class TestCodeDistribution:
    @pytest.mark.parametrize("n", [10**4, 10**5])
    @pytest.mark.parametrize("d", [3, 5])
    def test_one_kraft_sum_on_large_alphabets(self, n, d):
        # Q is normalized by the code's one c, the exact sum rounded once,
        # which the identities read too: both hold to 1e-12 relative on
        # Shannon codes of seeded sources
        for seed in range(3):
            e = np.random.default_rng([n, d, seed]).standard_exponential(n)
            p = make_dist([f"s{j}" for j in range(n)], e / e.sum())
            code = shannon_code(p, d)
            terms = collections.Counter(code.kraft_terms.tolist())
            assert code.kraft_sum == float(sum(k * Fraction(t) for t, k in terms.items()))
            assert abs(math.fsum(_code_distribution(code).mass) - 1.0) <= 1e-15
            for check in (kl_identity_check, dual_kl_identity_check):
                lhs, rhs = check(p, code)
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (seed, check.__name__)

    def test_complete_code_sums_to_one(self):
        # a complete binary code: lengths 1 to 40, then 2^16 words of length
        # 56 in place of the last word of length 40.  Added in order, each
        # 2^-56 falls below half an ulp of the partial sum and is lost
        lengths = np.array([*range(1, 41), *[56] * 2**16])
        code = CodeSpec(tuple(f"s{j}" for j in range(len(lengths))), lengths, 2)
        assert code.kraft_sum == 1.0
        assert math.fsum(_code_distribution(code).mass) == 1.0

    def test_dyadic(self):
        q = _code_distribution(CodeSpec(("a", "b", "c"), (1, 2, 2), 2))
        np.testing.assert_allclose(q.mass, [0.5, 0.25, 0.25])

    def test_non_dyadic(self):
        q = _code_distribution(CodeSpec(("a", "b", "c"), (1, 2, 4), 2))
        np.testing.assert_allclose(q.mass, [8 / 13, 4 / 13, 1 / 13])


class TestShannonCode:
    def test_dyadic_source(self):
        p = make_dist(["a", "b", "c"], [0.5, 0.25, 0.25])
        code = shannon_code(p, 2)
        assert code.lengths == (1, 2, 2)
        # zero redundancy: the code achieves the entropy
        assert float(np.dot(p.mass, code.lengths)) == pytest.approx(
            entropy_base(p, 2), abs=1e-12
        )

    def test_worked_example_lengths(self):
        code = shannon_code(WORKED_P, 2)
        assert code.lengths == WORKED["lengths"]
        assert code.kraft_sum == pytest.approx(WORKED["kraft"], abs=1e-15)

    def test_exact_power_gets_exact_length(self):
        p = make_dist(["a", "b", "c"], [0.125, 0.125, 0.75])
        code = shannon_code(p, 2)
        assert code.lengths[0] == 3 and code.lengths[1] == 3
        # delta = l + log2 P vanishes on the dyadic symbols
        assert 3.0 + math.log2(0.125) == 0.0

    def test_zero_mass_rejected(self):
        p = make_dist(["a", "b"], [1.0, 0.0])
        with pytest.raises(DistributionError):
            shannon_code(p, 2)

    def test_ternary_base(self):
        p = make_dist(["a", "b", "c"], [1 / 3, 1 / 3, 1 / 3])
        code = shannon_code(p, 3)
        assert code.lengths == (1, 1, 1)


class TestIdentities:
    def test_dyadic_both_zero(self):
        p = make_dist(["a", "b", "c"], [0.5, 0.25, 0.25])
        code = shannon_code(p, 2)
        lhs, rhs = kl_identity_check(p, code)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        lhs, rhs = dual_kl_identity_check(p, code)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        code = shannon_code(WORKED_P, 2)
        lhs, rhs = kl_identity_check(WORKED_P, code)
        assert lhs == pytest.approx(WORKED["kl_pq"], abs=1e-12)
        assert rhs == pytest.approx(WORKED["kl_pq"], abs=1e-12)
        lhs, rhs = dual_kl_identity_check(WORKED_P, code)
        assert lhs == pytest.approx(WORKED["kl_qp"], abs=1e-12)
        assert rhs == pytest.approx(WORKED["kl_qp"], abs=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(97)
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            d = int(rng.integers(2, 5))
            p = as_dist(random_simplex(rng, 1, k)[0])
            base = shannon_code(p, d)
            # arbitrary valid codes: Shannon lengths plus random padding
            lengths = tuple(
                int(n + rng.integers(0, 3)) for n in base.lengths
            )
            code = CodeSpec(p.labels, lengths, d)
            lhs, rhs = kl_identity_check(p, code)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            lhs, rhs = dual_kl_identity_check(p, code)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda k: st.tuples(
                st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k),
                st.lists(st.integers(0, 6), min_size=k, max_size=k),
            )
        ),
        st.integers(2, 5),
        st.booleans(),
    )
    def test_identities_for_kraft_valid_codes(self, masses_and_padding, d, shannon):
        masses, padding = masses_and_padding
        p = as_dist(np.asarray(masses) / sum(masses))
        if shannon:
            base = shannon_code(p, d).lengths
        else:
            # a fixed-length code: d^n >= k words of n digits
            n = 1
            while d**n < len(p):
                n += 1
            base = (n,) * len(p)
        # padding any length keeps the Kraft sum at most 1
        code = CodeSpec(p.labels, tuple(a + e for a, e in zip(base, padding)), d)
        assert code.kraft_sum <= 1.0
        for check in (kl_identity_check, dual_kl_identity_check):
            lhs, rhs = check(p, code)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_jeffreys_identity_and_upper_bound(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            k = int(rng.integers(2, 8))
            p = as_dist(random_simplex(rng, 1, k)[0])
            code = shannon_code(p, 2)
            kl_pq, _ = kl_identity_check(p, code)
            kl_qp, _ = dual_kl_identity_check(p, code)
            jef = 0.5 * (kl_pq + kl_qp)
            x = (
                float(np.dot(p.mass, code.lengths)) - entropy_base(p, 2)
            ) * LN2
            # for Shannon lengths delta >= 0, hence J <= Delta log d / 2
            assert jef <= 0.5 * x + 1e-12


class TestL1Bounds:
    def test_dyadic_all_zero(self):
        p = make_dist(["a", "b", "c"], [0.5, 0.25, 0.25])
        rep = l1_bounds(p, shannon_code(p, 2))
        assert rep.redundancy == pytest.approx(0.0, abs=1e-12)
        assert rep.actual_l1 == pytest.approx(0.0, abs=1e-12)
        assert rep.bound_csiszar == pytest.approx(0.0, abs=1e-6)
        assert rep.bound_tightened == pytest.approx(0.0, abs=1e-6)
        assert rep.bound_jeffreys == pytest.approx(0.0, abs=1e-6)

    def test_worked_example_report(self):
        rep = l1_bounds(WORKED_P, shannon_code(WORKED_P, 2))
        assert rep.avg_length == pytest.approx(WORKED["avg_length"], abs=1e-12)
        assert rep.entropy_d == pytest.approx(WORKED["entropy2"], abs=1e-12)
        assert rep.redundancy == pytest.approx(WORKED["redundancy"], abs=1e-12)
        assert rep.kraft_sum == pytest.approx(WORKED["kraft"], abs=1e-15)
        assert rep.kl_pq == pytest.approx(WORKED["kl_pq"], abs=1e-12)
        assert rep.kl_qp == pytest.approx(WORKED["kl_qp"], abs=1e-12)
        assert rep.jeffreys_val == pytest.approx(
            0.5 * (WORKED["kl_pq"] + WORKED["kl_qp"]), abs=1e-12
        )
        assert rep.actual_l1 == pytest.approx(WORKED["actual_l1"], abs=1e-12)
        assert rep.bound_csiszar == pytest.approx(
            math.sqrt(2.0 * WORKED["redundancy_nats"]), abs=1e-12
        )
        assert rep.delta_nonneg
        assert rep.bound_jeffreys is not None
        assert rep.actual_l1 <= rep.bound_jeffreys <= rep.bound_csiszar + 1e-9
        assert rep.bound_tightened <= rep.bound_csiszar + 1e-9

    def test_units_conversion_pinned(self):
        # redundancy is stored in base-d units; bounds consume it in nats
        rep = l1_bounds(WORKED_P, shannon_code(WORKED_P, 2))
        assert rep.redundancy * LN2 == pytest.approx(
            WORKED["redundancy_nats"], abs=1e-12
        )

    def test_negative_delta_drops_jeffreys_bound(self):
        p = make_dist(["a", "b", "c"], [0.3, 0.3, 0.4])
        # length 1 for a symbol of mass 0.3 makes delta = 1 + log2(0.3) < 0
        code = CodeSpec(p.labels, (1, 2, 2), 2)
        rep = l1_bounds(p, code)
        assert not rep.delta_nonneg
        assert rep.bound_jeffreys is None
        assert rep.actual_l1 <= rep.bound_tightened + 1e-9

    def test_shannon_codes_always_carry_jeffreys_bound(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            d = int(rng.integers(2, 4))
            p = as_dist(random_simplex(rng, 1, k)[0])
            rep = l1_bounds(p, shannon_code(p, d))
            assert rep.delta_nonneg
            assert rep.bound_jeffreys is not None
            assert rep.actual_l1 <= rep.bound_jeffreys + 1e-9
            assert rep.bound_jeffreys <= rep.bound_csiszar + 1e-9
            assert rep.bound_tightened <= rep.bound_csiszar + 1e-9


class TestSweep:
    def test_csiszar_caps_at_two(self):
        assert csiszar_bound(10.0) == 2.0
        assert csiszar_bound(0.02) == pytest.approx(0.2, abs=1e-15)

    def test_negative_input_rejected(self):
        for f in (csiszar_bound, tightened_bound, jeffreys_bound):
            with pytest.raises(ValueError):
                f(-1e-9)

    def test_domain_error_names_the_first_bad_value(self):
        # not the whole argument, however long
        x = [0.5] * 10**5
        x[4321], x[-1] = -2.5, math.nan
        # jeffreys_bound names x itself, not the x / 2 it inverts
        for f in (csiszar_bound, tightened_bound, jeffreys_bound):
            with pytest.raises(ValueError) as err:
                f(x)
            assert str(err.value) == "x=-2.5 must be nonnegative"

    def test_orderings_across_grid(self):
        xs = np.geomspace(1e-6, 1.0, 20)
        cs, ti, je = redundancy_sweep(xs)
        assert np.all(ti <= cs + 1e-9)
        assert np.all(je <= cs + 1e-9)

    def test_csiszar_does_not_overflow_at_the_top_of_the_range(self):
        with np.errstate(over="raise"):
            assert csiszar_bound(1e308) == 2.0
            assert np.array_equal(csiszar_bound(np.array([2.0, 1e300, 1e308])), [2.0, 2.0, 2.0])

    def test_sqrt2_factor_at_small_redundancy(self):
        x = 1e-6
        ratio = jeffreys_bound(x) / csiszar_bound(x)
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3, abs=0.0)
