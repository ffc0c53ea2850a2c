import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divbound.bounds as bounds_mod
from divbound.bounds import (
    MEASURES,
    PAIR_KINDS,
    bound_curve,
    exact_kl_min,
    extremal_pair,
    inverse_exact_kl,
    inverse_jeffreys,
    symmetric_fdiv_min,
)
from divbound.coding import jeffreys_bound, tightened_bound
from divbound.dist import total_variation
from divbound.errors import BoundViolationError, DivboundError
from divbound.fdiv import batch_f_divergence, bhattacharyya, chernoff_information, f_divergence
from divbound.generators import REGISTRY
from divbound.oracle import ORACLE_MEASURES
from divbound.textio import fmt_g12

from util import GENERATORS, as_dist, binary_divergence, random_pairs_with_zeros

LN2 = math.log(2.0)
EPS_GRID = [round(0.05 * i, 2) for i in range(1, 20)]

# Exact-curve values frozen from a dense offset grid (step 1e-6) plus
# high-precision golden refinement, computed independently of this package.
EXACT_KL_FIXTURES = {
    0.1: 0.020044683157952952,
    0.25: 0.12679665350638544,
    0.3: 0.18378456526831633,
    0.4: 0.33247392018971863,
    0.5: 0.53229790889199995,
    0.7: 1.1308920012583667,
    0.9: 2.3021828844129879,
}

# The eps with eps log((1+eps)/(1-eps)) = x, correctly rounded: computed with
# mpmath at 50-60 digits twice, by Newton in s = atanh eps and by bisection
# on log eps, and both rounded to the same double.
INVERSE_JEFFREYS_FIXTURES = {
    1e-300: 7.071067811865476e-151,
    1e-200: 7.071067811865475e-101,
    1e-100: 7.071067811865475e-51,
    1e-50: 7.071067811865476e-26,
    1e-20: 7.071067811865475e-11,
    1e-12: 7.071067811864886e-07,
    1e-08: 7.071067805972919e-05,
    1e-06: 0.0007071067222609819,
    0.0001: 0.007071008886251274,
    0.01: 0.0706517476624163,
    0.1: 0.2217419170003133,
    0.3: 0.3775946727123961,
    0.5: 0.47909842311662104,
    1.0: 0.6479182290296027,
    2.0: 0.8335565596009648,
    5.0: 0.9874342896860445,
    10.0: 0.9999092865928868,
    25.0: 0.9999999999722241,
}


class TestSymmetricFdivMin:
    @pytest.mark.parametrize(
        "name", ["total_variation", "squared_hellinger", "jeffreys", "capacitory"]
    )
    def test_zero_at_zero(self, name):
        assert symmetric_fdiv_min(GENERATORS[name], 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_jeffreys_half(self):
        assert symmetric_fdiv_min(REGISTRY["jeffreys"], 0.5) == pytest.approx(
            0.5 * math.log(3.0), abs=1e-12
        )

    def test_capacitory_half(self):
        assert symmetric_fdiv_min(REGISTRY["capacitory"], 0.5) == pytest.approx(
            2.0 * binary_divergence(0.25, 0.5), abs=1e-12
        )

    def test_asymmetric_rejected(self):
        for name in ("kl", "dual_kl", "chi2", "dual_chi2"):
            with pytest.raises(ValueError):
                symmetric_fdiv_min(REGISTRY[name], 0.5)

    def test_tv_bound_is_identity(self):
        for eps in EPS_GRID + [0.0, 1.0]:
            assert symmetric_fdiv_min(REGISTRY["tv"], eps) == pytest.approx(eps, abs=1e-12)

    def test_boundary_limits(self):
        assert symmetric_fdiv_min(REGISTRY["jeffreys"], 1.0) == math.inf
        assert symmetric_fdiv_min(REGISTRY["capacitory"], 1.0) == pytest.approx(
            2.0 * LN2, abs=1e-12
        )
        assert symmetric_fdiv_min(REGISTRY["hellinger2"], 1.0) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            symmetric_fdiv_min(REGISTRY["jeffreys"], 1.5)

    @pytest.mark.parametrize("name", ["tv", "hellinger2", "jeffreys", "capacitory"])
    def test_is_the_divergence_at_the_two_point_pair(self, name):
        gen = REGISTRY[name]
        for eps in (0.0, 1e-9, 0.1, 0.5, 0.9, 1.0):
            p, q = extremal_pair(eps, "two_point")
            at_pair = float(batch_f_divergence(gen, p.mass[None, :], q.mass[None, :])[0])
            assert symmetric_fdiv_min(gen, eps) == at_pair

    def test_values_at_one_are_f0_plus_fstar0(self):
        # the disjoint pair's f(0) + f*(0), as the literals they replaced
        assert MEASURES["hellinger2"].at_one == 2.0
        assert MEASURES["jeffreys"].at_one == math.inf
        assert MEASURES["capacitory"].at_one == 2.0 * math.log(2.0)

    def test_lower_bound_validity_on_random_pairs(self):
        rng = np.random.default_rng(59)
        symmetric = [g for g in GENERATORS.values() if g.symmetry_constant is not None]
        for k in (2, 4, 7):
            pm, qm = random_pairs_with_zeros(rng, 300, k)
            for gen in symmetric:
                vals = batch_f_divergence(gen, pm, qm)
                for a, b, v in zip(pm, qm, vals):
                    eps = total_variation(as_dist(a), as_dist(b))
                    assert v >= symmetric_fdiv_min(gen, eps) - 1e-10


def _z_bounds(eps):
    """The (lower, upper) bounds on the Bhattacharyya coefficient at eps."""
    return bound_curve("bhattacharyya_lower", eps), bound_curve("bhattacharyya_upper", eps)


class TestClosedForms:
    def test_bhattacharyya_endpoints(self):
        assert _z_bounds(0.0) == (1.0, 1.0)
        assert _z_bounds(1.0) == (0.0, 0.0)

    def test_bhattacharyya_mid(self):
        lo, hi = _z_bounds(0.6)
        assert lo == pytest.approx(0.4, abs=1e-15)
        assert hi == pytest.approx(0.8, abs=1e-15)

    def test_chernoff_values(self):
        assert bound_curve("chernoff", 0.0) == 0.0
        assert bound_curve("chernoff", 0.5) == pytest.approx(-0.5 * math.log1p(-0.25), abs=1e-15)
        assert bound_curve("chernoff", 1.0) == math.inf

    def test_capacitory_values(self):
        assert bound_curve("capacitory", 0.0) == pytest.approx(0.0, abs=1e-15)
        assert bound_curve("capacitory", 0.5) == pytest.approx(0.26162407188227392, abs=1e-14)
        # approaches 2 log 2 from below as eps -> 1, the value at eps = 1
        assert bound_curve("capacitory", 1.0 - 1e-9) == pytest.approx(2.0 * LN2, abs=1e-6)
        assert bound_curve("capacitory", 1.0) == 2.0 * LN2
        with pytest.raises(ValueError):
            bound_curve("capacitory", 1.5)

    def test_jeffreys_values(self):
        assert bound_curve("jeffreys", 0.0) == 0.0
        assert bound_curve("jeffreys", 0.5) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)
        assert bound_curve("jeffreys", 0.9) == pytest.approx(2.6499950812497964, abs=1e-13)
        assert bound_curve("jeffreys", 1.0) == math.inf
        with pytest.raises(ValueError):
            bound_curve("jeffreys", 1.5)

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_specializations_agree_with_generic_form(self, eps):
        for name in ("capacitory", "jeffreys"):
            assert bound_curve(name, eps) == pytest.approx(
                symmetric_fdiv_min(REGISTRY[name], eps), abs=1e-10
            )

    @pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-5, 1e-4, 5e-4, 1e-3])
    def test_stable_forms_at_small_eps(self, eps):
        # the textbook forms lose ~log10(1/eps^2) digits here; these must not
        capacitory = eps**2 + eps**4 / 6 + eps**6 / 15
        hellinger2 = eps**2 + eps**4 / 4 + eps**6 / 8
        assert bound_curve("capacitory", eps) == pytest.approx(capacitory, rel=1e-14, abs=0.0)
        assert bound_curve("hellinger2", eps) == pytest.approx(hellinger2, rel=1e-14, abs=0.0)

    def test_log_one_minus_eps_squared_forms_across_the_domain(self):
        # against 50-digit references on 8000 eps in [1e-8, 1 - 1e-15]: the
        # closed forms through log(1 - eps^2) keep their digits as eps -> 1
        mp = pytest.importorskip("mpmath")
        eps = np.concatenate([np.geomspace(1e-8, 0.5, 4000), 1.0 - np.geomspace(1e-15, 0.5, 4000)])
        chernoff = bound_curve("chernoff", eps)
        capacitory = bound_curve("capacitory", eps)
        worst_chernoff = worst_capacitory = 0.0
        with mp.workdps(50):
            for e, ch, ca in zip(eps.tolist(), chernoff.tolist(), capacitory.tolist()):
                x = mp.mpf(e)
                log1m_sq = mp.log1p(-x * x)
                ref_ch = -log1m_sq / 2
                ref_ca = log1m_sq + 2 * x * mp.atanh(x)
                worst_chernoff = max(worst_chernoff, float(abs(ch - ref_ch) / ref_ch))
                worst_capacitory = max(worst_capacitory, float(abs(ca - ref_ca) / ref_ca))
        assert worst_chernoff <= 1e-15
        assert worst_capacitory <= 1e-14

    def test_capacitory_within_four_ulp_from_one_half_on(self):
        # against 60-digit references on 700 eps in [0.5, 1), half of them
        # within 1e-16 to 0.5 of 1: without the split at 1/2, log(1 - eps^2)
        # and 2 eps atanh(eps) cancel there and lose up to 43 ulp
        mp = pytest.importorskip("mpmath")
        eps = np.concatenate([np.linspace(0.5, 1.0, 351)[:-1], 1.0 - np.geomspace(1e-16, 0.5, 350)])
        got = bound_curve("capacitory", eps)
        worst = 0.0
        with mp.workdps(60):
            for e, v, ulp in zip(eps.tolist(), got.tolist(), np.spacing(got).tolist()):
                x = mp.mpf(e)
                ref = (1 + x) * mp.log1p(x) + (1 - x) * mp.log1p(-x)
                worst = max(worst, float(abs(v - ref)) / ulp)
        assert worst <= 4.0


# entries bounding a symmetric f-divergence, each under its generator's name
SYMMETRIC_MEASURES = ("tv", "hellinger2", "jeffreys", "capacitory")
# the last row `divbound bounds` prints for each measure on a grid ending at 1
VALUE_AT_ONE = {
    "tv": "1",
    "hellinger2": "2",
    "jeffreys": "inf",
    "capacitory": "1.38629436112",
    "chernoff": "inf",
    "bhattacharyya_lower": "0",
    "bhattacharyya_upper": "0",
    "exact_kl": "inf",
}


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_measure_table_entry(name):
    m = MEASURES[name]
    assert m.direction in ("min", "max")

    eps = np.concatenate(
        [[0.0, 1e-300], np.geomspace(1e-9, 0.5, 30), np.linspace(0.5, 1.0 - 1e-9, 30)]
    )
    values = bound_curve(name, eps)
    assert isinstance(values, np.ndarray) and values.shape == eps.shape
    # the route adds no arithmetic to the raw form below eps = 1
    assert values.tobytes() == np.asarray(m.closed_form(eps), dtype=float).tobytes()
    for e, v in zip(eps, values):
        got = bound_curve(name, float(e))
        assert type(got) is float and got == v
    at_one = bound_curve(name, 1.0)
    assert type(at_one) is float and at_one == m.at_one
    for e in (math.nan, -1e-300, -0.5, np.nextafter(1.0, 2.0), 1.5, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"grid point eps=.* outside \[0, 1\]"):
            bound_curve(name, e)

    interior = np.linspace(0.005, 0.995, 199)
    if name in SYMMETRIC_MEASURES:
        gen = REGISTRY[name]
        for e, v in zip(interior, bound_curve(name, interior)):
            assert v == pytest.approx(symmetric_fdiv_min(gen, float(e)), abs=1e-10)
        assert m.at_one == symmetric_fdiv_min(gen, 1.0)

    # the oracle checks exactly the entries with an evaluator, and those
    # name the pair that attains the bound
    assert (name in ORACLE_MEASURES) == (m.evaluate is not None)
    assert (m.extremal_kind is None) == (m.evaluate is None)
    if m.evaluate is not None:
        assert ORACLE_MEASURES[name] is m and m.extremal_kind in PAIR_KINDS
        for e in EPS_GRID:
            p, q = extremal_pair(e, m.extremal_kind)
            got = m.evaluate(p.mass[None, :], q.mass[None, :])[0]
            assert got == pytest.approx(bound_curve(name, e), abs=1e-9)

    assert fmt_g12(m.at_one) == VALUE_AT_ONE[name]
    assert fmt_g12(bound_curve(name, [0.0, 0.5, 1.0])[-1]) == VALUE_AT_ONE[name]


class TestExactKl:
    def test_zero(self):
        assert exact_kl_min(0.0) == 0.0

    @pytest.mark.parametrize("eps,expected", sorted(EXACT_KL_FIXTURES.items()))
    def test_frozen_values(self, eps, expected):
        assert exact_kl_min(eps) == pytest.approx(expected, abs=1e-9)

    def test_monotone(self):
        assert exact_kl_min(0.3) < exact_kl_min(0.5) < exact_kl_min(0.7)

    def test_dominates_pinsker(self):
        for eps in np.linspace(0.0, 0.95, 100):
            e = float(eps)
            assert exact_kl_min(e) >= 2.0 * e * e - 1e-12

    def test_below_two_point_value(self):
        kl = REGISTRY["kl"]
        for eps in EPS_GRID:
            p, q = extremal_pair(eps, "two_point")
            assert exact_kl_min(eps) <= f_divergence(kl, p, q) + 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_offset_restriction_matches_full_interval(self, eps):
        # dense scan over the full offset range [eps-1, 1-eps]
        betas = np.linspace(eps - 1.0, 1.0 - eps - 1e-12, 200001)
        p = 0.5 * (1.0 + eps - betas)
        q = 0.5 * (1.0 - eps - betas)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(p > 0, p * np.log(p / q), 0.0) + np.where(
                p < 1, (1 - p) * np.log((1 - p) / (1 - q)), 0.0
            )
        full_min = float(np.nanmin(vals))
        assert exact_kl_min(eps) == pytest.approx(full_min, abs=1e-8)

    @pytest.mark.parametrize("eps", [0.96, 0.97, 0.98, 0.99, 0.999])
    def test_binary_family_minimum_near_one(self, eps):
        # dense scan of the offset over [eps-1, 1-eps), refined twice around
        # the best point; all four masses are formed directly so none loses
        # digits to 1 - p near eps = 1, and the minimum sits close to the
        # left end, where 1 - p vanishes
        lo, hi = eps - 1.0, 1.0 - eps
        for _ in range(3):
            betas = np.linspace(lo, hi, 20001)
            betas = betas[betas < 1.0 - eps]
            p, q = 0.5 * (1.0 + eps - betas), 0.5 * (1.0 - eps - betas)
            pc, qc = 0.5 * (1.0 - eps + betas), 0.5 * (1.0 + eps + betas)
            with np.errstate(divide="ignore", invalid="ignore"):
                tail = np.where(pc > 0.0, pc * np.log(pc / qc), 0.0)
            vals = p * np.log(p / q) + tail
            i = int(np.argmin(vals))
            step = betas[1] - betas[0]
            lo, hi = max(betas[i] - step, eps - 1.0), betas[i] + step
        assert exact_kl_min(eps) == pytest.approx(float(vals[i]), abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-5, 1e-4, 5e-4, 1e-3])
    def test_pinsker_refinement_at_small_eps(self, eps):
        # L(eps) = 2 eps^2 + 4 eps^4/9 + 32 eps^6/135 + O(eps^8) (FHT 2003)
        series = 2 * eps**2 + 4 * eps**4 / 9 + 32 * eps**6 / 135
        assert exact_kl_min(eps) == pytest.approx(series, rel=1e-14, abs=0.0)

    def test_scalar_and_array_calls_agree_bit_for_bit(self):
        eps = np.concatenate(
            [[0.0, 1e-300], np.geomspace(1e-9, 0.5, 40), np.linspace(0.5, 1.0 - 1e-9, 40)]
        )
        values = exact_kl_min(eps)
        assert isinstance(values, np.ndarray) and values.shape == eps.shape
        for e, v in zip(eps, values):
            got = exact_kl_min(float(e))
            assert type(got) is float and got == v
        xs = np.concatenate([[0.0], values, [50.0, math.inf]])
        back = inverse_exact_kl(xs)
        for x, e in zip(xs, back):
            got = inverse_exact_kl(float(x))
            assert type(got) is float and got == e

    # bands of 1 - eps and the most ulp exact_kl_min may miss 80-digit
    # references by there.  From 1 - eps = 1/50 down it is -log(1 - eps),
    # which rounds correctly (worst 0.5 ulp on 30 random points per band);
    # above, the climb on V(t) = 2 eps missed by up to 17 ulp on 400 random
    # points of [0.02, 0.1] and 6 on [0.1, 0.3]
    KL_ULP_BANDS = [
        (0.1, 0.3, 8.0),
        (0.02, 0.1, 24.0),
        (1e-3, 0.02, 1.0),
        (1e-5, 1e-3, 1.0),
        (1e-7, 1e-5, 1.0),
        (1e-9, 1e-7, 1.0),
        (1e-12, 1e-9, 1.0),
        (1e-15, 1e-12, 1.0),
    ]

    @pytest.mark.parametrize("lo,hi,ulps", KL_ULP_BANDS)
    def test_within_ulps_of_mpmath(self, lo, hi, ulps):
        mp = pytest.importorskip("mpmath")
        eps = 1.0 - np.geomspace(lo, hi, 8)
        got = exact_kl_min(eps)
        worst = 0.0
        with mp.workdps(80):
            for e, v, ulp in zip(eps.tolist(), got.tolist(), np.spacing(got).tolist()):
                x = mp.mpf(e)
                # the FHT pair: V(t) = 2 eps from t near 1 / (2 (1 - eps))
                t = mp.findroot(lambda t: t * (1 - (mp.coth(t) - 1 / t) ** 2) - 2 * x, 1 / (2 * (1 - x)))
                ref = mp.log(t / mp.sinh(t)) + t * mp.coth(t) - (t / mp.sinh(t)) ** 2
                worst = max(worst, float(abs(v - ref)) / ulp)
        assert worst <= ulps

    def test_prints_the_digits_near_one(self):
        # mpmath's L at these eps, rounded to the 12 digits the CLI prints
        assert fmt_g12(exact_kl_min(0.99999999)) == "18.4206807389"
        assert fmt_g12(exact_kl_min(0.99999999999)) == "25.3284359402"

    def test_parametrization_meets_the_solver_preconditions(self):
        # the Newton climb needs V and sqrt(2 L) increasing and concave in t,
        # with its starting points V(t) <= t, sqrt(2 L(t)) <= t, and
        # V(t) <= 2 - 1/t for t >= 1 at or below the root
        t = np.geomspace(1e-3, 1e9, 800)
        v, g = bounds_mod._fht(t)[0], bounds_mod._fht_g_slope(t)[0]
        for f in (v, g):
            slopes = np.diff(f) / np.diff(t)
            assert np.all(slopes > 0.0)
            assert np.all(slopes[1:] <= slopes[:-1] * (1.0 + 1e-9))
        assert np.all(v <= t) and np.all(g <= t)
        assert np.all(v[t >= 1.0] <= 2.0 - 1.0 / t[t >= 1.0])

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_kl_min(1.0)
        with pytest.raises(ValueError):
            exact_kl_min(-0.1)
        with pytest.raises(ValueError):
            exact_kl_min(np.array([0.2, 1.0]))
        with pytest.raises(ValueError):
            exact_kl_min(math.nan)


class TestInverses:
    def test_inverse_exact_kl_zero(self):
        assert inverse_exact_kl(0.0) == 0.0

    def test_inverse_exact_kl_roundtrip(self):
        eps = np.concatenate([np.geomspace(1e-9, 0.5, 60), np.linspace(0.5, 1.0 - 1e-6, 60)])
        back = inverse_exact_kl(exact_kl_min(eps))
        assert np.max(np.abs(back - eps)) <= 1e-12

    def test_inverse_exact_kl_saturates(self):
        assert inverse_exact_kl(50.0) == 1.0 - 1e-9
        assert inverse_exact_kl(math.inf) == 1.0 - 1e-9

    def test_inverse_jeffreys_zero(self):
        assert inverse_jeffreys(0.0) == 0.0

    def test_inverse_jeffreys_small_x_asymptotic(self):
        got = inverse_jeffreys(1e-6)
        assert got == pytest.approx(math.sqrt(5e-7), rel=0.01, abs=0.0)

    def test_inverse_jeffreys_residual_roundtrip(self):
        for x in (1e-4, 0.01, 0.3, 1.0, 3.0):
            assert bound_curve("jeffreys", inverse_jeffreys(x)) == pytest.approx(x, abs=1e-9)

    @pytest.mark.parametrize("x,expected", sorted(INVERSE_JEFFREYS_FIXTURES.items()))
    def test_inverse_jeffreys_frozen_values(self, x, expected):
        assert inverse_jeffreys(x) == pytest.approx(expected, rel=4e-16, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-150, max_value=1.0 - 1e-6))
    def test_round_trips(self, eps):
        assert inverse_exact_kl(exact_kl_min(eps)) == pytest.approx(eps, rel=1e-15, abs=0.0)
        jeffreys = bound_curve("jeffreys", eps)
        assert inverse_jeffreys(jeffreys) == pytest.approx(eps, rel=1e-15, abs=0.0)

    def test_inverse_jeffreys_saturates(self):
        for x in (bound_curve("jeffreys", 1.0 - 1e-12), 50.0, math.inf):
            assert inverse_jeffreys(x) == 1.0 - 1e-12

    def test_jeffreys_scalar_and_array_calls_agree_bit_for_bit(self):
        xs = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 30.0, 80), [math.inf]])
        for f in (inverse_jeffreys, jeffreys_bound):
            values = f(xs)
            assert isinstance(values, np.ndarray) and values.shape == xs.shape
            for x, v in zip(xs, values):
                got = f(float(x))
                assert type(got) is float and got == v

    def test_jeffreys_substitution_meets_the_solver_preconditions(self):
        # with eps = tanh s, sqrt(J / 2) = sqrt(s tanh s) must be increasing
        # and concave with sqrt(s tanh s) <= s, so the climb starts below the root
        s = np.geomspace(1e-6, 30.0, 800)
        h, slope = bounds_mod._jeffreys_h_slope(s)
        assert np.all(np.diff(h) > 0.0) and np.all(slope > 0.0)
        assert np.all(np.diff(slope) <= 0.0)
        assert np.all(h <= s)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            inverse_exact_kl(-1.0)
        with pytest.raises(ValueError):
            inverse_exact_kl(np.array([0.5, -1e-300]))
        with pytest.raises(ValueError):
            inverse_jeffreys(-1.0)

    @pytest.mark.parametrize("f", [inverse_jeffreys, jeffreys_bound, inverse_exact_kl])
    def test_nan_rejected(self, f):
        with pytest.raises(ValueError):
            f(math.nan)
        with pytest.raises(ValueError):
            f(np.array([0.5, math.nan]))

    def test_both_inverses_strictly_increasing(self):
        xs = np.linspace(1e-4, 2.0, 40)
        assert np.all(np.diff(inverse_exact_kl(xs)) > 0.0)
        assert np.all(np.diff(inverse_jeffreys(xs)) > 0.0)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize(
    "f, bad, message",
    [
        (exact_kl_min, 1.5, "eps=1.5 outside [0, 1)"),
        (inverse_exact_kl, -2.5, "x=-2.5 must be nonnegative"),
        (inverse_jeffreys, -2.5, "x=-2.5 must be nonnegative"),
        (lambda x: bound_curve("tv", x), 1.5, "grid point eps=1.5 outside [0, 1]"),
    ],
    ids=["exact_kl_min", "inverse_exact_kl", "inverse_jeffreys", "bound_curve"],
)
def test_domain_error_names_the_first_bad_value(f, bad, message):
    # the message names the first value outside the domain, not the whole
    # argument, however long; a NaN later on is not the one named
    values = [0.5] * 10**5
    values[4321], values[-1] = bad, math.nan
    with pytest.raises(ValueError) as err:
        f(values)
    assert str(err.value) == message


class TestCurveLayer:
    """The FHT branches evaluated per point, and the climb's stopping pass as output."""

    def test_climb_returns_the_evaluation_at_its_root(self):
        v = 2.0 * np.concatenate([np.geomspace(1e-9, 0.5, 40), np.linspace(0.5, 1.0 - 1e-9, 40)])
        t, ev = bounds_mod._climb(bounds_mod._fht, v, np.where(v < 1.0, v, 1.0 / (2.0 - v)))
        assert [_bits(a) for a in ev] == [_bits(a) for a in bounds_mod._fht(t)]
        target = np.sqrt(2.0 * np.geomspace(1e-12, 20.0, 80))
        t, ev = bounds_mod._climb(bounds_mod._fht_g_slope, target, target)
        assert [_bits(a) for a in ev] == [_bits(a) for a in bounds_mod._fht_g_slope(t)]

    def test_one_sided_grids_evaluate_one_branch(self, monkeypatch):
        calls = {"series": 0, "far": 0}

        def counted(name, f):
            def wrapped(t):
                calls[name] += 1
                return f(t)
            return wrapped

        monkeypatch.setattr(bounds_mod, "_fht_series", counted("series", bounds_mod._fht_series))
        monkeypatch.setattr(bounds_mod, "_fht_far", counted("far", bounds_mod._fht_far))
        # every root lies below t = 2, where V(2) / 2 = 0.711 and L(2) = 1.175
        exact_kl_min(np.linspace(0.01, 0.7, 50))
        inverse_exact_kl(np.geomspace(1e-6, 1.17, 50))
        tightened_bound(np.geomspace(1e-6, 1.0, 50))
        assert calls["series"] > 0 and calls["far"] == 0
        calls["series"] = 0
        # sqrt(2 x) >= 2 starts every climb, and so every iterate, at t >= 2
        inverse_exact_kl(np.linspace(2.0, 30.0, 50))
        assert calls["far"] > 0 and calls["series"] == 0
        calls["far"] = 0
        bounds_mod._fht(np.array([1.0, 3.0]))
        assert calls["series"] == 1 and calls["far"] == 1

    def test_points_near_the_switch_match_alone_and_in_a_mixed_grid(self):
        v2, _, l2 = (float(a[0]) for a in bounds_mod._fht(np.array([bounds_mod._T_SERIES])))
        ulps = np.arange(-6, 7)
        eps = np.concatenate([[0.1], 0.5 * v2 + ulps * np.spacing(0.5 * v2), [0.95]])
        x = np.concatenate([[0.01], l2 + ulps * np.spacing(l2), [5.0]])
        # the roots straddle the switch, so the grids mix both branches
        v = 2.0 * eps
        t, _ = bounds_mod._climb(bounds_mod._fht, v, np.where(v < 1.0, v, 1.0 / (2.0 - v)))
        assert np.any(t[1:-1] < bounds_mod._T_SERIES) and np.any(t[1:-1] >= bounds_mod._T_SERIES)
        for f, grid in ((exact_kl_min, eps), (inverse_exact_kl, x)):
            values = f(grid)
            assert [_bits(f(float(g))) for g in grid] == [_bits(v) for v in values]
            assert [_bits(f(grid[i:i + 1])) for i in range(len(grid))] == [_bits(v) for v in values]

    def test_empty_zero_and_saturated_inputs(self):
        empty = np.array([])
        for f in (exact_kl_min, inverse_exact_kl, inverse_jeffreys):
            assert f(empty).shape == (0,)
            assert f(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
            assert f(0.0) == 0.0
        t, ev = bounds_mod._climb(bounds_mod._fht, empty, empty)
        assert t.shape == (0,) and all(a.shape == (0,) for a in ev)
        assert inverse_exact_kl(np.array([0.0, 50.0, math.inf])).tolist() == [0.0, 1.0 - 1e-9, 1.0 - 1e-9]
        assert inverse_jeffreys(np.array([0.0, 50.0, math.inf])).tolist() == [0.0, 1.0 - 1e-12, 1.0 - 1e-12]


class TestExtremalPair:
    def test_zero_two_point(self):
        p, q = extremal_pair(0.0, "two_point")
        np.testing.assert_allclose(p.mass, [0.5, 0.5])
        np.testing.assert_allclose(q.mass, [0.5, 0.5])

    def test_three_point(self):
        p, q = extremal_pair(0.4, "three_point")
        np.testing.assert_allclose(p.mass, [0.4, 0.6, 0.0])
        np.testing.assert_allclose(q.mass, [0.0, 0.6, 0.4])

    def test_boundary(self):
        p, q = extremal_pair(1.0, "two_point")
        np.testing.assert_allclose(p.mass, [0.0, 1.0])
        np.testing.assert_allclose(q.mass, [1.0, 0.0])

    @pytest.mark.parametrize("kind", ["two_point", "three_point"])
    def test_tv_matches_eps(self, kind):
        for eps in EPS_GRID:
            p, q = extremal_pair(eps, kind)
            assert total_variation(p, q) == pytest.approx(eps, abs=1e-12)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            extremal_pair(0.5, "four_point")

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            extremal_pair(1.5, "two_point")


@pytest.mark.parametrize("eps", EPS_GRID)
def test_attainment_on_designated_pairs(eps):
    two = extremal_pair(eps, "two_point")
    three = extremal_pair(eps, "three_point")
    assert bhattacharyya(*two) == pytest.approx(bound_curve("bhattacharyya_upper", eps), abs=1e-9)
    assert bhattacharyya(*three) == pytest.approx(bound_curve("bhattacharyya_lower", eps), abs=1e-9)
    assert chernoff_information(*two) == pytest.approx(bound_curve("chernoff", eps), abs=1e-9)
    for name in ("capacitory", "jeffreys"):
        assert f_divergence(REGISTRY[name], *two) == pytest.approx(bound_curve(name, eps), abs=1e-9)


class TestBoundCurve:
    def test_known_values(self):
        values = bound_curve("chernoff", [0.0, 0.5])
        assert isinstance(values, np.ndarray) and values.dtype == float and values.shape == (2,)
        assert values[0] == 0.0
        assert values[1] == pytest.approx(-0.5 * math.log1p(-0.25), abs=1e-12)

    def test_values_align_with_the_grid_in_any_order(self):
        grid = [0.7, 0.2, 1.0, 0.2]
        assert bound_curve("tv", grid).tolist() == grid
        assert bound_curve("jeffreys", grid).tolist() == [
            bound_curve("jeffreys", e) for e in grid
        ]

    def test_inf_only_at_one(self, monkeypatch):
        assert issubclass(BoundViolationError, DivboundError)

        def force(closed_form, at_one):
            m = dataclasses.replace(MEASURES["tv"], closed_form=closed_form, at_one=at_one)
            monkeypatch.setitem(MEASURES, "tv", m)

        force(lambda eps: np.where(eps == 0.5, np.inf, eps), math.inf)
        assert bound_curve("tv", [0.25, 1.0]).tolist() == [0.25, math.inf]
        with pytest.raises(BoundViolationError, match=r"value inf at eps=0\.5; only eps = 1 may"):
            bound_curve("tv", [0.25, 0.5, 1.0])
        force(lambda eps: eps, math.nan)
        with pytest.raises(BoundViolationError, match=r"value nan at eps=1\.0"):
            bound_curve("tv", [0.5, 1.0])
        force(lambda eps: np.full_like(eps, np.nan), 1.0)
        with pytest.raises(BoundViolationError, match=r"value nan at eps=0\.5"):
            bound_curve("tv", [0.5])
        with pytest.raises(BoundViolationError, match=r"value nan at eps=0\.5"):
            bound_curve("tv", 0.5)

    @pytest.mark.parametrize("name", ["tv", "exact_kl"])
    def test_grid_outside_unit_interval(self, name):
        with pytest.raises(ValueError, match=r"grid point eps=1\.5 outside \[0, 1\]"):
            bound_curve(name, [0.0, 0.5, 1.0, 1.5, 2.0])
        with pytest.raises(ValueError, match=r"eps=-0\.1 "):
            bound_curve(name, [-0.1, 0.5])

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            bound_curve("nope", [0.1])

    def test_exact_kl_curve_inf_at_one(self):
        assert bound_curve("exact_kl", [0.5, 1.0])[1] == math.inf
