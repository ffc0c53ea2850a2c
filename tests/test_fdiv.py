import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import divbound
import divbound.fdiv as fdiv
from divbound.dist import make_dist, total_variation
from divbound.errors import BoundViolationError
from divbound.fdiv import (
    batch_bhattacharyya,
    batch_f_divergence,
    bhattacharyya,
    chernoff_information,
    f_divergence,
)
from divbound.generators import REGISTRY, FGenerator

from util import as_dist, random_pairs_with_zeros, random_positive_pairs

P_HALF = make_dist(["a", "b"], [0.5, 0.5])
Q_QUARTER = make_dist(["a", "b"], [0.25, 0.75])


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_identical_arguments_give_zero(name):
    d = make_dist(["a", "b", "c"], [0.2, 0.5, 0.3])
    assert f_divergence(REGISTRY[name], d, d) == pytest.approx(0.0, abs=1e-12)


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
    gen = REGISTRY["total_variation"]
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
        for gen in REGISTRY.values():
            vals = batch_f_divergence(gen, pm, qm)
            assert np.all(vals >= -1e-12)


def test_symmetric_generators_are_symmetric():
    rng = np.random.default_rng(23)
    names = [n for n, g in REGISTRY.items() if g.symmetry_constant is not None]
    for k in (2, 4, 6):
        pm, qm = random_positive_pairs(rng, 200, k)
        for name in names:
            gen = REGISTRY[name]
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
    chi = batch_f_divergence(REGISTRY["chi_squared"], pm, qm)
    direct = (pm * pm / qm).sum(axis=1) - 1.0
    np.testing.assert_allclose(chi, direct, atol=1e-10, rtol=0)


def test_dual_chi_squared_swaps_arguments():
    rng = np.random.default_rng(41)
    pm, qm = random_positive_pairs(rng, 200, 3)
    dual = batch_f_divergence(REGISTRY["dual_chi_squared"], pm, qm)
    swapped = batch_f_divergence(REGISTRY["chi_squared"], qm, pm)
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
        h2 = batch_f_divergence(REGISTRY["squared_hellinger"], pm, qm)
        np.testing.assert_allclose(z, 1.0 - h2 / 2.0, atol=1e-12, rtol=0)


class TestChernoff:
    def test_identical(self):
        d = make_dist(["a", "b"], [0.4, 0.6])
        assert chernoff_information(d, d, tol=1e-10) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_pair(self):
        eps = 0.5
        p = make_dist(["a", "b"], [(1 - eps) / 2, (1 + eps) / 2])
        q = make_dist(["a", "b"], [(1 + eps) / 2, (1 - eps) / 2])
        expected = -0.5 * math.log1p(-eps * eps)
        assert chernoff_information(p, q, tol=1e-10) == pytest.approx(
            expected, abs=1e-9
        )

    def test_disjoint_supports(self):
        p = make_dist(["a", "b"], [1.0, 0.0])
        q = make_dist(["a", "b"], [0.0, 1.0])
        assert chernoff_information(p, q) == math.inf

    def test_tol_must_be_positive(self):
        d = make_dist(["a", "b"], [0.4, 0.6])
        with pytest.raises(ValueError):
            chernoff_information(d, d, tol=0.0)

    def test_dominates_bhattacharyya_exponent(self):
        rng = np.random.default_rng(47)
        tol = 1e-8
        for k in (2, 3, 5):
            pm, qm = random_positive_pairs(rng, 100, k)
            for a, b in zip(pm, qm):
                p, q = as_dist(a), as_dist(b)
                c = chernoff_information(p, q, tol=tol)
                assert c >= -math.log(bhattacharyya(p, q)) - tol


def test_alignment_across_alphabets():
    p = make_dist(["a", "b"], [0.5, 0.5])
    q = make_dist(["b", "c"], [0.5, 0.5])
    # union alphabet (a, b, c): KL hits the q-zero at 'a'
    assert f_divergence(REGISTRY["kl"], p, q) == math.inf
    assert bhattacharyya(p, q) == pytest.approx(0.5, abs=1e-15)


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
            from divbound.errors import BoundViolationError
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
        def search(g, lo, hi, tol):
            return lo, np.full(lo.shape, gmin)

        monkeypatch.setattr(fdiv, "golden_section_min", search)
        with pytest.raises(BoundViolationError, match=message):
            fdiv.batch_chernoff([[0.5, 0.5]], [[0.25, 0.75]])
