import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyaplab.projective import (DIR_INF, DIR_ZERO, HEMISPHERE_CENTER,
                                HEMISPHERE_RADIUS, IDENTITY, Mat2, ProjPoint,
                                ROTATION_GENERATOR, Sl2Element, chart,
                                expansion_coeff, exp_sl2, mobius_act,
                                spherical_dist)


def random_sl2(rng) -> Mat2:
    # exp of a random sl(2,C) element is exactly unimodular up to roundoff
    b = Sl2Element(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
    return exp_sl2(b, 0.6)


def random_dir(rng) -> ProjPoint:
    v = rng.normal(size=4)
    return ProjPoint(complex(v[0], v[1]), complex(v[2], v[3]))


class TestMat2:
    def test_determinant_and_inverse(self):
        m = Mat2(2.0, 1.0, 3.0, 2.0)
        assert m.det() == 1.0
        prod = m @ m.inv()
        assert abs(prod.a11 - 1) < 1e-15 and abs(prod.a12) < 1e-15

    def test_require_sl2_rejects(self):
        with pytest.raises(ValueError):
            Mat2(2.0, 0.0, 0.0, 2.0).require_sl2()

    def test_opnorm_diagonal(self):
        assert abs(Mat2(2.0, 0.0, 0.0, 0.5).opnorm() - 2.0) < 1e-14

    def test_opnorm_matches_numpy_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = random_sl2(rng)
            arr = np.array([[m.a11, m.a12], [m.a21, m.a22]])
            assert abs(m.opnorm() - np.linalg.norm(arr, 2)) < 1e-12 * m.opnorm()


class TestProjPoint:
    def test_normalized(self):
        p = ProjPoint(3.0, 4.0)
        assert abs(abs(p.x) ** 2 + abs(p.y) ** 2 - 1.0) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ProjPoint(0.0, 0.0)

    def test_extreme_scales_normalize(self):
        tiny = ProjPoint(1e-200, 0.0)
        assert spherical_dist(tiny, DIR_INF) < 1e-14
        huge = ProjPoint(1e200 + 0j, 1.0)
        assert abs(abs(huge.x) ** 2 + abs(huge.y) ** 2 - 1.0) < 1e-12
        with pytest.raises(ValueError):
            ProjPoint(float("inf"), 1.0)

    def test_projective_equality_up_to_phase(self):
        p = ProjPoint(1.0 + 2.0j, -0.5j)
        q = ProjPoint((1.0 + 2.0j) * (0.3 - 0.7j), -0.5j * (0.3 - 0.7j))
        assert spherical_dist(p, q) < 1e-12


class TestMobius:
    def test_identity_fixes_everything(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_dir(rng)
            assert spherical_dist(mobius_act(IDENTITY, m), m) < 1e-14

    def test_quarter_turn_swaps_axes(self):
        r = Mat2(0.0, -1.0, 1.0, 0.0)
        assert spherical_dist(mobius_act(r, DIR_ZERO), DIR_INF) < 1e-14

    def test_diagonal_on_chart(self):
        a = Mat2(2.0, 0.0, 0.0, 0.5)
        out = mobius_act(a, ProjPoint(1.0, 1.0))
        assert abs(chart(out) - 4.0) < 1e-13

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_action_is_a_homomorphism(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_sl2(rng), random_sl2(rng)
        m = random_dir(rng)
        lhs = mobius_act(a @ b, m)
        rhs = mobius_act(a, mobius_act(b, m))
        assert spherical_dist(lhs, rhs) < 1e-9

    def test_homomorphism_thousand_seeded_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            a, b = random_sl2(rng), random_sl2(rng)
            m = random_dir(rng)
            assert spherical_dist(mobius_act(a @ b, m),
                                  mobius_act(a, mobius_act(b, m))) < 1e-9


class TestSphericalDist:
    def test_zero_on_equal(self):
        m = ProjPoint(0.3 + 0.1j, 0.8)
        assert spherical_dist(m, m) == 0.0

    def test_antipodal_axes(self):
        assert abs(spherical_dist(DIR_ZERO, DIR_INF) - 1.0) < 1e-15

    def test_real_pm_one_charts_are_antipodal(self):
        assert abs(spherical_dist(ProjPoint(1.0, 1.0), ProjPoint(1.0, -1.0)) - 1.0) < 1e-12

    def test_unit_scalar_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m1, m2 = random_dir(rng), random_dir(rng)
            d = spherical_dist(m1, m2)
            phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            m1s = ProjPoint(m1.x * phase, m1.y * phase)
            assert abs(spherical_dist(m1s, m2) - d) < 1e-12


class TestExpansionCoeff:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert abs(expansion_coeff(IDENTITY, random_dir(rng))) < 1e-14

    def test_eigen_directions_of_diagonal(self):
        a = Mat2(2.0, 0.0, 0.0, 0.5)
        assert abs(expansion_coeff(a, DIR_INF) - math.log(2.0)) < 1e-14
        assert abs(expansion_coeff(a, DIR_ZERO) + math.log(2.0)) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_cocycle_identity(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_sl2(rng), random_sl2(rng)
        m = random_dir(rng)
        lhs = expansion_coeff(a @ b, m)
        rhs = expansion_coeff(a, mobius_act(b, m)) + expansion_coeff(b, m)
        assert abs(lhs - rhs) < 1e-9

    def test_cocycle_identity_thousand_seeded_pairs(self):
        rng = np.random.default_rng(2025)
        for _ in range(1000):
            a, b = random_sl2(rng), random_sl2(rng)
            m = random_dir(rng)
            lhs = expansion_coeff(a @ b, m)
            rhs = expansion_coeff(a, mobius_act(b, m)) + expansion_coeff(b, m)
            assert abs(lhs - rhs) < 1e-9

    def test_inverse_cancels(self):
        rng = np.random.default_rng(7)
        a = random_sl2(rng)
        m = random_dir(rng)
        total = expansion_coeff(a, m) + expansion_coeff(a.inv(), mobius_act(a, m))
        assert abs(total) < 1e-12


class TestExpSl2:
    def test_zero_scalar_gives_identity(self):
        b = Sl2Element(0.3, -1.1, 0.7)
        m = exp_sl2(b, 0.0)
        assert abs(m.a11 - 1) < 1e-15 and abs(m.a12) < 1e-15

    def test_rotation_generator(self):
        theta = 0.77
        m = exp_sl2(ROTATION_GENERATOR, theta)
        assert abs(m.a11 - math.cos(theta)) < 1e-14
        assert abs(m.a12 - math.sin(theta)) < 1e-14
        assert abs(m.a21 + math.sin(theta)) < 1e-14

    def test_diagonal_generator(self):
        m = exp_sl2(Sl2Element(1.0, 0.0, 0.0), 1.0)
        assert abs(m.a11 - math.e) < 1e-14
        assert abs(m.a22 - 1.0 / math.e) < 1e-15

    def test_series_branch_matches_closed_form(self):
        # |delta| just below and above the switch must agree smoothly
        b = Sl2Element(0.6, -0.3, 0.2)
        for s in (1e-5, 9.9e-5, 1.1e-4, 1e-3):
            m = exp_sl2(b, s)
            delta = cmath.sqrt(complex(s * s) * (b.b1 ** 2 + b.b2 * b.b3))
            ch = cmath.cosh(delta)
            assert abs(m.a11 - (ch + cmath.sinh(delta) / delta * s * b.b1)) < 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_one_parameter_group(self, seed):
        rng = np.random.default_rng(seed)
        b = Sl2Element(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        s, t = rng.uniform(-2, 2, 2)
        lhs = exp_sl2(b, s + t)
        rhs = exp_sl2(b, s) @ exp_sl2(b, t)
        for u, v in ((lhs.a11, rhs.a11), (lhs.a12, rhs.a12),
                     (lhs.a21, rhs.a21), (lhs.a22, rhs.a22)):
            assert abs(u - v) < 1e-9 * max(1.0, abs(u))

    def test_always_unimodular(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            b = Sl2Element(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
            assert exp_sl2(b, rng.uniform(-2, 2)).det_defect() < 1e-10


class TestChart:
    def test_horizontal_first_chart_is_infinite(self):
        assert cmath.isinf(chart(ProjPoint(1.0, 0.0), "first"))

    def test_horizontal_second_chart_is_zero(self):
        assert chart(ProjPoint(1.0, 0.0), "second") == 0.0

    def test_hemisphere_center(self):
        assert abs(chart(ProjPoint(1j, 1.0), "first") - 1j) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_dir(rng)
            c = chart(m, "first")
            back = ProjPoint.from_chart(c)
            assert spherical_dist(back, m) < 1e-12


def test_hemisphere_radius_is_distance_to_real_directions():
    # pins the chordal-disk representation of the hemisphere cone
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = rng.uniform(0, math.pi)
        real_dir = ProjPoint(math.cos(t), math.sin(t))
        d = spherical_dist(HEMISPHERE_CENTER, real_dir)
        assert abs(d - HEMISPHERE_RADIUS) < 1e-12
    assert abs(HEMISPHERE_RADIUS - 2.0 ** -0.5) < 1e-15
