import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyaplab.bases import (BernoulliShift, CirclePoint, CircleRotation,
                           CylinderTable, FamilyMismatch, IntegrationScheme,
                           PeriodicOrbits, PeriodicPoint, PeriodicTable,
                           ShiftPoint, TrigPolynomial, base_from_json,
                           base_to_json, combine, constant_potential, integrate,
                           potential_from_json, potential_to_json,
                           potential_value, sample_points, step, step_back,
                           uniform_stream)

GOLDEN = (math.sqrt(5) - 1) / 2


class TestBaseSystems:
    def test_periodic_step_wraps(self):
        base = PeriodicOrbits(((3, 1.0),))
        assert step(base, PeriodicPoint(0, 2)) == PeriodicPoint(0, 0)
        assert step_back(base, PeriodicPoint(0, 0)) == PeriodicPoint(0, 2)

    def test_rotation_step(self):
        base = CircleRotation(0.25)
        assert abs(step(base, CirclePoint(0.9)).x - 0.15) < 1e-15

    def test_shift_step_moves_window(self):
        base = BernoulliShift(2, (0.5, 0.5))
        pt = ShiftPoint(seed=5, offset=0)
        w0 = base.window(pt, 5)
        w1 = base.window(step(base, pt), 4)
        assert list(w0[1:]) == list(w1)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PeriodicOrbits(((2, 0.4), (3, 0.7)))
        with pytest.raises(ValueError):
            BernoulliShift(2, (0.6, 0.6))

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatch):
            step(CircleRotation(0.3), PeriodicPoint(0, 0))

    def test_rationality_flag(self):
        assert CircleRotation(0.25).alpha_rational_flag
        assert CircleRotation(1 / 3).alpha_rational_flag
        assert CircleRotation(355 / 1130).alpha_rational_flag
        assert not CircleRotation(GOLDEN).alpha_rational_flag
        assert not CircleRotation(math.sqrt(2) - 1).alpha_rational_flag


class TestSymbolStream:
    def test_deterministic_and_pure(self):
        a = uniform_stream(42, -7, 20)
        b = uniform_stream(42, -7, 20)
        assert np.array_equal(a, b)

    def test_window_consistency_across_offsets(self):
        # reading [3, 13) must equal the tail of [0, 13)
        a = uniform_stream(9, 0, 13)
        b = uniform_stream(9, 3, 10)
        assert np.array_equal(a[3:], b)

    def test_two_sided(self):
        vals = uniform_stream(1, -5, 10)
        assert len(vals) == 10 and np.all((0 <= vals) & (vals < 1))

    def test_roughly_uniform(self):
        vals = uniform_stream(123, 0, 20000)
        assert abs(vals.mean() - 0.5) < 0.01


class TestPotentials:
    def test_periodic_table_eval(self):
        base = PeriodicOrbits(((2, 1.0),))
        pot = PeriodicTable(((1.0, -2.0),))
        assert potential_value(pot, base, PeriodicPoint(0, 1)) == -2.0

    def test_trig_polynomial_eval(self):
        pot = TrigPolynomial(const=1.0, cos=(2.0,), sin=(0.0, 3.0))
        x = 0.2
        want = 1.0 + 2.0 * math.cos(2 * math.pi * x) + 3.0 * math.sin(4 * math.pi * x)
        assert abs(potential_value(pot, CircleRotation(GOLDEN), CirclePoint(x)) - want) < 1e-14

    def test_cylinder_eval(self):
        base = BernoulliShift(2, (0.5, 0.5))
        pot = CylinderTable(2, 2, (10.0, 20.0, 30.0, 40.0))
        pt = ShiftPoint(seed=3, offset=0)
        w = base.window(pt, 2)
        want = pot.table[2 * w[0] + w[1]]
        assert potential_value(pot, base, pt) == want

    def test_combine_linear(self):
        base = PeriodicOrbits(((2, 1.0),))
        a = PeriodicTable(((1.0, 2.0),))
        b = PeriodicTable(((10.0, 20.0),))
        c = combine([(2.0, a), (0.5, b), (1.0, 3.0)])
        assert c.tables[0] == (2.0 + 5.0 + 3.0, 4.0 + 10.0 + 3.0)

    def test_combine_trig_promotes_constants(self):
        c = combine([(1.0, TrigPolynomial(cos=(1.0,))), (2.0, 1.5)])
        assert c.const == 3.0 and c.cos == (1.0,)

    def test_combine_rejects_cross_family(self):
        with pytest.raises(FamilyMismatch):
            combine([(1.0, TrigPolynomial()), (1.0, PeriodicTable(((0.0,),)))])

    def test_cylinder_depth_promotion(self):
        a = CylinderTable(2, 1, (1.0, 2.0))
        b = CylinderTable(2, 2, (10.0, 20.0, 30.0, 40.0))
        c = combine([(1.0, a), (1.0, b)])
        assert c.depth == 2
        assert c.table == (11.0, 21.0, 32.0, 42.0)

    def test_trig_sup_norm_bounds(self):
        pot = TrigPolynomial(const=0.5, cos=(1.0,), sin=(0.25,))
        lower, upper = pot.sup_norm_bounds()
        assert lower <= upper
        assert abs(upper - 1.75) < 1e-14
        assert lower > 1.0

    def test_table_sup_norm_exact(self):
        pot = PeriodicTable(((1.0, -3.0),))
        assert pot.sup_norm_bounds() == (3.0, 3.0)


class TestIntegration:
    def test_periodic_exact(self):
        base = PeriodicOrbits(((1, 0.25), (3, 0.75)))
        val, err = integrate(base, lambda pt: 2.5)
        assert val == 2.5 and err == 0.0

    def test_periodic_weighted(self):
        base = PeriodicOrbits(((1, 0.5), (2, 0.5)))
        val, err = integrate(base, lambda pt: float(pt.orbit))
        assert val == 0.5 and err == 0.0

    def test_rotation_equidistribution(self):
        base = CircleRotation(GOLDEN)
        val, err = integrate(base, lambda pt: math.cos(2 * math.pi * pt.x),
                             IntegrationScheme(n=100_000))
        assert abs(val) < 1e-4

    def test_shift_monte_carlo(self):
        base = BernoulliShift(2, (0.5, 0.5))
        val, err = integrate(base, lambda pt: float(base.window(pt, 1)[0]),
                             IntegrationScheme(samples=4096, seed=7))
        assert abs(val - 0.5) < 3 * err

    def test_monte_carlo_reproducible(self):
        base = BernoulliShift(3, (0.2, 0.3, 0.5))
        obs = lambda pt: float(base.window(pt, 2).sum())
        a = integrate(base, obs, IntegrationScheme(samples=512, seed=3))
        b = integrate(base, obs, IntegrationScheme(samples=512, seed=3))
        assert a == b

    @pytest.mark.parametrize("family", ["periodic", "rotation", "shift"])
    def test_mu_invariance(self, family):
        if family == "periodic":
            base = PeriodicOrbits(((3, 0.5), (2, 0.5)))
            obs = lambda pt: float(pt.phase ** 2 + pt.orbit)
            scheme = IntegrationScheme()
            slack = 0.0
        elif family == "rotation":
            base = CircleRotation(GOLDEN)
            obs = lambda pt: math.sin(2 * math.pi * pt.x) + 0.3
            scheme = IntegrationScheme(n=8192, seed=5)
            slack = 4.0 * 1.3 / scheme.n
        else:
            base = BernoulliShift(2, (0.3, 0.7))
            obs = lambda pt: float(base.window(pt, 2)[0] * 2 + base.window(pt, 2)[1])
            scheme = IntegrationScheme(samples=2048, seed=5)
            slack = 0.0
        direct, e1 = integrate(base, obs, scheme)
        pushed, e2 = integrate(base, lambda pt: obs(step(base, pt)), scheme)
        assert abs(direct - pushed) <= 3 * (e1 + e2) + slack + 1e-12


class TestSamplePoints:
    def test_periodic_enumerates_orbits(self):
        base = PeriodicOrbits(((2, 0.5), (3, 0.5)))
        assert len(sample_points(base, 99, 0)) == 5

    def test_rotation_grid_size(self):
        assert len(sample_points(CircleRotation(GOLDEN), 64, 1)) == 64

    def test_shift_seeded(self):
        base = BernoulliShift(2, (0.5, 0.5))
        a = sample_points(base, 8, 3)
        b = sample_points(base, 8, 3)
        assert a == b


class TestJsonSchema:
    @pytest.mark.parametrize("base", [
        PeriodicOrbits(((2, 0.25), (5, 0.75))),
        CircleRotation(GOLDEN),
        BernoulliShift(3, (0.2, 0.3, 0.5)),
    ])
    def test_base_round_trip(self, base):
        assert base_from_json(base_to_json(base)) == base

    @pytest.mark.parametrize("pot", [
        PeriodicTable(((1.0, -2.0), (0.5,))),
        TrigPolynomial(const=1.0, cos=(0.5, 0.0, 1j), sin=(2.0,)),
        CylinderTable(2, 2, (1.0, 2.0, 3.0, 4.0 + 1j)),
    ])
    def test_potential_round_trip(self, pot):
        assert potential_from_json(potential_to_json(pot)) == pot

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            base_from_json({"family": "torus_translation"})


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_constant_potential_is_constant(n, seed):
    base = PeriodicOrbits(((n, 1.0),))
    pot = constant_potential(base, 2.5)
    rng = np.random.default_rng(seed)
    pt = PeriodicPoint(0, int(rng.integers(0, n)))
    assert potential_value(pot, base, pt) == 2.5
