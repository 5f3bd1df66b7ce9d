import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyaplab.bases import (BernoulliShift, CircleRotation, CylinderTable,
                           IntegrationScheme, PeriodicOrbits, PeriodicPoint,
                           PeriodicTable, TrigPolynomial, constant_potential,
                           integrate, uniform_stream)
from lyaplab import cocycles
from lyaplab.cocycles import (MatrixFamilyEvaluator, SchrodingerFamilyEvaluator,
                              _blocks, _first_half_and_full, _product, _schrodinger_product,
                              ab_average_check, best_lyapunov, constant_cocycle,
                              direct_product, iterate_renormalized,
                              left_multiplied_cocycle, lyapunov_birkhoff,
                              lyapunov_fubini, lyapunov_periodic_exact,
                              matrix_cocycle, schrodinger_cocycle,
                              schrodinger_entry_cocycle)
from lyaplab.projective import Mat2, Sl2Element, exp_sl2, rotation

GOLDEN = (math.sqrt(5) - 1) / 2
PERIOD1 = PeriodicOrbits(((1, 1.0),))
LN_E3 = math.log((3 + math.sqrt(5)) / 2)

# independent oracle, recomputed here: brute-force power iteration of the
# constant complex monodromy [[-i, -1], [1, 0]] gives log of the golden ratio
LN_ENTRY_I = math.log((1 + math.sqrt(5)) / 2)


def test_entry_i_brute_force_oracle():
    m = np.array([[-1j, -1.0], [1.0, 0.0]])
    p = np.eye(2, dtype=complex)
    acc = 0.0
    for _ in range(3000):
        p = m @ p
        s = np.linalg.norm(p)
        p /= s
        acc += math.log(s)
    assert abs(acc / 3000 - LN_ENTRY_I) < 1e-3


class TestIterateRenormalized:
    def test_reconstructs_identity_product(self):
        c = constant_cocycle(PERIOD1, Mat2(1.0, 0.0, 0.0, 1.0))
        m, acc = iterate_renormalized(c, PeriodicPoint(0, 0), 1000)
        # M has unit Frobenius norm and M exp(acc) is the true product
        assert abs(m.frobenius() - 1.0) < 1e-12
        assert abs(m.a11 * math.exp(acc) - 1.0) < 1e-10

    def test_diagonal_power_norm(self):
        c = constant_cocycle(PERIOD1, Mat2(2.0, 0.0, 0.0, 0.5))
        m, acc = iterate_renormalized(c, PeriodicPoint(0, 0), 100)
        log_opnorm = acc + math.log(m.opnorm())
        assert abs(log_opnorm - 100 * math.log(2.0)) < 1e-9

    def test_free_schrodinger_order_four(self):
        c = schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 0.0), 0.0)
        m, acc = iterate_renormalized(c, PeriodicPoint(0, 0), 4)
        m_full = m.scale(math.exp(acc))
        assert abs(m_full.a11 - 1.0) < 1e-12 and abs(m_full.a12) < 1e-12
        assert abs(m_full.a21) < 1e-12 and abs(m_full.a22 - 1.0) < 1e-12

    def test_matches_direct_product_randomized(self):
        # renormalized vs direct product for n <= 40, 500 seeded cases
        rng = np.random.default_rng(42)
        base = PeriodicOrbits(((5, 1.0),))
        for _ in range(500):
            vals = tuple(rng.uniform(-2, 2, 5))
            c = schrodinger_cocycle(base, PeriodicTable((vals,)),
                                    float(rng.uniform(-2, 2)))
            n = int(rng.integers(1, 41))
            m, acc = iterate_renormalized(c, PeriodicPoint(0, 0), n)
            direct = direct_product(c, PeriodicPoint(0, 0), n)
            scale = math.exp(acc)
            for got, want in ((m.a11 * scale, direct.a11), (m.a12 * scale, direct.a12),
                              (m.a21 * scale, direct.a21), (m.a22 * scale, direct.a22)):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_rejects_zero_length(self):
        c = constant_cocycle(PERIOD1, Mat2(1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            iterate_renormalized(c, PeriodicPoint(0, 0), 0)


class TestLyapunovBirkhoff:
    def test_rotation_fiber_is_zero(self):
        c = constant_cocycle(PERIOD1, rotation(0.21))
        assert abs(lyapunov_birkhoff(c, 5000).value) < 1e-6

    def test_constant_diagonal(self):
        for base in (PERIOD1, CircleRotation(GOLDEN), BernoulliShift(2, (0.5, 0.5))):
            c = constant_cocycle(base, Mat2(2.0, 0.0, 0.0, 0.5))
            est = lyapunov_birkhoff(c, 200, samples=4, seed=0)
            assert abs(est.value - math.log(2.0)) < 1e-9

    def test_free_schrodinger_e3_on_rotation(self):
        gold = CircleRotation(GOLDEN)
        c = schrodinger_cocycle(gold, constant_potential(gold, 0.0), 3.0)
        est = lyapunov_birkhoff(c, 10_000, seed=0)
        assert abs(est.value - LN_E3) < 1e-3

    def test_nonnegative_up_to_slack(self):
        gold = CircleRotation(GOLDEN)
        c = schrodinger_cocycle(gold, TrigPolynomial(cos=(0.9,)), 0.3)
        est = lyapunov_birkhoff(c, 4096, seed=2)
        assert est.value >= -est.stderr

    def test_periodic_convergence_rate(self):
        # trace-hyperbolic random potentials: |birkhoff - exact| <= 5/n
        rng = np.random.default_rng(7)
        n_iter = 512
        for _ in range(50):
            period = int(rng.integers(1, 6))
            vals = tuple(rng.uniform(2.5, 4.0, period))
            base = PeriodicOrbits(((period, 1.0),))
            c = schrodinger_entry_cocycle(base, PeriodicTable((vals,)))
            exact = lyapunov_periodic_exact(c).value
            approx = lyapunov_birkhoff(c, n_iter).value
            assert abs(approx - exact) <= 5.0 / n_iter


class TestLyapunovPeriodicExact:
    def test_elliptic_is_exactly_zero(self):
        c = schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 0.0), 1.0)
        assert lyapunov_periodic_exact(c).value == 0.0

    def test_free_hyperbolic_closed_form(self):
        c = schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 0.0), 3.0)
        assert abs(lyapunov_periodic_exact(c).value - LN_E3) < 1e-14

    def test_complex_entry_golden_modulus(self):
        c = schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 1j), 0.0)
        assert abs(lyapunov_periodic_exact(c).value - LN_ENTRY_I) < 1e-14

    def test_weighted_orbits(self):
        base = PeriodicOrbits(((1, 0.25), (1, 0.75)))
        pot = PeriodicTable(((-3.0,), (0.0,)))
        c = schrodinger_cocycle(base, pot, 0.0)
        assert abs(lyapunov_periodic_exact(c).value - 0.25 * LN_E3) < 1e-14

    def test_requires_periodic_base(self):
        c = constant_cocycle(CircleRotation(GOLDEN), Mat2(2.0, 0.0, 0.0, 0.5))
        with pytest.raises(TypeError):
            lyapunov_periodic_exact(c)


class TestLyapunovFubini:
    def test_identity_sequence(self):
        c = constant_cocycle(PERIOD1, Mat2(1.0, 0.0, 0.0, 1.0))
        seq = lyapunov_fubini(c, 6)
        assert abs(seq[0] - math.log(math.sqrt(2.0))) < 1e-14
        assert all(x >= y - 1e-12 for x, y in zip(seq, seq[1:]))
        assert seq[-1] < 1e-2

    def test_diagonal_upper_bounds(self):
        c = constant_cocycle(PERIOD1, Mat2(2.0, 0.0, 0.0, 0.5))
        seq = lyapunov_fubini(c, 8)
        assert all(x >= math.log(2.0) - 1e-12 for x in seq)
        assert all(x >= y - 1e-12 for x, y in zip(seq, seq[1:]))
        assert seq[-1] - math.log(2.0) < 1e-2

    def test_free_elliptic_decreases_to_zero(self):
        c = schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 0.0), 0.0)
        seq = lyapunov_fubini(c, 8)
        assert all(x >= y - 1e-12 for x, y in zip(seq, seq[1:]))
        assert seq[-1] < 1e-2

    def test_rejects_huge_doubling(self):
        c = constant_cocycle(PERIOD1, Mat2(1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            lyapunov_fubini(c, 21)


class TestAbAverage:
    def test_constant_rotation_fiber(self):
        c = constant_cocycle(PERIOD1, rotation(0.3))
        lhs, rhs = ab_average_check(c, theta_nodes=512)
        assert abs(lhs) < 1e-9 and abs(rhs) < 1e-12

    def test_diagonal_closed_form(self):
        c = constant_cocycle(PERIOD1, Mat2(2.0, 0.0, 0.0, 0.5))
        lhs, rhs = ab_average_check(c, theta_nodes=10_000)
        assert abs(rhs - math.log(1.25)) < 1e-12
        assert abs(lhs - rhs) <= 2e-3

    def test_free_isometric_schrodinger(self):
        c = schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 0.0), 0.0)
        lhs, rhs = ab_average_check(c, theta_nodes=1024)
        assert abs(rhs) < 1e-12 and abs(lhs) < 1e-9

    def test_period_two_identity(self):
        base = PeriodicOrbits(((2, 1.0),))
        c = schrodinger_cocycle(base, PeriodicTable(((0.4, -1.1),)), 0.7)
        lhs, rhs = ab_average_check(c, theta_nodes=8192)
        assert abs(lhs - rhs) <= 2e-3

    def test_requires_enough_nodes(self):
        c = constant_cocycle(PERIOD1, rotation(0.1))
        with pytest.raises(ValueError):
            ab_average_check(c, theta_nodes=8)

    def test_rejects_complex(self):
        # realness comes from the support, so a complex matrix_cocycle is caught too
        for c in (schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 1j), 0.0),
                  matrix_cocycle(PERIOD1, lambda pt: Mat2(2.0, 1j, 0.0, 0.5))):
            with pytest.raises(ValueError):
                ab_average_check(c)


class TestBatchedEvaluators:
    def test_periodic_batch_matches_scalar(self):
        base = PeriodicOrbits(((3, 1.0),))
        pot = PeriodicTable(((0.4, -0.9, 1.3),))
        ev = SchrodingerFamilyEvaluator(base, IntegrationScheme())
        sup_pot = ev.potential_support(pot)
        sup_one = ev.potential_support(constant_potential(base))
        assert all(s.dtype == np.float64 for s in sup_pot + sup_one)
        energies = np.array([3.5, -2.7, 0.3, 1j])
        entries = [energies[:, None] * o[None, :] - p[None, :]
                   for o, p in zip(sup_one, sup_pot)]
        vals, errs = ev.lyapunov_batch(entries)
        assert np.all(errs == 0.0)
        for e, got in zip(energies, vals):
            want = lyapunov_periodic_exact(schrodinger_cocycle(base, pot, e)).value
            assert abs(got - want) < 1e-12
        # realness is decided per array from its dtype: the elliptic E = 0.3
        # snaps to exactly 0 in a real batch, but inside this complex batch
        # it keeps its clamped roundoff; the hyperbolic lanes agree bit for bit
        real_vals, _ = ev.lyapunov_batch([e[:3].real for e in entries])
        assert real_vals[2] == 0.0 and 0.0 <= vals[2] < 1e-12
        assert np.array_equal(real_vals[:2], vals[:2])

    def test_rotation_batch_matches_scalar(self):
        gold = CircleRotation(GOLDEN)
        pot = TrigPolynomial(const=0.3, cos=(1.2, -0.4), sin=(0.55,))
        scheme = IntegrationScheme(n=4096, seed=0)
        ev = SchrodingerFamilyEvaluator(gold, scheme)
        entry = ev.potential_support(pot)
        one = ev.potential_support(constant_potential(gold))
        assert entry.dtype == np.float64 and one.dtype == np.float64
        vals, errs = ev.lyapunov_batch(0.7 * one[None, :] - entry[None, :])
        scalar = lyapunov_birkhoff(schrodinger_cocycle(gold, pot, 0.7),
                                   4096, seed=0)
        assert abs(vals[0] - scalar.value) < 1e-12

    def test_shift_batch_reproducible(self):
        base = BernoulliShift(2, (0.4, 0.6))
        pot = CylinderTable(2, 1, (0.5, -0.5))
        scheme = IntegrationScheme(n=256, samples=64, seed=9)
        ev = SchrodingerFamilyEvaluator(base, scheme)
        sup = ev.potential_support(pot)
        a = ev.lyapunov_batch((3.0 - sup)[None])
        b = SchrodingerFamilyEvaluator(base, scheme).lyapunov_batch((3.0 - sup)[None])
        assert a[0][0] == b[0][0] and a[1][0] == b[1][0]

    def test_shift_batch_deep_cylinder_matches_scalar(self):
        # depth > 1 forces the evaluator to extend its symbol windows
        base = BernoulliShift(2, (0.5, 0.5))
        pot = CylinderTable(2, 3, tuple(2.6 + 0.3 * k for k in range(8)))
        scheme = IntegrationScheme(n=128, samples=32, seed=4)
        ev = SchrodingerFamilyEvaluator(base, scheme)
        vals, _ = ev.lyapunov_batch(ev.potential_support(pot)[None])
        scalar = lyapunov_birkhoff(schrodinger_entry_cocycle(base, pot),
                                   128, samples=32, seed=4)
        assert abs(float(vals[0]) - scalar.value) < 1e-12

    def test_matrix_evaluator_left_factors(self):
        base = PeriodicOrbits(((2, 1.0),))
        c = schrodinger_cocycle(base, PeriodicTable(((0.2, -0.5),)), 1.2)
        ev = MatrixFamilyEvaluator(c, IntegrationScheme())
        boost = exp_sl2(Sl2Element(0.4, 0.0, 0.0))
        left = np.array([[[1, 0], [0, 1]],
                         [[boost.a11, boost.a12], [boost.a21, boost.a22]]],
                        dtype=complex)
        vals, _ = ev.lyapunov_batch(left)
        want0 = lyapunov_periodic_exact(c).value
        want1 = lyapunov_periodic_exact(left_multiplied_cocycle(c, boost)).value
        assert abs(vals[0] - want0) < 1e-12
        assert abs(vals[1] - want1) < 1e-12


BLOCK_BASES = {
    "periodic": (PeriodicOrbits(((3, 0.5), (2, 0.5))),
                 PeriodicTable(((0.4, -0.9, 1.3), (0.2, -0.5)))),
    "birkhoff": (CircleRotation(GOLDEN), TrigPolynomial(const=2.8, cos=(0.6,))),
    "monte_carlo": (BernoulliShift(2, (0.5, 0.5)), CylinderTable(2, 2, (2.6, 3.0, 3.3, 2.8))),
}


def test_blocks_tile_the_grid_within_budget(monkeypatch):
    monkeypatch.setattr(cocycles, "BLOCK_ELEMENTS", 100)
    for lanes, samples, length in [(7, 1, 30), (7, 1, 200), (5, 4, 30), (5, 4, 10),
                                   (3, 9, 30), (0, 4, 10), (1, 1, 100)]:
        seen = np.zeros((lanes, samples), dtype=int)
        for ls, ss in _blocks(lanes, samples, length):
            assert seen[ls, ss].size * length <= max(100, length)
            seen[ls, ss] += 1
        assert np.all(seen == 1)


@pytest.mark.parametrize("kind", sorted(BLOCK_BASES))
def test_blocked_evaluators_match_one_block(kind, monkeypatch):
    """Blocks of lanes (and of Monte Carlo samples) change no bit of any
    evaluator's output, and no block of the general evaluator exponentiates
    or multiplies out more than BLOCK_ELEMENTS factors at once."""
    from lyaplab import regularize
    from lyaplab.projective import ROTATION_GENERATOR
    base, pot = BLOCK_BASES[kind]
    scheme = IntegrationScheme(n=96, samples=12, seed=3)
    c = schrodinger_entry_cocycle(base, pot)
    zs = np.linspace(-0.9, 0.9, 7)
    left = np.array([[[m.a11, m.a12], [m.a21, m.a22]]
                     for m in (exp_sl2(Sl2Element(0.3 * z, 0.1, -0.2 * z)) for z in zs)])
    sizes = []
    for name in ("_exp_sl2", "_product"):
        inner = getattr(regularize, name)

        def spy(*x, inner=inner):
            sizes.append(np.size(x[0]))
            return inner(*x)

        monkeypatch.setattr(regularize, name, spy)

    def run():
        ev = SchrodingerFamilyEvaluator(base, scheme)
        sup, one = ev.potential_support(pot), ev.potential_support(constant_potential(base))
        gen = regularize.GeneralFamilyEvaluator(c, ROTATION_GENERATOR,
                                                Sl2Element(0.03, -0.02, 0.01), 0.3, scheme)
        return [ev.lyapunov_batch(ev.lane_entries(sup, (zs, one))),
                ev.lyapunov_batch(ev.lane_entries(sup, (zs + 0.5j, one))),
                MatrixFamilyEvaluator(c, scheme).lyapunov_batch(left),
                gen.lyapunov_batch(zs), gen.lyapunov_batch(zs + 0.2j, s=0.5)]

    monkeypatch.setattr(cocycles, "BLOCK_ELEMENTS", 1 << 30)
    whole = run()
    for budget in (10, 500):
        monkeypatch.setattr(cocycles, "BLOCK_ELEMENTS", budget)
        sizes.clear()
        for got, want in zip(run(), whole):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert sizes and max(sizes) <= max(budget, scheme.n)


# one base per family; the periodic table is real on its first orbit only
# under the complex energy, and the cylinder table has depth 2
ORACLE_BASES = {
    "periodic": (PeriodicOrbits(((3, 0.5), (2, 0.5))),
                 PeriodicTable(((0.4, -0.9, 1.3), (0.2, -0.5)))),
    "rotation": (CircleRotation(GOLDEN), TrigPolynomial(const=0.3, cos=(1.2, -0.4), sin=(0.55,))),
    "shift": (BernoulliShift(2, (0.4, 0.6)), CylinderTable(2, 2, (0.5, -0.5, 1.1, -0.2))),
}
BOOST = exp_sl2(Sl2Element(0.3, 0.2, -0.5))


def _oracle_cocycles(base, pot):
    """Schrodinger (elliptic, hyperbolic, complex), constant (elliptic and
    hyperbolic) and an x-dependent matrix_cocycle over base."""
    sch = schrodinger_cocycle(base, pot, 0.9)
    return ([schrodinger_cocycle(base, pot, e) for e in (0.3, 3.5, 0.7 + 0.4j)]
            + [constant_cocycle(base, rotation(0.137)), constant_cocycle(base, BOOST),
               matrix_cocycle(base, lambda pt: BOOST @ sch.fiber(pt) @ rotation(0.2))])


@pytest.mark.parametrize("kind", sorted(ORACLE_BASES))
def test_best_lyapunov_matches_scalar_oracle(kind):
    base, pot = ORACLE_BASES[kind]
    n, samples, seed = 512, 6, 3
    for c in _oracle_cocycles(base, pot):
        got = best_lyapunov(c, n=n, samples=samples, seed=seed)
        if kind == "periodic":
            want = lyapunov_periodic_exact(c)
        else:
            want = lyapunov_birkhoff(c, n, samples=samples if kind == "shift" else 1, seed=seed)
        assert (got.method, got.n, got.samples) == (want.method, want.n, want.samples)
        assert abs(got.value - want.value) <= 1e-12
        assert abs(got.stderr - want.stderr) <= 1e-12


def test_best_lyapunov_real_elliptic_orbits_are_exactly_zero():
    base, pot = ORACLE_BASES["periodic"]
    rot = constant_cocycle(base, rotation(0.137))
    assert best_lyapunov(rot).value == 0.0 == lyapunov_periodic_exact(rot).value
    # at E = 0.3 the period-3 table is elliptic: exactly 0, whatever the product order
    base3 = PeriodicOrbits(((3, 1.0),))
    c3 = schrodinger_cocycle(base3, PeriodicTable((pot.tables[0],)), 0.3)
    assert best_lyapunov(c3).value == 0.0 == lyapunov_periodic_exact(c3).value
    # the complex energy leaves no orbit real, so nothing snaps
    cz = schrodinger_cocycle(base3, PeriodicTable((pot.tables[0],)), 0.3 + 1e-3j)
    assert best_lyapunov(cz).value > 0.0


def _scalar_fubini(c, max_doubling, scheme):
    """The doubling sequence one point and one step at a time: the scalar
    `iterate_renormalized` averaged by `bases.integrate`."""
    out = []
    for m in range(max_doubling + 1):
        length = 2 ** m
        def obs(pt, length=length):
            _, acc = iterate_renormalized(c, pt, length)
            return acc / length
        val, _ = integrate(c.base, obs, scheme)
        out.append(val)
    return out


@pytest.mark.parametrize("kind, energy, scheme", [
    ("periodic", 0.9, IntegrationScheme()),
    ("rotation", 0.7, IntegrationScheme(n=64, seed=3)),
    ("rotation", 0.7 + 0.4j, IntegrationScheme(n=64, seed=3)),
    ("shift", 0.9, IntegrationScheme(samples=6, seed=3)),
    ("shift", 0.9, IntegrationScheme(samples=1, seed=3)),
], ids=["periodic", "rotation_real", "rotation_complex", "shift", "shift_one_sample"])
def test_fubini_kernel_matches_scalar_oracle(kind, energy, scheme):
    base, pot = ORACLE_BASES[kind]
    for c in (schrodinger_cocycle(base, pot, energy), constant_cocycle(base, BOOST)):
        got = lyapunov_fubini(c, 5, scheme)
        want = _scalar_fubini(c, 5, scheme)
        assert len(got) == len(want) == 6
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12


@pytest.mark.parametrize("kind", ["rotation", "shift"])
def test_ab_average_check_matches_per_theta_oracle(kind):
    """Left factors R_theta on the evaluator against the scalar exponent of
    x -> A(x) R_theta, one theta at a time."""
    base, pot = ORACLE_BASES[kind]
    c = schrodinger_cocycle(base, pot, 0.9)
    scheme = IntegrationScheme(n=256, samples=6, seed=5)
    nodes = 16
    lhs, rhs = ab_average_check(c, theta_nodes=nodes, scheme=scheme)
    per_theta = [lyapunov_birkhoff(matrix_cocycle(base, lambda pt, r=rotation(t): c.fiber(pt) @ r),
                                   scheme.n, samples=scheme.samples if kind == "shift" else 1,
                                   seed=scheme.seed).value
                 for t in (np.arange(nodes) + 0.5) / nodes]
    assert abs(lhs - float(np.mean(per_theta))) <= 1e-12
    want_rhs, _ = integrate(base, lambda pt: math.log(0.5 * (c.fiber(pt).opnorm()
                                                             + 1.0 / c.fiber(pt).opnorm())),
                            scheme)
    assert rhs == want_rhs


@pytest.mark.parametrize("kind", sorted(ORACLE_BASES))
@pytest.mark.parametrize("energy", [0.9, 0.9 + 0.2j])
def test_entry_support_matches_fiber_support(kind, energy):
    """MatrixFamilyEvaluator builds a Schrodinger support from one
    potential_support(entry) call; it equals the per-point fiber support bit
    for bit, dtype included, and so do the estimates."""
    base, pot = ORACLE_BASES[kind]
    if kind == "periodic":
        # complex on the second orbit only: realness is decided per orbit
        pot = PeriodicTable((pot.tables[0], (0.2 + 0.1j, -0.5)))
    c = schrodinger_cocycle(base, pot, energy)
    scheme = IntegrationScheme(n=64, samples=5, seed=2)
    by_entry = MatrixFamilyEvaluator(c, scheme)
    by_fiber = MatrixFamilyEvaluator(matrix_cocycle(base, c.fiber), scheme)
    assert len(by_entry.supports) == len(by_fiber.supports)
    for se, sf in zip(by_entry.supports, by_fiber.supports):
        for xe, xf in zip(se, sf):
            assert xe.dtype == xf.dtype and xe.shape == xf.shape and np.array_equal(xe, xf)
    if kind == "periodic":
        assert [s[0].dtype.kind for s in by_entry.supports] == (
            ["f", "c"] if energy.imag == 0.0 else ["c", "c"])
    left = np.stack([np.eye(2), [[1.1, 0.3], [0.0, 1 / 1.1]]])
    for got, want in zip(by_entry.lyapunov_batch(left), by_fiber.lyapunov_batch(left)):
        assert np.array_equal(got, want)


def test_fiber_unimodular_at_seeded_probes():
    # fiber determinant is exactly 1 by construction; spot check 1000 points
    from lyaplab.bases import CirclePoint
    gold = CircleRotation(GOLDEN)
    pot = TrigPolynomial(const=0.2, cos=(0.7,), sin=(0.1, 0.3))
    c = schrodinger_cocycle(gold, pot, 1.1)
    for u in uniform_stream(77, 0, 1000):
        m = c.fiber(CirclePoint(float(u)))
        assert m.det_defect() < 1e-10


# ---------------------------------------------------------------------------
# the component product kernel against the scalar oracle iterate_renormalized

_value = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False))
_small = st.one_of(st.just(0.0), st.floats(-1.5, 1.5, allow_nan=False))
_nonzero = st.floats(0.5, 2.0).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def _factor_stacks(draw):
    """(factors as (a, b, c, d) tuples, complex?, Schrodinger entries or None).

    General factors are scale * [[a, b], [c, (1 + b c) / a]] or
    scale * [[0, b], [-1 / b, 0]]; b, c and (1 + b c) / a may vanish."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(1, 40).map(lambda k: 2 * k + 1),
                       st.integers(1, 64)))
    cplx = draw(st.booleans())

    def number(part):
        return draw(part) + (1j * draw(_small) if cplx else 0.0)

    if draw(st.booleans()):
        entries = [number(_value) for _ in range(n)]
        return [(e, -1.0, 1.0, 0.0) for e in entries], cplx, entries
    scale = 10.0 ** draw(st.sampled_from([0, 0, 12, 40]))    # 10^40 per step passes 1e300
    mats = []
    for _ in range(n):
        if draw(st.integers(0, 3)):
            a, b, c = number(_nonzero), number(_small), number(_small)
            m = (a, b, c, (1.0 + b * c) / a)
        else:
            b = number(_nonzero)
            m = (0.0, b, -1.0 / b, 0.0)
        mats.append(tuple(scale * x for x in m))
    return mats, cplx, None


def _stack(mats, dtype):
    arr = np.array(mats, dtype=dtype)
    return tuple(arr[None, :, i] for i in range(4))


def _assert_matches_oracle(got, mats):
    n = len(mats)
    base = PeriodicOrbits(((n, 1.0),))
    c = matrix_cocycle(base, lambda pt: Mat2(*mats[pt.phase]))
    m, acc = iterate_renormalized(c, PeriodicPoint(0, 0), n)
    a, b, cc, d, logscale = (np.asarray(x).reshape(-1)[0] for x in got)
    hs = math.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(cc) ** 2 + abs(d) ** 2)
    # forward error of a product: n eps prod ||A_i|| / ||prod A_i||
    log_cond = sum(math.log(Mat2(*f).frobenius()) for f in mats) - acc
    tol = 16.0 * (n + 1) * 2.2e-16 * math.exp(min(log_cond, 700.0))
    # the log scales add n rounded logs, so the log norm also moves with |acc|
    assert abs(logscale + math.log(hs) - acc) <= tol + 16.0 * 2.2e-16 * abs(acc)
    for x, y in zip((a, b, cc, d), (m.a11, m.a12, m.a21, m.a22)):
        assert abs(x / hs - y) <= tol
    if n <= 8 and acc < 100.0:
        want = direct_product(c, PeriodicPoint(0, 0), n)
        for x, y in zip((a, b, cc, d), (want.a11, want.a12, want.a21, want.a22)):
            assert abs(x * math.exp(logscale) - y) <= tol * math.exp(acc)


@settings(max_examples=300, deadline=None)
@given(_factor_stacks())
def test_product_kernel_matches_scalar_oracle(case):
    mats, cplx, entries = case
    dtype = complex if cplx else float
    stack = _stack(mats, dtype)
    got = _product(*stack)
    _assert_matches_oracle(got, mats)
    if entries is not None:
        _assert_matches_oracle(_schrodinger_product(np.array([entries], dtype=dtype)), mats)
    if not cplx:
        # real arithmetic is complex arithmetic on zero imaginary parts
        as_complex = _product(*_stack(mats, complex))
        for x, y in zip(got, as_complex):
            assert np.isrealobj(x) and np.array_equal(x, np.real(y))
            assert not np.any(np.imag(y))
        if entries is not None:
            e = np.array([entries])
            for x, y in zip(_schrodinger_product(e), _schrodinger_product(e.astype(complex))):
                assert np.isrealobj(x) and np.array_equal(x, np.real(y))
    if len(mats) >= 2:
        # the N/2 proxy comes from the same pass as the full product
        half = len(mats) // 2
        first, full = _first_half_and_full(_product, stack)
        direct = _product(*(x[..., :half] for x in stack))
        for x, y in zip(first, direct):
            assert np.array_equal(x, y)
        _assert_matches_oracle(first, mats[:half])
        _assert_matches_oracle(full, mats)
