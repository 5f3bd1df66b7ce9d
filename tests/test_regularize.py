import cmath
import math
import re

import numpy as np
import pytest

from lyaplab.bases import (CircleRotation, IntegrationScheme, PeriodicOrbits,
                           PeriodicTable, TrigPolynomial, combine,
                           constant_potential, uniform_stream)
from lyaplab.cocycles import (BLOCK_ELEMENTS, SchrodingerFamilyEvaluator, constant_cocycle,
                              lyapunov_periodic_exact, schrodinger_entry_cocycle)
from lyaplab.projective import Mat2, ROTATION_GENERATOR, Sl2Element, rotation
from lyaplab.quadrature import adaptive_quadrature
from lyaplab.regularize import (BALL_EXPONENT, DEFAULT_ETA_GEN, PSI_CENTER, NotUH,
                                PhiQuery, Sl2Field, _exp_sl2, _PhiMachine,
                                analyticity_probe, cmap_psi, inf_lower_bound, phi,
                                phi_boundary, phi_convolved, phi_general,
                                poisson_check, weight)

PERIOD1 = PeriodicOrbits(((1, 1.0),))
PERIOD2 = PeriodicOrbits(((2, 1.0),))
GOLDEN = (math.sqrt(5) - 1) / 2


def lnrho_real(u: float) -> float:
    u = abs(u)
    return math.log((u + math.sqrt(u * u - 4.0)) / 2.0) if u > 2.0 else 0.0


class TestWeight:
    def test_values(self):
        assert weight(0.0) == 1.0
        assert weight(1.0) == 0.0
        assert weight(-1.0) == 0.0

    def test_denominator_expansion(self):
        # (1-t^2)/|t^2+2it+1|^2 with the modulus squared expanded by hand
        for t in np.linspace(-1, 1, 23):
            direct = (1 - t * t) / abs(t * t + 2j * t + 1) ** 2
            assert abs(weight(float(t)) - direct) < 1e-15

    def test_normalization_quarter_pi(self):
        res = adaptive_quadrature(lambda t: weight(t), -1.0, 1.0, tol=1e-12)
        assert abs(res.value - math.pi / 4.0) <= 1e-10


def cmap_phi(z: complex) -> complex:
    """Disk -> upper half plane, (1, i, -1) -> (0, 1, infinity): the first
    factor of cmap_psi, as an independent scalar oracle."""
    z = complex(z)
    if z == -1.0:
        return complex(math.inf, 0.0)
    return 1j * (1.0 - z) / (1.0 + z)


def cmap_phi_inv(z: complex) -> complex:
    return -(z - 1j) / (z + 1j)


class TestConformalMaps:
    def test_phi_triple(self):
        assert abs(cmap_phi(1.0)) < 1e-15
        assert abs(cmap_phi(1j) - 1.0) < 1e-15
        assert cmath.isinf(cmap_phi(-1.0))

    def test_round_trip_on_disk(self):
        u = uniform_stream(8, 0, 4000)
        count = 0
        for i in range(2000):
            z = complex(2 * u[2 * i] - 1, 2 * u[2 * i + 1] - 1)
            if abs(z) >= 0.999:
                continue
            count += 1
            assert abs(cmap_phi_inv(cmap_phi(z)) - z) < 1e-12
        assert count >= 1000

    def test_psi_center(self):
        assert abs(cmap_psi(0.0) - (math.sqrt(2.0) - 1.0) * 1j) < 1e-15

    def test_psi_maps_boundary_into_closed_half_disk(self):
        for k in range(1000):
            z = cmath.exp(2j * math.pi * (k + 0.5) / 1000)
            w = cmap_psi(z)
            assert abs(w) <= 1.0 + 1e-12
            assert w.imag >= -1e-12

    def test_psi_on_arrays_matches_cmath_reference(self):
        def reference(z):
            r = cmap_phi(z)
            if r.imag <= 0.0 and r.imag >= -1e-9 * (1.0 + abs(r)):
                r = complex(r.real, 0.0)
            return cmap_phi_inv(cmath.sqrt(r))

        u = uniform_stream(5, 0, 400)
        zs = np.concatenate([np.exp(2j * math.pi * (np.arange(2000) + 0.5) / 2000),
                             0.9 * (2 * u[:200] - 1) + 0.4j * (2 * u[200:] - 1)])
        got = cmap_psi(zs.reshape(2, -1))
        assert got.shape == (2, 1100)
        assert np.max(np.abs(got.ravel() - [reference(z) for z in zs])) <= 1e-15
        assert isinstance(cmap_psi(0.5j), complex)

    def test_psi_lower_arc_is_real_segment(self):
        for theta in (0.51, 0.7, 0.93):
            w = cmap_psi(cmath.exp(2j * math.pi * theta))
            assert abs(w.imag) < 1e-12 and -1.0 < w.real < 1.0


class TestPhi:
    def test_elliptic_family_is_zero(self):
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, 0.0),
                     w=constant_potential(PERIOD1, 0.0), epsilon=1.0)
        assert phi(q).value == 0.0

    def test_closed_form_oracle_period_one(self):
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, -3.0),
                     w=constant_potential(PERIOD1, 0.0), epsilon=0.1)
        got = phi(q)
        oracle = adaptive_quadrature(
            lambda ts: weight(ts) * np.array([lnrho_real(-3.0 + 0.1 * t) for t in ts]),
            -1.0, 1.0, tol=1e-12)
        assert abs(got.value - oracle.value) < 1e-9

    def test_nonnegative(self):
        q = PhiQuery(base=PERIOD2, v=PeriodicTable(((-2.4, 1.9),)),
                     w=PeriodicTable(((0.2, -0.1),)), epsilon=0.4)
        res = phi(q)
        assert res.value >= 0.0

    def test_domain_flag(self):
        inside = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, 0.0),
                          w=constant_potential(PERIOD1, 0.3), epsilon=0.1)
        outside = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, 0.0),
                           w=constant_potential(PERIOD1, 0.5), epsilon=0.1)
        assert inside.in_ball() and phi(inside).domain_flag == "in-ball"
        assert not outside.in_ball() and phi(outside).domain_flag == "out-of-ball"
        assert abs(inside.ball_radius() - BALL_EXPONENT) < 1e-15

    def test_rejects_complex_v(self):
        with pytest.raises(ValueError):
            phi(PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, 1j),
                         w=constant_potential(PERIOD1, 0.0), epsilon=0.1))

    def test_rotation_base_uses_stderr_folding(self):
        gold = CircleRotation(GOLDEN)
        q = PhiQuery(base=gold, v=TrigPolynomial(const=-3.0),
                     w=TrigPolynomial(cos=(0.2,)), epsilon=0.1,
                     scheme=IntegrationScheme(n=2048, seed=0), quad_tol=1e-3)
        res = phi(q)
        oracle = adaptive_quadrature(
            lambda ts: weight(ts) * np.array([lnrho_real(-3.0 + 0.1 * t) for t in ts]),
            -1.0, 1.0, tol=1e-12)
        # w is a pure cosine: its first-order effect averages out, so the
        # constant-entry oracle is accurate to O(eps w)^2 here
        assert abs(res.value - oracle.value) < 5e-3


def test_L_at_builds_entries_one_block_at_a_time(monkeypatch):
    q = PhiQuery(base=CircleRotation(GOLDEN), v=TrigPolynomial(const=-2.5, cos=(0.4,)),
                 w=TrigPolynomial(cos=(0.2,), sin=(0.1,)), epsilon=0.3,
                 scheme=IntegrationScheme(n=16384))
    machine = _PhiMachine(q)
    sizes = []
    batch = SchrodingerFamilyEvaluator.lyapunov_batch

    def recording(self, entries):
        sizes.append(np.size(entries))
        return batch(self, entries)

    monkeypatch.setattr(SchrodingerFamilyEvaluator, "lyapunov_batch", recording)
    ts = np.cos(math.pi * (np.arange(512) + 0.5) / 512)
    vals, errs = machine.L_at(ts)
    assert len(sizes) > 1
    assert max(sizes) <= max(BLOCK_ELEMENTS, machine.ev.n)
    panels = [machine.L_at(ts[i:i + 15]) for i in range(0, len(ts), 15)]
    assert np.array_equal(vals, np.concatenate([v for v, _ in panels]))
    assert np.array_equal(errs, np.concatenate([e for _, e in panels]))


class TestBoundaryIdentity:
    def test_agreement_seeded_period_two(self):
        u = uniform_stream(91, 0, 200)
        for k in range(20):
            vals = (-3.5 + 2.0 * float(u[4 * k]), -3.5 + 2.0 * float(u[4 * k + 1]))
            wv = (0.6 * float(u[4 * k + 2]) - 0.3, 0.6 * float(u[4 * k + 3]) - 0.3)
            q = PhiQuery(base=PERIOD2, v=PeriodicTable((vals,)),
                         w=PeriodicTable((wv,)), epsilon=0.2)
            pa, pb = phi(q), phi_boundary(q)
            assert abs(pa.value - pb.value) <= 2.0 * (pa.quad_error + pb.quad_error)

    def test_weighted_multi_orbit_base(self):
        base = PeriodicOrbits(((1, 0.3), (3, 0.7)))
        q = PhiQuery(base=base,
                     v=PeriodicTable(((-2.8,), (-3.3, -1.1, -2.2))),
                     w=PeriodicTable(((0.2,), (0.15, -0.25, 0.1))),
                     epsilon=0.25)
        pa, pb = phi(q), phi_boundary(q)
        assert abs(pa.value - pb.value) <= 2.0 * (pa.quad_error + pb.quad_error)

    def test_complex_w_in_ball(self):
        q = PhiQuery(base=PERIOD2, v=PeriodicTable(((-3.1, -2.7),)),
                     w=PeriodicTable(((0.2 + 0.1j, -0.15 + 0.05j),)), epsilon=0.2)
        pa, pb = phi(q), phi_boundary(q)
        assert abs(pa.value - pb.value) <= 2.0 * (pa.quad_error + pb.quad_error)

    def test_band_edge_sliver_not_missed(self):
        # the positive part of this integrand occupies a 6e-5 sliver next to
        # a trace crossing at t = -0.5938; without a panel boundary at the
        # kink every node samples an exact zero and the mass is invisible
        q = PhiQuery(base=PeriodicOrbits(((1, 1.0),)),
                     v=PeriodicTable(((-2.0788059737528997,),)),
                     w=PeriodicTable(((0.07056738840632626,),)),
                     epsilon=0.32436973106132183)
        pa, pb = phi(q), phi_boundary(q)
        assert abs(pa.value - pb.value) <= 2.0 * (pa.quad_error + pb.quad_error)
        q41 = PhiQuery(base=PeriodicOrbits(((3, 1.0),)),
                       v=PeriodicTable(((-0.6482979366715118, -3.370291151406579,
                                         -1.1416772536918072),)),
                       w=PeriodicTable(((-0.2612810822286596, 0.27559103333979723,
                                         0.1656168402532449),)),
                       epsilon=0.21959058130706022)
        pa, pb = phi(q41), phi_boundary(q41)
        assert abs(pa.value - pb.value) <= 2.0 * (pa.quad_error + pb.quad_error)

    def test_out_of_domain_raises_not_uh(self):
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, 0.0),
                     w=constant_potential(PERIOD1, 0.9), epsilon=0.2)
        with pytest.raises(NotUH):
            phi_boundary(q)

    def test_not_uh_names_a_failing_node_of_the_first_pass(self):
        # Im(entry) = eps Im z (1 - 2 w Re z) on the arc, so only the nodes
        # with Re z > 1 / (2 w) fail; the first pass holds passing and
        # failing nodes in one call
        w = 0.6
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, 0.0),
                     w=constant_potential(PERIOD1, w), epsilon=0.2)
        with pytest.raises(NotUH, match="boundary node") as info:
            phi_boundary(q)
        theta = float(re.search(r"theta=([0-9.]+)", str(info.value)).group(1))
        assert 0.0 < theta < 0.5
        assert cmap_psi(cmath.exp(2j * math.pi * theta)).real > 1.0 / (2.0 * w)

    def test_poisson_center_equals_circle_mean_on_uh_disk(self):
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, -5.0),
                     w=constant_potential(PERIOD1, 0.0), epsilon=0.1)
        center, mean, err = poisson_check(q)
        assert abs(center - mean) < 1e-8

    def test_poisson_seeded_period_three(self):
        vals = (-4.2, -3.6, -3.9)
        q = PhiQuery(base=PeriodicOrbits(((3, 1.0),)), v=PeriodicTable((vals,)),
                     w=PeriodicTable(((0.2, -0.2, 0.1),)), epsilon=0.2)
        center, mean, err = poisson_check(q)
        assert abs(center - mean) < 1e-6

    def test_poisson_rejects_complex_w(self):
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, -5.0),
                     w=constant_potential(PERIOD1, 0.1j), epsilon=0.1)
        with pytest.raises(ValueError):
            poisson_check(q)

    def test_subharmonic_direction_of_defect(self):
        # spectrum-crossing family: the circle mean dominates the center
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, 0.0),
                     w=constant_potential(PERIOD1, 0.1), epsilon=1.5)
        center, mean, err = poisson_check(q)
        assert mean - center >= -1e-6


class TestPositivityPropagation:
    def test_seeded_cases(self):
        u = uniform_stream(93, 0, 200)
        checked = 0
        k = 0
        while checked < 20:
            n = 1 + (k % 3)
            vals = tuple(-4.0 + 1.5 * float(u[(5 * k + j) % 200]) for j in range(n))
            wv = tuple(0.6 * float(u[(5 * k + j + 2) % 200]) - 0.3 for j in range(n))
            k += 1
            base = PeriodicOrbits(((n, 1.0),))
            v, w = PeriodicTable((vals,)), PeriodicTable((wv,))
            l_vw = lyapunov_periodic_exact(
                schrodinger_entry_cocycle(base, combine([(1.0, v), (1.0, w)]))).value
            if l_vw <= 0.01:
                continue
            checked += 1
            res = phi(PhiQuery(base=base, v=v, w=w, epsilon=1.0))
            assert res.value > 3.0 * res.quad_error


class TestPhiGeneral:
    def test_rotations_have_zero_exponent(self):
        c = constant_cocycle(PERIOD1, Mat2(1.0, 0.0, 0.0, 1.0))
        val, err = phi_general(c, ROTATION_GENERATOR, Sl2Element(0.0, 0.0, 0.0), 0.5)
        assert abs(val) < 1e-12

    def test_diagonal_against_trace_oracle(self):
        c = constant_cocycle(PERIOD1, Mat2(2.0, 0.0, 0.0, 0.5))
        eps = 0.4
        val, err = phi_general(c, ROTATION_GENERATOR, Sl2Element(0.0, 0.0, 0.0), eps)

        def oracle(ts):
            out = []
            for t in ts:
                m = rotation(eps * t / (2 * math.pi)) @ Mat2(2.0, 0.0, 0.0, 0.5)
                out.append(math.acosh(max(abs(m.trace().real) / 2.0, 1.0)))
            return weight(ts) * np.array(out)

        want = adaptive_quadrature(oracle, -1.0, 1.0, tol=1e-12)
        assert abs(val - want.value) < 1e-8

    def test_seeded_ball_value_nonnegative(self):
        base = PERIOD2
        c = schrodinger_entry_cocycle(base, PeriodicTable(((2.6, 3.1),)))
        a = Sl2Element(0.03, -0.02, 0.01)
        b = Sl2Element(0.02, 1.0 - 0.03, -1.0 + 0.01)
        val, err = phi_general(c, b, a, 0.3)
        assert val >= 0.0

    def test_ball_violation_raises(self):
        c = constant_cocycle(PERIOD1, Mat2(1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            phi_general(c, ROTATION_GENERATOR, Sl2Element(0.5, 0.0, 0.0), 0.1)

    def test_shift_base_matches_scalar_path(self):
        from lyaplab.bases import BernoulliShift, CylinderTable
        from lyaplab.cocycles import (left_multiplied_cocycle, lyapunov_birkhoff,
                                      schrodinger_entry_cocycle)
        from lyaplab.projective import ROTATION_GENERATOR, exp_sl2
        from lyaplab.regularize import GeneralFamilyEvaluator
        base = BernoulliShift(2, (0.5, 0.5))
        pot = CylinderTable(2, 2, (2.6, 3.0, 3.3, 2.8))
        c = schrodinger_entry_cocycle(base, pot)
        a = Sl2Element(0.03, -0.02, 0.01)
        eps = 0.3
        scheme = IntegrationScheme(n=256, samples=32, seed=6)
        ev = GeneralFamilyEvaluator(c, ROTATION_GENERATOR, a, eps, scheme)
        for t in (0.0, 0.5, -0.7):
            vals, _ = ev.lyapunov_batch(np.array([t], dtype=complex), s=1.0)
            arg = ROTATION_GENERATOR.scale(eps * t) + a.scale(eps * (1 - t * t))
            scalar = lyapunov_birkhoff(left_multiplied_cocycle(c, exp_sl2(arg)),
                                       256, samples=32, seed=6)
            assert abs(float(vals[0]) - scalar.value) < 1e-12

    def test_x_dependent_field(self):
        gold = CircleRotation(GOLDEN)
        c = constant_cocycle(gold, rotation(GOLDEN))
        zero = TrigPolynomial()
        mode2 = TrigPolynomial(cos=(0.0, 0.05))
        a = Sl2Field(zero, mode2, mode2)
        val, err = phi_general(c, ROTATION_GENERATOR, a, 0.124,
                               scheme=IntegrationScheme(n=8192, seed=3),
                               quad_tol=1e-4, max_panels=64)
        assert val > 0.0


# the cone-derivative estimate behind DEFAULT_ETA_GEN, and its validation

def cone_derivative_check(b: Sl2Element, a: Sl2Element, z: complex, m: float,
                          eta: float | None = None) -> float:
    """Im of the epsilon-derivative of the projective image of the real
    direction m under e^{eps(z b + (1-z^2) a)} at eps = 0.

    First chart for finite m; the second chart handles m = infinity.  Positive
    values mean the hemisphere cone is entered; eta, when given, only asserts
    the ball preconditions.
    """
    if eta is not None:
        dev = max(abs(b.b1), abs(b.b2 - 1.0), abs(b.b3 + 1.0))
        if dev > eta or max(abs(a.b1), abs(a.b2), abs(a.b3)) > eta:
            raise ValueError("(b, a) outside the eta ball")
    z = complex(z)
    w2 = 1.0 - z * z
    if math.isinf(m):
        return (-z * b.b3 - w2 * a.b3).imag
    return (z * (2.0 * b.b1 * m + b.b2 - b.b3 * m * m)
            + w2 * (2.0 * a.b1 * m + a.b2 - a.b3 * m * m)).imag


def validate_eta_gen(eta: float = DEFAULT_ETA_GEN, samples: int = 1000,
                     seed: int = 0) -> float:
    """Shrink eta until the cone-derivative check is positive on a seeded
    sample of (b, a, z, m) from the admissible cases; returns the final eta."""
    rng = np.random.default_rng(seed)
    while eta > 1e-6:
        ok = True
        for _ in range(samples):
            b = Sl2Element(*(eta * rng.uniform(-1, 1, 3) + np.array([0.0, 1.0, -1.0])))
            m = math.inf if rng.uniform() < 0.05 else math.tan(rng.uniform(-0.499, 0.499) * math.pi)
            if rng.uniform() < 0.5:
                # case (1): z on the upper unit circle or at the center, a complex
                u = rng.uniform(0.05, 0.45) * 2.0 * math.pi
                z = cmath.exp(1j * u) if rng.uniform() < 0.8 else PSI_CENTER
                a = Sl2Element(*(eta * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)) / 2.0))
            else:
                # case (2): z inside the upper half disk, a real
                rr = rng.uniform(0.1, 0.95)
                u = rng.uniform(0.05, 0.95) * math.pi
                z = rr * cmath.exp(1j * u)
                a = Sl2Element(*(eta * rng.uniform(-1, 1, 3)))
            if cone_derivative_check(b, a, z, m) <= 0.0:
                ok = False
                break
        if ok:
            return eta
        eta *= 0.5
    raise RuntimeError("no positive eta found; cone derivative estimate broken")


class TestConeDerivative:
    def test_rotation_generator_at_center(self):
        got = cone_derivative_check(ROTATION_GENERATOR, Sl2Element(0, 0, 0), 1j, 0.0)
        assert abs(got - 1.0) < 1e-15

    def test_second_chart_at_infinity(self):
        got = cone_derivative_check(ROTATION_GENERATOR, Sl2Element(0, 0, 0), 1j, math.inf)
        assert abs(got - 1.0) < 1e-15

    def test_real_z_boundary_gives_zero(self):
        for m in (-2.0, 0.0, 1.3):
            got = cone_derivative_check(ROTATION_GENERATOR, Sl2Element(0, 0, 0), 0.4, m)
            assert abs(got) < 1e-15

    def test_eta_ball_enforced(self):
        with pytest.raises(ValueError):
            cone_derivative_check(Sl2Element(0.5, 1.0, -1.0), Sl2Element(0, 0, 0),
                                  1j, 0.0, eta=0.05)

    def test_validate_eta_gen_default_holds(self):
        assert validate_eta_gen(0.05, samples=1000, seed=0) == 0.05


class TestConvolved:
    def test_constant_integrand_gives_box_measure(self):
        # stub the inner functional by an elliptic family that is exactly 0,
        # then by a shifted family whose inner value is a known constant
        q0 = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, 0.0),
                      w=constant_potential(PERIOD1, 0.0), epsilon=0.5)
        val, err = phi_convolved(q0, 0.5)
        assert abs(val) < 1e-12

    def test_monte_carlo_oracle(self):
        q = PhiQuery(base=PERIOD2, v=PeriodicTable(((-3.3, -2.8),)),
                     w=PeriodicTable(((0.25, -0.2),)), epsilon=0.2)
        delta = 0.4
        val, err = phi_convolved(q, delta, nodes_a=10, nodes_b=10)
        u = uniform_stream(444, 0, 20000)
        total = 0.0
        samples = 2000
        vals = []
        one = constant_potential(PERIOD2)
        for i in range(samples):
            a = delta * (2.0 * float(u[2 * i]) - 1.0)
            b = float(u[2 * i + 1])
            inner = phi(PhiQuery(base=PERIOD2,
                                 v=combine([(1.0, q.v), (q.epsilon * a, one)]),
                                 w=combine([(b, q.w)]), epsilon=q.epsilon,
                                 quad_tol=1e-6))
            vals.append(2.0 * delta * inner.value)     # importance weight of the box
        mc = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(samples))
        assert abs(val - mc) <= 3.0 * se + 1e-9

    def test_delta_range(self):
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, -3.0),
                     w=constant_potential(PERIOD1, 0.0), epsilon=0.1)
        with pytest.raises(ValueError):
            phi_convolved(q, 1.5)


class TestAnalyticityProbe:
    def test_zero_direction_flat(self):
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, -3.0),
                     w=constant_potential(PERIOD1, 0.0), epsilon=0.1)
        coeffs, residual = analyticity_probe(q, constant_potential(PERIOD1, 0.0),
                                             np.linspace(-1, 1, 17), 4)
        assert residual <= 10 * phi(q).quad_error + 1e-12
        assert all(abs(c) < 1e-9 for c in coeffs[1:])

    def test_residual_decays_in_degree(self):
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, -5.0),
                     w=constant_potential(PERIOD1, 0.3), epsilon=0.5,
                     quad_tol=1e-11)
        grid = np.linspace(-1, 1, 33)
        _, r4 = analyticity_probe(q, constant_potential(PERIOD1, 0.3), grid, 4)
        _, r12 = analyticity_probe(q, constant_potential(PERIOD1, 0.3), grid, 12)
        assert r12 <= 0.1 * r4
        assert r12 < 1e-8

    def test_out_of_ball_grid_rejected(self):
        q = PhiQuery(base=PERIOD1, v=constant_potential(PERIOD1, -3.0),
                     w=constant_potential(PERIOD1, 0.3), epsilon=0.1)
        with pytest.raises(ValueError):
            analyticity_probe(q, constant_potential(PERIOD1, 0.4),
                              np.linspace(-1, 1, 9), 4)


def test_inf_lower_bound():
    assert inf_lower_bound(PeriodicTable(((1.0, 0.25),))) == 0.25
    assert inf_lower_bound(TrigPolynomial(const=1.0, cos=(0.3,), sin=(0.1,))) == 0.6
    with pytest.raises(ValueError):
        inf_lower_bound(PeriodicTable(((1j,),)))


def test_exp_sl2_batch_matches_scalar():
    from lyaplab.projective import exp_sl2
    rng = np.random.default_rng(12)
    d = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)) * 0.3
    a, b, c, dd = _exp_sl2(d[0], d[1], d[2])
    for i in range(8):
        m = exp_sl2(Sl2Element(d[0, i], d[1, i], d[2, i]))
        assert abs(a[i] - m.a11) < 1e-12
        assert abs(b[i] - m.a12) < 1e-12
        assert abs(c[i] - m.a21) < 1e-12
        assert abs(dd[i] - m.a22) < 1e-12
