import math

import numpy as np
import pytest

from lyaplab.bases import PeriodicOrbits, PeriodicTable, uniform_stream
from lyaplab.cocycles import lyapunov_periodic_exact, schrodinger_cocycle
from lyaplab import spectral
from lyaplab.projective import Mat2, IDENTITY
from lyaplab.spectral import (PeriodicPotential, _log_dist_integral, band_edges, bands,
                              discriminant, find_hyperbolic_energy, gap_open_perturb,
                              ids, thouless_lyapunov, truncated_eigenvalue_counts)


def brute_force_trace(values, energy):
    m = IDENTITY
    for v in values:
        m = Mat2(energy - v, -1.0, 1.0, 0.0) @ m
    return m.trace()


class TestDiscriminant:
    def test_period_one_is_energy(self):
        assert discriminant(PeriodicPotential((0.0,)), 1.7) == 1.7

    def test_free_period_two(self):
        assert abs(discriminant(PeriodicPotential((0.0, 0.0)), 3.0) - 7.0) < 1e-12

    def test_two_site_closed_form_seeded(self):
        # (E - a)(E - b) - 2 against the direct product at 100 seeded triples
        u = uniform_stream(31, 0, 300)
        for i in range(100):
            a, b, e = (4.0 * float(x) - 2.0 for x in u[3 * i:3 * i + 3])
            got = discriminant(PeriodicPotential((a, b)), e)
            want = (e - a) * (e - b) - 2.0
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_matches_brute_force_product(self):
        u = uniform_stream(32, 0, 240)
        for i in range(40):
            vals = tuple(3.0 * float(x) - 1.5 for x in u[6 * i:6 * i + 5])
            e = 6.0 * float(u[6 * i + 5]) - 3.0
            got = discriminant(PeriodicPotential(vals), e)
            want = brute_force_trace(vals, e).real
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_monic_leading_behavior(self):
        # t(E)/E^n -> 1 for large E
        pot = PeriodicPotential((0.3, -0.8, 1.1, 0.2, -0.4, 0.9, 0.0, 0.5))
        e = 1e6
        assert abs(discriminant(pot, e) / e ** 8 - 1.0) < 1e-3

    def test_degree_probe_by_finite_differences(self):
        # n-th finite difference of a monic degree-n polynomial is n! h^n
        pot = PeriodicPotential((0.5, -0.25, 0.75))
        h = 0.5
        es = np.array([discriminant(pot, 10.0 + h * k) for k in range(4)])
        third = es[3] - 3 * es[2] + 3 * es[1] - es[0]
        assert abs(third - math.factorial(3) * h ** 3) < 1e-9

    def test_complex_energy(self):
        val = discriminant(PeriodicPotential((0.0,)), 1 + 2j)
        assert val == 1 + 2j


class TestBands:
    def test_free_single_band(self):
        assert bands(PeriodicPotential((0.0,))).bands == ((-2.0, 2.0),)

    def test_free_period_two_merges(self):
        bs = bands(PeriodicPotential((0.0, 0.0)))
        assert bs.count == 1
        a, b = bs.bands[0]
        assert abs(a + 2.0) < 1e-11 and abs(b - 2.0) < 1e-11

    def test_zero_three_quadratic_oracle(self):
        # t(E) = E(E-3) - 2; edges from the quadratic formulas are integers
        bs = bands(PeriodicPotential((0.0, 3.0)))
        assert bs.count == 2
        for got, want in zip(np.ravel(bs.bands), (-1.0, 0.0, 3.0, 4.0)):
            assert abs(got - want) < 1e-11

    def test_edges_are_discriminant_roots(self):
        pot = PeriodicPotential((0.8, -0.6, 0.2, 1.1))
        for e in band_edges(pot):
            assert abs(abs(discriminant(pot, float(e))) - 2.0) < 1e-8

    def test_edges_are_discriminant_roots_seeded(self):
        # the (anti)periodic eigenvalues are the exact roots of t(E) = +-2:
        # 1500 seeded potentials of periods 1-8 with values in [-3, 3]
        rng = np.random.default_rng(41)
        worst = 0.0
        for k in range(1500):
            pot = PeriodicPotential(tuple(rng.uniform(-3.0, 3.0, 1 + k % 8)))
            edges = band_edges(pot)
            assert len(edges) == 2 * pot.n and np.all(np.diff(edges) >= 0.0)
            worst = max(worst, float(np.max(np.abs(np.abs(discriminant(pot, edges)) - 2.0))))
        assert worst <= 1e-9

    def test_interior_is_spectrum(self):
        pot = PeriodicPotential((0.8, -0.6, 0.2))
        bs = bands(pot)
        for a, b in bs.bands:
            assert abs(discriminant(pot, 0.5 * (a + b))) < 2.0

    def test_gap_points_are_resolvent(self):
        pot = PeriodicPotential((0.0, 3.0))
        assert abs(discriminant(pot, 1.5)) > 2.0
        assert abs(discriminant(pot, -2.0)) > 2.0


class TestGapOpening:
    def test_open_potential_unchanged(self):
        pot = PeriodicPotential((0.0, 3.0))
        assert gap_open_perturb(pot, 0, seed=1) is pot

    def test_free_period_two_opens(self):
        pot = PeriodicPotential((0.0, 0.0))
        opened = gap_open_perturb(pot, 1, seed=2)
        assert bands(opened).count == 2
        assert 0.0 < opened.values[1] < 0.05

    def test_constant_period_three_opens(self):
        opened = gap_open_perturb(PeriodicPotential((1.0, 1.0, 1.0)), 2, seed=3)
        assert bands(opened).count == 3

    def test_band_count_and_lengths_seeded(self):
        # 100 seeded potentials n in 2..8: exactly n bands after opening,
        # every band shorter than 2 pi / n
        for k in range(100):
            n = 2 + (k % 7)
            vals = tuple(2.0 * float(x) - 1.0 for x in uniform_stream(500 + k, 0, n))
            opened = gap_open_perturb(PeriodicPotential(vals), k % n, seed=600 + k)
            bs = bands(opened)
            assert bs.count == n
            assert max(b - a for a, b in bs.bands) <= 2.0 * math.pi / n + 1e-9


class TestHyperbolicEnergy:
    def test_free_period_one(self):
        e = find_hyperbolic_energy(PeriodicPotential((0.0,)))
        assert abs(e) < 3.0 * math.pi and abs(discriminant(PeriodicPotential((0.0,)), e)) > 2.0

    def test_zero_three(self):
        pot = PeriodicPotential((0.0, 3.0))
        e = find_hyperbolic_energy(pot)
        assert abs(e) < 1.5 * math.pi and abs(discriminant(pot, e)) > 2.0

    def test_seeded_postcondition(self):
        for k in range(20):
            n = 2 + (k % 5)
            vals = tuple(1.6 * float(x) - 0.8 for x in uniform_stream(700 + k, 0, n))
            opened = gap_open_perturb(PeriodicPotential(vals), 0, seed=800 + k)
            e = find_hyperbolic_energy(opened)
            assert abs(e) < 3.0 * math.pi / n
            assert abs(discriminant(opened, e)) > 2.0


class TestIDS:
    def test_free_closed_form(self):
        n_of_e = ids(PeriodicPotential((0.0,)))
        for e in (-1.5, -0.5, 0.0, 0.7, 1.9):
            want = math.acos(-e / 2.0) / math.pi
            assert abs(n_of_e.evaluate(e) - want) < 1e-10

    def test_limits(self):
        n_of_e = ids(PeriodicPotential((0.4, -0.2)))
        assert n_of_e.evaluate(-10.0) == 0.0
        assert n_of_e.evaluate(10.0) == 1.0

    def test_gap_plateau_is_half(self):
        n_of_e = ids(PeriodicPotential((0.0, 3.0)))
        assert abs(n_of_e.evaluate(1.5) - 0.5) < 1e-14

    def test_monotone_on_grid(self):
        n_of_e = ids(PeriodicPotential((0.9, -0.7, 0.1)))
        grid = np.linspace(-4.0, 4.0, 10_000)
        vals = n_of_e.evaluate(grid)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_against_truncated_counting(self):
        for vals in ((0.0,), (0.0, 3.0), (0.6, -0.4, 0.9)):
            pot = PeriodicPotential(vals)
            n_of_e = ids(pot)
            eigs = truncated_eigenvalue_counts(pot, 512)
            for e in (-1.0, 0.0, 0.5, 1.5):
                empirical = float(np.mean(eigs <= e))
                assert abs(n_of_e.evaluate(e) - empirical) < 0.02

    def test_band_energy_edges_and_inverse_seeded(self):
        # the 70 bands of criterion 4's potentials: E_k(0), E_k(pi) are the
        # band's own edges and theta_in_band inverts band_energy inside
        thetas = np.linspace(0.0, math.pi, 17)[1:-1]
        for k in range(20):
            n = 2 + (k % 4)
            vals = tuple(-1.5 + 3.0 * float(x) for x in uniform_stream(1100 + k, 0, n))
            n_of_e = ids(PeriodicPotential(vals))
            for band in range(n):
                a, b = n_of_e.edges[2 * band], n_of_e.edges[2 * band + 1]
                ends = n_of_e.band_energy(band, [0.0, math.pi])
                assert np.max(np.abs(ends - [a, b])) <= 1e-12 * (1.0 + abs(a) + abs(b))
                back = n_of_e.theta_in_band(band, n_of_e.band_energy(band, thetas))
                assert np.max(np.abs(back - thetas)) <= 1e-12


class TestThouless:
    def test_free_hyperbolic_energy(self):
        n_of_e = ids(PeriodicPotential((0.0,)))
        want = math.log((3 + math.sqrt(5)) / 2)
        assert abs(thouless_lyapunov(n_of_e, 3.0) - want) < 1e-6

    def test_free_band_center_is_zero(self):
        n_of_e = ids(PeriodicPotential((0.0,)))
        assert abs(thouless_lyapunov(n_of_e, 0.0)) < 1e-6

    def test_free_large_energy_closed_form(self):
        n_of_e = ids(PeriodicPotential((0.0,)))
        e = 1000.0
        want = math.log((e + math.sqrt(e * e - 4.0)) / 2.0)
        assert abs(thouless_lyapunov(n_of_e, e) - want) < 1e-3

    def test_transfer_matrix_consistency_seeded(self):
        # |thouless - periodic_exact| <= 1e-6 across bands, gaps, outside
        worst = 0.0
        for k in range(6):
            n = 2 + (k % 4)
            vals = tuple(3.0 * float(x) - 1.5 for x in uniform_stream(900 + k, 0, n))
            pot = PeriodicPotential(vals)
            n_of_e = ids(pot)
            base = PeriodicOrbits(((n, 1.0),))
            table = PeriodicTable((vals,))
            lo, hi = min(vals) - 3.0, max(vals) + 3.0
            for u in uniform_stream(950 + k, 0, 12):
                e = lo + (hi - lo) * float(u)
                got = thouless_lyapunov(n_of_e, e)
                want = lyapunov_periodic_exact(schrodinger_cocycle(base, table, e)).value
                worst = max(worst, abs(got - want))
        assert worst <= 1e-6

    def test_band_edges_seeded(self):
        # every edge, and each edge +-1e-12 and +-1e-6, of one seeded
        # potential per period 1-8 and of four closed-gap potentials: the
        # exponent is 0 exactly at an edge and grows like a square root
        # outside it, the hardest places for the quadrature
        pots = [tuple(4.0 * float(x) - 2.0 for x in uniform_stream(4100 + n, 0, n))
                for n in range(1, 9)]
        pots += [(0.0, 0.0), (0.0, 0.0, 0.0), (0.0,) * 4, (1.0, 1.0, 1.0)]
        bad = []
        for vals in pots:
            n_of_e = ids(PeriodicPotential(vals))
            base = PeriodicOrbits(((len(vals), 1.0),))
            table = PeriodicTable((vals,))
            for edge in n_of_e.edges:
                for e in (edge, edge - 1e-12, edge + 1e-12, edge - 1e-6, edge + 1e-6):
                    got = thouless_lyapunov(n_of_e, e)
                    want = lyapunov_periodic_exact(schrodinger_cocycle(base, table, e)).value
                    if not abs(got - want) <= 1e-6:
                        bad.append((vals, e, got - want))
        assert not bad, f"{len(bad)} of 480 off by more than 1e-6: {bad[:3]}"

    def test_one_quadrature_per_energy(self, monkeypatch):
        # every band comes from the same eigvalsh per node, so one
        # quadrature per energy, in a gap, inside a band, at an edge or at a
        # closed gap, and none of them at its panel cap
        results = []
        real = spectral.adaptive_quadrature

        def counting(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(spectral, "adaptive_quadrature", counting)
        for vals in ((0.6, -0.4, 0.9, 1.2, -1.1), (0.0, 0.0, 0.0)):
            n_of_e = ids(PeriodicPotential(vals))
            for e in (-5.0, 0.3, n_of_e.edges[1], n_of_e.edges[2], 2.5):
                del results[:]
                thouless_lyapunov(n_of_e, e)
                assert len(results) == 1
                assert results[0].panels < 2 * spectral.THOULESS_MAX_PANELS


@pytest.mark.parametrize("c", [0.0, 1.3, math.pi, -0.7, 4.2, 2.0 * math.pi - 0.4])
def test_log_dist_integral_against_numeric(c):
    # integral_0^pi ln|t - c| dt with c inside, at either end, below and
    # above; the reference splits at c and grades Gauss-Legendre nodes
    # towards both ends of each piece (t = end +- half u^5)
    length = math.pi
    cuts = sorted({0.0, length, min(max(c, 0.0), length)})
    x, w = np.polynomial.legendre.leggauss(60)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    want = 0.0
    for a, b in zip(cuts, cuts[1:]):
        half = 0.5 * (b - a)
        for end, sign in ((a, 1.0), (b, -1.0)):
            dist = np.abs((end - c) + sign * half * u ** 5)
            want += half * float(np.dot(w, 5.0 * u ** 4 * np.log(dist)))
    assert abs(_log_dist_integral(c, length) - want) <= 1e-12


def test_rejects_empty_potential():
    with pytest.raises(ValueError):
        PeriodicPotential(())
