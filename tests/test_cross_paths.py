"""Cross-family and cross-route consistency: the same quantities computed
through independent code paths (scalar vs batched, real-t vs complex-arc,
library vs CLI) must agree within their reported errors."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lyaplab.bases import (BernoulliShift, CircleRotation, CylinderTable,
                           IntegrationScheme, PeriodicOrbits, PeriodicPoint,
                           PeriodicTable, TrigPolynomial, combine,
                           constant_potential)
from lyaplab.cli import run_scenario
from lyaplab.cocycles import (SchrodingerFamilyEvaluator, iterate_renormalized,
                              lyapunov_birkhoff, lyapunov_fubini, schrodinger_cocycle,
                              schrodinger_entry_cocycle)
from lyaplab.conefield import harmonicity_probe
from lyaplab.regularize import PhiQuery, phi, phi_boundary
from lyaplab.spectral import (PeriodicPotential, _edge_matrix, band_edges, bands,
                               discriminant, ids)

GOLDEN = (math.sqrt(5) - 1) / 2


def test_boundary_identity_on_rotation_base():
    gold = CircleRotation(GOLDEN)
    q = PhiQuery(base=gold, v=TrigPolynomial(const=-3.0, cos=(0.4,)),
                 w=TrigPolynomial(cos=(0.0, 0.25)), epsilon=0.2,
                 scheme=IntegrationScheme(n=2048, seed=5), quad_tol=1e-3)
    pa, pb = phi(q), phi_boundary(q)
    assert abs(pa.value - pb.value) <= 2.0 * (pa.quad_error + pb.quad_error)


def test_shift_phi_nodes_match_scalar_estimator():
    base = BernoulliShift(2, (0.5, 0.5))
    v = CylinderTable(2, 1, (-3.1, -2.7))
    w = CylinderTable(2, 1, (0.2, -0.15))
    eps = 0.3
    scheme = IntegrationScheme(n=256, samples=24, seed=11)
    machine_ev = SchrodingerFamilyEvaluator(base, scheme)
    sv = machine_ev.potential_support(v)
    s1 = machine_ev.potential_support(constant_potential(base))
    sw = machine_ev.potential_support(w)
    ts = np.array([-0.9, -0.4, 0.0, 0.3, 0.8])
    c0 = (eps * ts).astype(complex)
    c1 = (eps * (1 - ts * ts)).astype(complex)
    entries = sv[None] + c0[:, None, None] * s1[None] + c1[:, None, None] * sw[None]
    batch_vals, batch_errs = machine_ev.lyapunov_batch(entries)
    one = constant_potential(base)
    for t, bv, be in zip(ts, batch_vals, batch_errs):
        ent = combine([(1.0, v), (eps * t, one), (eps * (1 - t * t), w)])
        est = lyapunov_birkhoff(schrodinger_entry_cocycle(base, ent), scheme.n,
                                samples=scheme.samples, seed=scheme.seed)
        assert abs(est.value - bv) < 1e-12
        assert abs(est.stderr - be) < 1e-12


def test_fubini_on_rotation_base():
    gold = CircleRotation(GOLDEN)
    c = schrodinger_cocycle(gold, constant_potential(gold, 0.0), 3.0)
    seq = lyapunov_fubini(c, 10, IntegrationScheme(n=512, seed=3))
    ln_rho = math.log((3 + math.sqrt(5)) / 2)
    assert all(x >= y - 1e-9 for x, y in zip(seq, seq[1:]))
    assert all(x >= ln_rho - 1e-9 for x in seq)
    assert seq[-1] - ln_rho < 5e-3


def test_harmonicity_probe_on_rotation_base():
    gold = CircleRotation(GOLDEN)
    fam = lambda z: schrodinger_cocycle(gold, constant_potential(gold, 0.0), 5.0 + z)
    _, _, defect = harmonicity_probe(fam, 0.0, 0.5, circle_nodes=16,
                                     scheme=IntegrationScheme(seed=2), n=2048)
    # Birkhoff noise dominates here; the constant-fiber values are exact per
    # node, so the defect still collapses
    assert abs(defect) < 1e-3


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(0, 10 ** 6), st.floats(-1.0, 5.0),
       st.floats(0.0, 2.0 * math.pi), st.booleans())
@example(40, 7, 3.0, 0.0, False)           # |t| ~ 1e120, far past 1e100
@example(40, 7, 3.0, 0.3, True)
@example(3, 1, 0.2, math.pi, True)         # complex dtype, zero imaginary part
def test_discriminant_matches_scalar_oracle(n, seed, log_r, angle, cplx):
    # the trace of the monodromy from the batched kernel against the scalar
    # renormalized product of the same Schrodinger cocycle
    rng = np.random.default_rng(seed)
    vals = tuple(rng.uniform(-3.0, 3.0, n))
    r = 10.0 ** min(log_r, 280.0 / n)
    energy = r * complex(math.cos(angle), math.sin(angle)) if cplx else r * math.cos(angle)
    base = PeriodicOrbits(((n, 1.0),))
    c = schrodinger_cocycle(base, PeriodicTable((vals,)), energy)
    log_norms = sum(math.log(c.fiber(PeriodicPoint(0, p)).frobenius()) for p in range(n))
    assume(log_norms < 690.0)
    m, acc = iterate_renormalized(c, PeriodicPoint(0, 0), n)
    want = (m.a11 + m.a22) * math.exp(acc)
    got = discriminant(PeriodicPotential(vals), energy)
    assert type(got) is (complex if cplx else float)
    # forward error of both products: n eps prod ||A_i||, plus the rounded logs
    tol = 32.0 * (n + 1 + acc) * 2.2e-16 * math.exp(log_norms)
    assert math.isfinite(abs(got)) and abs(got - want) <= tol
    grid = np.array([energy, 0.5 * energy])
    ts = discriminant(PeriodicPotential(vals), grid)
    assert ts.dtype == (np.complex128 if cplx else np.float64)
    assert abs(ts[0] - got) <= tol


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10 ** 6), st.floats(-4.0, 4.0),
       st.floats(0.0, 2.0 * math.pi))
@example(1, 0, 0.0, 0.0)
@example(8, 3, 0.1, math.pi)
def test_floquet_determinant_identity(n, seed, energy, angle):
    # det(E - H_phi) = Delta(E) - 2 cos(phi) (Floquet theory): the eigvalsh
    # path through _edge_matrix against the tree-kernel discriminant
    rng = np.random.default_rng(seed)
    pot = PeriodicPotential(tuple(rng.uniform(-1.5, 1.5, n)))
    eigs = np.linalg.eigvalsh(_edge_matrix(pot, np.exp(1j * angle)))
    dist = np.abs(eigs - energy)
    assume(dist.min() > 1e-6)
    lhs = float(np.sum(np.log(dist)))
    det = discriminant(pot, energy) - 2.0 * math.cos(angle)
    rhs = math.log(abs(det))
    # eigenvalue errors n eps ||H|| over the distance to E, and the product
    # kernel's n eps prod ||A_i|| over |det|
    norms = [math.sqrt((energy - v) ** 2 + 2.0) for v in pot.values]
    tol = 32.0 * (n + 1) * 2.2e-16 * (n * (max(map(abs, pot.values)) + 2.0) / dist.min()
                                      + math.prod(norms) / abs(det)) + 1e-14
    assert abs(lhs - rhs) <= tol


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_spectral_structure_random(n, seed):
    rng = np.random.default_rng(seed)
    pot = PeriodicPotential(tuple(rng.uniform(-1.5, 1.5, n)))
    edges = band_edges(pot)
    assert len(edges) == 2 * n
    for e in edges:
        assert abs(abs(discriminant(pot, float(e))) - 2.0) < 1e-7
    bs = bands(pot)
    assert 1 <= bs.count <= n
    n_of_e = ids(pot)
    for k in range(n):
        a, b = edges[2 * k], edges[2 * k + 1]
        ends = n_of_e.band_energy(k, [0.0, math.pi])
        assert np.max(np.abs(ends - [a, b])) <= 1e-12 * (1.0 + abs(a) + abs(b))
    grid = np.linspace(edges[0] - 1.0, edges[-1] + 1.0, 400)
    vals = n_of_e.evaluate(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] == 0.0 and vals[-1] == 1.0


class TestCliExtraForms:
    def _run(self, tmp_path, payload, out=None):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload))
        return run_scenario(str(path), {"out": out} if out else None)

    def test_lyapunov_fubini_scenario(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "lyapunov",
              "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
              "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
              "params": {"method": "fubini", "max_doubling": 6}}
        record, _ = self._run(tmp_path, sc, out=str(tmp_path / "o"))
        seq = record["results"]["sequence"]
        assert len(seq) == 7
        assert abs(seq[-1] - math.log(2.0)) < 1e-2
        assert (tmp_path / "o" / "fubini.svg").exists()

    def test_phi_general_scenario(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "phi",
              "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
              "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
              "params": {"form": "general", "epsilon": 0.4,
                         "b": [0.0, 1.0, -1.0], "a": [0.0, 0.0, 0.0]}}
        record, _ = self._run(tmp_path, sc)
        assert record["results"]["value"] > 0.5

    def test_phi_convolved_scenario(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "phi",
              "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
              "params": {"form": "convolved", "delta": 0.5, "epsilon": 0.5,
                         "v": {"family": "periodic_table", "tables": [[0.0]]},
                         "w": {"family": "periodic_table", "tables": [[0.0]]}}}
        record, _ = self._run(tmp_path, sc)
        assert record["results"]["value"] == 0.0

    def test_phi_poisson_scenario(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "phi",
              "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
              "params": {"form": "poisson", "epsilon": 0.1,
                         "v": {"family": "periodic_table", "tables": [[-5.0]]},
                         "w": {"family": "periodic_table", "tables": [[0.0]]}}}
        record, _ = self._run(tmp_path, sc)
        assert abs(record["results"]["defect"]) < 1e-8

    def test_phi_probe_scenario(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "phi",
              "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
              "params": {"form": "probe", "epsilon": 0.3, "degree": 8,
                         "v": {"family": "periodic_table", "tables": [[-5.0]]},
                         "w": {"family": "periodic_table", "tables": [[0.2]]},
                         "direction": {"family": "periodic_table", "tables": [[0.2]]}}}
        record, _ = self._run(tmp_path, sc, out=str(tmp_path / "o"))
        assert record["results"]["residual"] < 1e-6
        assert (tmp_path / "o" / "phi_probe.svg").exists()

    def test_bands_open_gaps_scenario(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "bands",
              "params": {"values": [1.0, 1.0, 1.0], "open_gaps": True, "index": 2}}
        record, _ = self._run(tmp_path, sc)
        assert record["results"]["count"] == 3
        assert record["results"]["hyperbolic_energy"] is not None
