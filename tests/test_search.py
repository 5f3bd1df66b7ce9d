import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lyaplab import search
from lyaplab.bases import (BernoulliShift, CircleRotation, IntegrationScheme,
                           PeriodicOrbits, PeriodicTable, TrigPolynomial)
from lyaplab.cocycles import best_lyapunov, constant_cocycle
from lyaplab.projective import Mat2, rotation
from lyaplab.search import (PreconditionFailed, default_sl2_basis,
                            default_trig_basis, quantita_scan,
                            search_positive_general, search_positive_schrodinger)

GOLDEN = (math.sqrt(5) - 1) / 2
PERIOD2 = PeriodicOrbits(((2, 1.0),))
MODE17 = [TrigPolynomial(cos=(0.0,) * 16 + (1.0,))]    # the golden rotation's reachable gap


class TestSchrodingerSearch:
    def test_already_positive_returns_zero_perturbation(self):
        gold = CircleRotation(GOLDEN)
        rep = search_positive_schrodinger(gold, TrigPolynomial(), 5.0, 0.5, seed=1)
        assert rep.found
        assert rep.perturbation_norm == 0.0
        assert rep.v2 == TrigPolynomial()
        assert abs(rep.lyapunov_at_result.value - math.log((5 + math.sqrt(21)) / 2)) < 1e-3

    def test_zero_delta_fails_immediately(self):
        gold = CircleRotation(GOLDEN)
        rep = search_positive_schrodinger(gold, TrigPolynomial(), 0.0, 0.0)
        assert not rep.found and rep.reason == "empty search region (delta <= 0)"

    def test_budget_zero_reports_exhaustion(self):
        gold = CircleRotation(GOLDEN)
        rep = search_positive_schrodinger(gold, TrigPolynomial(), 0.0, 0.5,
                                          budget=0, seed=1)
        assert not rep.found and rep.reason == "budget_exhausted"

    def test_directed_search_succeeds_fast(self):
        # with the reachable-gap mode supplied directly the search is quick
        gold = CircleRotation(GOLDEN)
        rep = search_positive_schrodinger(gold, TrigPolynomial(), 0.0, 0.5,
                                          basis=MODE17, seed=1,
                                          scheme=IntegrationScheme(n=8192, seed=1))
        assert rep.found
        assert rep.perturbation_norm < 0.5
        est = rep.lyapunov_at_result
        assert est.value > 3.0 * est.stderr
        # the audit trail shows Phi-positivity before any t-scan success
        stages = [t["stage"] for t in rep.trace]
        assert "w_found" in stages
        assert stages.index("w_found") < stages.index("t_scan")

    def test_deterministic_reports(self):
        gold = CircleRotation(GOLDEN)
        kw = dict(basis=MODE17, seed=9, scheme=IntegrationScheme(n=4096, seed=9))
        a = search_positive_schrodinger(gold, TrigPolynomial(), 0.0, 0.5, **kw)
        b = search_positive_schrodinger(gold, TrigPolynomial(), 0.0, 0.5, **kw)
        assert a.to_json() == b.to_json()

    def test_rational_alpha_warns(self):
        base = CircleRotation(0.25)
        with pytest.warns(UserWarning):
            search_positive_schrodinger(base, TrigPolynomial(), 5.0, 0.5, seed=0)

    def test_default_basis_contains_reachable_golden_mode(self):
        degrees = [len(b.cos) for b in default_trig_basis()]
        assert 17 in degrees


class TestGeneralSearch:
    def test_already_hyperbolic_constant(self):
        gold = CircleRotation(GOLDEN)
        c = constant_cocycle(gold, Mat2(2.0, 0.0, 0.0, 0.5))
        rep = search_positive_general(c, 0.5, seed=2)
        assert rep.found and rep.perturbation_norm == 0.0
        assert abs(rep.lyapunov_at_result.value - math.log(2.0)) < 1e-9

    def test_zero_budget(self):
        gold = CircleRotation(GOLDEN)
        c = constant_cocycle(gold, rotation(GOLDEN))
        rep = search_positive_general(c, 0.5, budget=0)
        assert not rep.found and rep.reason == "budget_exhausted"
        assert rep.params == {"best_phi": 0.0}

    def test_zero_delta_fails_immediately(self):
        c = constant_cocycle(CircleRotation(GOLDEN), rotation(GOLDEN))
        rep = search_positive_general(c, 0.0)
        assert not rep.found and rep.reason == "empty search region (delta <= 0)"

    def test_rotation_cocycle_with_directed_basis(self):
        gold = CircleRotation(GOLDEN)
        c = constant_cocycle(gold, rotation(GOLDEN))
        zero = TrigPolynomial()
        mode2 = TrigPolynomial(cos=(0.0, 1.0))
        from lyaplab.regularize import Sl2Field
        basis = [Sl2Field(zero, mode2, mode2)]
        rep = search_positive_general(c, 0.5, basis=basis, seed=2,
                                      scheme=IntegrationScheme(n=8192, seed=2))
        assert rep.found
        assert rep.perturbation_norm < 0.5
        assert rep.lyapunov_at_result.value > 3.0 * rep.lyapunov_at_result.stderr

    def test_default_sl2_basis_shapes(self):
        gold = CircleRotation(GOLDEN)
        basis = default_sl2_basis(gold, degree=3)
        assert len(basis) == 12
        base2 = PERIOD2
        assert len(default_sl2_basis(base2)) == 2


class TestOneBudgetRule:
    """`budget` counts Phi evaluations in both searches, and nothing else."""

    def test_scan_levels_do_not_draw_on_the_budget(self):
        gold = CircleRotation(GOLDEN)
        rep = search_positive_schrodinger(gold, TrigPolynomial(), 0.0, 0.5, basis=MODE17,
                                          budget=1, seed=9,
                                          scheme=IntegrationScheme(n=4096, seed=9))
        assert rep.found, rep.reason
        stages = [t["stage"] for t in rep.trace]
        assert stages.count("w_axis") == 1 and "t_scan" in stages

    def test_zero_budget_still_checks_the_initial_exponent(self):
        gold = CircleRotation(GOLDEN)
        c = constant_cocycle(gold, Mat2(2.0, 0.0, 0.0, 0.5))
        rep = search_positive_general(c, 0.5, budget=0)
        assert rep.found and rep.perturbation_norm == 0.0
        assert [t["stage"] for t in rep.trace] == ["initial"]


class TestGeneralVerifyEstimate:
    """The verify estimate carries the metadata of the estimator it ran."""

    def test_periodic_base(self):
        base = PeriodicOrbits(((1, 1.0),))
        rep = search_positive_general(constant_cocycle(base, rotation(0.01)), 0.5, seed=2)
        assert rep.found
        est = rep.lyapunov_at_result
        ref = best_lyapunov(constant_cocycle(base, Mat2(2.0, 0.0, 0.0, 0.5)))
        assert (est.method, est.n, est.samples) == (ref.method, ref.n, ref.samples)
        assert (est.method, est.n) == ("periodic_exact", 0)

    def test_shift_base_counts_samples(self):
        sh = BernoulliShift(2, (0.5, 0.5))
        rep = search_positive_general(constant_cocycle(sh, rotation(0.01)), 0.5, seed=2,
                                      scheme=IntegrationScheme(n=128, samples=3, seed=2))
        assert rep.found
        est = rep.lyapunov_at_result
        assert (est.method, est.n, est.samples) == ("birkhoff", 256, 3)


def test_benchmark_trace_contract():
    # perfbench/tracing.py patches the search entry points by name and reads
    # the trace stages; a directed search must count as one Phi evaluation,
    # one verify call and one found search
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer().installed() as tracer:
        search.search_positive_schrodinger(CircleRotation(GOLDEN), TrigPolynomial(), 0.0, 0.5,
                                           basis=MODE17, seed=9,
                                           scheme=IntegrationScheme(n=4096, seed=9))
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["search.calls"] == 1
    assert metrics["search.phi_evals"] == 1
    assert metrics["search.verify_calls"] == 1
    assert metrics["search.found_ratio"] == 1.0


class TestQuantitaScan:
    def test_precondition_enforced(self):
        v = PeriodicTable(((0.0, 0.0),))
        w = PeriodicTable(((0.1, 0.1),))
        with pytest.raises(PreconditionFailed):
            quantita_scan(PERIOD2, v, w, 0.1)

    def test_ball_enforced(self):
        v = PeriodicTable(((-3.0, -3.0),))
        w = PeriodicTable(((0.5, 0.5),))
        with pytest.raises(PreconditionFailed):
            quantita_scan(PERIOD2, v, w, 0.1)

    def test_trivially_hyperbolic_fraction_one(self):
        v = PeriodicTable(((-3.0, -3.1),))
        w = PeriodicTable(((0.1, -0.1),))
        scan = quantita_scan(PERIOD2, v, w, 0.05, t_nodes=16, e_nodes=32)
        assert scan.fraction == 1.0

    def test_seeded_instance_fraction(self):
        v = PeriodicTable(((-2.1, -2.0),))
        w = PeriodicTable(((-0.3, -0.25),))
        scan = quantita_scan(PERIOD2, v, w, 0.3, t_nodes=32, e_nodes=64)
        assert scan.fraction >= 0.9
        assert scan.exponents.shape == (32, 64)
        assert len(scan.success_t) == 32

    def test_deterministic(self):
        v = PeriodicTable(((-2.1, -2.0),))
        w = PeriodicTable(((-0.3, -0.25),))
        a = quantita_scan(PERIOD2, v, w, 0.3, t_nodes=8, e_nodes=16)
        b = quantita_scan(PERIOD2, v, w, 0.3, t_nodes=8, e_nodes=16)
        assert np.array_equal(a.exponents, b.exponents)

    def test_rotation_and_shift_bases(self):
        from lyaplab.bases import BernoulliShift, CircleRotation, CylinderTable
        gold = CircleRotation(GOLDEN)
        scan = quantita_scan(gold, TrigPolynomial(const=-3.0), TrigPolynomial(cos=(0.2,)),
                             0.1, t_nodes=4, e_nodes=8,
                             scheme=IntegrationScheme(n=2048, seed=3))
        assert scan.fraction == 1.0
        sh = BernoulliShift(2, (0.5, 0.5))
        scan2 = quantita_scan(sh, CylinderTable(2, 1, (-3.0, -3.2)),
                              CylinderTable(2, 1, (0.2, -0.1)), 0.1,
                              t_nodes=4, e_nodes=8,
                              scheme=IntegrationScheme(n=512, samples=32, seed=3))
        assert scan2.fraction == 1.0


def test_shift_base_quick_exit_search():
    # the verification estimate on a shift base must carry a finite stderr
    from lyaplab.bases import BernoulliShift, CylinderTable
    sh = BernoulliShift(2, (0.5, 0.5))
    rep = search_positive_schrodinger(
        sh, CylinderTable(2, 1, (0.0, 0.0)), 5.0, 0.5,
        basis=[CylinderTable(2, 1, (1.0, -1.0))],
        scheme=IntegrationScheme(n=1024, samples=32, seed=2), seed=2)
    assert rep.found
    assert math.isfinite(rep.lyapunov_at_result.stderr)
    assert abs(rep.lyapunov_at_result.value - math.log((5 + math.sqrt(21)) / 2)) < 1e-3
