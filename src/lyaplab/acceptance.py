"""The acceptance suite: one function per release criterion, with tolerances
pinned here and nowhere else.  pytest parametrizes over CRITERIA; the CLI
`reproduce` subcommand runs the same list and prints a pass/fail table.

Expected constants are either hand-derivable closed forms or were computed
with independent oracles (brute-force iteration, adaptive quadrature of
closed-form integrands, eigenvalue counting) before the implementation and
frozen; see the test modules for the oracle recomputations.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import bases, conefield
from .bases import (CircleRotation, PeriodicOrbits, PeriodicTable,
                    TrigPolynomial, combine, constant_potential,
                    uniform_stream)
from .cocycles import (ab_average_check, best_lyapunov, constant_cocycle,
                       lyapunov_periodic_exact, schrodinger_cocycle,
                       schrodinger_entry_cocycle)
from .conefield import certify_uh, harmonicity_probe, hemisphere_cone, lyapunov_uh_exact
from .projective import Mat2, mobius_act, rotation, spherical_dist
from .quadrature import adaptive_quadrature
from .regularize import PhiQuery, analyticity_probe, phi, phi_boundary, poisson_check, weight
from .search import quantita_scan, search_positive_general, search_positive_schrodinger
from .spectral import (PeriodicPotential, bands, discriminant, find_hyperbolic_energy,
                       gap_open_perturb, ids, thouless_lyapunov)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LN_GOLDEN_E3 = 0.9624236501192069      # ln((3+sqrt(5))/2)
PERIOD1 = PeriodicOrbits(((1, 1.0),))


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed_s: float
    budget_s: float
    details: str
    payload: dict

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] criterion {self.cid:2d}: {self.name:<34} "
                f"({self.elapsed_s:6.1f}s / budget {self.budget_s:.0f}s)  {self.details}")


def _seeded_values(seed: int, count: int, lo: float, hi: float) -> list[float]:
    u = uniform_stream(seed, 0, count)
    return [lo + (hi - lo) * float(x) for x in u]


def criterion_1_weight_normalization() -> dict:
    res = adaptive_quadrature(lambda t: weight(t), -1.0, 1.0, tol=1e-12)
    defect = abs(res.value - math.pi / 4.0)
    return {"passed": bool(defect <= 1e-10),
            "details": f"|int weight - pi/4| = {defect:.2e}",
            "value": res.value, "defect": defect}


def criterion_2_rotation_average() -> dict:
    c = constant_cocycle(PERIOD1, Mat2(2.0, 0.0, 0.0, 0.5))
    lhs, rhs = ab_average_check(c, theta_nodes=10_000)
    target = math.log(1.25)
    dev = abs(lhs - target)
    return {"passed": bool(dev <= 2e-3 and abs(lhs - rhs) <= 2e-3),
            "details": f"theta-average {lhs:.6f} vs ln(5/4) = {target:.6f}, dev {dev:.1e}",
            "lhs": lhs, "rhs": rhs}


def criterion_3_constant_exponents() -> dict:
    rot = constant_cocycle(PERIOD1, rotation(0.1372))
    l_rot = best_lyapunov(rot, 10_000).value
    gold = CircleRotation(GOLDEN)
    c3 = schrodinger_cocycle(gold, constant_potential(gold, 0.0), 3.0)
    l_birk = best_lyapunov(c3, 10_000, seed=0).value
    c3p = schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 0.0), 3.0)
    l_exact = best_lyapunov(c3p).value
    ok = (abs(l_rot) <= 1e-6 and abs(l_birk - LN_GOLDEN_E3) <= 1e-3
          and abs(l_exact - LN_GOLDEN_E3) <= 1e-12)
    return {"passed": bool(ok),
            "details": (f"|L(rot)| = {abs(l_rot):.1e}; birkhoff dev {abs(l_birk-LN_GOLDEN_E3):.1e}; "
                        f"exact dev {abs(l_exact-LN_GOLDEN_E3):.1e}"),
            "rotation": l_rot, "birkhoff": l_birk, "exact": l_exact}


def criterion_4_thouless_consistency() -> dict:
    worst = 0.0
    for k in range(20):
        n = 2 + (k % 4)
        vals = _seeded_values(1100 + k, n, -1.5, 1.5)
        pot = PeriodicPotential(tuple(vals))
        n_of_e = ids(pot)
        base = PeriodicOrbits(((n, 1.0),))
        table = PeriodicTable((tuple(vals),))
        lo, hi = min(vals) - 3.0, max(vals) + 3.0
        for j, u in enumerate(uniform_stream(1200 + k, 0, 50)):
            energy = lo + (hi - lo) * float(u)
            th = thouless_lyapunov(n_of_e, energy)
            ex = lyapunov_periodic_exact(schrodinger_cocycle(base, table, energy)).value
            worst = max(worst, abs(th - ex))
    return {"passed": bool(worst <= 1e-6),
            "details": f"worst |thouless - periodic_exact| = {worst:.2e} over 20x50",
            "worst": worst}


def criterion_5_band_facts() -> dict:
    failures = []
    for k in range(100):
        n = 2 + (k % 7)
        pot = PeriodicPotential(tuple(_seeded_values(2100 + k, n, -1.0, 1.0)))
        opened = gap_open_perturb(pot, index=k % n, seed=2200 + k)
        bs = bands(opened)
        if bs.count != n:
            failures.append((k, "count", bs.count))
            continue
        max_len = max(b - a for a, b in bs.bands)
        if max_len > 2.0 * math.pi / n + 1e-9:
            failures.append((k, "length", max_len))
            continue
        energy = find_hyperbolic_energy(opened)
        if not (abs(energy) < 3.0 * math.pi / n
                and abs(discriminant(opened, energy)) > 2.0):
            failures.append((k, "energy", energy))
    return {"passed": not failures,
            "details": f"{100 - len(failures)}/100 seeded potentials pass" +
                       (f"; first failure {failures[0]}" if failures else ""),
            "failures": failures[:5]}


def criterion_6_conefield() -> dict:
    ci = schrodinger_entry_cocycle(PERIOD1, constant_potential(PERIOD1, 1j))
    cert = certify_uh(ci, hemisphere_cone(), n_max=4)
    ok_i = isinstance(cert, conefield.UHCertificate) and cert.steps == 2
    c0 = schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 0.0), 0.0)
    fail0 = certify_uh(c0, hemisphere_cone(), n_max=8)
    ok_fail = isinstance(fail0, conefield.CertificationFailure)
    inv_worst = 0.0
    dual_worst = 0.0
    if ok_i:
        for pt, u, s in cert.directions:
            image = mobius_act(ci.fiber(pt), u)
            u_next, _ = conefield.unstable_direction(ci, ci.base.step(pt), 256)
            inv_worst = max(inv_worst, spherical_dist(image, u_next))
        res = lyapunov_uh_exact(ci, cert, direction_n=256)
        dual_worst = res.discrepancy
        exact = lyapunov_periodic_exact(ci).value
        cross = abs(res.estimate.value - exact)
    else:
        cross = math.inf
    ok = ok_i and ok_fail and inv_worst <= 1e-8 and dual_worst <= 1e-8 and cross <= 1e-9
    return {"passed": bool(ok),
            "details": (f"entry-i certifies at n=2: {ok_i}; elliptic fails: {ok_fail}; "
                        f"invariance {inv_worst:.1e}; duality {dual_worst:.1e}"),
            "steps": getattr(cert, "steps", None), "margin": getattr(cert, "margin", None)}


def criterion_7_harmonicity() -> dict:
    fam_uh = lambda z: schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 0.0), 5.0 + z)
    _, _, defect_uh = harmonicity_probe(fam_uh, 0.0, 0.5, circle_nodes=64)
    fam_cross = lambda z: schrodinger_cocycle(PERIOD1, constant_potential(PERIOD1, 0.0), z)
    _, _, defect_cross = harmonicity_probe(fam_cross, 0.0, 1.0, circle_nodes=64)
    ok = abs(defect_uh) <= 1e-6 and defect_cross >= -1e-6 and defect_cross > 1e-3
    return {"passed": bool(ok),
            "details": f"UH-disk defect {defect_uh:.2e}; crossing-disk defect {defect_cross:.4f} > 0",
            "defect_uh": defect_uh, "defect_cross": defect_cross}


def _seeded_phi_query(k: int, v_lo: float, v_hi: float, w_amp: float,
                      eps: float) -> PhiQuery:
    n = 1 + (k % 3)
    base = PeriodicOrbits(((n, 1.0),))
    v = PeriodicTable((tuple(_seeded_values(3100 + k, n, v_lo, v_hi)),))
    w = PeriodicTable((tuple(_seeded_values(3200 + k, n, -w_amp, w_amp)),))
    return PhiQuery(base=base, v=v, w=w, epsilon=eps)


def criterion_8_boundary_identity() -> dict:
    worst_ratio = 0.0
    worst_poisson = 0.0
    for k in range(20):
        eps = 0.1 + 0.2 * float(uniform_stream(3300 + k, 0, 1)[0])
        q = _seeded_phi_query(k, -3.0, 3.0, 0.3, eps)
        pa = phi(q)
        pb = phi_boundary(q)
        diff = abs(pa.value - pb.value)
        budget = 2.0 * (pa.quad_error + pb.quad_error)
        worst_ratio = max(worst_ratio, diff / budget)
        q_uh = _seeded_phi_query(k, -4.5, -3.5, 0.3, 0.1)
        center, mean, _ = poisson_check(q_uh)
        worst_poisson = max(worst_poisson, abs(mean - center))
    ok = worst_ratio <= 1.0 and worst_poisson <= 1e-6
    return {"passed": bool(ok),
            "details": (f"worst |phi - phi_boundary| / (2 err) = {worst_ratio:.3f}; "
                        f"worst Poisson defect {worst_poisson:.2e}"),
            "worst_ratio": worst_ratio, "worst_poisson": worst_poisson}


def criterion_9_positivity_propagation() -> dict:
    checked = 0
    min_margin = math.inf
    k = 0
    while checked < 20:
        n = 1 + (k % 3)
        base = PeriodicOrbits(((n, 1.0),))
        v = PeriodicTable((tuple(_seeded_values(3400 + k, n, -4.0, -2.5)),))
        w = PeriodicTable((tuple(_seeded_values(3500 + k, n, -0.3, 0.3)),))
        k += 1
        vw = combine([(1.0, v), (1.0, w)])
        l_vw = lyapunov_periodic_exact(schrodinger_entry_cocycle(base, vw)).value
        if l_vw <= 0.01:
            continue
        checked += 1
        res = phi(PhiQuery(base=base, v=v, w=w, epsilon=1.0))
        min_margin = min(min_margin, res.value - 3.0 * res.quad_error)
    return {"passed": bool(min_margin > 0.0),
            "details": f"min (Phi - 3 quad_err) = {min_margin:.4f} over 20 cases with L(v+w) > 0.01",
            "min_margin": min_margin}


def criterion_10_analyticity() -> dict:
    worst = 0.0
    grid = np.linspace(-1.0, 1.0, 33)
    for k in range(10):
        n = 1 + (k % 3)
        base = PeriodicOrbits(((n, 1.0),))
        v = PeriodicTable((tuple(_seeded_values(3600 + k, n, -4.0, -2.6)),))
        direction = PeriodicTable((tuple(_seeded_values(3700 + k, n, -0.3, 0.3)),))
        q = PhiQuery(base=base, v=v, w=direction, epsilon=0.5, quad_tol=1e-11)
        _, r4 = analyticity_probe(q, direction, grid, 4)
        _, r12 = analyticity_probe(q, direction, grid, 12)
        worst = max(worst, r12 / r4 if r4 > 0 else 0.0)
    return {"passed": bool(worst <= 0.1),
            "details": f"worst residual(12)/residual(4) = {worst:.2e} (need <= 0.1)",
            "worst": worst}


def criterion_11_density_search() -> dict:
    gold = CircleRotation(GOLDEN)
    rep_s = search_positive_schrodinger(gold, TrigPolynomial(), 0.0, 0.5, seed=1)
    ok_s = (rep_s.found and rep_s.perturbation_norm < 0.5
            and rep_s.lyapunov_at_result.value > 3.0 * rep_s.lyapunov_at_result.stderr)
    a_cocycle = constant_cocycle(gold, rotation(GOLDEN))
    rep_g = search_positive_general(a_cocycle, 0.5, seed=2)
    ok_g = (rep_g.found and rep_g.perturbation_norm < 0.5
            and rep_g.lyapunov_at_result.value > 3.0 * rep_g.lyapunov_at_result.stderr)
    det = (f"schrodinger: found={rep_s.found} norm={rep_s.perturbation_norm:.3f} "
           f"L={rep_s.lyapunov_at_result.value if rep_s.lyapunov_at_result else float('nan'):.4f}; "
           f"general: found={rep_g.found} norm={rep_g.perturbation_norm:.3f} "
           f"L={rep_g.lyapunov_at_result.value if rep_g.lyapunov_at_result else float('nan'):.4f}")
    return {"passed": bool(ok_s and ok_g), "details": det,
            "schrodinger": rep_s.to_json(), "general": rep_g.to_json()}


QUANTITA_INSTANCE = {
    "v": (-2.1, -2.0),
    "w": (-0.3, -0.25),
    "epsilon": 0.3,
}


def criterion_12_quantita() -> dict:
    base = PeriodicOrbits(((2, 1.0),))
    v = PeriodicTable((QUANTITA_INSTANCE["v"],))
    w = PeriodicTable((QUANTITA_INSTANCE["w"],))
    scan = quantita_scan(base, v, w, QUANTITA_INSTANCE["epsilon"],
                         t_nodes=64, e_nodes=256)
    return {"passed": bool(scan.fraction >= 0.9),
            "details": f"fraction of t with a positive-L energy: {scan.fraction:.4f} (need >= 0.9)",
            "fraction": scan.fraction}


def criterion_13_determinism() -> dict:
    def snapshot() -> str:
        gold = CircleRotation(GOLDEN)
        c3 = schrodinger_cocycle(gold, constant_potential(gold, 0.0), 3.0)
        est = best_lyapunov(c3, 4096, seed=7)
        q = _seeded_phi_query(3, -3.0, 3.0, 0.3, 0.2)
        pa = phi(q)
        pb = phi_boundary(q)
        base = PeriodicOrbits(((2, 1.0),))
        scan = quantita_scan(base, PeriodicTable((QUANTITA_INSTANCE["v"],)),
                             PeriodicTable((QUANTITA_INSTANCE["w"],)),
                             QUANTITA_INSTANCE["epsilon"], t_nodes=16, e_nodes=64)
        sh = bases.BernoulliShift(2, (0.5, 0.5))
        csh = schrodinger_cocycle(sh, bases.CylinderTable(2, 1, (0.3, -0.3)), 0.4)
        mc = best_lyapunov(csh, 256, samples=64, seed=11)
        blob = {
            "birkhoff": [est.value, est.stderr],
            "phi": [pa.value, pa.quad_error],
            "phi_boundary": [pb.value, pb.quad_error],
            "quantita": scan.fraction,
            "monte_carlo": [mc.value, mc.stderr],
        }
        return json.dumps(blob, sort_keys=True)

    first = snapshot()
    second = snapshot()
    return {"passed": first == second,
            "details": "two fresh runs produced byte-identical result payloads"
                       if first == second else "payloads differ",
            "payload_bytes": len(first)}


CRITERIA = [
    (1, "weight normalization", 1.0, criterion_1_weight_normalization),
    (2, "rotation-average identity", 30.0, criterion_2_rotation_average),
    (3, "constant-cocycle exponents", 10.0, criterion_3_constant_exponents),
    (4, "Thouless consistency", 120.0, criterion_4_thouless_consistency),
    (5, "band facts after gap opening", 120.0, criterion_5_band_facts),
    (6, "conefield criterion", 30.0, criterion_6_conefield),
    (7, "sub/harmonicity probes", 60.0, criterion_7_harmonicity),
    (8, "boundary identity and Poisson", 300.0, criterion_8_boundary_identity),
    (9, "positivity propagation", 120.0, criterion_9_positivity_propagation),
    (10, "analyticity probe", 300.0, criterion_10_analyticity),
    (11, "density search", 1200.0, criterion_11_density_search),
    (12, "one-parameter scan", 120.0, criterion_12_quantita),
    (13, "determinism", 120.0, criterion_13_determinism),
]


def run_criterion(cid: int) -> CriterionResult:
    num, name, budget, func = next(c for c in CRITERIA if c[0] == cid)
    start = time.perf_counter()
    out = func()
    elapsed = time.perf_counter() - start
    payload = {k: v for k, v in out.items() if k not in ("passed", "details")}
    return CriterionResult(cid=num, name=name, passed=bool(out["passed"]),
                           elapsed_s=elapsed, budget_s=budget,
                           details=out["details"], payload=payload)


def run_all(only: list[int] | None = None) -> list[CriterionResult]:
    ids = only if only else [c[0] for c in CRITERIA]
    return [run_criterion(i) for i in ids]
