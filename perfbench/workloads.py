"""The benchmark's workloads: seeded inputs, the tasks of one pass, and the
per-task checks.

`WORKLOADS[name](seed)` builds the inputs of one workload and returns the
tasks of one pass, in the order they run.  A task returns `(ok, payload)`:
`ok` says whether its result meets the tolerance that
`lyaplab.acceptance` pins for the matching release criterion, and `payload`
is the JSON-serializable result that goes into the workload's sha256.

Every call into lyaplab goes through a module attribute (`search.phi`,
`spectral.ids`, ...), so the tracer sees it when it patches that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from lyaplab import cocycles, conefield, regularize, search, spectral
from lyaplab.bases import (CircleRotation, IntegrationScheme, PeriodicOrbits,
                           PeriodicTable, TrigPolynomial, combine,
                           constant_potential, uniform_stream)
from lyaplab.projective import rotation

SILVER = math.sqrt(2.0) - 1.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Criterion 11 searches with delta = 0.5 on 16384-step Birkhoff orbits, which
# takes about two minutes per pass.  A pass here has to fit a 20 s run, so the
# orbit is 16 times shorter and delta doubles to keep Phi above its detection
# threshold at that length.  Both searches keep the mechanism: the Schrodinger
# search still scans modes 1-5 before it detects mode 6 (11 Phi evaluations),
# and the general search still detects at its fifth basis field.
SEARCH_DELTA = 1.0
SEARCH_ORBIT = 1024

# Criterion 4 runs 50 energies for each of its 20 potentials.  Each seed takes
# the next THOULESS_ENERGIES of them from the same streams, so seeds
# 0 .. 50 / THOULESS_ENERGIES - 1 together cover criterion 4's energies.
THOULESS_POTENTIALS = 20
THOULESS_ENERGIES = 3

PHI_QUERIES = 60           # criteria 8 and 9 candidates per pass

# Criterion 10's ten probes are fixed, not seeded.  Its ratio test
# residual(12) / residual(4) <= 0.1 has no roundoff floor, so it fails on
# queries whose Phi(s) is already fitted to roundoff at degree 4 (query 48:
# 7.8e-16 against 1.7e-14).  Only the pinned instance is known to pass.
PROBE_QUERIES = 10


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], tuple[bool, object]]


def seeded_values(seed: int, count: int, lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * float(x) for x in uniform_stream(seed, 0, count)]


# ---------------------------------------------------------------------------
# rotation_search: the density search of the source paper

def _search_ok(report: search.SearchReport) -> bool:
    """Criterion 11: found, norm below delta, L > 3 stderr on re-verification."""
    est = report.lyapunov_at_result
    return bool(report.found and report.perturbation_norm < SEARCH_DELTA
                and est is not None and est.value > 3.0 * est.stderr)


def _schrodinger_search(base, seed):
    report = search.search_positive_schrodinger(
        base, TrigPolynomial(), 0.0, SEARCH_DELTA, seed=seed,
        scheme=IntegrationScheme(n=SEARCH_ORBIT, seed=seed))
    return _search_ok(report), report.to_json()


def _general_search(cocycle, seed):
    report = search.search_positive_general(
        cocycle, SEARCH_DELTA, seed=seed,
        scheme=IntegrationScheme(n=SEARCH_ORBIT, seed=seed))
    return _search_ok(report), report.to_json()


def rotation_search(seed: int) -> list[Task]:
    """Silver-rotation Schrodinger search at E = 0, then the general search on
    the golden rotation cocycle; the seed moves the Birkhoff orbit start and
    the restart draws (criterion 11 uses seeds 1 and 2, i.e. --seed 0)."""
    silver = CircleRotation(SILVER)
    golden = CircleRotation(GOLDEN)
    golden_cocycle = cocycles.constant_cocycle(golden, rotation(GOLDEN))
    return [Task("schrodinger_silver", partial(_schrodinger_search, silver, seed + 1)),
            Task("general_golden", partial(_general_search, golden_cocycle, seed + 2))]


# ---------------------------------------------------------------------------
# thouless_periodic: criterion 4's potentials, seeded energies

def _build_ids(pot, state):
    state["ids"] = spectral.ids(pot)
    return True, list(state["ids"].edges)


def _thouless_energy(base, table, energy, state):
    """Criterion 4: |thouless - periodic_exact| <= 1e-6."""
    th = spectral.thouless_lyapunov(state["ids"], energy)
    ex = cocycles.lyapunov_periodic_exact(
        cocycles.schrodinger_cocycle(base, table, energy)).value
    return bool(abs(th - ex) <= 1e-6), [energy, th, ex]


def thouless_periodic(seed: int) -> list[Task]:
    """For each of criterion 4's potentials, one task builds ids(pot) and the
    next THOULESS_ENERGIES tasks compare the Thouless exponent with the exact
    one at seeded energies."""
    tasks = []
    for k in range(THOULESS_POTENTIALS):
        n = 2 + (k % 4)
        vals = seeded_values(1100 + k, n, -1.5, 1.5)
        base = PeriodicOrbits(((n, 1.0),))
        table = PeriodicTable((tuple(vals),))
        lo, hi = min(vals) - 3.0, max(vals) + 3.0
        state = {}
        tasks.append(Task(f"ids_{k}", partial(_build_ids, spectral.PeriodicPotential(tuple(vals)), state)))
        draws = uniform_stream(1200 + k, THOULESS_ENERGIES * seed, THOULESS_ENERGIES)
        for j, u in enumerate(draws):
            energy = lo + (hi - lo) * float(u)
            tasks.append(Task(f"thouless_{k}_{j}", partial(_thouless_energy, base, table, energy, state)))
    return tasks


# ---------------------------------------------------------------------------
# periodic_phi: the periodic-orbit functionals of criteria 6, 8, 9 and 10

def _phi_query(k: int, v_lo: float, v_hi: float, w_amp: float, eps: float) -> regularize.PhiQuery:
    n = 1 + (k % 3)
    base = PeriodicOrbits(((n, 1.0),))
    v = PeriodicTable((tuple(seeded_values(3100 + k, n, v_lo, v_hi)),))
    w = PeriodicTable((tuple(seeded_values(3200 + k, n, -w_amp, w_amp)),))
    return regularize.PhiQuery(base=base, v=v, w=w, epsilon=eps)


def _boundary_identity(q, q_uh):
    """Criterion 8: |phi - phi_boundary| <= 2 (err_a + err_b), and the
    Poisson defect of the uniformly hyperbolic query <= 1e-6."""
    pa = regularize.phi(q)
    pb = regularize.phi_boundary(q)
    center, mean, _ = regularize.poisson_check(q_uh)
    ok = (abs(pa.value - pb.value) <= 2.0 * (pa.quad_error + pb.quad_error)
          and abs(mean - center) <= 1e-6)
    return bool(ok), [pa.value, pa.quad_error, pb.value, pb.quad_error, center, mean]


def _positivity(base, v, w):
    """Criterion 9: Phi - 3 quad_err > 0 where L(v + w) > 0.01."""
    vw = combine([(1.0, v), (1.0, w)])
    l_vw = cocycles.lyapunov_periodic_exact(cocycles.schrodinger_entry_cocycle(base, vw)).value
    if l_vw <= 0.01:
        return True, [l_vw]
    res = regularize.phi(regularize.PhiQuery(base=base, v=v, w=w, epsilon=1.0))
    return bool(res.value - 3.0 * res.quad_error > 0.0), [l_vw, res.value, res.quad_error]


def _probe_degree4(q, direction, grid, state):
    _, state["r4"] = regularize.analyticity_probe(q, direction, grid, 4)
    return True, state["r4"]


def _probe_degree12(q, direction, grid, state):
    """Criterion 10: residual(12) / residual(4) <= 0.1."""
    _, r12 = regularize.analyticity_probe(q, direction, grid, 12)
    r4 = state["r4"]
    ratio = r12 / r4 if r4 > 0 else 0.0
    return bool(ratio <= 0.1), r12


def _certify(cocycle):
    """Criterion 6: the entry-i cocycle certifies at exactly 2 steps."""
    cert = conefield.certify_uh(cocycle, conefield.hemisphere_cone(), n_max=4)
    ok = isinstance(cert, conefield.UHCertificate) and cert.steps == 2
    return bool(ok), [getattr(cert, "steps", None), getattr(cert, "margin", None)]


def periodic_phi(seed: int) -> list[Task]:
    """Seed s takes the query indices 20 s .. 20 s + 19 of criteria 8 and 9
    (seed 0 is the acceptance instance), plus criterion 10's probes and the
    entry-i certification, which are fixed."""
    tasks = []
    for k in range(PHI_QUERIES * seed, PHI_QUERIES * (seed + 1)):
        eps = 0.1 + 0.2 * float(uniform_stream(3300 + k, 0, 1)[0])
        tasks.append(Task(f"boundary_{k}", partial(
            _boundary_identity, _phi_query(k, -3.0, 3.0, 0.3, eps),
            _phi_query(k, -4.5, -3.5, 0.3, 0.1))))
    for k in range(PHI_QUERIES * seed, PHI_QUERIES * (seed + 1)):
        n = 1 + (k % 3)
        base = PeriodicOrbits(((n, 1.0),))
        v = PeriodicTable((tuple(seeded_values(3400 + k, n, -4.0, -2.5)),))
        w = PeriodicTable((tuple(seeded_values(3500 + k, n, -0.3, 0.3)),))
        tasks.append(Task(f"positivity_{k}", partial(_positivity, base, v, w)))
    grid = np.linspace(-1.0, 1.0, 33)
    for k in range(PROBE_QUERIES):
        n = 1 + (k % 3)
        base = PeriodicOrbits(((n, 1.0),))
        v = PeriodicTable((tuple(seeded_values(3600 + k, n, -4.0, -2.6)),))
        direction = PeriodicTable((tuple(seeded_values(3700 + k, n, -0.3, 0.3)),))
        q = regularize.PhiQuery(base=base, v=v, w=direction, epsilon=0.5, quad_tol=1e-11)
        state = {}
        tasks.append(Task(f"probe4_{k}", partial(_probe_degree4, q, direction, grid, state)))
        tasks.append(Task(f"probe12_{k}", partial(_probe_degree12, q, direction, grid, state)))
    period1 = PeriodicOrbits(((1, 1.0),))
    entry_i = cocycles.schrodinger_entry_cocycle(period1, constant_potential(period1, 1j))
    tasks.append(Task("certify_entry_i", partial(_certify, entry_i)))
    return tasks


WORKLOADS = {
    "rotation_search": rotation_search,
    "thouless_periodic": thouless_periodic,
    "periodic_phi": periodic_phi,
}
