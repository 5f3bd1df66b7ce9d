"""Command-line front end: scenario-driven runs with JSON records, CSV grids,
and SVG plots.

Exit codes: 0 success, 2 scenario/schema error, 3 numerical failure,
4: the search found nothing; `results.reason` says why.  Results payloads are
deterministic given the scenario (seed included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bases import (BaseSystem, FamilyMismatch, IntegrationScheme, PeriodicOrbits,
                    Potential, _num_from_json, base_from_json, potential_from_json)
from .cocycles import (Cocycle, ab_average_check, best_lyapunov, constant_cocycle,
                       lyapunov_fubini, schrodinger_cocycle, schrodinger_entry_cocycle)
from .conefield import (ConeField, DirectionsUnconverged, UHCertificate,
                        certify_uh, hemisphere_cone)
from .projective import Mat2, ProjPoint, Sl2Element, rotation
from .regularize import (NotUH, PhiQuery, analyticity_probe, phi, phi_boundary,
                         phi_convolved, phi_general, poisson_check)
from .search import (PreconditionFailed, quantita_scan, search_positive_general,
                     search_positive_schrodinger)
from .spectral import (GapsStubborn, HyperbolicEnergyNotFound, PeriodicPotential,
                       bands, find_hyperbolic_energy, gap_open_perturb, ids,
                       thouless_lyapunov)
from . import svgplot

SCENARIO_SCHEMA = "lyaplab/scenario/v1"
RECORD_SCHEMA = "lyaplab/record/v1"

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4          # a search that found nothing, for any reason

OPERATIONS = ("lyapunov", "certify", "bands", "ids", "phi", "ab-check",
              "search", "quantita-scan")

_COMMON_KEYS = {"schema", "operation", "params", "seed", "samples", "n", "tol", "out"}
_TOP_KEYS = _COMMON_KEYS | {"base", "potential", "cocycle"}


class SchemaError(ValueError):
    pass


def _plain(obj):
    """Convert numpy scalars/arrays and complex values for JSON emission."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def _matrix_from_json(rows) -> Mat2:
    return Mat2(_num_from_json(rows[0][0]), _num_from_json(rows[0][1]),
                _num_from_json(rows[1][0]), _num_from_json(rows[1][1]))


def _cocycle_from_json(base: BaseSystem, d: dict) -> Cocycle:
    kind = d.get("kind")
    if kind == "schrodinger":
        return schrodinger_cocycle(base, potential_from_json(d["potential"]),
                                   _num_from_json(d["energy"]))
    if kind == "schrodinger_entry":
        return schrodinger_entry_cocycle(base, potential_from_json(d["entry"]))
    if kind == "constant":
        return constant_cocycle(base, _matrix_from_json(d["matrix"]))
    if kind == "rotation":
        return constant_cocycle(base, rotation(float(d["theta"])))
    raise SchemaError(f"unknown cocycle kind {kind!r}")


def _sl2_from_json(d) -> Sl2Element:
    return Sl2Element(_num_from_json(d[0]), _num_from_json(d[1]), _num_from_json(d[2]))


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            sc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read scenario: {exc}") from exc
    if not isinstance(sc, dict):
        raise SchemaError("scenario must be a JSON object")
    if sc.get("schema") != SCENARIO_SCHEMA:
        raise SchemaError(f"scenario schema must be {SCENARIO_SCHEMA!r}")
    unknown = set(sc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown scenario fields: {sorted(unknown)}")
    if sc.get("operation") not in OPERATIONS:
        raise SchemaError(f"operation must be one of {OPERATIONS}")
    return sc


def _scheme_from(sc: dict) -> IntegrationScheme:
    return IntegrationScheme(n=int(sc.get("n", 4096)),
                             samples=int(sc.get("samples", 256)),
                             seed=int(sc.get("seed", 0)))


def _params(sc: dict, allowed: set[str]) -> dict:
    p = sc.get("params", {})
    if not isinstance(p, dict):
        raise SchemaError("params must be an object")
    unknown = set(p) - allowed
    if unknown:
        raise SchemaError(f"unknown params: {sorted(unknown)}")
    return p


def _need(sc: dict, key: str):
    if key not in sc:
        raise SchemaError(f"scenario needs a {key!r} field")
    return sc[key]


# ---------------------------------------------------------------------------
# operation runners: scenario -> (results dict, artifact writer)

def _run_lyapunov(sc: dict, out: str | None):
    p = _params(sc, {"method", "energy", "max_doubling"})
    base = base_from_json(_need(sc, "base"))
    if "cocycle" in sc:
        c = _cocycle_from_json(base, sc["cocycle"])
    else:
        c = schrodinger_cocycle(base, potential_from_json(_need(sc, "potential")),
                                _num_from_json(p.get("energy", 0.0)))
    scheme = _scheme_from(sc)
    method = p.get("method", "auto")
    picked = "periodic_exact" if isinstance(base, PeriodicOrbits) else "birkhoff"
    if method not in ("auto", "fubini", picked):
        raise SchemaError(f"method {method!r} is not 'auto', 'fubini' or {picked!r}, "
                          "the estimator this base picks")
    if method == "fubini":
        seq = lyapunov_fubini(c, int(p.get("max_doubling", 8)), scheme)
        results = {"method": "fubini", "sequence": seq}
        if out:
            svgplot.line_chart(os.path.join(out, "fubini.svg"),
                               list(range(len(seq))), [("HS upper bound", seq)],
                               title="doubling upper bounds", xlabel="doublings",
                               ylabel="bound")
        return results
    est = best_lyapunov(c, n=scheme.n, samples=scheme.samples, seed=scheme.seed)
    return {"value": est.value, "stderr": est.stderr, "method": est.method,
            "n": est.n, "samples": est.samples}


def _cone_from_json(d) -> ConeField:
    if d == "hemisphere" or d is None:
        return hemisphere_cone()
    center = ProjPoint(_num_from_json(d["center"][0]), _num_from_json(d["center"][1]))
    return ConeField(center=center, radius=float(d["radius"]))


def _run_certify(sc: dict, out: str | None):
    p = _params(sc, {"cone", "n_max", "probes", "probe_count"})
    base = base_from_json(_need(sc, "base"))
    c = _cocycle_from_json(base, _need(sc, "cocycle"))
    cone = _cone_from_json(p.get("cone"))
    result = certify_uh(c, cone, n_max=int(p.get("n_max", 16)),
                        probes=int(p.get("probes", 64)),
                        probe_count=int(p.get("probe_count", 256)),
                        seed=int(sc.get("seed", 0)))
    if isinstance(result, UHCertificate):
        payload = result.to_json()
        if out:
            with open(os.path.join(out, "certificate.json"), "w") as fh:
                json.dump(_plain(payload), fh, indent=2, sort_keys=True)
        return {"certified": True, "steps": result.steps, "margin": result.margin,
                "lambda_lower": result.lambda_lower,
                "probe_count": result.probe_count, "sampled_only": True}
    return {"certified": False, "reason": result.reason,
            "best_margin": result.best_margin, "best_steps": result.best_steps}


def _run_bands(sc: dict, out: str | None):
    p = _params(sc, {"values", "resolution", "open_gaps", "index"})
    pot = PeriodicPotential(tuple(float(x) for x in p["values"]))
    resolution = float(p.get("resolution", 1e-9))
    opened = pot
    if p.get("open_gaps"):
        opened = gap_open_perturb(pot, index=int(p.get("index", -1)),
                                  seed=int(sc.get("seed", 0)), resolution=resolution)
    bs = bands(opened, resolution)
    results = {"values": list(opened.values), "count": bs.count,
               "bands": [[a, b] for a, b in bs.bands],
               "edges": list(bs.edges),
               "hyperbolic_energy": None}
    if bs.count == opened.n:
        results["hyperbolic_energy"] = find_hyperbolic_energy(opened, resolution)
    if out:
        with open(os.path.join(out, "bands.csv"), "w") as fh:
            fh.write("band,left,right,length\n")
            for i, (a, b) in enumerate(bs.bands):
                fh.write(f"{i},{a!r},{b!r},{b - a!r}\n")
        svgplot.band_diagram(os.path.join(out, "bands.svg"), bs.bands,
                             title=f"spectrum, period {opened.n}")
    return results


def _run_ids(sc: dict, out: str | None):
    p = _params(sc, {"values", "grid_points", "energies"})
    pot = PeriodicPotential(tuple(float(x) for x in p["values"]))
    n_of_e = ids(pot)
    lo = min(pot.values) - 2.5
    hi = max(pot.values) + 2.5
    grid_points = int(p.get("grid_points", 512))
    grid = np.linspace(lo, hi, grid_points)
    values = n_of_e.evaluate(grid)
    results = {"edges": list(n_of_e.edges), "grid_lo": lo, "grid_hi": hi,
               "grid_points": grid_points, "thouless": None}
    if p.get("energies"):
        results["thouless"] = {repr(float(e)): thouless_lyapunov(n_of_e, float(e))
                               for e in p["energies"]}
    if out:
        with open(os.path.join(out, "ids.csv"), "w") as fh:
            fh.write("energy,N\n")
            for e, nv in zip(grid, values):
                fh.write(f"{float(e)!r},{float(nv)!r}\n")
        svgplot.line_chart(os.path.join(out, "ids.svg"), list(grid),
                           [("N(E)", list(values))], title="integrated density of states",
                           xlabel="E", ylabel="N")
    return results


def _phi_query_from(sc: dict, p: dict) -> PhiQuery:
    base = base_from_json(_need(sc, "base"))
    v = potential_from_json(p["v"])
    w = potential_from_json(p["w"])
    v0 = potential_from_json(p["v0"]) if "v0" in p else None
    return PhiQuery(base=base, v=v, w=w, v0=v0, epsilon=float(p["epsilon"]),
                    scheme=_scheme_from(sc), quad_tol=sc.get("tol"))


def _run_phi(sc: dict, out: str | None):
    allowed = {"form", "v", "v0", "w", "epsilon", "delta", "direction", "s_grid",
               "degree", "b", "a", "eta_gen", "nodes"}
    p = _params(sc, allowed)
    form = p.get("form", "schrodinger")
    if form in ("schrodinger", "boundary"):
        q = _phi_query_from(sc, p)
        res = phi(q) if form == "schrodinger" else phi_boundary(q)
        return {"form": form, "value": res.value, "quad_error": res.quad_error,
                "domain_flag": res.domain_flag, "nodes_used": res.nodes_used}
    if form == "poisson":
        q = _phi_query_from(sc, p)
        center, mean, err = poisson_check(q, nodes=int(p.get("nodes", 0)))
        return {"form": form, "center": center, "boundary_mean": mean,
                "defect": mean - center, "quad_error": err}
    if form == "convolved":
        q = _phi_query_from(sc, p)
        value, err = phi_convolved(q, float(p["delta"]))
        return {"form": form, "value": value, "quad_error": err}
    if form == "probe":
        q = _phi_query_from(sc, p)
        direction = potential_from_json(p["direction"])
        s_grid = [float(s) for s in p.get("s_grid", list(np.linspace(-1, 1, 33)))]
        degree = int(p.get("degree", 8))
        coeffs, residual = analyticity_probe(q, direction, s_grid, degree)
        if out:
            vals = [phi(PhiQuery(base=q.base, v=q.v, w=_scaled(direction, s),
                                 v0=q.v0, epsilon=q.epsilon, scheme=q.scheme,
                                 quad_tol=q.quad_tol)).value for s in s_grid]
            svgplot.line_chart(os.path.join(out, "phi_probe.svg"), s_grid,
                               [("Phi(v, v0, s w)", vals)], title="analyticity probe",
                               xlabel="s", ylabel="Phi")
        return {"form": form, "degree": degree, "residual": residual,
                "coefficients": [float(c) for c in coeffs]}
    if form == "general":
        base = base_from_json(_need(sc, "base"))
        c = _cocycle_from_json(base, _need(sc, "cocycle"))
        b = _sl2_from_json(p["b"]) if "b" in p else Sl2Element(0.0, 1.0, -1.0)
        a = _sl2_from_json(p["a"]) if "a" in p else Sl2Element(0.0, 0.0, 0.0)
        value, err = phi_general(c, b, a, float(p["epsilon"]),
                                 quad_tol=float(sc.get("tol") or 1e-8),
                                 scheme=_scheme_from(sc),
                                 eta_gen=float(p.get("eta_gen", 0.05)))
        return {"form": form, "value": value, "quad_error": err}
    raise SchemaError(f"unknown phi form {form!r}")


def _scaled(pot: Potential, s: float) -> Potential:
    from .bases import combine
    return combine([(s, pot)])


def _run_ab_check(sc: dict, out: str | None):
    p = _params(sc, {"theta_nodes"})
    base = base_from_json(_need(sc, "base"))
    c = _cocycle_from_json(base, _need(sc, "cocycle"))
    lhs, rhs = ab_average_check(c, theta_nodes=int(p.get("theta_nodes", 4096)),
                                scheme=_scheme_from(sc))
    return {"lhs": lhs, "rhs": rhs, "difference": lhs - rhs}


def _run_search(sc: dict, out: str | None):
    p = _params(sc, {"kind", "v1", "energy", "delta", "basis_degree", "budget",
                     "eta_gen"})
    base = base_from_json(_need(sc, "base"))
    kind = p.get("kind", "schrodinger")
    seed = int(sc.get("seed", 0))
    if kind == "schrodinger":
        from .search import default_trig_basis
        basis = None
        if "basis_degree" in p:
            basis = default_trig_basis(int(p["basis_degree"]))
        report = search_positive_schrodinger(
            base, potential_from_json(p["v1"]), float(p["energy"]),
            float(p["delta"]), basis=basis, budget=int(p.get("budget", 400)),
            seed=seed)
    elif kind == "general":
        c = _cocycle_from_json(base, _need(sc, "cocycle"))
        report = search_positive_general(c, float(p["delta"]),
                                         budget=int(p.get("budget", 200)),
                                         seed=seed,
                                         eta_gen=float(p.get("eta_gen", 0.05)))
    else:
        raise SchemaError(f"unknown search kind {kind!r}")
    results = report.to_json()
    if out:
        with open(os.path.join(out, "search_report.json"), "w") as fh:
            json.dump(_plain(results), fh, indent=2, sort_keys=True)
    return results


def _run_quantita(sc: dict, out: str | None):
    p = _params(sc, {"v", "w", "epsilon", "t_nodes", "e_nodes"})
    base = base_from_json(_need(sc, "base"))
    scan = quantita_scan(base, potential_from_json(p["v"]), potential_from_json(p["w"]),
                         float(p["epsilon"]), t_nodes=int(p.get("t_nodes", 64)),
                         e_nodes=int(p.get("e_nodes", 256)), scheme=_scheme_from(sc))
    if out:
        with open(os.path.join(out, "quantita.csv"), "w") as fh:
            fh.write("t,E,L\n")
            for i, t in enumerate(scan.t_grid):
                for j, e in enumerate(scan.e_grid):
                    fh.write(f"{float(t)!r},{float(e)!r},{float(scan.exponents[i, j])!r}\n")
        svgplot.heatmap(os.path.join(out, "quantita.svg"), scan.exponents.tolist(),
                        (float(scan.e_grid[0]), float(scan.e_grid[-1])),
                        (float(scan.t_grid[0]), float(scan.t_grid[-1])),
                        title="exponent scan", xlabel="E", ylabel="t")
    return {"fraction": scan.fraction,
            "success_t": [bool(b) for b in scan.success_t]}


_RUNNERS = {
    "lyapunov": _run_lyapunov,
    "certify": _run_certify,
    "bands": _run_bands,
    "ids": _run_ids,
    "phi": _run_phi,
    "ab-check": _run_ab_check,
    "search": _run_search,
    "quantita-scan": _run_quantita,
}


def run_scenario(path: str, overrides: dict | None = None) -> tuple[dict, int]:
    """Execute a scenario file; returns (record, exit_code) and writes the
    record plus CSV/SVG artifacts under the output directory, if set."""
    sc = load_scenario(path)
    for key, val in (overrides or {}).items():
        if val is not None:
            sc[key] = val
    out = sc.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
    op = sc["operation"]
    started = time.perf_counter()
    results = _RUNNERS[op](sc, out)
    wall = time.perf_counter() - started
    record = {
        "schema": RECORD_SCHEMA,
        "version": __version__,
        "operation": op,
        "scenario_sha256": hashlib.sha256(canonical_json(sc).encode()).hexdigest(),
        "wall_time_s": wall,
        "results": _plain(results),
    }
    exit_code = EXIT_OK
    if op == "search" and not results.get("found"):
        exit_code = EXIT_BUDGET
    if out:
        with open(os.path.join(out, "record.json"), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
    return record, exit_code


def _run_reproduce(args) -> int:
    from .acceptance import run_all
    only = [int(x) for x in args.only.split(",")] if args.only else None
    results = run_all(only)
    for r in results:
        print(r.line())
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        payload = [{"cid": r.cid, "name": r.name, "passed": r.passed,
                    "elapsed_s": r.elapsed_s, "details": r.details}
                   for r in results]
        with open(os.path.join(args.out, "reproduce.json"), "w") as fh:
            json.dump(_plain(payload), fh, indent=2, sort_keys=True)
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyaplab",
        description="Lyapunov-exponent laboratory for SL(2) cocycles")
    sub = parser.add_subparsers(dest="command", required=True)
    for op in OPERATIONS:
        p = sub.add_parser(op, help=f"run a {op} scenario")
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--samples", type=int, default=None,
                       help="override Monte Carlo sample count")
        p.add_argument("--n", type=int, default=None, help="override iterate length")
        p.add_argument("--tol", type=float, default=None, help="override quadrature tolerance")
        p.add_argument("--out", default=None, help="output directory for record/CSV/SVG")
    rep = sub.add_parser("reproduce", help="run the acceptance suite")
    rep.add_argument("--only", default=None, help="comma-separated criterion ids")
    rep.add_argument("--out", default=None, help="directory for reproduce.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "reproduce":
        return _run_reproduce(args)
    overrides = {k: getattr(args, k) for k in ("seed", "samples", "n", "tol", "out")}
    try:
        record, code = run_scenario(args.scenario, overrides)
    except (SchemaError, FamilyMismatch) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except KeyError as exc:
        print(f"schema error: scenario is missing the key {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (NotUH, GapsStubborn, HyperbolicEnergyNotFound, DirectionsUnconverged,
            PreconditionFailed, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid scenario value: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    print(json.dumps(record, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
