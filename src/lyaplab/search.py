"""Constructive positivity search: given a cocycle with (numerically) zero
exponent, find an arbitrarily small perturbation with a positive exponent,
mirroring the proof order Phi-positivity -> s-scan -> t-scan; plus the
almost-every-t scan behind the quantitative one-parameter statement.

Success thresholds are statistical (value > 3 * stderr) on sampled bases and
a small absolute floor on periodic bases where the evaluation is exact.
Every found report is re-verified at doubled length with a fresh seed.

Both searches run one driver: `_detect` tries candidate directions until
Phi is positive, `_scan` runs the s- and t-scan with its verify step.  The
`budget` of either search caps its Phi evaluations; the scan is not counted.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bases import (BaseSystem, CircleRotation, IntegrationScheme, Potential,
                    TrigPolynomial, combine, constant_potential, potential_to_json,
                    uniform_stream)
from .cocycles import (Cocycle, LyapunovEstimate, SchrodingerFamilyEvaluator,
                       best_lyapunov, lane_estimate, schrodinger_cocycle,
                       schrodinger_entry_cocycle)
from .projective import ROTATION_GENERATOR, Sl2Element
from .regularize import (BALL_EXPONENT, DEFAULT_ETA_GEN, GeneralFamilyEvaluator,
                         PhiQuery, Sl2Field, _PhiMachine, constant_sl2_field, phi,
                         phi_general, sup_upper_bound)

EXACT_FLOOR = 1e-10      # positivity floor where the evaluation is exact
SCHRODINGER_QUAD_TOL = 3e-5   # Phi detector tolerance, Schrodinger search
GENERAL_QUAD_TOL = 2e-5       # Phi_general detector tolerance, general search
T_NODES = 512                 # t-grid nodes of the scan, midpoints in (-1, 1)
S_LEVELS = 21                 # s = 2^-j, j = 0 .. S_LEVELS - 1


class PreconditionFailed(RuntimeError):
    pass


@dataclass
class SearchReport:
    found: bool = False
    v2: Potential | None = None
    perturbation_norm: float = 0.0
    lyapunov_at_result: LyapunovEstimate | None = None
    trace: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "perturbation_norm": self.perturbation_norm,
            "v2": potential_to_json(self.v2) if self.v2 is not None else None,
            "lyapunov": None if self.lyapunov_at_result is None else {
                "value": self.lyapunov_at_result.value,
                "stderr": self.lyapunov_at_result.stderr,
                "method": self.lyapunov_at_result.method,
                "n": self.lyapunov_at_result.n,
            },
            "params": self.params,
            "reason": self.reason,
            "trace": self.trace,
        }


def _positive(est: LyapunovEstimate) -> bool:
    return est.value > max(3.0 * est.stderr, EXACT_FLOOR)


def default_trig_basis(degree: int = 18) -> list[TrigPolynomial]:
    """Cosine monomials 1..degree.

    The default degree is chosen so that typical Diophantine rotation numbers
    have a first-order reachable gap label; the golden rotation needs mode 17.
    """
    return [TrigPolynomial(cos=(0.0,) * (k - 1) + (1.0,)) for k in range(1, degree + 1)]


def _start(cocycle, scheme, seed):
    """Stage 0 of both searches: the trace, the scheme they run on, and the
    exponent before any perturbation (positive means the search is done)."""
    base = cocycle.base
    if isinstance(base, CircleRotation) and base.alpha_rational_flag:
        warnings.warn("rotation number is rational within tolerance: the density "
                      "statements need a non-periodic base")
    if scheme is None:
        scheme = IntegrationScheme(n=16384, seed=seed)
    est0 = best_lyapunov(cocycle, n=scheme.n, samples=scheme.samples, seed=seed)
    return [{"stage": "initial", "L": est0.value, "stderr": est0.stderr}], scheme, est0


def _detect(trace, candidates, detector, budget, miss):
    """The first candidate whose Phi clears both 3 errors and EXACT_FLOOR,
    with at most `budget` detector evaluations; else a not-found report
    carrying the best Phi seen.

    candidates yields (candidate, trace tag); detector maps a candidate to
    (Phi, quadrature error)."""
    best_phi, best_margin = 0.0, -math.inf
    for evals, (cand, tag) in enumerate(candidates):
        if evals >= budget:
            return None, SearchReport(trace=trace, reason="budget_exhausted",
                                      params={"best_phi": best_phi})
        val, err = detector(cand)
        trace.append({**tag, "phi": float(val), "err": float(err)})
        if val - 3.0 * err > best_margin:
            best_phi, best_margin = val, val - 3.0 * err
        if val > 3.0 * err and val > EXACT_FLOOR:
            return cand, None
    return None, SearchReport(trace=trace, reason=miss, params={"best_phi": best_phi})


def _scan(trace, lanes, norm_of, verify, delta, found):
    """The proof's s-scan over s = 2^-j, with a t-grid scan at each s.

    lanes(ts, s) gives the (values, stderrs) of the exponent along the
    family; the best t-node that clears 3 stderrs and 1e-6 is kept if
    norm_of(t, s) < delta, then re-estimated by verify(t, s), and the first
    positive one is reported by found(t, s, norm, estimate)."""
    ts = -1.0 + 2.0 * (np.arange(T_NODES) + 0.5) / T_NODES
    for j in range(S_LEVELS):
        s = 2.0 ** (-j)
        vals, errs = lanes(ts, s)
        ok = (vals > 3.0 * errs) & (vals > 1e-6)
        trace.append({"stage": "t_scan", "s": s, "hits": int(ok.sum()),
                      "best_L": float(vals.max())})
        if not np.any(ok):
            continue
        t = float(ts[int(np.argmax(np.where(ok, vals, -np.inf)))])
        norm = norm_of(t, s)
        if norm >= delta:
            trace.append({"stage": "norm_reject", "norm": norm})
            continue
        est = verify(t, s)
        trace.append({"stage": "verify", "t": t, "s": s, "L": est.value,
                      "stderr": est.stderr})
        if _positive(est):
            return found(t, s, norm, est)
    return SearchReport(trace=trace, reason="s-scan exhausted without verified positivity")


def search_positive_schrodinger(base: BaseSystem, v1: Potential, energy: float,
                                delta: float, basis: list[Potential] | None = None,
                                budget: int = 400, seed: int = 0,
                                scheme: IntegrationScheme | None = None) -> SearchReport:
    """Find v2 with ||v2 - v1|| < delta and L(E - v2) > 0 (statistically).

    Implements the density proof as an algorithm: with v = E - v1 and v0 = 1,
    search w in the sup-ball of radius 2^{-3/2} spanned by the basis for
    Phi_eps(v, 1, w) > 3 quad_error (axis scan, then 16 seeded random
    restarts; at most `budget` Phi evaluations), then scan s downward over
    {2^-j} and t over a grid in (-1, 1) until L(v + eps(t + (1-t^2) s w))
    clears its threshold; v2 = v1 - eps(t + (1-t^2) s w).  The trace records
    every stage.
    """
    if delta <= 0.0:
        return SearchReport(reason="empty search region (delta <= 0)")
    if basis is None and not isinstance(base, CircleRotation):
        raise ValueError("provide a perturbation basis for this base family")
    if basis is None:
        basis = default_trig_basis()
    trace, scheme, est0 = _start(schrodinger_cocycle(base, v1, energy), scheme, seed)
    if _positive(est0):
        return SearchReport(found=True, v2=v1, lyapunov_at_result=est0, trace=trace,
                            params={"epsilon": 0.0, "t": 0.0, "s": 0.0})

    one = constant_potential(base)
    v_entry = combine([(energy, one), (-1.0, v1)])
    epsilon = 0.999 * delta / (2.0 * (1.0 + max(sup_upper_bound(b) for b in basis)))
    ball = 0.999 * BALL_EXPONENT
    trace.append({"stage": "setup", "epsilon": epsilon, "ball": ball})

    def candidates():
        for k, b in enumerate(basis):
            for sign in (1.0, -1.0):
                coeffs = np.zeros(len(basis))
                coeffs[k] = sign * ball / sup_upper_bound(b)
                yield coeffs, {"stage": "w_axis", "k": k, "sign": sign}
        draws = uniform_stream(seed, 0, 16 * (len(basis) + 1))
        for r in range(16):
            coeffs = 2.0 * draws[r * len(basis):(r + 1) * len(basis)] - 1.0
            norm = sum(abs(c) * sup_upper_bound(b) for c, b in zip(coeffs, basis))
            yield coeffs * (ball / norm), {"stage": "w_restart", "r": r}

    def query(coeffs, **kw) -> PhiQuery:
        return PhiQuery(base=base, v=v_entry, w=combine(list(zip(coeffs, basis))),
                        epsilon=epsilon, scheme=scheme, **kw)

    def detector(coeffs):
        res = phi(query(coeffs, quad_tol=SCHRODINGER_QUAD_TOL, max_panels=96))
        return res.value, res.quad_error

    coeffs, report = _detect(trace, candidates(), detector, budget,
                             "no w with positive Phi found")
    if report:
        return report
    w = combine(list(zip(coeffs, basis)))
    trace.append({"stage": "w_found", "coeffs": [float(c) for c in coeffs]})

    def pert_of(t, s):
        return combine([(epsilon * t, one), (epsilon * (1.0 - t * t) * s, w)])

    def v2_of(t, s):
        return combine([(1.0, v1), (-1.0, pert_of(t, s))])

    def verify(t, s):
        return best_lyapunov(schrodinger_cocycle(base, v2_of(t, s), energy),
                             n=2 * scheme.n, samples=scheme.samples, seed=seed + 1)

    def found(t, s, norm, est):
        return SearchReport(found=True, v2=v2_of(t, s), perturbation_norm=norm,
                            lyapunov_at_result=est, trace=trace,
                            params={"epsilon": epsilon, "t": t, "s": s,
                                    "w_coeffs": [float(c) for c in coeffs]})

    return _scan(trace, _PhiMachine(query(coeffs)).L_at,
                 lambda t, s: sup_upper_bound(pert_of(t, s)), verify, delta, found)


def default_sl2_basis(base: BaseSystem, degree: int = 4) -> list[Sl2Field]:
    """sl(2)-valued perturbation directions: hyperbolic and symmetric
    generators modulated by trig monomials (rotation bases) or constants."""
    gens = [Sl2Element(1.0, 0.0, 0.0), Sl2Element(0.0, 1.0, 1.0)]
    zero = TrigPolynomial()
    out = []
    if isinstance(base, CircleRotation):
        for k in range(1, degree + 1):
            for tr in (TrigPolynomial(cos=(0.0,) * (k - 1) + (1.0,)),
                       TrigPolynomial(sin=(0.0,) * (k - 1) + (1.0,))):
                out.append(Sl2Field(tr, zero, zero))
                out.append(Sl2Field(zero, tr, tr))
    else:
        out = [constant_sl2_field(base, g) for g in gens]
    return out


def search_positive_general(cocycle: Cocycle, delta: float,
                            basis: list[Sl2Field] | None = None,
                            budget: int = 200, seed: int = 0,
                            scheme: IntegrationScheme | None = None,
                            eta_gen: float = DEFAULT_ETA_GEN) -> SearchReport:
    """General-cocycle version: perturbations e^{eps(t b + (1-t^2) s a)} A
    with b the rotation generator and a from an sl(2)-valued basis inside the
    eta_gen ball; Phi_general is the positivity detector (at most `budget`
    evaluations), followed by the same s- and t-scan."""
    if delta <= 0.0:
        return SearchReport(reason="empty search region (delta <= 0)")
    trace, scheme, est0 = _start(cocycle, scheme, seed)
    if _positive(est0):
        return SearchReport(found=True, lyapunov_at_result=est0, trace=trace,
                            params={"epsilon": 0.0})
    if basis is None:
        basis = default_sl2_basis(cocycle.base)
    epsilon = 0.999 * delta / (2.0 * (1.0 + eta_gen))
    b = ROTATION_GENERATOR

    def candidates():
        for k, a0 in enumerate(basis):
            scale = eta_gen / a0.sup_norm()
            yield (Sl2Field(combine([(scale, a0.p1)]), combine([(scale, a0.p2)]),
                            combine([(scale, a0.p3)])),
                   {"stage": "a_axis", "k": k})

    def detector(a):
        return phi_general(cocycle, b, a, epsilon, quad_tol=GENERAL_QUAD_TOL,
                           scheme=scheme, eta_gen=eta_gen, s=1.0, max_panels=96)

    a, report = _detect(trace, candidates(), detector, budget,
                        "no a with positive Phi_general found")
    if report:
        return report

    @functools.cache
    def verify_ev():
        return GeneralFamilyEvaluator(cocycle, b, a, epsilon, IntegrationScheme(
            n=2 * scheme.n, samples=scheme.samples, seed=seed + 1))

    def verify(t, s):
        return lane_estimate(verify_ev().mat_ev, *verify_ev().lyapunov_batch(np.array([t]), s))

    def found(t, s, norm, est):
        return SearchReport(found=True, perturbation_norm=norm, lyapunov_at_result=est,
                            trace=trace, params={"epsilon": epsilon, "t": t, "s": s})

    return _scan(trace, GeneralFamilyEvaluator(cocycle, b, a, epsilon, scheme).lyapunov_batch,
                 lambda t, s: epsilon * (1.0 + (1.0 - t * t) * s * a.sup_norm()),
                 verify, delta, found)


@dataclass(frozen=True)
class QuantitaScan:
    fraction: float
    t_grid: np.ndarray
    e_grid: np.ndarray
    success_t: np.ndarray       # per-t boolean
    exponents: np.ndarray       # (len(t_grid), len(e_grid)) L values


def quantita_scan(base: BaseSystem, v: Potential, w: Potential, epsilon: float,
                  t_nodes: int = 64, e_nodes: int = 256,
                  scheme: IntegrationScheme | None = None) -> QuantitaScan:
    """Fraction of t in (0, eps) for which some E in (-2 eps, 2 eps) has
    L(E - v - t w) positive; the hypothesis L(-v - eps w) > 0 is verified
    first and PreconditionFailed raised otherwise.

    The fraction is predicted to approach 1 under grid refinement (an
    almost-every-t statement); this is the numerical demonstration.
    """
    if sup_upper_bound(w) >= BALL_EXPONENT:
        raise PreconditionFailed(f"||w|| must be < 2^-3/2 = {BALL_EXPONENT:.6f}")
    if scheme is None:
        scheme = IntegrationScheme()
    one = constant_potential(base)
    ev = SchrodingerFamilyEvaluator(base, scheme)
    s1 = ev.potential_support(one)

    entry0 = combine([(-1.0, v), (-epsilon, w)])
    est0 = best_lyapunov(schrodinger_entry_cocycle(base, entry0), n=scheme.n,
                         samples=scheme.samples, seed=scheme.seed)
    if not _positive(est0):
        raise PreconditionFailed(
            f"L(-v - eps w) = {est0.value:.3e} (stderr {est0.stderr:.1e}) is not positive")

    t_grid = epsilon * (np.arange(t_nodes) + 0.5) / t_nodes
    e_grid = -2.0 * epsilon + 4.0 * epsilon * (np.arange(e_nodes) + 0.5) / e_nodes
    success = np.zeros(t_nodes, dtype=bool)
    exponents = np.empty((t_nodes, e_nodes))
    for i, t in enumerate(t_grid):
        sv = ev.potential_support(combine([(-1.0, v), (-t, w)]))
        vals, errs = ev.lyapunov_batch(ev.lane_entries(sv, (e_grid, s1)))
        exponents[i] = vals
        success[i] = bool(np.any((vals > 3.0 * errs) & (vals > EXACT_FLOOR)))
    return QuantitaScan(fraction=float(success.mean()), t_grid=t_grid,
                        e_grid=e_grid, success_t=success, exponents=exponents)
