"""Constructive positivity search: given a cocycle with (numerically) zero
exponent, find an arbitrarily small perturbation with a positive exponent,
mirroring the proof order Phi-positivity -> s-scan -> t-scan; plus the
almost-every-t scan behind the quantitative one-parameter statement.

Success thresholds are statistical (value > 3 * stderr) on sampled bases and
a small absolute floor on periodic bases where the evaluation is exact.
Every found report is re-verified at doubled length with a fresh seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bases import (BaseSystem, CircleRotation, IntegrationScheme, PeriodicOrbits,
                    Potential, TrigPolynomial, combine, constant_potential,
                    potential_to_json, uniform_stream)
from .cocycles import (Cocycle, LyapunovEstimate, SchrodingerFamilyEvaluator,
                       best_lyapunov, schrodinger_cocycle, schrodinger_entry_cocycle)
from .projective import ROTATION_GENERATOR, Sl2Element
from .regularize import (BALL_EXPONENT, DEFAULT_ETA_GEN, GeneralFamilyEvaluator,
                         PhiQuery, Sl2Field, constant_sl2_field, phi, phi_general,
                         sup_upper_bound)

EXACT_FLOOR = 1e-10      # positivity floor where the evaluation is exact
SCHRODINGER_QUAD_TOL = 3e-5   # Phi detector tolerance, Schrodinger search
GENERAL_QUAD_TOL = 2e-5       # Phi_general detector tolerance, general search


class PreconditionFailed(RuntimeError):
    pass


@dataclass
class SearchReport:
    found: bool
    v2: Potential | None
    perturbation_norm: float
    lyapunov_at_result: LyapunovEstimate | None
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


def _phi_detector(base, v_entry, w, epsilon, scheme) -> tuple[float, float]:
    q = PhiQuery(base=base, v=v_entry, w=w, epsilon=epsilon, scheme=scheme,
                 quad_tol=SCHRODINGER_QUAD_TOL, max_panels=96)
    res = phi(q)
    return res.value, res.quad_error


def search_positive_schrodinger(base: BaseSystem, v1: Potential, energy: float,
                                delta: float, basis: list[Potential] | None = None,
                                budget: int = 400, seed: int = 0,
                                scheme: IntegrationScheme | None = None) -> SearchReport:
    """Find v2 with ||v2 - v1|| < delta and L(E - v2) > 0 (statistically).

    Implements the density proof as an algorithm: with v = E - v1 and v0 = 1,
    search w in the sup-ball of radius 2^{-3/2} spanned by the basis for
    Phi_eps(v, 1, w) > 3 quad_error (axis scan, then seeded random restarts
    with coordinate refinement), then scan s downward over {2^-j} and t over a
    grid in (-1, 1) until L(v + eps(t + (1-t^2) s w)) clears its threshold;
    v2 = v1 - eps(t + (1-t^2) s w).  The trace records every stage.
    """
    if delta <= 0.0:
        return SearchReport(found=False, v2=None, perturbation_norm=0.0,
                            lyapunov_at_result=None, reason="empty search region (delta <= 0)")
    if isinstance(base, CircleRotation) and base.alpha_rational_flag:
        warnings.warn("rotation number is rational within tolerance: the density "
                      "statements need a non-periodic base")
    if basis is None:
        basis = default_trig_basis() if isinstance(base, CircleRotation) else None
    if basis is None:
        raise ValueError("provide a perturbation basis for this base family")
    if scheme is None:
        scheme = IntegrationScheme(n=16384, seed=seed)
    trace = []
    budget_left = [budget]

    # stage 0: maybe the exponent is already positive
    est0 = best_lyapunov(schrodinger_cocycle(base, v1, energy), n=scheme.n,
                         samples=scheme.samples, seed=seed)
    trace.append({"stage": "initial", "L": est0.value, "stderr": est0.stderr})
    if _positive(est0):
        return SearchReport(found=True, v2=v1, perturbation_norm=0.0,
                            lyapunov_at_result=est0, trace=trace,
                            params={"epsilon": 0.0, "t": 0.0, "s": 0.0})

    one = constant_potential(base)
    v_entry = combine([(energy, one), (-1.0, v1)])
    max_basis_norm = max(sup_upper_bound(b) for b in basis)
    epsilon = 0.999 * delta / (2.0 * (1.0 + max_basis_norm))
    ball = 0.999 * BALL_EXPONENT
    trace.append({"stage": "setup", "epsilon": epsilon, "ball": ball})

    def phi_of(coeffs) -> tuple[float, float]:
        if budget_left[0] <= 0:
            raise _BudgetExhausted()
        budget_left[0] -= 1
        w = combine(list(zip(coeffs, basis)))
        return _phi_detector(base, v_entry, w, epsilon, scheme)

    best = {"coeffs": None, "phi": 0.0, "err": math.inf}

    def consider(coeffs, val, err):
        if val - 3.0 * err > best["phi"] - 3.0 * best["err"]:
            best.update(coeffs=np.array(coeffs), phi=val, err=err)
        return val > 3.0 * err and val > EXACT_FLOOR

    try:
        found_w = None
        # axis scan
        for k, b in enumerate(basis):
            for sign in (1.0, -1.0):
                coeffs = np.zeros(len(basis))
                coeffs[k] = sign * ball / sup_upper_bound(b)
                val, err = phi_of(coeffs)
                trace.append({"stage": "w_axis", "k": k, "sign": sign,
                              "phi": float(val), "err": float(err)})
                if consider(coeffs, val, err):
                    found_w = coeffs
                    break
            if found_w is not None:
                break
        # seeded random restarts with sparse combinations
        if found_w is None:
            draws = uniform_stream(seed, 0, 16 * (len(basis) + 1))
            for r in range(16):
                raw = 2.0 * draws[r * len(basis):(r + 1) * len(basis)] - 1.0
                coeffs = np.asarray(raw)
                norm = sum(abs(c) * sup_upper_bound(b) for c, b in zip(coeffs, basis))
                coeffs = coeffs * (ball / norm)
                val, err = phi_of(coeffs)
                trace.append({"stage": "w_restart", "r": r, "phi": float(val), "err": float(err)})
                if consider(coeffs, val, err):
                    found_w = coeffs
                    break
        if found_w is None:
            return SearchReport(found=False, v2=None, perturbation_norm=0.0,
                                lyapunov_at_result=None, trace=trace,
                                reason="no w with positive Phi found",
                                params={"best_phi": best["phi"]})
        w = combine(list(zip(found_w, basis)))
        trace.append({"stage": "w_found", "coeffs": [float(c) for c in found_w]})

        # s-scan downward, t-grid scan (the proof's order), verified candidates
        ev = SchrodingerFamilyEvaluator(base, scheme)
        sv = ev.potential_support(v_entry)
        s1 = ev.potential_support(one)
        sw = ev.potential_support(w)
        t_nodes = 512
        for j in range(0, 21):
            s = 2.0 ** (-j)
            if budget_left[0] <= 0:
                raise _BudgetExhausted()
            budget_left[0] -= 1
            ts = -1.0 + 2.0 * (np.arange(t_nodes) + 0.5) / t_nodes
            entries = ev.lane_entries(sv, (epsilon * ts, s1), (epsilon * (1.0 - ts * ts) * s, sw))
            vals, errs = ev.lyapunov_batch(entries)
            ok = (vals > 3.0 * errs) & (vals > 1e-6)
            trace.append({"stage": "t_scan", "s": s, "hits": int(ok.sum()),
                          "best_L": float(vals.max())})
            if not np.any(ok):
                continue
            k = int(np.argmax(np.where(ok, vals, -np.inf)))
            t = float(ts[k])
            pert = combine([(epsilon * t, one), (epsilon * (1.0 - t * t) * s, w)])
            v2 = combine([(1.0, v1), (-1.0, pert)])
            norm = sup_upper_bound(pert)
            if norm >= delta:
                trace.append({"stage": "norm_reject", "norm": norm})
                continue
            verify_scheme = IntegrationScheme(n=2 * scheme.n, samples=scheme.samples,
                                              seed=seed + 1)
            est = best_lyapunov(schrodinger_cocycle(base, v2, energy),
                                n=verify_scheme.n, samples=verify_scheme.samples,
                                seed=verify_scheme.seed)
            trace.append({"stage": "verify", "t": t, "s": s,
                          "L": est.value, "stderr": est.stderr})
            if _positive(est):
                return SearchReport(found=True, v2=v2, perturbation_norm=norm,
                                    lyapunov_at_result=est, trace=trace,
                                    params={"epsilon": epsilon, "t": t, "s": s,
                                            "w_coeffs": [float(c) for c in found_w]})
        return SearchReport(found=False, v2=None, perturbation_norm=0.0,
                            lyapunov_at_result=None, trace=trace,
                            reason="s-scan exhausted without verified positivity")
    except _BudgetExhausted:
        return SearchReport(found=False, v2=None, perturbation_norm=0.0,
                            lyapunov_at_result=None, trace=trace,
                            reason="budget_exhausted",
                            params={"best_phi": best["phi"]})


class _BudgetExhausted(Exception):
    pass


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
    eta_gen ball; Phi_general is the positivity detector."""
    if delta <= 0.0 or budget <= 0:
        return SearchReport(found=False, v2=None, perturbation_norm=0.0,
                            lyapunov_at_result=None,
                            reason="empty search region (delta or budget <= 0)")
    base = cocycle.base
    if isinstance(base, CircleRotation) and base.alpha_rational_flag:
        warnings.warn("rotation number is rational within tolerance: the density "
                      "statements need a non-periodic base")
    if scheme is None:
        scheme = IntegrationScheme(n=16384, seed=seed)
    trace = []
    est0 = best_lyapunov(cocycle, n=scheme.n, samples=scheme.samples, seed=seed)
    trace.append({"stage": "initial", "L": est0.value, "stderr": est0.stderr})
    if _positive(est0):
        return SearchReport(found=True, v2=None, perturbation_norm=0.0,
                            lyapunov_at_result=est0, trace=trace,
                            params={"epsilon": 0.0})
    if basis is None:
        basis = default_sl2_basis(base)
    epsilon = 0.999 * delta / (2.0 * (1.0 + eta_gen))
    b = ROTATION_GENERATOR
    evals_used = [0]

    def detector(a_field: Sl2Field, s: float) -> tuple[float, float]:
        evals_used[0] += 1
        return phi_general(cocycle, b, a_field, epsilon, quad_tol=GENERAL_QUAD_TOL,
                           scheme=scheme, eta_gen=eta_gen, s=s, max_panels=96)

    found_a = None
    for k, a0 in enumerate(basis):
        if evals_used[0] >= budget:
            return SearchReport(found=False, v2=None, perturbation_norm=0.0,
                                lyapunov_at_result=None, trace=trace,
                                reason="budget_exhausted")
        scale = eta_gen / a0.sup_norm()
        a = Sl2Field(combine([(scale, a0.p1)]), combine([(scale, a0.p2)]),
                     combine([(scale, a0.p3)]))
        val, err = detector(a, 1.0)
        trace.append({"stage": "a_axis", "k": k, "phi": float(val), "err": float(err)})
        if val > 3.0 * err and val > EXACT_FLOOR:
            found_a = a
            break
    if found_a is None:
        return SearchReport(found=False, v2=None, perturbation_norm=0.0,
                            lyapunov_at_result=None, trace=trace,
                            reason="no a with positive Phi_general found")

    ev = GeneralFamilyEvaluator(cocycle, b, found_a, epsilon, scheme)
    t_nodes = 512
    for j in range(0, 21):
        s = 2.0 ** (-j)
        ts = -1.0 + 2.0 * (np.arange(t_nodes) + 0.5) / t_nodes
        vals, errs = ev.lyapunov_batch(ts, s=s)
        ok = (vals > 3.0 * errs) & (vals > 1e-6)
        trace.append({"stage": "t_scan", "s": s, "hits": int(ok.sum()),
                      "best_L": float(vals.max())})
        if not np.any(ok):
            continue
        k = int(np.argmax(np.where(ok, vals, -np.inf)))
        t = float(ts[k])
        norm = epsilon * (1.0 + (1.0 - t * t) * s * found_a.sup_norm())
        verify = GeneralFamilyEvaluator(
            cocycle, b, found_a, epsilon,
            IntegrationScheme(n=2 * scheme.n, samples=scheme.samples, seed=seed + 1))
        vv, ee = verify.lyapunov_batch(np.array([t]), s=s)
        est = LyapunovEstimate(value=float(vv[0]), stderr=float(ee[0]),
                               method="birkhoff" if not isinstance(base, PeriodicOrbits)
                               else "periodic_exact", n=2 * scheme.n)
        trace.append({"stage": "verify", "t": t, "s": s, "L": est.value,
                      "stderr": est.stderr})
        if _positive(est) and norm < delta:
            return SearchReport(found=True, v2=None, perturbation_norm=norm,
                                lyapunov_at_result=est, trace=trace,
                                params={"epsilon": epsilon, "t": t, "s": s})
    return SearchReport(found=False, v2=None, perturbation_norm=0.0,
                        lyapunov_at_result=None, trace=trace,
                        reason="s-scan exhausted without verified positivity")


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
