"""Regularized Lyapunov functionals: the weighted t-integral Phi over the
family v + eps(t v0 + (1-t^2) w), its complex-arc boundary representation,
the Poisson mean-value check, the sl(2)-exponential (non-Schrodinger) form,
the convolved double integral, and the analyticity probe.

Argument convention.  phi and phi_boundary share one convention: both take
the same (v, v0, w, eps) and evaluate the same functional

    Phi(v, v0, w) = int_{-1}^{1} weight(t) L(v + eps (t v0 + (1-t^2) w)) dt.

The complex-node function used internally by phi_boundary is

    rho(z) = L(v + eps (z v0 + (1 - z^2) w)),

which matches the proof's map rho_w'(z) = L(v + eps z v0 + eps^2 (1-z^2) w')
under the rescaling w = eps * w'; with that substitution the proof's
boundary identity reads

    Phi(v, v0, w) = (pi/2) [ rho(psi(0)) - int_0^{1/2} rho(psi(e^{2 pi i t})) dt ]
                  = (pi/2) int_{1/2}^{1} rho(psi(e^{2 pi i t})) dt,

where psi maps the disk onto the upper half-disk.  The second (segment) form
revisits only real parameters, so the independent computation implemented by
phi_boundary is the first form: the center node psi(0) = (sqrt(2)-1) i and
the arc nodes psi(e^{2 pi i t}), t in (0, 1/2), which lie on the upper unit
circle where the fiber entries have positive imaginary part and the cocycles
are uniformly hyperbolic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .bases import (BaseSystem, IntegrationScheme, PeriodicOrbits, PeriodicTable,
                    Potential, CylinderTable, combine, constant_potential)
from .cocycles import (Cocycle, MatrixFamilyEvaluator, SchrodingerFamilyEvaluator,
                       _blocks, _lane_estimates, _matmul, _product, schrodinger_trace)
from .projective import Sl2Element
from .quadrature import QuadResult, adaptive_quadrature, gauss_legendre_rule

BALL_EXPONENT = 2.0 ** (-1.5)       # radius factor eta / 2^{3/2} of the analyticity ball
DEFAULT_ETA_GEN = 0.05              # sl(2) ball radius, validated in test_regularize.py
PSI_CENTER = (math.sqrt(2.0) - 1.0) * 1j


class NotUH(RuntimeError):
    """A boundary node failed the positive-imaginary-part certificate."""


def weight(t):
    """(1 - t^2) / |t^2 + 2 i t + 1|^2 = (1 - t^2) / (t^4 + 6 t^2 + 1).

    Nonnegative on [-1, 1], 1 at t = 0, 0 at t = +-1; integrates to pi/4.
    """
    t = np.asarray(t, dtype=float)
    out = (1.0 - t * t) / (t ** 4 + 6.0 * t * t + 1.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# conformal maps

def cmap_psi(z):
    """Disk -> (disk intersect upper half plane); psi(0) = (sqrt(2)-1) i.
    Elementwise on arrays; a scalar gives a complex.

    The square root must take values in the closed upper half plane; tiny
    negative imaginary parts (including -0.0) produced by roundoff on the
    boundary circle are clamped before the principal branch is applied.
    """
    z = np.asarray(z, dtype=complex)
    r = 1j * (1.0 - z) / (1.0 + z)
    clamp = (r.imag <= 0.0) & (r.imag >= -1e-9 * (1.0 + np.abs(r)))
    w = np.sqrt(np.where(clamp, r.real + 0j, r))
    out = -(w - 1j) / (w + 1j)
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# queries

def inf_lower_bound(pot: Potential) -> float:
    """Certified lower bound for inf of a real potential."""
    if not pot.is_real():
        raise ValueError("inf bound needs a real potential")
    if isinstance(pot, PeriodicTable):
        return min(v.real for t in pot.tables for v in t)
    if isinstance(pot, CylinderTable):
        return min(v.real for v in pot.table)
    return pot.const.real - sum(abs(c) for c in pot.cos) - sum(abs(c) for c in pot.sin)


def sup_upper_bound(pot: Potential) -> float:
    return pot.sup_norm_bounds()[1]


@dataclass(frozen=True)
class PhiQuery:
    """Inputs of Phi_eps(v, v0, w) over a base system.

    v, v0 are real potentials with inf v0 = eta > 0 (v0 defaults to the
    constant 1); w may be complex.  `scheme` controls the inner Lyapunov
    evaluations; `quad_tol` the t-quadrature (defaults: 1e-8 on periodic
    bases where L is exact, 1e-3 otherwise).
    """

    base: BaseSystem
    v: Potential
    w: Potential
    epsilon: float
    v0: Potential | None = None
    scheme: IntegrationScheme = IntegrationScheme()
    quad_tol: float | None = None
    max_panels: int = 512

    def resolved_v0(self) -> Potential:
        return self.v0 if self.v0 is not None else constant_potential(self.base)

    @property
    def eta(self) -> float:
        return inf_lower_bound(self.resolved_v0())

    def ball_radius(self) -> float:
        return self.eta * BALL_EXPONENT

    def in_ball(self) -> bool:
        return sup_upper_bound(self.w) < self.ball_radius()

    def tol(self) -> float:
        if self.quad_tol is not None:
            return self.quad_tol
        return 1e-8 if isinstance(self.base, PeriodicOrbits) else 1e-3


@dataclass(frozen=True)
class PhiResult:
    value: float
    quad_error: float
    domain_flag: str          # "in-ball" | "out-of-ball"
    nodes_used: int


class _PhiMachine:
    """Shared support arrays for the family z -> L(v + eps(z v0 + (1-z^2) w))."""

    def __init__(self, q: PhiQuery):
        self.q = q
        if not q.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not q.v.is_real() or not q.resolved_v0().is_real():
            raise ValueError("v and v0 must be real potentials")
        if q.eta <= 0.0:
            raise ValueError("need inf v0 > 0")
        self.ev = SchrodingerFamilyEvaluator(q.base, q.scheme)
        self.sv = self.ev.potential_support(q.v)
        self.sv0 = self.ev.potential_support(q.resolved_v0())
        self.sw = self.ev.potential_support(q.w)
        self.periodic = isinstance(q.base, PeriodicOrbits)
        self.lane_size = sum(np.size(x) for x in (self.sv if self.periodic else [self.sv]))
        self._kinks = None

    def _entry_blocks(self, zs, s: complex = 1.0):
        """(lane slice, entries) of the nodes zs, one `_blocks` lane block at
        a time, so no more than one block's entries exist at once."""
        q = self.q
        zs = np.asarray(zs)
        for ls, _ in _blocks(len(zs), 1, self.lane_size):
            z = zs[ls]
            yield ls, self.ev.lane_entries(self.sv, (q.epsilon * z, self.sv0),
                                           (q.epsilon * (1.0 - z * z) * s, self.sw))

    def L_at(self, zs, s: complex = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """L(v + eps(z v0 + (1-z^2) s w)) at the nodes zs."""
        vals, errs = np.empty(len(zs)), np.empty(len(zs))
        for ls, ent in self._entry_blocks(zs, s):
            vals[ls], errs[ls] = self.ev.lyapunov_batch(ent)
        return vals, errs

    def min_imag_entry(self, zs) -> np.ndarray:
        """min over the sampled base of Im(entry) per node; positive values
        certify uniform hyperbolicity through the hemisphere conefield."""
        out = np.empty(len(zs))
        for ls, ent in self._entry_blocks(zs):
            if self.periodic:
                out[ls] = np.stack([e.imag.min(axis=-1) for e in ent]).min(axis=0)
            else:
                out[ls] = ent.imag.reshape(ent.shape[0], -1).min(axis=-1)
        return out

    def kinks(self) -> tuple[float, ...]:
        """t in (-1, 1) where a monodromy trace crosses +-2 along the family.

        The exponent vanishes identically on the elliptic side of such a
        crossing, so a panel straddling it can sample exact zeros everywhere
        and hide the hyperbolic sliver from any error estimate; these points
        are therefore forced to be panel boundaries.  Each orbit's trace is a
        polynomial of degree 2 n_j in t (the entries are quadratics), so
        Chebyshev interpolation at 2 n_j + 1 points is exact and its root
        finder is complete.  Only real periodic families have such crossings.
        """
        if self._kinks is not None:
            return self._kinks
        if not self.periodic or not self.q.w.is_real():
            self._kinks = ()
            return self._kinks
        found = []
        for (nj, _), sv, sv0, sw in zip(self.q.base.orbits, self.sv, self.sv0, self.sw):
            deg = 2 * nj
            ts = np.cos(math.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))
            c0 = self.q.epsilon * ts
            c1 = self.q.epsilon * (1.0 - ts * ts)
            trace = schrodinger_trace(sv[None, :] + c0[:, None] * sv0[None, :]
                                      + c1[:, None] * sw[None, :])
            coeffs = np.polynomial.chebyshev.chebfit(ts, trace, deg)
            for target in (2.0, -2.0):
                shifted = coeffs.copy()
                shifted[0] -= target
                for root in np.polynomial.chebyshev.chebroots(shifted):
                    if abs(root.imag) < 1e-9 and -1.0 < root.real < 1.0:
                        found.append(float(root.real))
        self._kinks = tuple(sorted(set(found)))
        return self._kinks


def phi(q: PhiQuery) -> PhiResult:
    """Phi_eps(v, v0, w) by adaptive Gauss-Kronrod quadrature over t.

    Each L is exact on periodic bases (spectral radius of the complexified
    monodromy) and a Birkhoff/Monte Carlo estimate otherwise, whose reported
    statistical error is folded into quad_error.  Out-of-ball queries are
    evaluated and flagged; analyticity is only claimed in the ball.
    """
    machine = _PhiMachine(q)

    def integrand(ts):
        vals, errs = machine.L_at(ts)
        wts = weight(ts)
        return wts * np.asarray(vals, dtype=float), wts * np.asarray(errs, dtype=float)

    res = adaptive_quadrature(integrand, -1.0, 1.0, tol=q.tol(),
                              max_panels=q.max_panels,
                              break_at=machine.kinks())
    flag = "in-ball" if q.in_ball() else "out-of-ball"
    return PhiResult(value=res.value, quad_error=res.error, domain_flag=flag,
                     nodes_used=res.nodes_used)


def _arc_quadrature(machine: _PhiMachine, lo: float, hi: float, tol: float,
                    check_uh: bool, max_panels: int,
                    break_at_theta=()) -> QuadResult:
    """integral over theta in [lo, hi] of rho(psi(e^{2 pi i theta})), under the
    cosine substitution theta = lo + (hi-lo)(1 - cos(pi u))/2 that removes the
    square-root corner behavior of psi at theta in {0, 1/2, 1}."""
    span = hi - lo

    def integrand(us):
        thetas = lo + span * 0.5 * (1.0 - np.cos(math.pi * us))
        jac = span * 0.5 * math.pi * np.sin(math.pi * us)
        zs = cmap_psi(np.exp(2j * math.pi * thetas))
        if check_uh:
            worst = machine.min_imag_entry(zs)
            if np.any(worst <= 0.0):
                k = int(np.argmin(worst))
                raise NotUH(f"boundary node theta={thetas[k]:.6f} has "
                            f"min Im(entry) = {worst[k]:.3e} <= 0; query out of domain")
        vals, errs = machine.L_at(zs)
        return jac * np.asarray(vals, dtype=float), jac * np.asarray(errs, dtype=float)

    arg = np.clip(1.0 - 2.0 * (np.asarray(break_at_theta, dtype=float) - lo) / span, -1.0, 1.0) \
        if len(break_at_theta) else np.zeros(0)
    breaks = np.arccos(arg) / math.pi
    return adaptive_quadrature(integrand, 0.0, 1.0, tol=tol, max_panels=max_panels,
                               break_at=tuple(breaks))


def _theta_of_segment_point(t_star: float) -> float:
    """theta in (1/2, 1) with psi(e^{2 pi i theta}) = t_star in (-1, 1); the
    map is monotone increasing, so bisection suffices."""
    lo, hi = 0.5, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cmap_psi(cmath.exp(2j * math.pi * mid)).real < t_star:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phi_boundary(q: PhiQuery) -> PhiResult:
    """Phi via the proof-side representation on the uniformly hyperbolic arc:

        (pi/2) [ rho(psi(0)) - int_0^{1/2} rho(psi(e^{2 pi i theta})) dtheta ],

    with rho(z) = L(v + eps(z v0 + (1-z^2) w)).  Every node is checked to have
    fiber entries with positive imaginary part (the hemisphere-cone
    certificate); a failing node raises NotUH.  Complex w is allowed; the
    identity with phi holds for real w with ||w|| < eta/2 by the Poisson
    formula and extends to the analyticity ball eta/2^{3/2}.
    """
    machine = _PhiMachine(q)
    center_val, center_err = machine.L_at(np.array([PSI_CENTER]))
    worst = machine.min_imag_entry(np.array([PSI_CENTER]))
    if worst[0] <= 0.0:
        raise NotUH(f"center node has min Im(entry) = {worst[0]:.3e} <= 0")
    arc = _arc_quadrature(machine, 0.0, 0.5, q.tol(), check_uh=True,
                          max_panels=q.max_panels)
    value = 0.5 * math.pi * (float(center_val[0]) - arc.value)
    err = 0.5 * math.pi * (float(center_err[0]) + arc.error)
    flag = "in-ball" if q.in_ball() else "out-of-ball"
    return PhiResult(value=value, quad_error=err, domain_flag=flag,
                     nodes_used=arc.nodes_used + 1)


def poisson_check(q: PhiQuery, nodes: int = 0) -> tuple[float, float, float]:
    """(center value, full-circle boundary mean, combined quadrature error).

    center = rho(psi(0)); the mean runs over the whole circle, whose theta in
    (1/2, 1) half revisits the real segment.  The two agree when rho is
    harmonic through the upper half-disk, which holds for real w with
    ||w|| < eta/2; only real w is accepted.
    """
    if not q.w.is_real():
        raise ValueError("the Poisson check is stated for real w")
    machine = _PhiMachine(q)
    center_val, center_err = machine.L_at(np.array([PSI_CENTER]))
    max_panels = max(q.max_panels, nodes // 15 + 1)
    upper = _arc_quadrature(machine, 0.0, 0.5, q.tol(), check_uh=True, max_panels=max_panels)
    lower = _arc_quadrature(machine, 0.5, 1.0, q.tol(), check_uh=False, max_panels=max_panels,
                            break_at_theta=[_theta_of_segment_point(t) for t in machine.kinks()])
    mean = upper.value + lower.value          # the circle has unit total measure
    err = float(center_err[0]) + upper.error + lower.error
    return float(center_val[0]), mean, err


# ---------------------------------------------------------------------------
# sl(2)-exponential (non-Schrodinger) family

@dataclass(frozen=True)
class Sl2Field:
    """x -> [[p1(x), p2(x)], [p3(x), -p1(x)]] with potential components."""

    p1: Potential
    p2: Potential
    p3: Potential

    def sup_norm(self) -> float:
        return max(sup_upper_bound(self.p1), sup_upper_bound(self.p2),
                   sup_upper_bound(self.p3))


def constant_sl2_field(base: BaseSystem, b: Sl2Element) -> Sl2Field:
    return Sl2Field(constant_potential(base, b.b1), constant_potential(base, b.b2),
                    constant_potential(base, b.b3))


def _exp_sl2(d1, d2, d3) -> tuple:
    """exp of [[d1, d2], [d3, -d1]] elementwise, as components (a, b, c, d).

    exp = cosh(delta) I + sinh(delta)/delta X with delta^2 = d1^2 + d2 d3.
    Real input stays real: delta^2 < 0 takes cos and sin of |delta|."""
    q = d1 * d1 + d2 * d3
    small = np.abs(q) < 1e-8
    if np.iscomplexobj(q):
        delta = np.sqrt(q)
        ch, sh = np.cosh(delta), np.sinh(delta)
    else:
        delta = np.sqrt(np.abs(q))
        hyper = q > 0.0
        ch = np.where(hyper, np.cosh(delta), np.cos(delta))
        sh = np.where(hyper, np.sinh(delta), np.sin(delta))
    sc = np.where(small, 1.0 + q / 6.0 * (1.0 + q / 20.0), sh / np.where(small, 1.0, delta))
    return ch + sc * d1, sc * d2, sc * d3, ch - sc * d1


class GeneralFamilyEvaluator:
    """Batched L(e^{eps(z b(x) + (1-z^2) a(x))} A(x)) over a fixed base.

    b and a may be constant sl(2) elements or x-dependent fields.  The matrix
    supports of A and the component supports of b and a are precomputed; each
    block of nodes (cocycles._blocks) costs one vectorized exponential, one
    product with A and one tree reduction.  Real nodes z and s keep real
    arithmetic.
    """

    def __init__(self, cocycle: Cocycle, b: Sl2Element | Sl2Field,
                 a: Sl2Element | Sl2Field, epsilon: float,
                 scheme: IntegrationScheme = IntegrationScheme()):
        base = cocycle.base
        if isinstance(b, Sl2Element):
            b = constant_sl2_field(base, b)
        if isinstance(a, Sl2Element):
            a = constant_sl2_field(base, a)
        self.epsilon = float(epsilon)
        self.mat_ev = MatrixFamilyEvaluator(cocycle, scheme)
        self.kind = self.mat_ev.kind
        sup_ev = self.mat_ev.support_ev
        b_sup = [sup_ev.potential_support(p) for p in (b.p1, b.p2, b.p3)]
        a_sup = [sup_ev.potential_support(p) for p in (a.p1, a.p2, a.p3)]
        # (b, a) component supports aligned with mat_ev.supports
        if self.kind == "periodic":
            self._fields = [([p[j] for p in b_sup], [p[j] for p in a_sup])
                            for j in range(len(self.mat_ev.supports))]
        else:
            self._fields = [(b_sup, a_sup)]

    def lyapunov_batch(self, zs: np.ndarray, s: complex = 1.0) -> tuple[np.ndarray, np.ndarray]:
        zs = np.asarray(zs)
        cb = self.epsilon * zs
        ca = self.epsilon * (1.0 - zs * zs) * s

        def stacks(ls, ss):
            out = []
            for (b_sup, a_sup), sup in zip(self._fields, self.mat_ev.supports):
                lane = (ls,) + (None,) * sup[0].ndim
                expm = _exp_sl2(*(cb[lane] * bi[ss] + ca[lane] * ai[ss]
                                  for bi, ai in zip(b_sup, a_sup)))
                out.append(_matmul(expm, tuple(x[ss] for x in sup)))
            return out

        return _lane_estimates(self.mat_ev, _product, stacks, len(zs))


def phi_general(cocycle: Cocycle, b: Sl2Element | Sl2Field, a: Sl2Element | Sl2Field,
                epsilon: float, quad_tol: float = 1e-8,
                scheme: IntegrationScheme = IntegrationScheme(),
                eta_gen: float = DEFAULT_ETA_GEN, s: float = 1.0,
                max_panels: int = 512) -> tuple[float, float]:
    """integral of weight(t) L(e^{eps(t b + (1-t^2) s a)} A) dt, the
    non-Schrodinger regularized functional.

    b must be eta_gen-close to the rotation generator [[0,1],[-1,0]] and a in
    the eta_gen ball (sup norms over the base)."""
    base = cocycle.base
    b_f = constant_sl2_field(base, b) if isinstance(b, Sl2Element) else b
    a_f = constant_sl2_field(base, a) if isinstance(a, Sl2Element) else a
    b_dev = Sl2Field(combine([(1.0, b_f.p1)]),
                     combine([(1.0, b_f.p2), (-1.0, constant_potential(base))]),
                     combine([(1.0, b_f.p3), (1.0, constant_potential(base))]))
    if b_dev.sup_norm() > eta_gen + 1e-12:
        raise ValueError(f"b is {b_dev.sup_norm():.3f} away from the rotation "
                         f"generator (> eta_gen = {eta_gen})")
    if a_f.sup_norm() > eta_gen + 1e-12:
        raise ValueError(f"||a|| = {a_f.sup_norm():.3f} > eta_gen = {eta_gen}")
    ev = GeneralFamilyEvaluator(cocycle, b_f, a_f, epsilon, scheme)

    def integrand(ts):
        vals, errs = ev.lyapunov_batch(ts, s=s)
        wts = weight(ts)
        return wts * vals, wts * errs

    res = adaptive_quadrature(integrand, -1.0, 1.0, tol=quad_tol, max_panels=max_panels)
    return float(res.value), float(res.error)


# ---------------------------------------------------------------------------
# convolved functional and analyticity probe

def phi_convolved(q: PhiQuery, delta: float, nodes_a: int = 8,
                  nodes_b: int = 8) -> tuple[float, float]:
    """Phi_{eps,delta}(v, w) = int_0^1 int_{-delta}^{delta}
    Phi_eps(v + eps a, b w) da db, by tensor Gauss-Legendre over (a, b) of
    inner evaluations in the v0 = 1 special form."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    one = constant_potential(q.base)
    xa, wa = gauss_legendre_rule(nodes_a, -delta, delta)
    xb, wb = gauss_legendre_rule(nodes_b, 0.0, 1.0)
    total = 0.0
    err = 0.0
    for ai, wai in zip(xa, wa):
        v_shift = combine([(1.0, q.v), (q.epsilon * ai, one)])
        for bj, wbj in zip(xb, wb):
            inner = replace(q, v=v_shift, v0=None, w=combine([(bj, q.w)]))
            res = phi(inner)
            total += wai * wbj * res.value
            err += wai * wbj * res.quad_error
    return total, err


def analyticity_probe(q: PhiQuery, direction: Potential, s_grid, degree: int
                      ) -> tuple[np.ndarray, float]:
    """Least-squares polynomial fit of s -> Phi(v, v0, s * direction) on the
    grid; returns (coefficients, max absolute fit residual).

    Analyticity in the ball predicts super-polynomial residual decay in the
    degree; the caller compares degrees.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    radius = q.ball_radius()
    if sup_upper_bound(direction) * float(np.max(np.abs(s_grid))) >= radius:
        raise ValueError("s * direction leaves the analyticity ball")
    vals = np.array([phi(replace(q, w=combine([(s, direction)]))).value for s in s_grid])
    series = np.polynomial.polynomial.polyfit(s_grid, vals, degree)
    fit = np.polynomial.polynomial.polyval(s_grid, series)
    return series, float(np.max(np.abs(fit - vals)))
