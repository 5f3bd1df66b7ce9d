"""Conefield criterion for uniform hyperbolicity, invariant directions by
projective iteration, the exact exponent on the certified locus, and
harmonicity probes of the exponent along complex parameter disks.

Cones are chordal disks on the projective line.  A Mobius map sends chordal
circles to chordal circles, so the image of a cone is the disk spanned by the
image of its boundary circle; margins are evaluated on a discretized boundary
(a numerical certificate, sampled rather than validated, and labeled so).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bases import BasePoint, IntegrationScheme, integrate, sample_points
from .cocycles import Cocycle, LyapunovEstimate, best_lyapunov
from .projective import (HEMISPHERE_CENTER, HEMISPHERE_RADIUS, ProjPoint,
                         expansion_coeff, mobius_act, spherical_dist)

DIRECTION_SEED = ProjPoint(0.615 + 0.23j, 0.74 - 0.11j)   # fixed generic start
MARGIN_FLOOR = 1e-9       # certify_uh: smaller cone margins do not count
RESIDUAL_TOL = 1e-9       # lyapunov_uh_exact: largest direction residual accepted


class DirectionsUnconverged(RuntimeError):
    """Projective iteration residuals stayed above tolerance."""


@dataclass(frozen=True)
class ConeField:
    """Assignment x -> chordal disk (center, radius); constant or tabulated."""

    center: ProjPoint
    radius: float
    table: tuple[tuple[BasePoint, ProjPoint, float], ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.radius < 1.0:
            raise ValueError("cone radius must lie strictly between 0 and 1")
        if self.table is not None:
            for _, _, r in self.table:
                if not 0.0 < r < 1.0:
                    raise ValueError("cone radius must lie strictly between 0 and 1")

    def at(self, pt: BasePoint) -> tuple[ProjPoint, float]:
        if self.table is not None:
            for key, center, radius in self.table:
                if key == pt:
                    return center, radius
        return self.center, self.radius


def hemisphere_cone() -> ConeField:
    """The open hemisphere centered on the line through (i, 1): the chordal
    disk whose boundary is exactly the real projective line."""
    return ConeField(center=HEMISPHERE_CENTER, radius=HEMISPHERE_RADIUS)


def cone_boundary(center: ProjPoint, radius: float, count: int) -> list[ProjPoint]:
    """count points on the chordal circle of the given radius around center."""
    c1, c2 = center.x, center.y
    out = []
    w = math.sqrt(1.0 - radius * radius)
    for k in range(count):
        phase = cmath.exp(2j * math.pi * k / count)
        a, b = w, radius * phase
        out.append(ProjPoint(c1 * a - c2.conjugate() * b, c2 * a + c1.conjugate() * b))
    return out


@dataclass(frozen=True)
class UHCertificate:
    steps: int
    cone: ConeField
    margin: float
    probe_count: int
    lambda_lower: float
    directions: tuple[tuple[BasePoint, ProjPoint, ProjPoint], ...]   # (x, u(x), s(x))
    sampled_only: bool = True      # numerical certificate, not a validated one

    def to_json(self) -> dict:
        return {
            "steps": self.steps,
            "margin": self.margin,
            "probe_count": self.probe_count,
            "lambda_lower": self.lambda_lower,
            "sampled_only": self.sampled_only,
            "cone": {"center": [[self.cone.center.x.real, self.cone.center.x.imag],
                                [self.cone.center.y.real, self.cone.center.y.imag]],
                     "radius": self.cone.radius},
            "directions": [
                {"point": repr(x),
                 "u": [[u.x.real, u.x.imag], [u.y.real, u.y.imag]],
                 "s": [[s.x.real, s.x.imag], [s.y.real, s.y.imag]]}
                for x, u, s in self.directions],
        }


@dataclass(frozen=True)
class CertificationFailure:
    reason: str
    best_margin: float
    best_steps: int


def certify_uh(c: Cocycle, cone0: ConeField, n_max: int = 16,
               probes: int = 64, probe_count: int = 256, seed: int = 0,
               direction_n: int = 256) -> UHCertificate | CertificationFailure:
    """Search n <= n_max with A_n(cone closure) inside the cone with positive
    margin, checked on `probe_count` base points and `probes` boundary
    directions per point (plus the center).

    The margin is the minimal chordal distance from the sampled image of the
    cone closure to the cone complement; margins below MARGIN_FLOOR do not
    count (a grazing image whose true margin is 0 must not certify through
    roundoff).  Success also tabulates unstable and stable directions at the
    probe points and a heuristic exponent lower bound extracted from the
    contraction of the cone radius.
    """
    base = c.base
    points = sample_points(base, probe_count, seed)
    products = {pt: None for pt in points}
    current = {pt: pt for pt in points}
    best_margin = -math.inf
    best_n = 0
    for n in range(1, n_max + 1):
        margin = math.inf
        for pt in points:
            cur = current[pt]
            a = c.fiber(cur)
            prod = a if products[pt] is None else a @ products[pt]
            # audit determinant drift instead of silently renormalizing
            if prod.maxabs() > 1e100:
                raise OverflowError("cone certification products overflowing; reduce n_max")
            products[pt] = prod
            current[pt] = base.step(cur)
            center0, r0 = cone0.at(pt)
            center1, r1 = cone0.at(current[pt])
            samples = cone_boundary(center0, r0, probes) + [center0]
            reach = max(spherical_dist(mobius_act(prod, m), center1) for m in samples)
            margin = min(margin, r1 - reach)
        if margin > best_margin:
            best_margin, best_n = margin, n
        if margin > MARGIN_FLOOR:
            dirs = []
            min_sep = math.inf
            for pt in points:
                u, ru = unstable_direction(c, pt, direction_n)
                s, rs = stable_direction(c, pt, direction_n)
                dirs.append((pt, u, s))
                min_sep = min(min_sep, spherical_dist(u, s))
            radius0 = cone0.at(points[0])[1]
            shrink = max((radius0 - margin) / radius0, 1e-20)
            lam = -math.log(shrink) / (2.0 * n)
            if min_sep <= 0.0:
                return CertificationFailure("directions_collapsed", margin, n)
            return UHCertificate(steps=n, cone=cone0, margin=margin,
                                 probe_count=len(points), lambda_lower=lam,
                                 directions=tuple(dirs))
    return CertificationFailure("no_contraction", best_margin, best_n)


def _project(v: tuple[complex, complex]) -> tuple[complex, complex]:
    x, y = v
    s = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
    return x / s, y / s


def _forward_image(c: Cocycle, start: BasePoint, n: int, m0: ProjPoint) -> ProjPoint:
    v = (m0.x, m0.y)
    pt = start
    for _ in range(n):
        a = c.fiber(pt)
        v = _project(a.apply(*v))
        pt = c.base.step(pt)
    return ProjPoint(*v)


def unstable_direction(c: Cocycle, x: BasePoint, n: int) -> tuple[ProjPoint, float]:
    """A_n(f^{-n} x) applied to a fixed generic direction, with the distance
    between the n and n/2 iterates as convergence residual."""
    base = c.base
    back = x
    for _ in range(n):
        back = base.step_back(back)
    u_full = _forward_image(c, back, n, DIRECTION_SEED)
    half_start = x
    for _ in range(n // 2):
        half_start = base.step_back(half_start)
    u_half = _forward_image(c, half_start, n // 2, DIRECTION_SEED)
    return u_full, spherical_dist(u_full, u_half)


def stable_direction(c: Cocycle, x: BasePoint, n: int) -> tuple[ProjPoint, float]:
    """[A_n(x)]^{-1} applied to the generic direction (backward iteration with
    inverse matrices); mirror of unstable_direction."""
    def pull_back(length: int) -> ProjPoint:
        pts = []
        pt = x
        for _ in range(length):
            pts.append(pt)
            pt = c.base.step(pt)
        v = (DIRECTION_SEED.x, DIRECTION_SEED.y)
        for p in reversed(pts):
            v = _project(c.fiber(p).inv().apply(*v))
        return ProjPoint(*v)

    s_full = pull_back(n)
    s_half = pull_back(n // 2)
    return s_full, spherical_dist(s_full, s_half)


@dataclass(frozen=True)
class UHExactResult:
    estimate: LyapunovEstimate
    duality_value: float
    discrepancy: float
    integration_error: float


def lyapunov_uh_exact(c: Cocycle, cert: UHCertificate,
                      scheme: IntegrationScheme = IntegrationScheme(),
                      direction_n: int = 256) -> UHExactResult:
    """L = integral of the expansion coefficient along the unstable direction.

    Also evaluates the dual form -integral along the stable direction and
    reports the discrepancy.  Direction residuals above RESIDUAL_TOL raise
    DirectionsUnconverged.
    """
    if not isinstance(cert, UHCertificate):
        raise TypeError("needs a successful certificate")

    worst = [0.0]

    def along_unstable(pt: BasePoint) -> float:
        u, res = unstable_direction(c, pt, direction_n)
        worst[0] = max(worst[0], res)
        return expansion_coeff(c.fiber(pt), u)

    def along_stable(pt: BasePoint) -> float:
        s, res = stable_direction(c, pt, direction_n)
        worst[0] = max(worst[0], res)
        return expansion_coeff(c.fiber(pt), s)

    val_u, err_u = integrate(c.base, along_unstable, scheme)
    val_s, err_s = integrate(c.base, along_stable, scheme)
    if worst[0] > RESIDUAL_TOL:
        raise DirectionsUnconverged(
            f"direction residual {worst[0]:.3e} above {RESIDUAL_TOL:.1e}; raise direction_n")
    dual = -val_s
    est = LyapunovEstimate(value=val_u, stderr=0.0, method="uh_exact", n=direction_n)
    return UHExactResult(estimate=est, duality_value=dual,
                         discrepancy=abs(val_u - dual),
                         integration_error=err_u + err_s)


def harmonicity_probe(family: Callable[[complex], Cocycle], center: complex,
                      radius: float, circle_nodes: int = 64,
                      scheme: IntegrationScheme = IntegrationScheme(),
                      n: int = 4096) -> tuple[float, float, float]:
    """(value at the disk center, mean over the circle, defect = mean - center).

    The exponent is subharmonic in any holomorphic parameter, so the defect is
    >= 0 up to tolerance; it vanishes when the whole closed disk stays in the
    uniformly hyperbolic locus, where the exponent is harmonic.  Evaluations
    use the exact periodic formula on periodic bases, Birkhoff otherwise.
    """
    def level(z: complex) -> float:
        return best_lyapunov(family(z), n=n, samples=scheme.samples,
                             seed=scheme.seed).value

    center_value = level(center)
    vals = [level(center + radius * cmath.exp(2j * math.pi * k / circle_nodes))
            for k in range(circle_nodes)]
    circle_mean = float(np.mean(vals))
    return center_value, circle_mean, circle_mean - center_value
