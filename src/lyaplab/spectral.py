"""Periodic discrete Schrodinger operators: discriminant, band structure,
gap opening, integrated density of states, and Thouless-formula exponents.

The operator is (H u)_j = u_{j+1} + u_{j-1} + v_j u_j with v of period n.
Band edges are the solutions of t(E) = +-2 for the monodromy trace t; they
are localized exactly as eigenvalues of the periodic and antiperiodic
restrictions to one period (symmetric matrices, so nothing can be missed)
and then polished by bisection on the matrix-product discriminant itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import uniform_stream
from .quadrature import adaptive_quadrature

EDGE_BISECTION_TOL = 1e-12
DEFAULT_RESOLUTION = 1e-9


class GapsStubborn(RuntimeError):
    """gap_open_perturb exhausted its retries without opening every gap."""


class HyperbolicEnergyNotFound(RuntimeError):
    """No gap energy with |t(E)| > 2 found inside (-3 pi/n, 3 pi/n)."""


@dataclass(frozen=True)
class PeriodicPotential:
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals or not all(math.isfinite(v) for v in vals):
            raise ValueError("need a nonempty tuple of finite reals")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def replace_entry(self, k: int, value: float) -> "PeriodicPotential":
        vals = list(self.values)
        vals[k] = value
        return PeriodicPotential(tuple(vals))


def discriminant(v: PeriodicPotential, energy) -> complex | np.ndarray:
    """Trace of the period-n monodromy at the given energy (scalar or array).

    As a function of real E this is the monic degree-n polynomial whose
    |t| <= 2 set is the spectrum; it is evaluated by the matrix product
    (never by expanded coefficients), with overflow-guarded rescaling.
    """
    e = np.asarray(energy, dtype=complex)
    scalar = e.ndim == 0
    e = np.atleast_1d(e)
    m11 = np.ones_like(e)
    m12 = np.zeros_like(e)
    m21 = np.zeros_like(e)
    m22 = np.ones_like(e)
    logscale = np.zeros(e.shape)
    for j, vj in enumerate(v.values):
        w = e - vj
        n11 = w * m11 - m21
        n12 = w * m12 - m22
        m21, m22 = m11, m12
        m11, m12 = n11, n12
        if (j + 1) % 8 == 0:
            big = np.maximum(np.abs(m11), np.abs(m12))
            np.maximum(big, np.abs(m21), out=big)
            np.maximum(big, np.abs(m22), out=big)
            mask = big > 1e100
            if np.any(mask):
                sc = np.where(mask, big, 1.0)
                m11, m12, m21, m22 = m11 / sc, m12 / sc, m21 / sc, m22 / sc
                logscale += np.log(sc)
    with np.errstate(over="ignore"):
        tr = (m11 + m22) * np.exp(logscale)
    if np.all(tr.imag == 0.0):
        tr = tr.real
    return tr[0].item() if scalar else tr


def _edge_matrix(v: PeriodicPotential, phase) -> np.ndarray:
    """One-period restriction whose boundary hopping carries `phase` (and its
    conjugate on the other side): eigenvalues are exactly the roots of
    t(E) = 2 Re(phase) for a unit phase.  Real +-1 gives the real
    (anti)periodic matrix; an array of phases gives a stack of matrices."""
    phase = np.asarray(phase)
    n = v.n
    i = np.arange(n)
    h = np.zeros(phase.shape + (n, n), dtype=np.result_type(phase, float))
    h[..., i, i] = v.values
    h[..., i[:-1], i[1:]] += 1.0
    h[..., i[1:], i[:-1]] += 1.0
    h[..., n - 1, 0] += phase
    h[..., 0, n - 1] += np.conj(phase)
    return h


def band_edges(v: PeriodicPotential) -> np.ndarray:
    """The 2n roots of t(E)^2 = 4 (with multiplicity), sorted.

    Consecutive pairs are the closed bands; equal interior pairs are closed
    gaps.  Each simple root is polished by bisection on the discriminant.
    """
    n = v.n
    per = np.linalg.eigvalsh(_edge_matrix(v, +1.0))
    anti = np.linalg.eigvalsh(_edge_matrix(v, -1.0))
    edges = []
    for sigma, eigs in ((+1.0, per), (-1.0, anti)):
        eigs = np.sort(eigs)
        for i, mu in enumerate(eigs):
            gap_left = abs(mu - eigs[i - 1]) if i > 0 else math.inf
            gap_right = abs(eigs[i + 1] - mu) if i + 1 < len(eigs) else math.inf
            h = min(1e-6 * (1.0 + abs(mu)), 0.25 * min(gap_left, gap_right))
            h = max(h, 1e-13)
            lo, hi = mu - h, mu + h
            glo = float(np.real(discriminant(v, lo))) - 2.0 * sigma
            ghi = float(np.real(discriminant(v, hi))) - 2.0 * sigma
            if glo == 0.0:
                edges.append(lo)
                continue
            if ghi == 0.0:
                edges.append(hi)
                continue
            if glo * ghi > 0.0:
                edges.append(float(mu))      # double root (closed gap): keep eigenvalue
                continue
            while hi - lo > EDGE_BISECTION_TOL:
                mid = 0.5 * (lo + hi)
                gm = float(np.real(discriminant(v, mid))) - 2.0 * sigma
                if gm == 0.0:
                    lo = hi = mid
                    break
                if glo * gm < 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            edges.append(0.5 * (lo + hi))
    out = np.sort(np.asarray(edges))
    if len(out) != 2 * n:
        raise AssertionError("edge localization lost roots")
    return out


@dataclass(frozen=True)
class BandStructure:
    """Closed bands of the spectrum, with gaps below `resolution` merged.

    `edges` keeps the raw 2n-point edge list (the unmerged elementary bands)
    that the IDS parameterization is built on.
    """

    bands: tuple[tuple[float, float], ...]
    edges: tuple[float, ...]
    period: int
    resolution: float

    @property
    def count(self) -> int:
        return len(self.bands)

    def gaps(self) -> list[tuple[float, float]]:
        """Open complement intervals, including the two unbounded ones."""
        out = [(-math.inf, self.bands[0][0])]
        for (a, b), (c, d) in zip(self.bands, self.bands[1:]):
            out.append((b, c))
        out.append((self.bands[-1][1], math.inf))
        return out


def bands(v: PeriodicPotential, resolution: float = DEFAULT_RESOLUTION) -> BandStructure:
    """Isolate {E : |t(E)| <= 2} as at most n closed intervals."""
    edges = band_edges(v)
    elementary = [(float(edges[2 * k]), float(edges[2 * k + 1])) for k in range(v.n)]
    merged = [list(elementary[0])]
    for a, b in elementary[1:]:
        if a - merged[-1][1] < resolution:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return BandStructure(bands=tuple((a, b) for a, b in merged),
                         edges=tuple(float(e) for e in edges),
                         period=v.n, resolution=resolution)


def gap_open_perturb(v: PeriodicPotential, index: int = -1, seed: int = 0,
                     resolution: float = DEFAULT_RESOLUTION,
                     max_retries: int = 50) -> PeriodicPotential:
    """Open all gaps by perturbing the single entry v_k with seeded draws in
    (0, 0.05); returns v unchanged when the n bands are already separated."""
    if bands(v, resolution).count == v.n:
        return v
    if v.n < 2:
        raise GapsStubborn("a 1-periodic potential always has its single band")
    k = index % v.n
    draws = uniform_stream(seed, 0, max_retries)
    for i in range(max_retries):
        eps = 0.05 * (draws[i] if draws[i] > 0 else 0.5)
        cand = v.replace_entry(k, v.values[k] + eps)
        if bands(cand, resolution).count == cand.n:
            return cand
    raise GapsStubborn(f"no opening perturbation of entry {k} found in {max_retries} draws")


def find_hyperbolic_energy(v: PeriodicPotential,
                           resolution: float = DEFAULT_RESOLUTION) -> float:
    """Some E in (-3 pi/n, 3 pi/n) with |t(E)| > 2, scanned from the gaps.

    Guaranteed to exist when all n gaps are open, because each band is then
    shorter than 2 pi/n; call gap_open_perturb first if needed.
    """
    n = v.n
    bound = 3.0 * math.pi / n
    bs = bands(v, resolution)
    margin = 1e-9 * (1.0 + bound)
    for lo, hi in bs.gaps():
        a = max(lo, -bound + margin)
        b = min(hi, bound - margin)
        if a >= b:
            continue
        # the clipped gap is open and nonempty, so its midpoint is interior
        cand = 0.5 * (a + b)
        if abs(float(np.real(discriminant(v, cand)))) > 2.0:
            return float(cand)
    raise HyperbolicEnergyNotFound(
        f"no gap energy with |t| > 2 in (+-{bound:.6f}); are all gaps open?")


# ---------------------------------------------------------------------------
# integrated density of states

@dataclass(frozen=True)
class IDS:
    """Arccos parameterization of N(E) per elementary band.

    In band k (0-indexed from the bottom), N(E) = (k + theta_k(E)/pi)/n where
    theta_k = arccos(-t/2) on bands traversed with t increasing and
    arccos(t/2) on the others; N is constant (k+1)/n on the k-th gap.  The
    orientation alternates from the top band, where t ends at +2 (monic t).
    The inverse E_k(theta) is the k-th Floquet-Bloch eigenvalue: the k-th
    eigenvalue of the one-period matrix with boundary phase e^{i phi}, where
    phi = pi - theta on increasing bands and phi = theta on the others, so
    E_k(0) and E_k(pi) are the band's left and right edges.
    """

    potential: PeriodicPotential
    edges: tuple[float, ...]
    increasing: tuple[bool, ...]
    # always (): the eigenvalue inverse has no model; perfbench/tracing.py reads it
    model_errors: tuple[float, ...] = ()

    @property
    def n(self) -> int:
        return self.potential.n

    def theta_in_band(self, k: int, energy) -> np.ndarray:
        t = np.real(discriminant(self.potential, np.asarray(energy, dtype=float)))
        arg = np.clip((-t if self.increasing[k] else t) / 2.0, -1.0, 1.0)
        return np.arccos(arg)

    def evaluate(self, energy) -> np.ndarray:
        e = np.atleast_1d(np.asarray(energy, dtype=float))
        n = self.n
        edges = np.asarray(self.edges)
        out = np.empty(e.shape)
        # index of the band whose right edge is the first >= E
        pos = np.searchsorted(edges, e, side="left")
        for i, (ei, p) in enumerate(zip(e, pos)):
            if p == 0:
                out[i] = 0.0 if ei < edges[0] else self.theta_in_band(0, ei) / (n * math.pi)
                continue
            if p == 2 * n:
                out[i] = 1.0
                continue
            k, inside = divmod(p - 1, 2)
            if inside == 0:      # within band k
                out[i] = (k + self.theta_in_band(k, ei) / math.pi) / n
            else:                # in the gap above band k
                out[i] = (k + 1) / n
        return out if np.ndim(energy) else out[0].item()

    def band_energy(self, k: int, thetas) -> np.ndarray:
        """E_k(theta) at every theta, from one batched eigvalsh."""
        thetas = np.asarray(thetas, dtype=float)
        phi = math.pi - thetas if self.increasing[k] else thetas
        return np.linalg.eigvalsh(_edge_matrix(self.potential, np.exp(1j * phi)))[..., k]


def ids(v: PeriodicPotential) -> IDS:
    """Build the IDS parameterization: the band edges and each band's
    orientation; IDS.band_energy computes the inverse on demand."""
    n = v.n
    return IDS(potential=v, edges=tuple(float(e) for e in band_edges(v)),
               increasing=tuple(((n - 1 - k) % 2 == 0) for k in range(n)))


def thouless_lyapunov(n_of_e: IDS, energy: float, tol: float = 1e-8) -> float:
    """integral of ln|E' - E| dN(E'), band by band in the theta variable.

    When E lies inside a band, ln|E'-E| = ln|theta'-theta_0| +
    ln|(E'-E)/(theta'-theta_0)|; the first term integrates in closed form and
    the second is smooth, restoring fast quadrature.  The raw value is
    returned (no clamping at 0).
    """
    e0 = float(energy)
    n = n_of_e.n
    edges = n_of_e.edges
    total = 0.0
    for k in range(n):
        a, b = edges[2 * k], edges[2 * k + 1]
        if b - a < 1e-13:
            total += math.log(abs(0.5 * (a + b) - e0) + 1e-300) / n
            continue

        def e_of(th, k=k):
            return n_of_e.band_energy(k, th)

        inside = a - 1e-12 <= e0 <= b + 1e-12
        if inside:
            theta0 = float(n_of_e.theta_in_band(k, min(max(e0, a), b)))
            slope = _band_slope(e_of, theta0)

            def smooth(th, e_of=e_of, theta0=theta0, slope=slope):
                d = th - theta0
                vals = e_of(th) - e0
                tiny = np.abs(d) < 1e-9
                ratio = np.abs(np.where(tiny, slope, vals / np.where(d == 0.0, 1.0, d)))
                return np.log(ratio + 1e-300)

            res = adaptive_quadrature(smooth, 0.0, math.pi, tol=tol,
                                      min_panels=4, max_panels=400)
            analytic = _log_dist_integral(theta0, math.pi)
            total += (res.value + analytic) / (n * math.pi)
        else:
            def integrand(th, e_of=e_of):
                return np.log(np.abs(e_of(th) - e0) + 1e-300)

            res = adaptive_quadrature(integrand, 0.0, math.pi, tol=tol,
                                      min_panels=4, max_panels=400)
            total += res.value / (n * math.pi)
    return total


def _band_slope(e_of, theta0: float, h: float = 1e-6) -> float:
    lo = max(theta0 - h, 0.0)
    hi = min(theta0 + h, math.pi)
    vals = np.asarray(e_of(np.array([lo, hi])), dtype=float)
    return float((vals[1] - vals[0]) / (hi - lo)) if hi > lo else 1.0


def _log_dist_integral(theta0: float, length: float) -> float:
    """closed form of integral_0^length ln|t - theta0| dt for theta0 in [0, length]."""
    left = theta0
    right = length - theta0

    def part(u):
        return u * math.log(u) - u if u > 0.0 else 0.0

    return part(left) + part(right)


def truncated_eigenvalue_counts(v: PeriodicPotential, size: int = 512) -> np.ndarray:
    """Eigenvalues of the size-N truncation (Dirichlet), the independent
    counting oracle for the IDS tests."""
    reps = -(-size // v.n)
    diag = np.tile(np.asarray(v.values), reps)[:size]
    off = np.ones(size - 1)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
