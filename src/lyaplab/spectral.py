"""Periodic discrete Schrodinger operators: discriminant, band structure,
gap opening, integrated density of states, and Thouless-formula exponents.

The operator is (H u)_j = u_{j+1} + u_{j-1} + v_j u_j with v of period n.
Band edges are the solutions of t(E) = +-2 for the monodromy trace t; they
are exactly the eigenvalues of the periodic and antiperiodic restrictions to
one period (symmetric matrices, so nothing can be missed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import uniform_stream
from .cocycles import _blocks, schrodinger_trace
from .quadrature import adaptive_quadrature

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


def discriminant(v: PeriodicPotential, energy) -> float | complex | np.ndarray:
    """Trace of the period-n monodromy at the given energy (scalar or array).

    As a function of real E this is the monic degree-n polynomial whose
    |t| <= 2 set is the spectrum; it is evaluated by the renormalized
    product kernel (never by expanded coefficients), with the energies as
    lanes.  The result is real for real energies and complex otherwise.
    """
    e = np.asarray(energy)
    t = schrodinger_trace(e[..., None] - np.asarray(v.values))
    return t if e.ndim else t.item()


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
    """The 2n roots of t(E)^2 = 4 (with multiplicity), sorted: the periodic
    and antiperiodic eigenvalues.

    Consecutive pairs are the closed bands; equal interior pairs are closed
    gaps.
    """
    return np.sort(np.linalg.eigvalsh(_edge_matrix(v, np.array([1.0, -1.0]))), axis=None)


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
        if abs(discriminant(v, cand)) > 2.0:
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

    def theta_in_band(self, k, energy) -> np.ndarray:
        """theta_k(E) for band index k (an int, or an array matching energy)."""
        t = discriminant(self.potential, np.asarray(energy, dtype=float))
        arg = np.clip(np.where(np.asarray(self.increasing)[k], -t, t) / 2.0, -1.0, 1.0)
        return np.arccos(arg)

    def evaluate(self, energy) -> np.ndarray:
        e = np.atleast_1d(np.asarray(energy, dtype=float))
        edges = np.asarray(self.edges)
        # the first edge >= E is band k's right edge when E is in band k
        # (inside 0) and band k+1's left edge when E is in the gap above it;
        # below every edge E counts as band 0, above every edge as the top gap
        pos = np.searchsorted(edges, e, side="left")
        k, inside = np.divmod(np.maximum(pos - 1, 0), 2)
        out = np.where(inside == 0, k + self.theta_in_band(k, e) / math.pi, k + 1) / self.n
        out = np.where(e < edges[0], 0.0, out)
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


# thouless_lyapunov's quadrature over the Floquet phase
THOULESS_TOL = 1e-8
THOULESS_MIN_PANELS = 4
THOULESS_MAX_PANELS = 400


def thouless_lyapunov(n_of_e: IDS, energy: float) -> float:
    """integral of ln|E' - E| dN(E'), as one quadrature over the Floquet phase.

    dN = dtheta / (n pi) on every band and theta -> phi is a reflection, so
    the integral is (1 / (n pi)) int_0^pi sum_k ln|E_k(phi) - E| dphi, with
    every band's E_k(phi) at a quadrature pass's nodes from one eigvalsh per
    `_blocks` block of n x n matrices.  For E in the spectrum the integrand
    has log singularities where 2 cos phi = t(E): ln|phi - c| is subtracted
    for c in {phi0, -phi0, 2 pi - phi0}, phi0 = arccos(t(E)/2), and added
    back in closed form.  Subtraction and add-back cancel for any c, so
    t(E) only steers the convergence.  The raw value is returned (no
    clamping at 0).
    """
    e0 = float(energy)
    v = n_of_e.potential
    t = discriminant(v, e0)
    if any(abs(e0 - a) <= 1e-14 * (1.0 + abs(e0)) for a in n_of_e.edges):
        t = math.copysign(2.0, t)       # an edge's phase is exactly 0 or pi
    roots = (math.acos(t / 2.0),) if abs(t) <= 2.0 else ()
    cs = [c for phi0 in roots for c in (phi0, -phi0, 2.0 * math.pi - phi0)]

    def integrand(phi):
        vals = np.empty(len(phi))
        for ls, _ in _blocks(len(phi), 1, v.n * v.n):
            eigs = np.linalg.eigvalsh(_edge_matrix(v, np.exp(1j * phi[ls])))
            vals[ls] = np.sum(np.log(np.abs(eigs - e0) + 1e-300), axis=-1)
        for c in cs:
            vals -= np.log(np.abs(phi - c))
        return vals

    res = adaptive_quadrature(integrand, 0.0, math.pi, tol=THOULESS_TOL,
                              min_panels=THOULESS_MIN_PANELS,
                              max_panels=THOULESS_MAX_PANELS, break_at=roots)
    analytic = sum(_log_dist_integral(c, math.pi) for c in cs)
    return (res.value + analytic) / (v.n * math.pi)


def _log_dist_integral(c: float, length: float) -> float:
    """closed form of integral_0^length ln|t - c| dt for any real c."""

    def part(u):
        return u * math.log(abs(u)) - u if u != 0.0 else 0.0

    return part(length - c) - part(-c)


def truncated_eigenvalue_counts(v: PeriodicPotential, size: int = 512) -> np.ndarray:
    """Eigenvalues of the size-N truncation (Dirichlet), the independent
    counting oracle for the IDS tests."""
    reps = -(-size // v.n)
    diag = np.tile(np.asarray(v.values), reps)[:size]
    off = np.ones(size - 1)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
