"""Cocycle construction; Lyapunov exponents (exact on periodic orbits,
Birkhoff on rotations, Monte Carlo on shifts), the decreasing
Hilbert-Schmidt sequence, and the rotation-average identity check.

Every library estimator runs on one batched numpy kernel, shared with the
regularized-functional module; the base family alone picks the estimator
(`_lane_estimates`).  The scalar `iterate_renormalized`, `direct_product`,
`lyapunov_birkhoff` and `lyapunov_periodic_exact` work one step at a time:
they are the tests' independent oracle, and three acceptance criteria
cross-check with `lyapunov_periodic_exact`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bases import (BasePoint, BaseSystem, BernoulliShift, CircleRotation,
                    IntegrationScheme, PeriodicOrbits, PeriodicPoint, Potential,
                    ShiftPoint, CirclePoint, check_attachment, combine,
                    constant_potential, integrate, potential_value,
                    rotation_start, symbols_from_stream, _sample_seed)
from .projective import IDENTITY, Mat2


@dataclass(frozen=True)
class Cocycle:
    """A base system together with a fiber map x -> SL(2) matrix.

    `entry` records the Schrodinger structure (fiber [[entry(x), -1], [1, 0]])
    when present, so the batched supports come from the potential's values;
    the generic `fiber` is always valid.
    """

    base: BaseSystem
    fiber: Callable[[BasePoint], Mat2]
    entry: Potential | None = None


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    stderr: float
    method: str           # birkhoff | periodic_exact | uh_exact
    n: int = 0
    samples: int = 1


def schrodinger_entry_cocycle(base: BaseSystem, entry: Potential) -> Cocycle:
    """Fiber [[w(x), -1], [1, 0]] for the entry function w (the convention in
    which L(w) is written for Schrodinger cocycles)."""
    check_attachment(entry, base)

    def fiber(pt: BasePoint) -> Mat2:
        return Mat2(potential_value(entry, base, pt), -1.0, 1.0, 0.0)

    return Cocycle(base=base, fiber=fiber, entry=entry)


def schrodinger_cocycle(base: BaseSystem, potential: Potential, energy: complex) -> Cocycle:
    """Schrodinger cocycle with fiber [[E - v(x), -1], [1, 0]]."""
    entry = combine([(energy, constant_potential(base)), (-1.0, potential)])
    return schrodinger_entry_cocycle(base, entry)


def constant_cocycle(base: BaseSystem, m: Mat2) -> Cocycle:
    return Cocycle(base=base, fiber=lambda pt: m)


def matrix_cocycle(base: BaseSystem, fiber: Callable[[BasePoint], Mat2]) -> Cocycle:
    return Cocycle(base=base, fiber=fiber)


def left_multiplied_cocycle(c: Cocycle, left: Mat2) -> Cocycle:
    """Cocycle with fiber x -> left @ A(x)."""
    return Cocycle(base=c.base, fiber=lambda pt: left @ c.fiber(pt))


# ---------------------------------------------------------------------------
# scalar iteration

def iterate_renormalized(c: Cocycle, x: BasePoint, n: int) -> tuple[Mat2, float]:
    """(M, log_norm) with M of unit Frobenius norm and M * exp(log_norm) equal
    to A_n(x) in exact arithmetic.

    Rescaling by the Frobenius norm happens every step; the rescaling logs
    telescope to log ||A_n||_HS and are accumulated with compensated summation.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m11, m12, m21, m22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    acc = 0.0
    comp = 0.0
    pt = x
    fiber = c.fiber
    base = c.base
    for _ in range(n):
        a = fiber(pt)
        n11 = a.a11 * m11 + a.a12 * m21
        n12 = a.a11 * m12 + a.a12 * m22
        n21 = a.a21 * m11 + a.a22 * m21
        n22 = a.a21 * m12 + a.a22 * m22
        s = math.sqrt(abs(n11) ** 2 + abs(n12) ** 2 + abs(n21) ** 2 + abs(n22) ** 2)
        m11, m12, m21, m22 = n11 / s, n12 / s, n21 / s, n22 / s
        y = math.log(s) - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        pt = base.step(pt)
    return Mat2(m11, m12, m21, m22), acc


def direct_product(c: Cocycle, x: BasePoint, n: int) -> Mat2:
    """Unrescaled A_n(x); only safe for small n (overflow check is on the caller)."""
    m = IDENTITY
    pt = x
    for _ in range(n):
        m = c.fiber(pt) @ m
        pt = c.base.step(pt)
    return m


def _log_opnorm_of_product(c: Cocycle, x: BasePoint, n: int) -> float:
    m, acc = iterate_renormalized(c, x, n)
    return acc + math.log(m.opnorm())


# ---------------------------------------------------------------------------
# eigenvalue helpers (scaled spectral radius)

def _lnrho_scaled(tr_hat: np.ndarray, det_hat: np.ndarray, logscale: np.ndarray,
                  real_input: bool) -> np.ndarray:
    """log spectral radius of matrices exp(logscale) * M_hat given trace and
    det of M_hat.  Real elliptic/parabolic monodromies (|trace| <= 2) snap to
    exactly 0; roundoff negatives are clamped (|det| = 1 forces rho >= 1)."""
    disc = np.sqrt(tr_hat * tr_hat - 4.0 * det_hat + 0j)
    rho_hat = 0.5 * np.maximum(np.abs(tr_hat + disc), np.abs(tr_hat - disc))
    with np.errstate(divide="ignore"):
        out = logscale + np.log(rho_hat)
        log_tr_true = logscale + np.log(np.abs(tr_hat))
    out = np.maximum(out, 0.0)
    if not real_input:
        return out
    elliptic = ((np.abs(tr_hat.imag) <= 1e-12 * np.abs(tr_hat.real) + 1e-300)
                & (log_tr_true <= math.log(2.0) + 1e-14))
    return np.where(elliptic, 0.0, out)


# ---------------------------------------------------------------------------
# the batched product kernel
#
# A stack of 2x2 matrices is held as its four components (a, b, c, d), each
# an array of one shape (..., n), for [[a, b], [c, d]] elementwise.  A
# renormalized matrix appends its log scale: (a, b, c, d, logscale) stands
# for exp(logscale) [[a, b], [c, d]].  Real components stay real.

def _components(mats: np.ndarray) -> tuple:
    """(..., 2, 2) matrices as components."""
    return mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]


def _matmul(x, y) -> tuple:
    """x @ y on components (trailing logscales are ignored)."""
    a1, b1, c1, d1 = x[:4]
    a0, b0, c0, d0 = y[:4]
    return (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
            c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)


def _rescaled(a, b, c, d, logscale) -> tuple:
    """Divide by the largest entry modulus and move its log into logscale."""
    big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    scale = np.where(big > 0.0, big, 1.0)
    inv = 1.0 / scale
    return a * inv, b * inv, c * inv, d * inv, logscale + np.log(scale)


def _join(hi, lo) -> tuple:
    """Renormalized hi @ lo."""
    return _rescaled(*_matmul(hi, lo), hi[4] + lo[4])


def _tree_reduce(m, carry=None) -> tuple:
    """Renormalized ordered product carry @ m[..., n-1] @ ... @ m[..., 0] of
    the renormalized stack m along its last axis, by pairwise tree reduction.

    Every level multiplies neighbouring pairs and rescales each product to
    unit max entry, so arbitrarily long hyperbolic products cannot overflow.
    At an odd length the last element joins carry, the product of all later
    factors, which multiplies the result at the end.
    """
    while m[0].shape[-1] > 1:
        n = m[0].shape[-1]
        if n % 2:
            last = tuple(x[..., -1] for x in m)
            carry = last if carry is None else _join(carry, last)
        m = _join(tuple(x[..., 1::2] for x in m), tuple(x[..., 0:n - 1:2] for x in m))
    m = tuple(x[..., 0] for x in m)
    return m if carry is None else _join(carry, m)


def _product(a, b, c, d) -> tuple:
    """Renormalized product of explicit factors [[a, b], [c, d]] (..., n)."""
    return _tree_reduce((a, b, c, d, np.zeros(np.shape(a))))


def _schrodinger_product(entries: np.ndarray) -> tuple:
    """Renormalized product of the [[e_j, -1], [1, 0]] factors along the last
    axis of entries.  A single factor is returned as it is; the first tree
    level uses the closed form
    [[e1, -1], [1, 0]] @ [[e0, -1], [1, 0]] = [[e1 e0 - 1, -e1], [e0, -1]].
    """
    n = entries.shape[-1]
    last = (entries[..., -1], -1.0, 1.0, 0.0, 0.0)
    if n == 1:
        return last
    e0 = entries[..., 0:n - 1:2]
    e1 = entries[..., 1::2]
    m = _rescaled(e1 * e0 - 1.0, -e1, e0, -1.0, 0.0)
    return _tree_reduce(m, last if n % 2 else None)


def schrodinger_trace(entries: np.ndarray) -> np.ndarray:
    """Trace of the product of the [[e_j, -1], [1, 0]] factors along the last
    axis of entries (inf where it overflows)."""
    a, _, _, d, logscale = _schrodinger_product(entries)
    with np.errstate(over="ignore"):
        return (a + d) * np.exp(logscale)


def _log_hs(m) -> np.ndarray:
    """log of the Hilbert-Schmidt norm of a renormalized matrix."""
    a, b, c, d, logscale = m
    return logscale + 0.5 * np.log(np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2)


def _log_opnorm(m) -> np.ndarray:
    """log of the operator norm of a renormalized matrix."""
    a, b, c, d, logscale = m
    s = np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2
    det = a * d - b * c
    disc = np.maximum(s * s - 4.0 * np.abs(det) ** 2, 0.0)
    return logscale + 0.5 * np.log(0.5 * (s + np.sqrt(disc)))


def _first_half_and_full(product, stack) -> tuple[tuple, tuple]:
    """Renormalized products of the first half and of the whole of the
    factor stack (a tuple of arrays that product maps to a renormalized
    product), in one pass: the two halves are reduced once and joined."""
    half = stack[0].shape[-1] // 2
    first = product(*(x[..., :half] for x in stack))
    second = product(*(x[..., half:] for x in stack))
    return first, _join(second, first)


BLOCK_ELEMENTS = 1 << 16   # factors per component array in one block (512 KiB as float64)


def _blocks(lanes: int, samples: int, length: int) -> list[tuple[slice, slice]]:
    """(lane slice, sample slice) blocks tiling a lanes x samples grid of
    length-factor products, each block with at most BLOCK_ELEMENTS factors
    (or one product, if a single one is longer)."""
    step = max(1, BLOCK_ELEMENTS // length)
    if step >= samples:
        k = step // samples
        if k >= lanes:
            return [(slice(None), slice(None))]
        return [(slice(lo, lo + k), slice(None)) for lo in range(0, lanes, k)]
    return [(slice(i, i + 1), slice(lo, lo + step))
            for i in range(lanes) for lo in range(0, samples, step)]


def _lane_estimates(ev, product, make_stacks, lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, stderrs) per lane of an evaluator's estimator.

    make_stacks(ls, ss) builds the factor stacks of lanes ls: one stack per
    periodic orbit (lanes, n_j), or one Birkhoff stack (lanes, n), or one
    stack of the samples ss (lanes, samples, n); each stack is a tuple of
    arrays that product maps to a renormalized product.  The lanes, and the
    Monte Carlo samples, are taken in `_blocks`, so the temporaries stay
    bounded for every kind and scheme.  Periodic orbits give the exact
    weighted log spectral radius, Birkhoff orbits the N-vs-N/2 proxy as
    stderr, samples their mean and its stderr.
    """
    if ev.kind == "monte_carlo":
        per_sample = np.empty((lanes, ev.samples))
        for ls, ss in _blocks(lanes, ev.samples, ev.n):
            (stack,) = make_stacks(ls, ss)
            per_sample[ls, ss] = _log_opnorm(product(*stack)) / ev.n
        return (per_sample.mean(axis=-1),
                per_sample.std(axis=-1, ddof=1) / math.sqrt(ev.samples))
    vals, errs = np.empty(lanes), np.zeros(lanes)
    if ev.kind == "periodic":
        for ls, ss in _blocks(lanes, 1, sum(nj for nj, _ in ev.base.orbits)):
            acc = 0.0
            for (nj, w), stack in zip(ev.base.orbits, make_stacks(ls, ss)):
                a, b, c, d, logscale = product(*stack)
                tr, det = a + d, a * d - b * c
                real = "c" not in (tr.dtype.kind, det.dtype.kind)
                acc = acc + (w / nj) * _lnrho_scaled(tr, det, logscale, real)
            vals[ls] = acc
        return vals, errs
    for ls, ss in _blocks(lanes, 1, ev.n):
        (stack,) = make_stacks(ls, ss)
        first, full = _first_half_and_full(product, stack)
        vals[ls] = _log_opnorm(full) / ev.n
        errs[ls] = np.abs(vals[ls] - _log_opnorm(first) / (ev.n // 2))
    return vals, errs


def _real_values(pot: Potential, values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values.real) if pot.is_real() else values


class SchrodingerFamilyEvaluator:
    """Batched Lyapunov exponents of fiber entries w_k over a fixed base.

    Precomputes the integration support once (orbit points, Birkhoff orbit, or
    Monte Carlo windows); `lyapunov_batch` then maps a stack of entry arrays
    over that support to (values, stderrs).  Exact on periodic orbits, single
    Birkhoff orbit with the N-vs-N/2 proxy on rotations, seeded sample means
    on shifts.  Complex entries are allowed everywhere; real potentials have
    real supports, and real entries are multiplied out in real arithmetic.
    """

    def __init__(self, base: BaseSystem, scheme: IntegrationScheme = IntegrationScheme()):
        self.base = base
        self.scheme = scheme
        self.n = max(2, scheme.n)                  # orbit / window length (not periodic)
        self.samples = max(2, scheme.samples)      # Monte Carlo samples (shifts only)
        if isinstance(base, PeriodicOrbits):
            self.kind = "periodic"
        elif isinstance(base, CircleRotation):
            self.kind = "birkhoff"
            self.xs = base.orbit_array(rotation_start(scheme.seed), self.n)
        elif isinstance(base, BernoulliShift):
            self.kind = "monte_carlo"
            self._window_len = 0         # symbols are drawn on first use
        else:
            raise TypeError(type(base).__name__)

    def _draw_windows(self):
        self.windows = np.stack([
            symbols_from_stream(_sample_seed(self.scheme.seed, i), 0,
                                self._window_len, self.base.cum_probs)
            for i in range(self.samples)])

    def points(self) -> list:
        """Base points of the support, laid out as `potential_support` lays
        out values: one list per periodic orbit, the Birkhoff orbit, or one
        list per Monte Carlo sample."""
        if self.kind == "periodic":
            return [[PeriodicPoint(j, p) for p in range(n)]
                    for j, (n, _) in enumerate(self.base.orbits)]
        if self.kind == "birkhoff":
            return [CirclePoint(float(x)) for x in self.xs]
        return [[ShiftPoint(_sample_seed(self.scheme.seed, i), k) for k in range(self.n)]
                for i in range(self.samples)]

    def potential_support(self, pot: Potential) -> object:
        """Values of pot over the support (float64 when pot is real); combine
        them with `lane_entries` and feed the result to lyapunov_batch."""
        check_attachment(pot, self.base)
        if self.kind == "periodic":
            return [_real_values(pot, np.array([pot.value(PeriodicPoint(j, p))
                                                for p in range(n)], dtype=complex))
                    for j, (n, _) in enumerate(self.base.orbits)]
        if self.kind == "birkhoff":
            return _real_values(pot, pot.evaluate(self.xs))
        depth = pot.depth
        if depth and self.n + depth > self._window_len:
            # counter-mode symbols agree on prefixes, so longer windows are
            # consistent extensions of any drawn before
            self._window_len = self.n + depth
            self._draw_windows()
        idx = np.zeros((self.samples, self.n), dtype=np.int64)
        for d in range(depth):
            idx = idx * pot.symbols + self.windows[:, d:d + self.n]
        table = _real_values(pot, np.asarray(pot.table, dtype=complex))
        return table[idx]

    def lane_entries(self, support, *terms):
        """Entry stacks with lanes first: lane k holds support + sum_j c_j[k] s_j
        over the (c_j, s_j) in terms, c_j of shape (lanes,) and support, s_j
        from potential_support."""
        if self.kind == "periodic":
            return [sum((c[:, None] * s[j][None, :] for c, s in terms), sv[None, :])
                    for j, sv in enumerate(support)]
        lane = (slice(None),) + (None,) * support.ndim
        return sum((c[lane] * s[None] for c, s in terms), support[None])

    def lyapunov_batch(self, entries) -> tuple[np.ndarray, np.ndarray]:
        """entries: lanes-first stacks, as `lane_entries` builds them."""
        stacks = [np.asarray(e) for e in entries] if self.kind == "periodic" \
            else [np.asarray(entries)]
        return _lane_estimates(self, _schrodinger_product,
                               lambda ls, ss: [(e[ls, ss],) for e in stacks],
                               len(stacks[0]))


def _narrowed(values: np.ndarray) -> np.ndarray:
    """values as float64 when no imaginary part is set."""
    return values if values.imag.any() else np.ascontiguousarray(values.real)


def _entry_components(e: np.ndarray) -> tuple:
    """Components of the [[e, -1], [1, 0]] factors (constants as broadcast views)."""
    e = _narrowed(e)
    return (e,) + tuple(np.broadcast_to(np.array(x, e.dtype), e.shape) for x in (-1.0, 1.0, 0.0))


def _fiber_components(fiber, points: list) -> tuple:
    """Components of fiber over a (nested) list of base points."""
    def entries(p):
        if isinstance(p, list):
            return [entries(q) for q in p]
        a = fiber(p)
        return a.a11, a.a12, a.a21, a.a22

    return tuple(np.moveaxis(_narrowed(np.array(entries(points), dtype=complex)), -1, 0))


class MatrixFamilyEvaluator:
    """Batched Lyapunov exponents of x -> C_k @ A(x) for constant C_k.

    The base dispatch (kind, n, samples and the support's points) is that
    of `support_ev`, a SchrodingerFamilyEvaluator over the same base and
    scheme.  `supports` holds the components of A over the support: one
    (n_j,) stack per periodic orbit, the (n,) Birkhoff orbit, or the
    (samples, n) windows; a stack is real when every A(x) on it is real.  A
    cocycle with `entry` takes them from one `potential_support(entry)` call,
    any other cocycle from one fiber call per point.
    """

    def __init__(self, cocycle: Cocycle, scheme: IntegrationScheme = IntegrationScheme()):
        ev = self.support_ev = SchrodingerFamilyEvaluator(cocycle.base, scheme)
        self.base, self.kind, self.n, self.samples = ev.base, ev.kind, ev.n, ev.samples
        periodic = self.kind == "periodic"
        if cocycle.entry is not None:
            values = ev.potential_support(cocycle.entry)
            self.supports = [_entry_components(e) for e in (values if periodic else [values])]
        else:
            points = ev.points()
            self.supports = [_fiber_components(cocycle.fiber, p)
                             for p in (points if periodic else [points])]
        # one (n_j,) component per periodic orbit; perfbench/tracing.py reads the lengths
        self.orbit_mats = [sup[0] for sup in self.supports]

    def lyapunov_batch(self, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        left = _components(np.asarray(left))

        def stacks(ls, ss):
            return [_matmul(tuple(x[(ls,) + (None,) * sup[0].ndim] for x in left),
                            tuple(x[ss] for x in sup))
                    for sup in self.supports]

        return _lane_estimates(self, _product, stacks, len(left[0]))


# ---------------------------------------------------------------------------
# public estimators

def lyapunov_birkhoff(c: Cocycle, n: int, samples: int = 1, seed: int = 0) -> LyapunovEstimate:
    """Average of (1/n) log ||A_n(x)|| over mu-sampled starting points.

    Periodic bases enumerate all orbit points exactly (the remaining error is
    the finite-n bias).  Rotations chunk a single seeded Birkhoff orbit into
    `samples` consecutive length-n blocks.  Shifts draw seeded windows.
    """
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    base = c.base
    if isinstance(base, PeriodicOrbits):
        total = 0.0
        for j, (nj, w) in enumerate(base.orbits):
            s = sum(_log_opnorm_of_product(c, PeriodicPoint(j, p), n) / n for p in range(nj))
            total += w * s / nj
        return LyapunovEstimate(value=total, stderr=0.0, method="birkhoff", n=n,
                                samples=sum(nj for nj, _ in base.orbits))
    if isinstance(base, CircleRotation):
        x0 = rotation_start(seed)
        if samples == 1:
            val = _log_opnorm_of_product(c, CirclePoint(x0), n) / n
            half = max(1, n // 2)
            vhalf = _log_opnorm_of_product(c, CirclePoint(x0), half) / half
            return LyapunovEstimate(value=val, stderr=abs(val - vhalf),
                                    method="birkhoff", n=n, samples=1)
        vals = []
        pt = CirclePoint(x0)
        for _ in range(samples):
            vals.append(_log_opnorm_of_product(c, pt, n) / n)
            pt = CirclePoint((pt.x + n * base.alpha) % 1.0)
        vals = np.array(vals)
        return LyapunovEstimate(value=float(vals.mean()),
                                stderr=float(vals.std(ddof=1) / math.sqrt(samples)),
                                method="birkhoff", n=n, samples=samples)
    vals = np.array([
        _log_opnorm_of_product(c, ShiftPoint(_sample_seed(seed, i), 0), n) / n
        for i in range(samples)])
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return LyapunovEstimate(value=float(vals.mean()), stderr=stderr,
                            method="birkhoff", n=n, samples=samples)


def lyapunov_periodic_exact(c: Cocycle) -> LyapunovEstimate:
    """sum_j w_j (1/n_j) log rho(A_{n_j}(x_j)) over the periodic orbits.

    rho is the spectral radius of the monodromy; elliptic/parabolic real
    monodromies (|trace| <= 2) contribute exactly 0.  The monodromy comes
    from the scalar `iterate_renormalized`, so this estimator stays an
    oracle independent of the batched kernel.
    """
    base = c.base
    if not isinstance(base, PeriodicOrbits):
        raise TypeError("lyapunov_periodic_exact needs a PeriodicOrbits base")
    total = 0.0
    for j, (nj, w) in enumerate(base.orbits):
        m, logscale = iterate_renormalized(c, PeriodicPoint(j, 0), nj)
        real = all(c.fiber(PeriodicPoint(j, p)).is_real() for p in range(nj))
        tr = m.a11 + m.a22
        det = m.a11 * m.a22 - m.a12 * m.a21
        lnrho = float(_lnrho_scaled(np.array([tr]), np.array([det]),
                                    np.array([logscale]), real)[0])
        total += w * lnrho / nj
    return LyapunovEstimate(value=total, stderr=0.0, method="periodic_exact")


def lyapunov_fubini(c: Cocycle, max_doubling: int,
                    scheme: IntegrationScheme = IntegrationScheme()) -> list[float]:
    """[ (1/2^m) integral log ||A_{2^m}||_HS d-mu ]_{m=0..max_doubling}.

    Non-increasing within integration error; every term upper-bounds L.
    Points and weights are those of `bases.integrate`.  Over the
    `MatrixFamilyEvaluator` support (orbits tiled cyclically, the Birkhoff
    orbit extended by 2^max_doubling - 1 points, shift windows in
    `_blocks`), level m is P_m[i] = P_{m-1}[i + h] @ P_{m-1}[i], the
    association `_tree_reduce` gives a window of 2^m factors: h = 2^(m-1)
    keeps every window, and h = 1 on every second entry keeps the disjoint
    ones, enough on shifts, where only the window at offset 0 counts.
    """
    if not 0 <= max_doubling <= 20:
        raise ValueError("max_doubling must lie in 0..20")
    length = 2 ** max_doubling
    base = c.base
    shift = isinstance(base, BernoulliShift)
    if shift:
        samples = max(1, scheme.samples)
        (sup,) = MatrixFamilyEvaluator(c, replace(scheme, n=length)).supports
        groups = [(tuple(x[:samples][ss, :length] for x in sup), 1, 1.0 / samples)
                  for _, ss in _blocks(1, samples, length)]
    elif isinstance(base, PeriodicOrbits):
        groups = [(tuple(x[np.arange(nj + length - 1) % nj] for x in sup), nj, w / nj)
                  for sup, (nj, w) in zip(MatrixFamilyEvaluator(c, scheme).supports,
                                          base.orbits)]
    else:
        points = max(2, scheme.n)
        (sup,) = MatrixFamilyEvaluator(c, replace(scheme, n=points + length - 1)).supports
        groups = [(sup, points, 1.0 / points)]
    out = np.zeros(max_doubling + 1)
    for sup, points, w in groups:
        level = sup + (np.zeros(sup[0].shape),)
        for m in range(max_doubling + 1):
            if m:
                h, step = (1, 2) if shift else (2 ** (m - 1), 1)
                n = level[0].shape[-1]
                level = _join(tuple(x[..., h::step] for x in level),
                              tuple(x[..., :n - h:step] for x in level))
            out[m] += w * np.sum(_log_hs(level)[..., :points]) / 2 ** m
    return [float(v) for v in out]


def best_lyapunov(c: Cocycle, n: int = 4096, samples: int = 1, seed: int = 0) -> LyapunovEstimate:
    """The identity lane of `MatrixFamilyEvaluator`: exact on periodic bases,
    one Birkhoff orbit of length n with the N-vs-N/2 proxy on rotations
    (`samples` is ignored there), and the mean over max(2, samples) seeded
    windows on shifts, so the standard error is finite.

    The scalar `lyapunov_periodic_exact` and `lyapunov_birkhoff` compute
    the same estimates one step at a time; they are its test oracle.
    """
    ev = MatrixFamilyEvaluator(c, IntegrationScheme(n=n, samples=samples, seed=seed))
    return lane_estimate(ev, *ev.lyapunov_batch(np.eye(2)[None]))


def lane_estimate(ev, vals: np.ndarray, errs: np.ndarray) -> LyapunovEstimate:
    """Lane 0 of an evaluator's (values, stderrs) as a LyapunovEstimate, with
    the method, length and sample count of the evaluator's estimator."""
    if ev.kind == "periodic":
        return LyapunovEstimate(value=float(vals[0]), stderr=0.0, method="periodic_exact")
    return LyapunovEstimate(value=float(vals[0]), stderr=float(errs[0]), method="birkhoff",
                            n=ev.n, samples=ev.samples if ev.kind == "monte_carlo" else 1)


def ab_average_check(c: Cocycle, theta_nodes: int = 4096,
                     scheme: IntegrationScheme = IntegrationScheme()) -> tuple[float, float]:
    """(theta-average of L(A R_theta), integral of log((||A|| + ||A||^{-1})/2)).

    The rotation average uses the midpoint rule over theta_nodes, one lane
    of `MatrixFamilyEvaluator` per node with R_theta as its left factor:
    (R A)_n = R (A R)_n R^{-1}, and the estimators are invariant under
    rotation conjugation, so L(R_theta A) = L(A R_theta).  The caller
    asserts the identity of the two returns within combined errors.  The
    cocycle must be real on the evaluator's support.
    """
    if theta_nodes < 16:
        raise ValueError("need theta_nodes >= 16")
    ev = MatrixFamilyEvaluator(c, scheme)
    if any(x.dtype.kind == "c" for sup in ev.supports for x in sup):
        raise ValueError("the rotation-average identity is for real cocycles")
    ang = 2.0 * math.pi * ((np.arange(theta_nodes) + 0.5) / theta_nodes)
    cos, sin = np.cos(ang), np.sin(ang)
    rotations = np.stack([np.stack([cos, sin], -1), np.stack([-sin, cos], -1)], -2)
    vals, _ = ev.lyapunov_batch(rotations)
    lhs = float(vals.mean())

    def obs(pt):
        nrm = c.fiber(pt).opnorm()
        return math.log(0.5 * (nrm + 1.0 / nrm))

    rhs, _ = integrate(c.base, obs, scheme)
    return lhs, rhs
