"""Concrete base systems (periodic orbits, circle rotations, Bernoulli shifts),
potentials over them, and measure integration.

All values are immutable.  Shift randomness is a pure counter-mode stream:
the symbol at absolute index i is a deterministic function of (seed, i), so
two-sided windows and reproducible Monte Carlo come for free.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

SUP_SAMPLES = 4096          # dense-sampling count for trig-polynomial sup norms
RATIONAL_DENOM_LIMIT = 10 ** 6


class FamilyMismatch(TypeError):
    """A potential, point, or scheme was used with the wrong base family."""


# ---------------------------------------------------------------------------
# base points

@dataclass(frozen=True)
class PeriodicPoint:
    orbit: int
    phase: int


@dataclass(frozen=True)
class CirclePoint:
    x: float


@dataclass(frozen=True)
class ShiftPoint:
    """Position `offset` along the two-sided seeded symbol stream `seed`."""
    seed: int
    offset: int


BasePoint = PeriodicPoint | CirclePoint | ShiftPoint


# ---------------------------------------------------------------------------
# seeded symbol stream (counter mode, blake2b)

def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """count uniforms in [0,1) at absolute indices start..start+count-1.

    Pure in (seed, index): each 64-byte blake2b digest of (seed, block) yields
    8 uint64 lanes, so negative indices (backward orbits) cost nothing extra.
    """
    if count <= 0:
        return np.zeros(0)
    lo_block = math.floor(start / 8)
    hi_block = math.floor((start + count - 1) / 8)
    lanes = []
    for blk in range(lo_block, hi_block + 1):
        msg = seed.to_bytes(16, "little", signed=True) + blk.to_bytes(16, "little", signed=True)
        lanes.append(hashlib.blake2b(msg, digest_size=64).digest())
    raw = np.frombuffer(b"".join(lanes), dtype="<u8")
    offset = start - 8 * lo_block
    return raw[offset:offset + count].astype(np.float64) / 2.0 ** 64


def symbols_from_stream(seed: int, start: int, count: int, cum_probs: np.ndarray) -> np.ndarray:
    u = uniform_stream(seed, start, count)
    return np.searchsorted(cum_probs, u, side="right")


# ---------------------------------------------------------------------------
# base systems

@dataclass(frozen=True)
class PeriodicOrbits:
    """Finite union of periodic orbits with weights summing to 1."""

    orbits: tuple[tuple[int, float], ...]   # (period, weight) pairs

    def __post_init__(self):
        if not self.orbits:
            raise ValueError("need at least one orbit")
        orbits = tuple((int(n), float(w)) for n, w in self.orbits)
        for n, w in orbits:
            if n < 1 or w < 0.0:
                raise ValueError("periods must be >= 1 and weights nonnegative")
        if abs(sum(w for _, w in orbits) - 1.0) > 1e-12:
            raise ValueError("orbit weights must sum to 1")
        object.__setattr__(self, "orbits", orbits)

    def points(self):
        for j, (n, _) in enumerate(self.orbits):
            for p in range(n):
                yield PeriodicPoint(j, p)

    def step(self, pt: PeriodicPoint) -> PeriodicPoint:
        n = self.orbits[pt.orbit][0]
        return PeriodicPoint(pt.orbit, (pt.phase + 1) % n)

    def step_back(self, pt: PeriodicPoint) -> PeriodicPoint:
        n = self.orbits[pt.orbit][0]
        return PeriodicPoint(pt.orbit, (pt.phase - 1) % n)


def _rational_flag(alpha: float, limit: int = RATIONAL_DENOM_LIMIT) -> bool:
    """True when alpha is indistinguishable from p/q with q <= limit, by
    continued-fraction convergents.

    The cutoff must sit below the best-approximation scale of constant-type
    irrationals (the golden mean reaches ~1/(sqrt(5) q^2) ~ 4e-13 at q ~ 1e6)
    but above the float representation error of true rationals (~1e-16).
    """
    frac = Fraction(alpha).limit_denominator(limit)
    return abs(alpha - float(frac)) < 4e-15


@dataclass(frozen=True)
class CircleRotation:
    """x -> x + alpha mod 1 with Lebesgue measure."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")

    @property
    def alpha_rational_flag(self) -> bool:
        return _rational_flag(self.alpha)

    def step(self, pt: CirclePoint) -> CirclePoint:
        return CirclePoint((pt.x + self.alpha) % 1.0)

    def step_back(self, pt: CirclePoint) -> CirclePoint:
        return CirclePoint((pt.x - self.alpha) % 1.0)

    def orbit_array(self, x0: float, n: int) -> np.ndarray:
        return (x0 + self.alpha * np.arange(n)) % 1.0


@dataclass(frozen=True)
class BernoulliShift:
    """Full shift on `symbols` letters with i.i.d. marginals `probabilities`."""

    symbols: int
    probabilities: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        if self.symbols < 2 or len(probs) != self.symbols:
            raise ValueError("need >= 2 symbols and matching probability list")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "probabilities", probs)

    @property
    def cum_probs(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.probabilities))

    def step(self, pt: ShiftPoint) -> ShiftPoint:
        return ShiftPoint(pt.seed, pt.offset + 1)

    def step_back(self, pt: ShiftPoint) -> ShiftPoint:
        return ShiftPoint(pt.seed, pt.offset - 1)

    def window(self, pt: ShiftPoint, length: int) -> np.ndarray:
        return symbols_from_stream(pt.seed, pt.offset, length, self.cum_probs)


BaseSystem = PeriodicOrbits | CircleRotation | BernoulliShift


def step(base: BaseSystem, pt: BasePoint) -> BasePoint:
    """Apply the base map f once."""
    _check_point(base, pt)
    return base.step(pt)


def step_back(base: BaseSystem, pt: BasePoint) -> BasePoint:
    _check_point(base, pt)
    return base.step_back(pt)


def _check_point(base, pt):
    ok = (isinstance(base, PeriodicOrbits) and isinstance(pt, PeriodicPoint)) \
        or (isinstance(base, CircleRotation) and isinstance(pt, CirclePoint)) \
        or (isinstance(base, BernoulliShift) and isinstance(pt, ShiftPoint))
    if not ok:
        raise FamilyMismatch(f"{type(pt).__name__} does not belong to {type(base).__name__}")


# ---------------------------------------------------------------------------
# potentials

@dataclass(frozen=True)
class PeriodicTable:
    """One value per orbit point of a PeriodicOrbits base."""

    tables: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "tables",
                           tuple(tuple(complex(v) for v in t) for t in self.tables))

    def value(self, pt: PeriodicPoint) -> complex:
        tab = self.tables[pt.orbit]
        return tab[pt.phase % len(tab)]

    def sup_norm_bounds(self) -> tuple[float, float]:
        m = max(abs(v) for t in self.tables for v in t)
        return m, m

    def is_real(self) -> bool:
        return all(v.imag == 0.0 for t in self.tables for v in t)

    def _combine(self, other, a, b):
        if isinstance(other, (int, float, complex)):
            other = PeriodicTable(tuple(tuple(other for _ in t) for t in self.tables))
        if (not isinstance(other, PeriodicTable) or len(other.tables) != len(self.tables)
                or any(len(t1) != len(t2) for t1, t2 in zip(self.tables, other.tables))):
            raise FamilyMismatch("cannot combine periodic table with " + type(other).__name__)
        return PeriodicTable(tuple(
            tuple(a * u + b * v for u, v in zip(t1, t2))
            for t1, t2 in zip(self.tables, other.tables)))


@dataclass(frozen=True)
class TrigPolynomial:
    """c0 + sum_k cos_k cos(2 pi k x) + sin_k sin(2 pi k x) on the circle."""

    const: complex = 0.0
    cos: tuple[complex, ...] = ()
    sin: tuple[complex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "const", complex(self.const))
        object.__setattr__(self, "cos", tuple(complex(c) for c in self.cos))
        object.__setattr__(self, "sin", tuple(complex(c) for c in self.sin))

    def value(self, pt: CirclePoint) -> complex:
        return complex(self.evaluate(np.array([pt.x]))[0])

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        out = np.full(len(xs), self.const, dtype=complex)
        for k, c in enumerate(self.cos, start=1):
            if c != 0:
                out += c * np.cos(2.0 * math.pi * k * xs)
        for k, c in enumerate(self.sin, start=1):
            if c != 0:
                out += c * np.sin(2.0 * math.pi * k * xs)
        return out

    def sup_norm_bounds(self) -> tuple[float, float]:
        """(dense-sample lower bound, l1-coefficient upper bound)."""
        upper = abs(self.const) + sum(abs(c) for c in self.cos) + sum(abs(c) for c in self.sin)
        xs = np.arange(SUP_SAMPLES) / SUP_SAMPLES
        lower = float(np.max(np.abs(self.evaluate(xs)))) if upper > 0 else 0.0
        return lower, upper

    def is_real(self) -> bool:
        return (self.const.imag == 0.0 and all(c.imag == 0.0 for c in self.cos)
                and all(c.imag == 0.0 for c in self.sin))

    def _combine(self, other, a, b):
        if isinstance(other, (int, float, complex)):
            other = TrigPolynomial(const=other)
        if not isinstance(other, TrigPolynomial):
            raise FamilyMismatch("cannot combine trig polynomial with " + type(other).__name__)
        d = max(len(self.cos), len(other.cos), len(self.sin), len(other.sin))
        def pad(t):
            return tuple(t) + (0.0,) * (d - len(t))
        return TrigPolynomial(
            const=a * self.const + b * other.const,
            cos=tuple(a * u + b * v for u, v in zip(pad(self.cos), pad(other.cos))),
            sin=tuple(a * u + b * v for u, v in zip(pad(self.sin), pad(other.sin))))


@dataclass(frozen=True)
class CylinderTable:
    """Locally constant function on a Bernoulli shift: depends on the next
    `depth` symbols; table is indexed by the base-m word."""

    symbols: int
    depth: int
    table: tuple[complex, ...]

    def __post_init__(self):
        if self.depth < 0 or len(self.table) != self.symbols ** self.depth:
            raise ValueError("table must have symbols**depth entries")
        object.__setattr__(self, "table", tuple(complex(v) for v in self.table))

    def value_from_word(self, word: Sequence[int]) -> complex:
        idx = 0
        for s in word[:self.depth]:
            idx = idx * self.symbols + int(s)
        return self.table[idx]

    def sup_norm_bounds(self) -> tuple[float, float]:
        m = max(abs(v) for v in self.table)
        return m, m

    def is_real(self) -> bool:
        return all(v.imag == 0.0 for v in self.table)

    def _combine(self, other, a, b):
        if isinstance(other, (int, float, complex)):
            other = CylinderTable(self.symbols, 0, (other,))
        if not isinstance(other, CylinderTable) or other.symbols != self.symbols:
            raise FamilyMismatch("cannot combine cylinder table with " + type(other).__name__)
        lo, hi = (self, other) if self.depth >= other.depth else (other, self)
        stride = lo.symbols ** (lo.depth - hi.depth)
        tab = tuple(a * (self.table[i] if lo is self else self.table[i // stride])
                    + b * (other.table[i] if lo is other else other.table[i // stride])
                    for i in range(len(lo.table)))
        return CylinderTable(self.symbols, lo.depth, tab)


Potential = PeriodicTable | TrigPolynomial | CylinderTable


def constant_potential(base: BaseSystem, c: complex = 1.0) -> Potential:
    """The constant function c in the representation attached to `base`."""
    if isinstance(base, PeriodicOrbits):
        return PeriodicTable(tuple(tuple(c for _ in range(n)) for n, _ in base.orbits))
    if isinstance(base, CircleRotation):
        return TrigPolynomial(const=c)
    if isinstance(base, BernoulliShift):
        return CylinderTable(base.symbols, 0, (c,))
    raise FamilyMismatch(f"unknown base {type(base).__name__}")


def combine(coeff_pot_pairs: Sequence[tuple[complex, Potential | complex]]) -> Potential:
    """Linear combination sum_i a_i * p_i; scalars are promoted to constants."""
    pairs = list(coeff_pot_pairs)
    anchor = next((p for _, p in pairs if not isinstance(p, (int, float, complex))), None)
    if anchor is None:
        raise ValueError("need at least one structured potential to infer the family")
    out = anchor._combine(0.0, 0.0, 0.0)     # zero of the right family/shape
    for a, p in pairs:
        out = out._combine(p, 1.0, a)
    return out


def potential_value(pot: Potential, base: BaseSystem, pt: BasePoint) -> complex:
    _check_point(base, pt)
    if isinstance(pot, PeriodicTable):
        return pot.value(pt)
    if isinstance(pot, TrigPolynomial):
        return pot.value(pt)
    if isinstance(pot, CylinderTable):
        word = base.window(pt, pot.depth)
        return pot.value_from_word(word)
    raise FamilyMismatch(f"unknown potential {type(pot).__name__}")


def check_attachment(pot: Potential, base: BaseSystem):
    ok = (isinstance(pot, PeriodicTable) and isinstance(base, PeriodicOrbits)
          and len(pot.tables) == len(base.orbits)
          and all(len(t) == n for t, (n, _) in zip(pot.tables, base.orbits))) \
        or (isinstance(pot, TrigPolynomial) and isinstance(base, CircleRotation)) \
        or (isinstance(pot, CylinderTable) and isinstance(base, BernoulliShift)
            and pot.symbols == base.symbols)
    if not ok:
        raise FamilyMismatch(f"{type(pot).__name__} is not attached to {type(base).__name__}")


# ---------------------------------------------------------------------------
# integration

@dataclass(frozen=True)
class IntegrationScheme:
    """How to realize the d-mu average; the base family picks the rule:
    exact sums on periodic orbits, a single Birkhoff orbit on rotations
    (quasi Monte Carlo), seeded Monte Carlo on shifts.

    n: Birkhoff orbit length (rotation, and window length per shift sample
    in the Lyapunov estimators).  samples: Monte Carlo sample count (shift).
    seed: stream seed for the rotation start point and shift draws.
    """

    n: int = 4096
    samples: int = 256
    seed: int = 0


def rotation_start(seed: int) -> float:
    """Deterministic seeded start point of the Birkhoff orbit."""
    return float(uniform_stream(seed, 0, 1)[0])


def integrate(base: BaseSystem, observable: Callable[[BasePoint], float],
              scheme: IntegrationScheme = IntegrationScheme()) -> tuple[float, float]:
    """(integral of observable d-mu, error estimate).

    Exact weighted sums (error 0) on periodic orbits; Birkhoff averages along
    one orbit with the N-versus-N/2 difference as error proxy on rotations;
    seeded sample mean with standard error on shifts.
    """
    if isinstance(base, PeriodicOrbits):
        total = 0.0
        for j, (n, w) in enumerate(base.orbits):
            s = sum(observable(PeriodicPoint(j, p)) for p in range(n))
            total += w * s / n
        return total, 0.0
    if isinstance(base, CircleRotation):
        n = max(2, scheme.n)
        x0 = rotation_start(scheme.seed)
        xs = base.orbit_array(x0, n)
        vals = np.array([observable(CirclePoint(float(x))) for x in xs])
        full = float(np.mean(vals))
        half = float(np.mean(vals[: n // 2]))
        return full, abs(full - half)
    # Bernoulli shift: seeded Monte Carlo
    m = max(1, scheme.samples)
    vals = np.empty(m)
    for i in range(m):
        pt = ShiftPoint(seed=_sample_seed(scheme.seed, i), offset=0)
        vals[i] = observable(pt)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(m)) if m > 1 else math.inf
    return mean, stderr


def _sample_seed(seed: int, i: int) -> int:
    msg = seed.to_bytes(16, "little", signed=True) + b"sample" + i.to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little")


def sample_points(base: BaseSystem, count: int, seed: int) -> list[BasePoint]:
    """Deterministic mu-spread probe points: all orbit points (periodic),
    an equidistributed grid (rotation), seeded windows (shift)."""
    if isinstance(base, PeriodicOrbits):
        return list(base.points())
    if isinstance(base, CircleRotation):
        x0 = rotation_start(seed)
        return [CirclePoint((x0 + k / count) % 1.0) for k in range(count)]
    return [ShiftPoint(seed=_sample_seed(seed, i), offset=0) for i in range(count)]


# ---------------------------------------------------------------------------
# JSON descriptions (stable wire schema, used by the CLI)

def base_to_json(base: BaseSystem) -> dict:
    if isinstance(base, PeriodicOrbits):
        return {"family": "periodic_orbits",
                "orbits": [[n, w] for n, w in base.orbits]}
    if isinstance(base, CircleRotation):
        return {"family": "circle_rotation", "alpha": base.alpha}
    if isinstance(base, BernoulliShift):
        return {"family": "bernoulli_shift", "symbols": base.symbols,
                "probabilities": list(base.probabilities)}
    raise FamilyMismatch(type(base).__name__)


def base_from_json(d: dict) -> BaseSystem:
    fam = d.get("family")
    if fam == "periodic_orbits":
        return PeriodicOrbits(tuple((int(n), float(w)) for n, w in d["orbits"]))
    if fam == "circle_rotation":
        return CircleRotation(float(d["alpha"]))
    if fam == "bernoulli_shift":
        return BernoulliShift(int(d["symbols"]), tuple(float(p) for p in d["probabilities"]))
    raise ValueError(f"unknown base family {fam!r}")


def _num_to_json(v: complex):
    v = complex(v)
    return v.real if v.imag == 0.0 else [v.real, v.imag]


def _num_from_json(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


def potential_to_json(pot: Potential) -> dict:
    if isinstance(pot, PeriodicTable):
        return {"family": "periodic_table",
                "tables": [[_num_to_json(v) for v in t] for t in pot.tables]}
    if isinstance(pot, TrigPolynomial):
        return {"family": "trig_polynomial", "const": _num_to_json(pot.const),
                "cos": [_num_to_json(c) for c in pot.cos],
                "sin": [_num_to_json(c) for c in pot.sin]}
    if isinstance(pot, CylinderTable):
        return {"family": "cylinder_table", "symbols": pot.symbols,
                "depth": pot.depth, "table": [_num_to_json(v) for v in pot.table]}
    raise FamilyMismatch(type(pot).__name__)


def potential_from_json(d: dict) -> Potential:
    fam = d.get("family")
    if fam == "periodic_table":
        return PeriodicTable(tuple(tuple(_num_from_json(v) for v in t) for t in d["tables"]))
    if fam == "trig_polynomial":
        return TrigPolynomial(const=_num_from_json(d.get("const", 0.0)),
                              cos=tuple(_num_from_json(c) for c in d.get("cos", [])),
                              sin=tuple(_num_from_json(c) for c in d.get("sin", [])))
    if fam == "cylinder_table":
        return CylinderTable(int(d["symbols"]), int(d["depth"]),
                             tuple(_num_from_json(v) for v in d["table"]))
    raise ValueError(f"unknown potential family {fam!r}")
