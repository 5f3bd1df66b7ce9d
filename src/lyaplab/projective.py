"""2x2 complex matrix kernel, the complex projective line, and the sl(2) exponential.

Everything here is pure and immutable.  Determinant drift of matrix products
is audited (``det_defect``), never silently corrected; renormalization happens
only at the cocycle-iteration layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

DET_TOL = 1e-10

# Point at infinity for the affine charts of the projective line.
CHART_INF = complex(math.inf, 0.0)

# |delta| below which exp_sl2 switches to the truncated series for cosh/sinhc.
_EXP_SERIES_SWITCH = 1e-4


@dataclass(frozen=True)
class Mat2:
    """A 2x2 complex matrix [[a11, a12], [a21, a22]]."""

    a11: complex
    a12: complex
    a21: complex
    a22: complex

    def det(self) -> complex:
        return self.a11 * self.a22 - self.a12 * self.a21

    def det_defect(self) -> float:
        """Distance of the determinant from 1 (the audited SL2 drift)."""
        return abs(self.det() - 1.0)

    def require_sl2(self, tol: float = DET_TOL) -> "Mat2":
        if self.det_defect() > tol:
            raise ValueError(f"matrix is not unimodular: |det-1| = {self.det_defect():.3e} > {tol:.3e}")
        return self

    def trace(self) -> complex:
        return self.a11 + self.a22

    def is_real(self) -> bool:
        return not (self.a11.imag or self.a12.imag or self.a21.imag or self.a22.imag)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def scale(self, s: complex) -> "Mat2":
        return Mat2(s * self.a11, s * self.a12, s * self.a21, s * self.a22)

    def inv(self) -> "Mat2":
        """Exact adjugate inverse divided by the determinant."""
        d = self.det()
        return Mat2(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)

    def frobenius(self) -> float:
        return math.sqrt(abs(self.a11) ** 2 + abs(self.a12) ** 2
                         + abs(self.a21) ** 2 + abs(self.a22) ** 2)

    def opnorm(self) -> float:
        """Operator (spectral) norm via the closed-form 2x2 singular values."""
        s = (abs(self.a11) ** 2 + abs(self.a12) ** 2
             + abs(self.a21) ** 2 + abs(self.a22) ** 2)
        d2 = abs(self.det()) ** 2
        disc = s * s - 4.0 * d2
        if disc < 0.0:
            disc = 0.0
        return math.sqrt(0.5 * (s + math.sqrt(disc)))

    def apply(self, x: complex, y: complex) -> tuple[complex, complex]:
        return (self.a11 * x + self.a12 * y, self.a21 * x + self.a22 * y)

    def maxabs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))


IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


def rotation(theta: float) -> Mat2:
    """Rotation by angle 2*pi*theta, i.e. exp(2*pi*theta*[[0,1],[-1,0]])."""
    a = 2.0 * math.pi * theta
    c, s = math.cos(a), math.sin(a)
    return Mat2(c, s, -s, c)


@dataclass(frozen=True)
class ProjPoint:
    """A direction in the complex projective line, stored as a unit homogeneous pair.

    The stored pair has |x|^2 + |y|^2 = 1 and the first coordinate of modulus
    above a small floor is rotated to the positive real axis, fixing the
    representative.  Equality of directions is projective; compare with
    :func:`spherical_dist`, not ``==``.
    """

    x: complex
    y: complex

    def __post_init__(self):
        x, y = complex(self.x), complex(self.y)
        big = max(abs(x), abs(y))
        if big == 0.0 or not math.isfinite(big):
            raise ValueError("projective point needs a nonzero finite homogeneous pair")
        # pre-scale by the larger modulus so |x|^2 + |y|^2 cannot under/overflow
        x, y = x / big, y / big
        n = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
        x, y = x / n, y / n
        lead = x if abs(x) > 1e-12 else y
        phase = lead.conjugate() / abs(lead)
        x, y = x * phase, y * phase
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def from_chart(cls, m: complex) -> "ProjPoint":
        """Inverse of the first chart x/y; CHART_INF maps to the direction (1, 0)."""
        m = complex(m)
        if cmath.isinf(m):
            return cls(1.0, 0.0)
        return cls(m, 1.0)


DIR_ZERO = ProjPoint(0.0, 1.0)      # chart value 0, "vertical"
DIR_INF = ProjPoint(1.0, 0.0)       # chart value infinity, "horizontal"

# Center of the hemisphere cone: the line through (i, 1).  Every real direction
# sits at chordal distance exactly 2^{-1/2} from it (pinned by a test), so the
# chordal disk of radius HEMISPHERE_RADIUS around it is the upper half plane in
# the first chart.
HEMISPHERE_CENTER = ProjPoint(1j, 1.0)
HEMISPHERE_RADIUS = 1.0 / math.sqrt(2.0)


def mobius_act(a: Mat2, m: ProjPoint) -> ProjPoint:
    """Projective action of an SL(2,C) element on a direction."""
    x, y = a.apply(m.x, m.y)
    return ProjPoint(x, y)


def spherical_dist(m1: ProjPoint, m2: ProjPoint) -> float:
    """Chordal metric |x1 y2 - x2 y1| on unit pairs; 0 iff equal, 1 at antipodes."""
    return abs(m1.x * m2.y - m2.x * m1.y)


def expansion_coeff(a: Mat2, m: ProjPoint) -> float:
    """log of the norm growth of a unit vector in direction m under a."""
    x, y = a.apply(m.x, m.y)
    return 0.5 * math.log(abs(x) ** 2 + abs(y) ** 2)


def chart(m: ProjPoint, which: str = "first") -> complex:
    """Affine coordinates of a direction.

    ``first`` is x/y (CHART_INF when y = 0); ``second`` is -y/x, which places
    the first chart's infinity at 0.  Both send the hemisphere-cone interior
    to the upper half plane.
    """
    if which == "first":
        if m.y == 0:
            return CHART_INF
        return m.x / m.y
    if which == "second":
        if m.x == 0:
            return CHART_INF
        return -m.y / m.x
    raise ValueError(f"unknown chart {which!r}")


@dataclass(frozen=True)
class Sl2Element:
    """Traceless 2x2 matrix [[b1, b2], [b3, -b1]] (an sl(2) Lie algebra element)."""

    b1: complex
    b2: complex
    b3: complex

    def __add__(self, other: "Sl2Element") -> "Sl2Element":
        return Sl2Element(self.b1 + other.b1, self.b2 + other.b2, self.b3 + other.b3)

    def scale(self, s: complex) -> "Sl2Element":
        return Sl2Element(s * self.b1, s * self.b2, s * self.b3)


ROTATION_GENERATOR = Sl2Element(0.0, 1.0, -1.0)


def _cosh_sinhc(delta: complex) -> tuple[complex, complex]:
    """(cosh(delta), sinh(delta)/delta), with a 6-term even series below the switch."""
    if abs(delta) < _EXP_SERIES_SWITCH:
        d2 = delta * delta
        ch = 1.0 + 0j
        sc = 1.0 + 0j
        term = 1.0 + 0j
        for k in range(1, 7):
            term = term * d2 / ((2 * k - 1) * (2 * k))
            ch += term
            sc += term / (2 * k + 1)
        return ch, sc
    ch = cmath.cosh(delta)
    sc = cmath.sinh(delta) / delta
    return ch, sc


def exp_sl2(b: Sl2Element, s: complex = 1.0) -> Mat2:
    """exp(s*b) for traceless b, via cosh(delta) I + sinhc(delta) * (s*b).

    delta^2 = s^2 (b1^2 + b2 b3); the complex square root branch is irrelevant
    because cosh and sinhc are even.  Always unimodular up to roundoff.
    """
    s = complex(s)
    delta = cmath.sqrt(s * s * (b.b1 * b.b1 + b.b2 * b.b3))
    ch, sc = _cosh_sinhc(delta)
    sb1, sb2, sb3 = s * b.b1, s * b.b2, s * b.b3
    return Mat2(ch + sc * sb1, sc * sb2, sc * sb3, ch - sc * sb1)
