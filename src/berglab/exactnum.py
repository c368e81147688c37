"""Exact scalars: Gaussian rationals and rational multiples of pi powers.

Exact-mode computations on diagonal (Reinhardt) domains factor pi^n out of
every monomial norm, run the linear algebra over Gaussian rationals, and
reattach the pi power at the reporting boundary as a :class:`PiValue`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

__all__ = ["QQi", "PiValue", "abs2_s", "value_float", "encode"]


class QQi:
    """A complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(x):
        if isinstance(x, QQi):
            return x
        if isinstance(x, Rational):
            return QQi(x)
        return NotImplemented

    def __add__(self, other):
        o = QQi.coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = QQi.coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = QQi.coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QQi(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = QQi.coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QQi.coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = QQi.coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __eq__(self, other):
        o = QQi.coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __abs__(self):
        return math.sqrt(float(self.re) ** 2 + float(self.im) ** 2)

    def conjugate(self):
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


def is_exact(scalars) -> bool:
    """Whether every scalar is exact: an int, a Fraction or a QQi."""
    return all(isinstance(x, (int, Fraction, QQi)) for x in scalars)


def abs2_s(x):
    """|x|^2, exact for rational-backed scalars."""
    if isinstance(x, QQi):
        return x.abs2()
    if isinstance(x, complex):
        return x.real * x.real + x.imag * x.imag
    return x * x


@dataclass(frozen=True)
class PiValue:
    """A non-negative quantity of the form coeff * pi**pi_power.

    ``coeff`` is a Fraction, or ``math.inf`` for divergent integrals.
    """

    coeff: object
    pi_power: int = 0

    def is_infinite(self) -> bool:
        return self.coeff == math.inf

    def to_float(self) -> float:
        if self.is_infinite():
            return math.inf
        return float(self.coeff) * math.pi**self.pi_power

    def __repr__(self):
        if self.pi_power == 0:
            return f"PiValue({self.coeff})"
        return f"PiValue({self.coeff} * pi^{self.pi_power})"

    def to_json(self):
        if self.is_infinite():
            return {"pi_power": self.pi_power, "rational": "inf"}
        return {"pi_power": self.pi_power, "rational": str(Fraction(self.coeff))}


def value_float(v) -> float:
    """Collapse a PiValue-or-float computation result to a float."""
    if isinstance(v, PiValue):
        return v.to_float()
    return float(v)


def encode(v):
    """A result value as JSON data: a PiValue as its dict, a Fraction as a
    string, anything else as it is."""
    if isinstance(v, PiValue):
        return v.to_json()
    if isinstance(v, Fraction):
        return str(v)
    return v
