"""Exact scalars: Gaussian rationals and rational multiples of pi powers.

One exact complex type: a :class:`QQi` has int or Fraction parts, and with
int parts it is a Gaussian integer, the ring of :mod:`berglab.linalg`.  It
has ``real``, ``imag`` and ``conjugate()`` as int, Fraction and complex do.

Exact-mode computations on diagonal (Reinhardt) domains factor pi^n out of
every monomial norm, run the linear algebra over Gaussian integers, and
reattach the pi power at the reporting boundary as a :class:`PiValue`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .errors import QuadratureError

__all__ = ["QQi", "PiValue", "abs2_s", "value_float", "encode", "in_float_range", "finite",
           "to_float", "to_complex"]


class QQi:
    """real + imag*i.  ``QQi(real, imag)`` keeps an int part and turns any
    other into a Fraction; an arithmetic result is built unchecked.  The
    other operand is an int, a Fraction or a QQi, on either side; a float
    or a complex raises TypeError.  ``//`` is exact division."""

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        self.real = real if type(real) is int else Fraction(real)
        self.imag = imag if type(imag) is int else Fraction(imag)

    def __add__(self, o):
        if type(o) not in _OPERANDS and not isinstance(o, Rational):
            return NotImplemented
        return _qqi(self.real + o.real, self.imag + o.imag)

    def __sub__(self, o):
        if type(o) not in _OPERANDS and not isinstance(o, Rational):
            return NotImplemented
        return _qqi(self.real - o.real, self.imag - o.imag)

    def __mul__(self, o):
        if type(o) not in _OPERANDS and not isinstance(o, Rational):
            return NotImplemented
        a, b, c, d = self.real, self.imag, o.real, o.imag
        return _qqi(a * c - b * d, a * d + b * c)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) not in _OPERANDS and not isinstance(o, Rational):
            return NotImplemented
        a, b, c, d = self.real, self.imag, o.real, o.imag
        if d:
            n = c * c + d * d
            return _qqi(Fraction(a * c + b * d, n), Fraction(b * c - a * d, n))
        if not c:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # a real divisor divides each part: c^2 would square a huge c
        return _qqi(Fraction(a, c), Fraction(b, c))

    def __floordiv__(self, o):
        if type(o) not in _OPERANDS and not isinstance(o, Rational):
            return NotImplemented
        c, d = o.real, o.imag
        if not d:
            return _qqi(self.real // c, self.imag // c)
        a, b, n = self.real, self.imag, c * c + d * d
        return _qqi((a * c + b * d) // n, (b * c - a * d) // n)

    def __rsub__(self, o):
        if type(o) not in _OPERANDS and not isinstance(o, Rational):
            return NotImplemented
        return _qqi(o - self.real, -self.imag)

    def __rtruediv__(self, o):
        if type(o) not in _OPERANDS and not isinstance(o, Rational):
            return NotImplemented
        return _qqi(o, 0) / self

    def __rfloordiv__(self, o):
        if type(o) not in _OPERANDS and not isinstance(o, Rational):
            return NotImplemented
        return _qqi(o, 0) // self

    def __neg__(self):
        return _qqi(-self.real, -self.imag)

    def __eq__(self, o):
        if type(o) not in _OPERANDS and not isinstance(o, Rational):
            return NotImplemented
        return self.real == o.real and self.imag == o.imag

    def __hash__(self):
        # equal to a rational's hash when the imaginary part is 0
        return hash((self.real, self.imag) if self.imag else self.real)

    def __bool__(self):
        return bool(self.real or self.imag)

    def conjugate(self):
        return _qqi(self.real, -self.imag)

    def __complex__(self):
        return to_complex(self)

    def __repr__(self):
        return f"QQi({self.real}, {self.imag})"


_OPERANDS = frozenset((int, Fraction, QQi))


def _qqi(real, imag):
    """The QQi real + imag*i of int or Fraction parts, unchecked."""
    z = object.__new__(QQi)
    z.real = real
    z.imag = imag
    return z


def is_exact(scalars) -> bool:
    """Whether every scalar is exact: an int, a Fraction or a QQi."""
    return all(isinstance(x, (int, Fraction, QQi)) for x in scalars)


def abs2_s(x):
    """|x|^2 of a number with ``real`` and ``imag``, exact for an exact x."""
    return x.real * x.real + x.imag * x.imag


class PiValue:
    """A non-negative quantity of the form coeff * pi**pi_power.

    ``coeff`` is a Fraction, or ``math.inf`` for divergent integrals.  Two
    are equal when their coefficients and powers are.
    """

    def __init__(self, coeff, pi_power: int = 0):
        self.coeff, self.pi_power = coeff, pi_power

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coeff, self.pi_power) == (other.coeff, other.pi_power)

    def __hash__(self):
        return hash((self.coeff, self.pi_power))

    def is_infinite(self) -> bool:
        return self.coeff == math.inf

    def to_float(self) -> float:
        """The float of the value: 0.0 for a zero coefficient, and a positive
        one past the float range raises QuadratureError naming its size
        (:func:`in_float_range`)."""
        if self.is_infinite():
            return math.inf
        if not self.coeff:
            return 0.0
        return in_float_range("the exact value %s * pi^%d",
                              lambda: finite(float(self.coeff) * math.pi**self.pi_power),
                              _Size(self.coeff), self.pi_power)

    def __repr__(self):
        if self.pi_power == 0:
            return f"PiValue({self.coeff})"
        return f"PiValue({self.coeff} * pi^{self.pi_power})"

    def to_json(self):
        if self.is_infinite():
            return {"pi_power": self.pi_power, "rational": "inf"}
        return {"pi_power": self.pi_power, "rational": str(Fraction(self.coeff))}


def in_float_range(name, compute, *args):
    """``compute()``, the float of a quantity nonzero by the maths, named
    ``name % args``: an overflow (an OverflowError, raised by :func:`finite`
    too) or an underflow to 0 raises QuadratureError naming it.  The name is
    formatted only then, as a norm's multi-index is on a hot path."""
    try:
        val = compute()
    except OverflowError:
        raise QuadratureError(f"{name % args} overflows a float") from None
    if not val:
        raise QuadratureError(f"{name % args} underflows to 0")
    return val


def to_float(x, name="the exact number %s"):
    """``float(x)`` of a float, an int or a Fraction; a nonzero rational past the
    float range raises QuadratureError naming its size ("the exact number 1e400")."""
    if type(x) is float or not x:
        return float(x)
    return in_float_range(name, lambda: float(x), _Size(x))


def to_complex(c):
    """``complex(c)``, the parts of an exact ``c`` each by :func:`to_float`."""
    return c if type(c) is complex else complex(to_float(c.real), to_float(c.imag))


class _Size(Fraction):
    """A nonzero rational that prints as its size, such as "1.5e400"."""

    def __str__(self):
        e = math.log10(abs(self.numerator)) - math.log10(self.denominator)
        return f"{'-' if self < 0 else ''}{10 ** (e % 1):.6g}e{math.floor(e)}"


def finite(val):
    """``val``; a float that came out inf or nan from finite data overflowed."""
    if not math.isfinite(val):
        raise OverflowError("a float overflowed")
    return val


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
