"""Truncated Taylor jets and finitely supported coefficient functionals.

Coefficients may be Python complex numbers (float mode) or exact scalars
(int, Fraction, :class:`~berglab.exactnum.QQi`).  All operations are pure;
jets and functionals are treated as immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    SupportBoundError,
    ZeroFunctionalError,
)
from .exactnum import QQi
from .indices import degree, order_key, validate_index


def _clean_terms(terms, n):
    out = {}
    for alpha, c in terms.items():
        alpha = validate_index(alpha, n)
        if bool(c):
            out[alpha] = c
    return out


class Jet:
    """Taylor coefficients of a holomorphic germ, truncated at a degree bound.

    Keys absent from ``coeffs`` are zero.  Coefficients are the normalized
    Taylor data c_alpha = (derivative of order alpha at 0) / alpha!.
    """

    __slots__ = ("n", "degree_bound", "coeffs")

    def __init__(self, n, degree_bound, coeffs):
        self.n = int(n)
        self.degree_bound = int(degree_bound)
        self.coeffs = _clean_terms(dict(coeffs), self.n)
        for alpha in self.coeffs:
            if degree(alpha) > self.degree_bound:
                raise ValueError(
                    f"coefficient at {alpha} exceeds degree bound {self.degree_bound}"
                )

    @classmethod
    def monomial(cls, n, alpha, coeff=1, degree_bound=None):
        alpha = validate_index(alpha, n)
        d = degree(alpha) if degree_bound is None else degree_bound
        return cls(n, d, {alpha: coeff})

    @classmethod
    def zero(cls, n, degree_bound=0):
        return cls(n, degree_bound, {})

    def coefficient(self, alpha):
        return self.coeffs.get(tuple(alpha), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self):
        """Lowest total degree carrying a nonzero coefficient (None if zero)."""
        if not self.coeffs:
            return None
        return min(degree(a) for a in self.coeffs)

    def truncate(self, d: int) -> "Jet":
        return Jet(self.n, d, {a: c for a, c in self.coeffs.items() if degree(a) <= d})

    def vector(self, index_list):
        """Dense coefficient list along an index enumeration."""
        return [self.coeffs.get(a, 0) for a in index_list]

    def scale(self, s) -> "Jet":
        return Jet(self.n, self.degree_bound, {a: s * c for a, c in self.coeffs.items()})

    def add(self, other: "Jet") -> "Jet":
        if other.n != self.n:
            raise DimensionMismatchError("cannot add jets of different dimensions")
        terms = dict(self.coeffs)
        for a, c in other.coeffs.items():
            terms[a] = terms.get(a, 0) + c
        return Jet(self.n, max(self.degree_bound, other.degree_bound), terms)

    def to_float(self) -> "Jet":
        return Jet(self.n, self.degree_bound, {a: complex(c) for a, c in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Jet)
            and other.n == self.n
            and other.coeffs == self.coeffs
        )

    def __repr__(self):
        terms = ", ".join(f"{a}: {c}" for a, c in sorted(self.coeffs.items(), key=lambda t: order_key(t[0])))
        return f"Jet(n={self.n}, d={self.degree_bound}, {{{terms}}})"

    def to_json(self):
        return {
            "n": self.n,
            "degree_bound": self.degree_bound,
            "terms": _terms_to_json(self.coeffs),
        }

    @classmethod
    def from_json(cls, data):
        terms = _terms_from_json(data)
        d = data.get("degree_bound")
        if d is None:
            d = max((degree(a) for a in terms), default=0)
        return cls(data["n"], d, terms)


class Functional:
    """A finitely supported coefficient functional (an element of the
    polynomial dual of the jet space)."""

    __slots__ = ("n", "entries")

    def __init__(self, n, entries):
        self.n = int(n)
        self.entries = _clean_terms(dict(entries), self.n)

    @classmethod
    def delta(cls, n, alpha, coeff=1):
        return cls(n, {tuple(alpha): coeff})

    def is_zero(self) -> bool:
        return not self.entries

    def order(self) -> int:
        """Maximum total degree over the support."""
        if not self.entries:
            raise ZeroFunctionalError("the zero functional has no order")
        return max(degree(a) for a in self.entries)

    def vector(self, index_list):
        return [self.entries.get(a, 0) for a in index_list]

    def scale(self, s) -> "Functional":
        return Functional(self.n, {a: s * c for a, c in self.entries.items()})

    def add(self, other: "Functional") -> "Functional":
        if other.n != self.n:
            raise DimensionMismatchError("cannot add functionals of different dimensions")
        entries = dict(self.entries)
        for a, c in other.entries.items():
            entries[a] = entries.get(a, 0) + c
        return Functional(self.n, entries)

    def to_float(self) -> "Functional":
        return Functional(self.n, {a: complex(c) for a, c in self.entries.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Functional)
            and other.n == self.n
            and other.entries == self.entries
        )

    def __repr__(self):
        terms = ", ".join(
            f"{a}: {c}" for a, c in sorted(self.entries.items(), key=lambda t: order_key(t[0]))
        )
        return f"Functional(n={self.n}, {{{terms}}})"

    def to_json(self):
        return {"n": self.n, "terms": _terms_to_json(self.entries)}

    @classmethod
    def from_json(cls, data):
        return cls(data["n"], _terms_from_json(data))


def pair(xi: Functional, f: Jet):
    """The pairing sum of xi_alpha * c_alpha over the support of xi.

    Raises if xi reaches past f's degree bound: truncation would silently
    drop terms of the sum.
    """
    if xi.n != f.n:
        raise DimensionMismatchError("functional and jet dimensions differ")
    total = 0
    for alpha, x in xi.entries.items():
        if degree(alpha) > f.degree_bound:
            raise SupportBoundError(
                f"functional touches {alpha} beyond jet degree bound {f.degree_bound}"
            )
        c = f.coeffs.get(alpha)
        if c is not None:
            total = total + x * c
    return total


def jet_multiply(f: Jet, g: Jet, d: int) -> Jet:
    """Cauchy product of two jets, truncated to total degree <= d."""
    if f.n != g.n:
        raise DimensionMismatchError("cannot multiply jets of different dimensions")
    terms = {}
    for a, ca in f.coeffs.items():
        da = degree(a)
        for b, cb in g.coeffs.items():
            if da + degree(b) > d:
                continue
            key = tuple(x + y for x, y in zip(a, b))
            terms[key] = terms.get(key, 0) + ca * cb
    return Jet(f.n, d, terms)


def _scalar_to_json(c):
    if isinstance(c, QQi):
        return {"re": str(c.re), "im": str(c.im)}
    if isinstance(c, Fraction):
        return {"re": str(c), "im": "0"}
    c = complex(c)
    return {"re": c.real, "im": c.imag}


def _scalar_from_json(term):
    re, im = term.get("re", 0), term.get("im", 0)
    if isinstance(re, str) or isinstance(im, str):
        return QQi(Fraction(re), Fraction(im))
    return complex(re, im)


def _terms_to_json(terms):
    out = []
    for alpha in sorted(terms, key=order_key):
        entry = {"alpha": list(alpha)}
        entry.update(_scalar_to_json(terms[alpha]))
        out.append(entry)
    return out


def _terms_from_json(data):
    return {tuple(t["alpha"]): _scalar_from_json(t) for t in data["terms"]}
