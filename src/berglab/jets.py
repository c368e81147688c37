"""Truncated Taylor jets and finitely supported coefficient functionals.

Coefficients may be Python complex numbers (float mode) or exact scalars
(int, Fraction, :class:`~berglab.exactnum.QQi`).  All operations are pure;
jets and functionals are treated as immutable after construction.

Multi-indices are checked once, where they enter from outside the
package.  The boundary is the constructors ``Jet(...)`` and
``Functional(...)``, :meth:`Jet.monomial` and :meth:`Functional.delta`, the
JSON readers, and :meth:`DiagonalDomain.norm
<berglab.domains.DiagonalDomain.norm>` for an index handed to a domain.
Everything built from indices already held (truncation, scaling, sums,
products, a widened degree bound, the routes' minimizers and maximizers,
Riesz representatives, an ideal's basis and annihilator, the suites'
random instances) goes through ``unchecked``, which checks nothing again.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    SupportBoundError,
    ZeroFunctionalError,
)
from .exactnum import QQi, is_exact, to_complex, to_float
from .indices import MAX_JET_INDICES, degree, order_key, validate_index
from .jsonspec import integer, json_list, json_object, number


def _clean_terms(terms, n):
    out = {}
    for alpha, c in terms.items():
        alpha = validate_index(alpha, n)
        if bool(c):
            out[alpha] = c
    return out


def _check_bound(coeffs, degree_bound):
    for alpha in coeffs:
        if degree(alpha) > degree_bound:
            raise ValueError(f"coefficient at {alpha} exceeds degree bound {degree_bound}")


class Jet:
    """Taylor coefficients of a holomorphic germ, truncated at a degree bound.

    Keys absent from ``coeffs`` are zero.  Coefficients are the normalized
    Taylor data c_alpha = (derivative of order alpha at 0) / alpha!.

    ``Jet(n, degree_bound, coeffs)`` and :meth:`monomial` check each
    multi-index (a tuple of n ints >= 0) and the degree bound;
    :meth:`unchecked` checks neither.
    """

    __slots__ = ("n", "degree_bound", "coeffs")

    def __init__(self, n, degree_bound, coeffs):
        self.n = int(n)
        self.degree_bound = int(degree_bound)
        self.coeffs = _clean_terms(dict(coeffs), self.n)
        _check_bound(self.coeffs, self.degree_bound)

    @classmethod
    def unchecked(cls, n, degree_bound, coeffs):
        """The jet of ``coeffs`` with its zero coefficients dropped, for
        multi-indices the package already holds: n-tuples of ints >= 0 of
        degree at most ``degree_bound`` (an int), none of them checked."""
        jet = object.__new__(cls)
        jet.n, jet.degree_bound = n, degree_bound
        jet.coeffs = {a: c for a, c in coeffs.items() if c}
        return jet

    @classmethod
    def monomial(cls, n, alpha, coeff=1, degree_bound=None):
        n, alpha = int(n), validate_index(alpha, n)
        d = degree(alpha) if degree_bound is None else int(degree_bound)
        jet = cls.unchecked(n, d, {alpha: coeff})
        _check_bound(jet.coeffs, d)
        return jet

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
        d = int(d)
        return Jet.unchecked(self.n, d, {a: c for a, c in self.coeffs.items() if degree(a) <= d})

    def vector(self, index_list):
        """Dense coefficient list along an index enumeration."""
        return [self.coeffs.get(a, 0) for a in index_list]

    def scale(self, s) -> "Jet":
        return Jet.unchecked(self.n, self.degree_bound, {a: s * c for a, c in self.coeffs.items()})

    def add(self, other: "Jet") -> "Jet":
        if other.n != self.n:
            raise DimensionMismatchError("cannot add jets of different dimensions")
        terms = dict(self.coeffs)
        for a, c in other.coeffs.items():
            terms[a] = terms.get(a, 0) + c
        return Jet.unchecked(self.n, max(self.degree_bound, other.degree_bound), terms)

    def to_float(self) -> "Jet":
        return Jet.unchecked(
            self.n, self.degree_bound, {a: to_complex(c) for a, c in self.coeffs.items()}
        )

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
    def from_json(cls, data, name="jet"):
        """The jet of ``data`` (:func:`_terms_from_json`); ``degree_bound``, if
        given, is an integer >= 0, else the terms' top degree."""
        n, terms = _terms_from_json(data, name)
        top = max((degree(a) for a in terms), default=0)
        return cls(n, integer(data.get("degree_bound", top), f"{name}.degree_bound", 0), terms)


class Functional:
    """A finitely supported coefficient functional (an element of the
    polynomial dual of the jet space).

    ``Functional(n, entries)`` and :meth:`delta` check each multi-index (a
    tuple of n ints >= 0); :meth:`unchecked` does not.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n, entries):
        self.n = int(n)
        self.entries = _clean_terms(dict(entries), self.n)

    @classmethod
    def unchecked(cls, n, entries):
        """The functional of ``entries`` with its zero entries dropped, for
        multi-indices the package already holds (n-tuples of ints >= 0),
        none of them checked."""
        xi = object.__new__(cls)
        xi.n = n
        xi.entries = {a: c for a, c in entries.items() if c}
        return xi

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
        return Functional.unchecked(self.n, {a: s * c for a, c in self.entries.items()})

    def add(self, other: "Functional") -> "Functional":
        if other.n != self.n:
            raise DimensionMismatchError("cannot add functionals of different dimensions")
        entries = dict(self.entries)
        for a, c in other.entries.items():
            entries[a] = entries.get(a, 0) + c
        return Functional.unchecked(self.n, entries)

    def to_float(self) -> "Functional":
        return Functional.unchecked(self.n, {a: to_complex(c) for a, c in self.entries.items()})

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
    def from_json(cls, data, name="functional"):
        """The functional of ``data`` (:func:`_terms_from_json`)."""
        return cls(*_terms_from_json(data, name))


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
    return Jet.unchecked(f.n, int(d), terms)


def _scalar_to_json(c):
    """An exact scalar's parts as rational strings, any other's as numbers."""
    if is_exact((c,)):
        return {"re": str(c.real), "im": str(c.imag)}
    c = complex(c)
    return {"re": c.real, "im": c.imag}


def _terms_to_json(terms):
    out = []
    for alpha in sorted(terms, key=order_key):
        entry = {"alpha": list(alpha)}
        entry.update(_scalar_to_json(terms[alpha]))
        out.append(entry)
    return out


def _terms_from_json(data, name):
    """``n`` (an integer from 1 to ``MAX_JET_INDICES``) and the
    coefficients of a jet's or a functional's object, whose ``terms`` are
    objects with ``alpha``, a list of integers >= 0, and ``re`` and ``im``,
    numbers or rational strings (0 if absent; a string makes the
    coefficient an exact QQi, so a term may not pair one with a JSON
    float).  Anything else raises ValueError naming the field."""
    data = json_object(data, name, ("n", "terms"))
    n = integer(data["n"], f"{name}.n", 1, MAX_JET_INDICES)
    terms = {}
    for i, term in enumerate(json_list(data["terms"], f"{name}.terms")):
        where = f"{name}.terms[{i}]"
        alpha = json_list(json_object(term, where, ("alpha",))["alpha"], f"{where}.alpha")
        alpha = tuple(integer(k, f"{where}.alpha[{j}]", 0) for j, k in enumerate(alpha))
        re, im = (number(term.get(key, 0), f"{where}.{key}") for key in ("re", "im"))
        exact = isinstance(re, Fraction) or isinstance(im, Fraction)
        if exact and (isinstance(re, float) or isinstance(im, float)):
            raise ValueError(
                f"{where} mixes a JSON float with a rational string; "
                "write both parts as strings or both as numbers"
            )
        terms[alpha] = QQi(re, im) if exact else complex(to_float(re), to_float(im))
    return n, terms
