"""Finite-dimensional ideal machinery.

An ideal I of germs at the origin is handled through its Krull ladder
I + m^k: once the maximal-ideal power m^k is adjoined, membership is a
finite linear-algebra question in the jet space of degrees < k.  Toric
multiplier ideals are handled combinatorially as monomial ideals.

Generators whose coefficients are all exact (int, Fraction, QQi) give an
exact jet ideal, eliminated in cleared integers by :mod:`berglab.linalg`;
it keeps the independent product rows g * z^beta that the elimination
picked, and decides membership in integers against its annihilator.
Any other generators (a float such as ``2.0`` included) give a float jet
ideal, from one singular value decomposition of the product rows, each
normalised to unit size first: the right singular vectors split the jet
space into an orthonormal basis of the span and an orthonormal basis of its
annihilator.  The rank counts the singular values above ``FLOAT_RANK_TOL``
times the largest (:func:`rank_split`), so it does not change when a
generator is rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import ImproperIdealError
from .exactnum import QQi, is_exact
from .indices import degree, indices_up_to, order_key, validate_index
from .jets import Functional, Jet
from .linalg import annihilates, integer_null_space, rref, rref_null_space

FLOAT_RANK_TOL = 1e-10


def rank_split(A):
    """Orthonormal column bases (range, null) splitting the domain of A, the
    rank decided against its largest singular value: the one float rank rule."""
    import numpy as np

    _, s, vh = np.linalg.svd(A)
    rank = int(np.sum(s > FLOAT_RANK_TOL * s[0])) if s.size else 0
    return vh[:rank].conj().T, vh[rank:].conj().T


@dataclass
class IdealPresentation:
    """A proper ideal given by finitely many polynomial generators."""

    n: int
    generators: list

    def __post_init__(self):
        if not self.generators:
            raise ValueError("an ideal presentation needs at least one generator")
        if all(g.is_zero() for g in self.generators):
            raise ValueError("all generators are zero")
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator dimension differs from the presentation")
            const = g.coefficient((0,) * self.n)
            if bool(const):
                raise ImproperIdealError(
                    "a generator with nonzero constant term is a unit germ"
                )

    def to_json(self):
        return {"n": self.n, "generators": [g.to_json() for g in self.generators]}

    @classmethod
    def from_json(cls, data):
        return cls(data["n"], [Jet.from_json(g) for g in data["generators"]])


@dataclass
class JetIdeal:
    """The linear span of (I + m^k) / m^k inside the jet space of degree < k.

    ``basis`` holds a basis of the span as dense vectors over ``indices``
    (all multi-indices of degree < k in the graded order).  ``exact`` tells
    whether its entries are exact scalars or Python complexes.  For an exact
    ideal the basis is the reduced row echelon form, with its pivot columns
    in ``pivots``; ``rows`` holds the product rows g * z^beta whose
    elimination gave the pivots: independent, spanning the same space, each
    scaled to integers (Python ints, or Gaussian integers when a generator
    has a QQi coefficient) and mostly zero.  For a float ideal the basis rows
    are orthonormal (right singular vectors), ``pivots`` and ``rows`` are
    None, and ``null_rows`` holds the remaining right singular vectors,
    conjugated: an orthonormal basis of the annihilator, as a complex matrix
    with one vector per row.  ``gaussian`` tells whether a generator has a
    QQi coefficient below degree k: exact results computed on the ideal are
    then all QQi.
    """

    n: int
    level: int
    indices: list
    basis: list
    pivots: list
    exact: bool = True
    rows: list = field(default=None, repr=False, compare=False)
    gaussian: bool = field(default=False, repr=False, compare=False)
    null_rows: object = field(default=None, repr=False, compare=False)

    @property
    def span_dim(self) -> int:
        return len(self.basis)

    @cached_property
    def integer_annihilator(self):
        """The annihilator read off the RREF, each vector scaled to integers,
        and whether an entry is complex (exact ideals): read by
        :func:`contains` and by the kernel-ratio route."""
        return integer_null_space(self.basis, self.pivots, len(self.indices))

    @cached_property
    def float_annihilator(self):
        """The annihilator as a complex matrix, one vector per row: the
        singular vectors of a float ideal, or read off the RREF of an exact
        one (for float data on an exact ideal).  Read by :func:`contains`,
        :func:`annihilator` and the float kernel-ratio route."""
        if self.null_rows is not None:
            return self.null_rows
        import numpy as np

        vectors = rref_null_space(self.basis, self.pivots, len(self.indices))
        return np.array(vectors, dtype=complex).reshape(-1, len(self.indices))

    def basis_jets(self):
        return [
            Jet(self.n, self.level - 1, dict(zip(self.indices, row)))
            for row in self.basis
        ]


def jet_ideal(gens: IdealPresentation, k: int) -> JetIdeal:
    """Span of {truncate(g * z^beta) : |beta| < k}: in reduced echelon form
    for exact generators, by an orthonormal basis for float ones.

    Raises ImproperIdealError when the span fills the whole jet space
    (equivalently, when the span contains a unit germ).
    """
    if k < 1:
        raise ValueError("ladder level k must be >= 1")
    exact = is_exact(c for g in gens.generators for c in g.coeffs.values())
    idx = indices_up_to(gens.n, k - 1)
    rows = _product_rows(gens.generators, idx)
    gaussian, null = False, None
    if exact:
        basis, pivots, rows = rref(rows, len(idx))
        improper = len(basis) == len(idx) or (pivots and pivots[0] == 0)
        # the terms below degree k are those in the product rows
        gaussian = any(
            isinstance(c, QQi) and degree(a) < k
            for g in gens.generators
            for a, c in g.coeffs.items()
        )
    else:
        import numpy as np

        A = np.array(rows, dtype=complex).reshape(-1, len(idx))
        # unit rows: the rank does not depend on the generators' scale
        A /= np.abs(A).max(axis=1, keepdims=True)
        span, null = rank_split(A)
        basis, pivots, rows, null = span.T.conj().tolist(), None, None, null.T
        # e_0 lies in the span when every annihilator vector vanishes on it
        improper = not null.size or abs(null[:, 0]).max() <= FLOAT_RANK_TOL
    if improper:
        raise ImproperIdealError(f"ideal is not proper at level {k}")
    return JetIdeal(gens.n, k, idx, basis, pivots, exact, rows, gaussian, null)


def _product_rows(generators, idx):
    """The nonzero rows g * z^beta, truncated to ``idx``, for every generator
    g and every beta in ``idx``: each exponent of g shifted by beta and
    placed by its position in ``idx`` (exponents past the last degree of
    ``idx`` are cut off)."""
    position = {a: i for i, a in enumerate(idx)}
    rows = []
    for g in generators:
        terms = list(g.coeffs.items())
        for beta in idx:
            row = None
            for a, c in terms:
                i = position.get(tuple(map(add, a, beta)))
                if i is not None:
                    if row is None:
                        row = [0] * len(idx)
                    row[i] = c
            if row is not None:
                rows.append(row)
    return rows


def contains(J: JetIdeal, f: Jet) -> bool:
    """Membership of f in I + m^k, decided on the degree < k jet.

    Exact ideals and exact jets are decided exactly, in integers: f is a
    member when its remainder vanishes on every free column of the RREF,
    that is when it pairs to zero with the integer annihilator.  Otherwise
    f is a member when its pairings with the float annihilator are at most
    ``FLOAT_RANK_TOL`` times its largest coefficient: for an orthonormal
    annihilator they are the coordinates of f's distance from the span, and
    for one read off an RREF they are f's remainder on the free columns.
    """
    vec = f.truncate(J.level - 1).vector(J.indices)
    if J.exact and is_exact(vec):
        return annihilates(J.integer_annihilator[0], vec)
    import numpy as np

    v = np.array(vec, dtype=complex)
    return bool(abs(J.float_annihilator @ v).max() <= FLOAT_RANK_TOL * abs(v).max())


def annihilator(J: JetIdeal) -> list:
    """Basis of {xi : ord(xi) < k, xi annihilates the span}, as Functionals.

    The pairing is bilinear, so this is the plain (unconjugated) null space
    of the span matrix: read off the RREF of an exact ideal, the orthonormal
    annihilator of a float one.
    """
    if J.exact:
        vectors = rref_null_space(J.basis, J.pivots, len(J.indices))
    else:
        vectors = J.float_annihilator.tolist()
    return [Functional(J.n, dict(zip(J.indices, v))) for v in vectors]


# ---------------------------------------------------------------------------
# toric multiplier ideals


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generating exponents."""

    n: int
    generators: tuple  # antichain of multi-indices; empty = zero ideal

    def __post_init__(self):
        gens = tuple(
            sorted((validate_index(g, self.n) for g in self.generators), key=order_key)
        )
        gens = _minimalize(gens)
        object.__setattr__(self, "generators", gens)

    def contains_exponent(self, beta) -> bool:
        beta = validate_index(beta, self.n)
        return any(all(b >= g for b, g in zip(beta, gen)) for gen in self.generators)

    def contains_jet(self, f: Jet) -> bool:
        """Monomial-ideal membership is support-wise."""
        return all(self.contains_exponent(a) for a in f.coeffs)

    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.n,)

    def generator_jets(self):
        return [Jet.monomial(self.n, g) for g in self.generators]


def _minimalize(gens):
    out = []
    for g in gens:
        if not any(all(x >= y for x, y in zip(g, h)) for h in out):
            out = [h for h in out if not all(x >= y for x, y in zip(h, g))]
            out.append(g)
    return tuple(sorted(out, key=order_key))


def _min_exponent(e: Fraction) -> int:
    """Smallest integer b with b + 1 > e (strict: the boundary diverges)."""
    if e <= 0:
        return 0
    return int(e) if e.denominator == 1 else math.floor(e)


def multiplier_ideal(phi, c) -> MonomialIdeal:
    """Germs G with |G|^2 exp(-c*phi) integrable at the origin.

    For a diagonal toric weight this is the principal monomial ideal with
    generator b, b_j the least integer with b_j + 1 > c*a_j.
    """
    c = Fraction(c)
    if c < 0:
        raise ValueError("weight scale c must be non-negative")
    gen = tuple(_min_exponent(c * a) for a in phi.a)
    return MonomialIdeal(phi.n, (gen,))


def jumping_numbers(phi, degree_bound: int):
    """Sorted distinct values min_j (beta_j+1)/a_j over |beta| <= d."""
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    active = phi.active()
    if not active:
        raise ValueError("toric weight has no active coordinate")
    vals = set()
    for beta in indices_up_to(phi.n, degree_bound):
        vals.add(min(Fraction(beta[j] + 1) / phi.a[j] for j in active))
    return sorted(vals)


def next_jump(phi, c) -> Fraction:
    """Smallest scale > c at which the multiplier ideal changes."""
    c = Fraction(c)
    return min(
        Fraction(math.floor(c * phi.a[j]) + 1) / phi.a[j] for j in phi.active()
    )


def multiplier_ideal_plus(phi, c) -> MonomialIdeal:
    """The upper perturbation: the multiplier ideal just beyond c.

    Realized as the ideal at the midpoint of (c, next jump); jumps are
    discrete for toric weights, so the choice of midpoint is immaterial.
    """
    c = Fraction(c)
    if c < 0:
        raise ValueError("weight scale c must be non-negative")
    cprime = (c + next_jump(phi, c)) / 2
    return multiplier_ideal(phi, cprime)


def monomial_jet_ideal(M: MonomialIdeal, level=None) -> JetIdeal:
    """The Krull-ladder jet ideal of a monomial ideal.

    The default level is one more than the largest generator degree, which
    guarantees m^level is inside the ideal's span construction.
    """
    if not M.generators:
        raise ImproperIdealError("the zero ideal has no proper jet ideal")
    if M.is_unit():
        raise ImproperIdealError("the unit ideal is not proper")
    if level is None:
        level = max(degree(g) for g in M.generators) + 1
    pres = IdealPresentation(M.n, M.generator_jets())
    return jet_ideal(pres, level)
