"""Finite-dimensional ideal machinery.

An ideal I of germs at the origin is handled through its Krull ladder
I + m^k: once the maximal-ideal power m^k is adjoined, membership is a
finite linear-algebra question in the jet space of degrees < k.  Toric
multiplier ideals are handled combinatorially as monomial ideals.

A jet ideal holds one span and one annihilator.  Generators whose
coefficients are all exact (int, Fraction, QQi) give an exact jet ideal,
eliminated in cleared integers by :mod:`berglab.linalg`: it keeps the
independent product rows g * z^beta that the elimination picked and an
integer annihilator, and decides membership in integers against it.  Any
other generators (a float such as ``2.0`` included) give a float jet ideal,
from one singular value decomposition of the product rows, each normalised
to unit size first: the right singular vectors split the jet space into an
orthonormal basis of the span and an orthonormal basis of its annihilator.
The rank counts the singular values above ``FLOAT_RANK_TOL`` times the
largest, so it does not change when a generator is rescaled.  A float
problem on an exact ideal reads the same decomposition of the kept rows,
split at their exact rank (:attr:`JetIdeal.float_view`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import ImproperIdealError, JetSpaceTooLargeError
from .exactnum import is_exact
from .indices import degree, indices_up_to, order_key, validate_index
from .jets import Functional, Jet
from .linalg import annihilates, from_ring, span_and_annihilator

FLOAT_RANK_TOL = 1e-10

# most indices a jet space may have.  Exact time grows about as the cube of
# the size: one exact level of the two-variable ladder of <z1 - (2 - i) z2^2>
# (`berglab ladder --k k..k`, process included) took 0.56 s at 210 indices,
# 4.0 s at 496, 7.9 s at 630 and 16 s at 820 on a 2-core Linux x86-64
# machine under Python 3.11.
MAX_JET_INDICES = 500


def rank_split(A):
    """Orthonormal column bases (range, null) splitting the domain of A, a
    block of rows or columns of a matrix with orthonormal columns.  Its
    singular values are at most 1 and the rank is decided against 1, so a
    block of rounding noise has rank 0."""
    import numpy as np

    _, s, vh = np.linalg.svd(A)
    rank = int((s > FLOAT_RANK_TOL).sum())
    return vh[:rank].conj().T, vh[rank:].conj().T


def _orthonormal_split(rows, m, rank=None):
    """(span, annihilator) of rows of length m, as complex arrays with one
    orthonormal vector per row: the right singular vectors of the rows, each
    row scaled to unit size first, split at ``rank`` (by default the number
    of singular values above ``FLOAT_RANK_TOL`` times the largest).  The
    annihilator's are conjugated, so that they pair bilinearly to zero with
    the span."""
    import numpy as np

    A = np.array(rows, dtype=complex).reshape(-1, m)
    # unit rows: the rank does not depend on the generators' scale
    A /= np.abs(A).max(axis=1, keepdims=True)
    _, s, vh = np.linalg.svd(A)
    if rank is None:
        rank = int((s > FLOAT_RANK_TOL * s[0]).sum()) if s.size else 0
    return vh[:rank], vh[rank:].conj()


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


@dataclass(eq=False)
class JetIdeal:
    """The linear span of (I + m^k) / m^k inside the jet space of degree < k.

    Vectors are dense over ``indices`` (all multi-indices of degree < k in
    the graded order).  ``rows`` spans the ideal with independent vectors
    (``span_dim`` of them), and ``null`` spans its annihilator under the
    plain, unconjugated pairing, one vector per row.  An exact ideal holds
    ring integers (a Python int where an entry is real, a Gaussian integer
    where it is complex): ``rows`` are the product rows g * z^beta that the
    elimination kept, and ``null`` the primitive vectors of
    :func:`berglab.linalg.span_and_annihilator`.  A float ideal holds
    orthonormal right singular vectors as complex arrays, the rest of them
    conjugated in ``null``.
    """

    n: int
    level: int
    indices: list
    rows: object
    null: object
    exact: bool = True

    @property
    def span_dim(self) -> int:
        return len(self.rows)

    @cached_property
    def float_view(self):
        """(span, annihilator) as complex arrays of orthonormal rows, read by
        float problems: a float ideal's own, and for an exact ideal the
        singular value decomposition of its unit-scaled kept rows, split at
        their exact rank."""
        if not self.exact:
            return self.rows, self.null
        return _orthonormal_split(self.rows, len(self.indices), len(self.rows))

    def basis_jets(self):
        """The span's vectors as jets: the kept rows of an exact ideal, the
        orthonormal ones of a float ideal."""
        if self.exact:
            rows = [from_ring(row, 1) for row in self.rows]
        else:
            rows = self.rows.tolist()
        return [Jet(self.n, self.level - 1, dict(zip(self.indices, row))) for row in rows]


def check_jet_space(n: int, k: int) -> None:
    """Refuse the jet space of degree < k in n variables, C(n + k - 1, n)
    indices, when it has more than ``MAX_JET_INDICES`` of them: raises
    JetSpaceTooLargeError."""
    size = math.comb(max(n + k - 1, 0), n)
    if size > MAX_JET_INDICES:
        raise JetSpaceTooLargeError(
            f"the jet space of level {k} in {n} variables has {size} indices, "
            f"more than {MAX_JET_INDICES}"
        )


def jet_ideal(gens: IdealPresentation, k: int) -> JetIdeal:
    """Span of {truncate(g * z^beta) : |beta| < k} and its annihilator: in
    ring integers for exact generators, by orthonormal bases for float ones.

    Raises ImproperIdealError when the span contains the unit germ's jet,
    that is when every annihilator vector vanishes on the constant slot, and
    JetSpaceTooLargeError (before any row is built) past the size cap of
    :func:`check_jet_space`.
    """
    if k < 1:
        raise ValueError("ladder level k must be >= 1")
    check_jet_space(gens.n, k)
    exact = is_exact(c for g in gens.generators for c in g.coeffs.values())
    idx = indices_up_to(gens.n, k - 1)
    rows = _product_rows(gens.generators, idx)
    if exact:
        rows, null = span_and_annihilator(rows, len(idx))
    else:
        rows, null = _orthonormal_split(rows, len(idx))
    tol = 0 if exact else FLOAT_RANK_TOL
    if all(abs(complex(v[0])) <= tol for v in null):
        raise ImproperIdealError(f"ideal is not proper at level {k}")
    return JetIdeal(gens.n, k, idx, rows, null, exact)


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
    member when it pairs to zero with the integer annihilator.  Otherwise f
    is a member when its pairings with the orthonormal annihilator of
    :attr:`JetIdeal.float_view` are at most ``FLOAT_RANK_TOL`` times its
    largest coefficient: they are the coordinates of f's distance from the
    span.
    """
    vec = f.truncate(J.level - 1).vector(J.indices)
    if J.exact and is_exact(vec):
        return annihilates(J.null, vec)
    import numpy as np

    v = np.array(vec, dtype=complex)
    return bool(abs(J.float_view[1] @ v).max() <= FLOAT_RANK_TOL * abs(v).max())


def annihilator(J: JetIdeal) -> list:
    """Basis of {xi : ord(xi) < k, xi annihilates the span}, as Functionals.

    The pairing is bilinear, so this is the plain (unconjugated) null space
    of the span: the integer annihilator of an exact ideal, with Fraction or
    QQi entries, the orthonormal one of a float ideal.
    """
    if J.exact:
        vectors = [from_ring(v, 1) for v in J.null]
    else:
        vectors = J.null.tolist()
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
