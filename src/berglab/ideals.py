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
ideal, eliminated with numpy: each product row is normalised to unit
size first, so rank and membership decisions compare against
``FLOAT_RANK_TOL`` on that scale and do not change when a generator or F is
rescaled; singular values settle the rank when a pivot is small enough to
be rounding.
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
# pivots below this size are checked against the singular values
AMBIGUOUS_PIVOT = math.sqrt(FLOAT_RANK_TOL)


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

    ``basis`` holds the reduced row echelon basis of the span, as dense
    vectors over ``indices`` (all multi-indices of degree < k in the graded
    order).  ``exact`` tells whether its entries are exact scalars or
    Python complexes.  ``rows`` holds, for an exact ideal, the product rows
    g * z^beta whose elimination gave the pivots: independent, spanning the
    same space, each scaled to integers (Python ints, or Gaussian integers
    when a generator has a QQi coefficient) and mostly zero.  It is None
    for a float ideal.  ``gaussian`` tells whether a generator has a QQi
    coefficient below degree k: exact results computed on the ideal are
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

    @property
    def span_dim(self) -> int:
        return len(self.basis)

    @cached_property
    def integer_annihilator(self):
        """The annihilator read off the RREF, each vector scaled to integers,
        and whether an entry is complex (exact ideals): read by
        :func:`contains` and by the kernel-ratio route."""
        return integer_null_space(self.basis, self.pivots, len(self.indices))

    def basis_jets(self):
        return [
            Jet(self.n, self.level - 1, dict(zip(self.indices, row)))
            for row in self.basis
        ]


def jet_ideal(gens: IdealPresentation, k: int) -> JetIdeal:
    """Span of {truncate(g * z^beta) : |beta| < k} in reduced echelon form.

    Raises ImproperIdealError when the span fills the whole jet space
    (equivalently, when the span contains a unit germ).
    """
    if k < 1:
        raise ValueError("ladder level k must be >= 1")
    exact = is_exact(c for g in gens.generators for c in g.coeffs.values())
    idx = indices_up_to(gens.n, k - 1)
    rows = _product_rows(gens.generators, idx)
    gaussian = False
    if exact:
        basis, pivots, rows = rref(rows, len(idx))
        # the terms below degree k are those in the product rows
        gaussian = any(
            isinstance(c, QQi) and degree(a) < k
            for g in gens.generators
            for a, c in g.coeffs.items()
        )
    else:
        basis, pivots = _float_rref(rows, len(idx))
        rows = None
    if len(basis) == len(idx) or (pivots and pivots[0] == 0):
        raise ImproperIdealError(f"ideal is not proper at level {k}")
    return JetIdeal(gens.n, k, idx, basis, pivots, exact, rows, gaussian)


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


def _float_rref(rows, ncols):
    """Reduced row echelon form of complex rows, by numpy elimination with
    partial pivoting (:func:`_float_eliminate`) on rows scaled to unit
    max-norm.

    Rounding in the elimination can leave a row that should vanish at a
    size just above ``FLOAT_RANK_TOL``, where it takes a spurious pivot.
    So when some pivot is below ``AMBIGUOUS_PIVOT``, the singular values of
    the scaled rows decide the rank (those above ``FLOAT_RANK_TOL`` times
    the largest); while the elimination finds more pivots than that, it is
    run again with its smallest surplus pivots below the tolerance.
    """
    import numpy as np

    A = np.array(rows, dtype=complex).reshape(-1, ncols)
    if A.size:
        A /= np.abs(A).max(axis=1, keepdims=True)
    basis, pivots, sizes = _float_eliminate(A.copy(), FLOAT_RANK_TOL)
    if pivots and min(sizes) < AMBIGUOUS_PIVOT:
        sv = np.linalg.svd(A, compute_uv=False)
        rank = int(np.count_nonzero(sv > FLOAT_RANK_TOL * sv[0]))
        while len(pivots) > rank:
            # the smallest pivots are spurious: eliminate again without them
            tol = sorted(sizes)[len(pivots) - rank - 1]
            basis, pivots, sizes = _float_eliminate(A.copy(), tol)
    return basis.tolist(), pivots


def _float_eliminate(A, tol):
    """Gauss-Jordan elimination of A with partial pivoting, in place.  A
    column gets no pivot when every remaining entry is at most ``tol``.
    Returns the echelon rows, the pivot columns and the pivots' sizes."""
    import numpy as np

    ncols = A.shape[1]
    pivots, sizes = [], []
    r = 0
    for c in range(ncols):
        if r == A.shape[0]:
            break
        p = r + int(np.argmax(np.abs(A[r:, c])))
        size = abs(A[p, c])
        if size <= tol:
            continue
        sizes.append(size)
        A[[r, p]] = A[[p, r]]
        A[r] /= A[r, c]
        rest = np.flatnonzero(A[:, c])
        rest = rest[rest != r]
        A[rest, c:] -= np.outer(A[rest, c], A[r, c:])
        pivots.append(c)
        r += 1
    basis = A[:r]
    # echelon structure exactly: zeros left of each pivot, the identity on
    # the pivot columns (null spaces are read off it)
    basis[np.arange(ncols) < np.array(pivots)[:, None]] = 0
    basis[:, pivots] = np.eye(r)
    return basis, pivots, sizes


def contains(J: JetIdeal, f: Jet) -> bool:
    """Membership of f in I + m^k, decided on the degree < k jet.

    Exact ideals and exact jets are decided exactly, in integers: f is a
    member when its remainder vanishes on every free column of the RREF,
    that is when it pairs to zero with the integer annihilator.  Otherwise
    f is a member when its float remainder is at most ``FLOAT_RANK_TOL``
    times its largest coefficient.
    """
    vec = f.truncate(J.level - 1).vector(J.indices)
    if J.exact and is_exact(vec):
        return annihilates(J.integer_annihilator[0], vec)
    import numpy as np

    v = np.array(vec, dtype=complex)
    # the pivot block of an RREF is the identity: one step reduces v
    rest = v - v[J.pivots] @ np.array(J.basis, dtype=complex).reshape(-1, len(vec))
    return bool(abs(rest).max() <= FLOAT_RANK_TOL * abs(v).max())


def annihilator(J: JetIdeal) -> list:
    """Basis of {xi : ord(xi) < k, xi annihilates the span}, as Functionals.

    The pairing is bilinear, so this is the plain (unconjugated) null space
    of the span matrix, read off its RREF.
    """
    vectors = rref_null_space(J.basis, J.pivots, len(J.indices))
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
