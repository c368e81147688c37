"""Finite-dimensional ideal machinery.

An ideal I of germs at the origin is handled through its Krull ladder
I + m^k: once the maximal-ideal power m^k is adjoined, membership is a
finite linear-algebra question in the jet space of degrees < k.  Toric
multiplier ideals are handled combinatorially as monomial ideals.

Generators with exact coefficients give an exact jet ideal, eliminated over
Fraction / QQi by :mod:`berglab.linalg`.  Any other generators give a float
jet ideal, eliminated with numpy: each product row is normalised to unit
size first, so rank and membership decisions compare against
``FLOAT_RANK_TOL`` on that scale and do not change when a generator or F is
rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ImproperIdealError
from .indices import degree, indices_up_to, order_key, validate_index
from .jets import Functional, Jet, jet_multiply
from .linalg import in_span, rref, rref_null_space

FLOAT_RANK_TOL = 1e-10


def _jets_are_exact(jets) -> bool:
    for g in jets:
        for c in g.coeffs.values():
            if isinstance(c, (complex, float)) and not (
                isinstance(c, float) and c.is_integer()
            ):
                return False
    return True


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
    Python complexes.
    """

    n: int
    level: int
    indices: list
    basis: list
    pivots: list
    exact: bool = True

    @property
    def span_dim(self) -> int:
        return len(self.basis)

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
    exact = _jets_are_exact(gens.generators)
    idx = indices_up_to(gens.n, k - 1)
    rows = []
    for g in gens.generators:
        for beta in idx:
            prod = jet_multiply(g, Jet.monomial(gens.n, beta), k - 1)
            if not prod.is_zero():
                rows.append(prod.vector(idx))
    if exact:
        basis, pivots = rref(rows, len(idx))
    else:
        basis, pivots = _float_rref(rows, len(idx))
    if len(basis) == len(idx) or (pivots and pivots[0] == 0):
        raise ImproperIdealError(f"ideal is not proper at level {k}")
    return JetIdeal(gens.n, k, idx, basis, pivots, exact)


def _float_rref(rows, ncols):
    """Reduced row echelon form of complex rows, by numpy elimination with
    partial pivoting.  Each row is scaled to unit max-norm first, and a
    column gets no pivot when every remaining entry is at most
    ``FLOAT_RANK_TOL`` on that scale."""
    import numpy as np

    A = np.array(rows, dtype=complex).reshape(-1, ncols)
    if A.size:
        A /= np.abs(A).max(axis=1, keepdims=True)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == A.shape[0]:
            break
        p = r + int(np.argmax(np.abs(A[r:, c])))
        if abs(A[p, c]) <= FLOAT_RANK_TOL:
            continue
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
    return basis.tolist(), pivots


def contains(J: JetIdeal, f: Jet) -> bool:
    """Membership of f in I + m^k, decided on the degree < k jet.

    Exact ideals and exact jets are decided exactly.  Otherwise f is a
    member when its float remainder is at most ``FLOAT_RANK_TOL`` times its
    largest coefficient.
    """
    vec = f.truncate(J.level - 1).vector(J.indices)
    if J.exact and _jets_are_exact([f]):
        return in_span(J.basis, J.pivots, vec)
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
