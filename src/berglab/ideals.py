"""Finite-dimensional ideal machinery.

An ideal I of germs at the origin is handled through its Krull ladder
I + m^k: once the maximal-ideal power m^k is adjoined, membership is a
finite linear-algebra question in the jet space of degrees < k.  Toric
multiplier ideals are handled combinatorially as monomial ideals.

A jet ideal is cut into blocks before it is eliminated.  A product row
g * z^beta touches only the monomials of g's terms shifted by beta; join the
monomials that one row touches, and the jet space splits into components,
each with its own rows (a monomial that no row touches is a block of its
own, with no rows).  The span and the annihilator are the direct sums of
the blocks' spans and annihilators, so each block is eliminated by itself,
dense over its own monomials only, when its span or annihilator is first
read: a caller that reads a few blocks pays for those only.

The rows are read off the dimension's shared index layout
(:func:`berglab.indices.layout`): each term z^alpha of a generator gives the
positions of alpha + beta for every beta at once, by steps along the
layout, and one pass over those positions joins the blocks and writes each
block's dense rows.  No multi-index is built or looked up on the way, and
the ideal's ``indices`` are the layout's own prefix.

Each block holds one span and one annihilator.  Generators whose
coefficients are all exact (int, Fraction, QQi) give an exact jet ideal,
eliminated in cleared integers by :mod:`berglab.linalg`: a block keeps the
independent product rows that its elimination picked and an integer
annihilator, and membership is decided in integers against it.  Any other
generators (a float such as ``2.0`` included) give a float jet ideal, from
one singular value decomposition of each block's product rows, each row
normalised to unit size first: the right singular vectors split the block
into an orthonormal basis of its span and one of its annihilator.  The rank
counts the singular values above ``FLOAT_RANK_TOL`` times the block's
largest, so it does not change when a generator is rescaled.  A
one-monomial block needs no elimination and no decomposition, as it is in
the span exactly when a row touches it.  An exact one keeps the first row
that touches it, cleared to a ring integer; a float one holds the unit
vector as its span or its annihilator, a read-only array that every such
block shares.  A float problem on an exact ideal reads the same decomposition
of each block's kept rows, split at their exact rank
(:attr:`JetIdeal.float_view`).

On a diagonal domain distinct monomials are orthogonal, so the blocks that
a jet F does not touch add nothing to F's minimal integral or kernel ratio,
and nor do the blocks on which F's part already lies in the span.
:func:`outside_blocks` reads only the blocks F touches and names those on
which F lies outside the span, and :meth:`JetIdeal.restrict` gives the jet
ideal on them, which is all that :mod:`berglab.bergman` solves on there;
membership (:func:`contains`) is that no block is left.  Only F's blocks
are eliminated for it; the rest are eliminated, once, by a reader of the
whole ideal (:class:`JetIdeal`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property

from .errors import ImproperIdealError
from .exactnum import is_exact
# the jet-space cap lives with the layout; callers read it from here too
from .indices import (
    MAX_JET_INDICES,
    check_jet_space,
    degree,
    layout,
    order_key,
    validate_index,
)
from .jets import Functional, Jet
from .linalg import annihilates, from_ring, span_and_annihilator, to_ring

FLOAT_RANK_TOL = 1e-10


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
    the span.  A single column (m = 1) is the span when there is a row, and
    the annihilator when there is none."""
    import numpy as np

    if m == 1:
        return _one_column(len(rows) > 0)
    A = np.array(rows, dtype=complex).reshape(-1, m)
    # unit rows: the rank does not depend on the generators' scale
    A /= np.abs(A).max(axis=1, keepdims=True)
    _, s, vh = np.linalg.svd(A)
    if rank is None:
        rank = int((s > FLOAT_RANK_TOL * s[0]).sum()) if s.size else 0
    return vh[:rank], vh[rank:].conj()


def _eliminate(rows, m, exact):
    """(span, annihilator) of one block's product rows of length m: by
    :func:`_orthonormal_split` for float rows, by
    :func:`berglab.linalg.span_and_annihilator` for exact ones.  An exact
    one-column block is in the span exactly when a row touches it, and then
    keeps the first such row, cleared to a ring integer."""
    if not exact:
        return _orthonormal_split(rows, m)
    if m == 1:
        return (to_ring(rows[:1])[0], []) if rows else ([], [[1]])
    return span_and_annihilator(rows, m)


@cache
def _one_column(spanned: bool):
    """(span, annihilator) of one monomial, as :func:`_orthonormal_split`
    gives them: the unit vector is the span when a row touches the monomial
    (``spanned``), else the annihilator.  The arrays are read-only and
    shared by every one-monomial block."""
    import numpy as np

    unit, empty = np.ones((1, 1), dtype=complex), np.zeros((0, 1), dtype=complex)
    unit.flags.writeable = empty.flags.writeable = False
    return (unit, empty) if spanned else (empty, unit)


class IdealPresentation:
    """A proper ideal given by finitely many polynomial generators."""

    def __init__(self, n: int, generators: list):
        if not generators:
            raise ValueError("an ideal presentation needs at least one generator")
        if all(g.is_zero() for g in generators):
            raise ValueError("all generators are zero")
        for g in generators:
            if g.n != n:
                raise ValueError("generator dimension differs from the presentation")
            const = g.coefficient((0,) * n)
            if bool(const):
                raise ImproperIdealError(
                    "a generator with nonzero constant term is a unit germ"
                )
        self.n, self.generators = n, generators


class Block:
    """One component of a jet ideal: the multi-indices ``indices`` (in the
    graded order) that the product rows join, and the product rows that
    touch them, ``products``, dense over ``indices`` (of a one-monomial
    block, the first one is enough).  The span (``rows``) and annihilator
    (``null``) of those rows, vectors over ``indices`` of the kinds
    :class:`JetIdeal` holds, are eliminated when either is first read."""

    def __init__(self, indices: list, products: list, exact: bool):
        self.indices, self.products, self.exact = indices, products, exact

    @cached_property
    def _split(self):
        return _eliminate(self.products, len(self.indices), self.exact)

    @property
    def rows(self):
        return self._split[0]

    @property
    def null(self):
        return self._split[1]

    @cached_property
    def float_view(self):
        """(span, annihilator) as complex arrays of orthonormal rows over
        ``indices``: a float block's own, and for an exact block the split of
        its unit-scaled kept rows at their exact rank."""
        if not self.exact:
            return self.rows, self.null
        return _orthonormal_split(self.rows, len(self.indices), len(self.rows))


class JetIdeal:
    """The linear span of (I + m^k) / m^k inside the jet space of degree < k.

    ``indices`` are multi-indices of degree < k in the graded order: all of
    them for the ideal that :func:`jet_ideal` builds, those of some blocks
    for one that :meth:`restrict` builds.  ``blocks`` partition them; a
    vector of the span or of the annihilator lives on one block.

    Vectors are dense over ``indices``, assembled block by block from the
    blocks' own.  ``rows`` spans the ideal with independent vectors
    (``span_dim`` of them), and ``null`` spans its annihilator under the
    plain, unconjugated pairing, one vector per row.  An exact ideal holds
    ring integers (a Python int where an entry is real, a Gaussian integer
    where it is complex): ``rows`` are the product rows g * z^beta that the
    blocks' eliminations kept, and ``null`` the primitive vectors of
    :func:`berglab.linalg.span_and_annihilator`, in the order of their free
    columns, as one elimination over all of ``indices`` would give them.  A
    float ideal holds orthonormal right singular vectors as complex arrays,
    the rest of them conjugated in ``null``.

    ``columns`` holds, per block, the positions of its indices in
    ``indices``; it is found from the indices when not given.

    A block is eliminated when its vectors are first read: a restriction
    eliminates the blocks it holds when it is read, and the whole ideal's
    ``rows``, ``null``, ``float_view``, ``span_dim`` and
    :meth:`basis_jets`, and :func:`annihilator`, eliminate every block not
    yet eliminated.  ``indices``, ``blocks`` and ``largest_block`` need no
    elimination.
    """

    def __init__(self, n: int, level: int, indices: tuple, blocks: list, exact: bool = True,
                 columns: list = None):
        if columns is None:
            pos = {a: i for i, a in enumerate(indices)}
            columns = [[pos[a] for a in b.indices] for b in blocks]
        self.n, self.level, self.indices, self.blocks = n, level, indices, blocks
        self.exact, self.columns = exact, columns
        self._record = None  # the last problem record built on it: bergman's slot

    @property
    def span_dim(self) -> int:
        return sum(len(b.rows) for b in self.blocks)

    @property
    def largest_block(self) -> int:
        return max((len(b.indices) for b in self.blocks), default=0)

    @cached_property
    def _block_of(self):
        return {a: k for k, b in enumerate(self.blocks) for a in b.indices}

    def _touched(self, support):
        """The positions in ``blocks``, ascending, of the blocks that meet
        ``support``, multi-indices (one outside ``indices`` meets none)."""
        block_of = self._block_of
        return tuple(sorted({block_of[a] for a in support if a in block_of}))

    def restrict(self, support=(), blocks=None) -> "JetIdeal":
        """The jet ideal on the blocks at the positions ``blocks`` in
        ``self.blocks`` (ascending), by default on those that meet
        ``support``: its span and annihilator are the parts of this ideal's
        that live on those blocks, which it shares, so that it eliminates
        only them.  Nothing is kept: the two routes share a restriction
        through the problem record that holds it (``bergman._record``)."""
        kept = self._touched(support) if blocks is None else tuple(blocks)
        cols = sorted(c for k in kept for c in self.columns[k])
        place = {c: i for i, c in enumerate(cols)}
        return JetIdeal(
            self.n, self.level, tuple(self.indices[c] for c in cols),
            [self.blocks[k] for k in kept], self.exact,
            [[place[c] for c in self.columns[k]] for k in kept],
        )

    def _dense(self, part):
        """The blocks' ``part`` vectors (rows or null, given as a function of
        the block), each placed on its block's positions in ``indices``."""
        m = len(self.indices)
        out = []
        for b, cols in zip(self.blocks, self.columns):
            for vec in part(b):
                v = [0] * m
                for c, x in zip(cols, vec):
                    v[c] = x
                out.append(v)
        return out

    def _dense_array(self, part):
        """:meth:`_dense` for the complex arrays of the float views."""
        import numpy as np

        parts = [part(b) for b in self.blocks]
        out = np.zeros((sum(map(len, parts)), len(self.indices)), dtype=complex)
        r = 0
        for p, cols in zip(parts, self.columns):
            out[r : r + len(p), cols] = p
            r += len(p)
        return out

    @cached_property
    def rows(self):
        if not self.exact:
            return self.float_view[0]
        return self._dense(lambda b: b.rows)

    @cached_property
    def null(self):
        if not self.exact:
            return self.float_view[1]
        # a null vector's last nonzero entry is on its free column
        return sorted(
            self._dense(lambda b: b.null),
            key=lambda v: max(i for i, x in enumerate(v) if x),
        )

    @cached_property
    def float_view(self):
        """(span, annihilator) as complex arrays of orthonormal rows, read by
        float problems: the blocks' float views (:attr:`Block.float_view`)
        placed on their positions."""
        return (
            self._dense_array(lambda b: b.float_view[0]),
            self._dense_array(lambda b: b.float_view[1]),
        )

    def basis_jets(self):
        """The span's vectors as jets: the kept rows of an exact ideal, the
        orthonormal ones of a float ideal."""
        if self.exact:
            rows = [from_ring(row, 1) for row in self.rows]
        else:
            rows = self.rows.tolist()
        return [Jet.unchecked(self.n, self.level - 1, dict(zip(self.indices, row))) for row in rows]


def jet_ideal(gens: IdealPresentation, k: int) -> JetIdeal:
    """Span of {truncate(g * z^beta) : |beta| < k} and its annihilator, block
    by block: in ring integers for exact generators, by orthonormal bases
    for float ones.  The product rows are built and split into blocks here;
    each block is eliminated when it is first read (:class:`Block`).

    Raises JetSpaceTooLargeError (before any row is built) past the size cap
    of :func:`berglab.indices.check_jet_space`.  No generator has a constant
    term, so no row touches the constant slot: it is a block of its own with
    no rows, and the ideal is proper at every level.
    """
    if k < 1:
        raise ValueError("ladder level k must be >= 1")
    lay = layout(gens.n, k - 1)
    exact = is_exact(c for g in gens.generators for c in g.coeffs.values())
    m = lay.ends[k - 1]
    # per generator, its terms as (positions of the exponent shifted by each
    # beta, coefficient), the longest first: the row g * z^beta at beta's
    # position b touches the b-th position of each term that reaches that
    # far, the first term's always
    products = []
    for g in gens.generators:
        terms = [(lay.shifted(a, k), c) for a, c in g.coeffs.items()]
        if terms:
            terms.sort(key=lambda t: len(t[0]), reverse=True)
            products.append(terms)
    cols, block_of, local = _components(products, m)

    # the rows of each block of several monomials, dense over its positions;
    # of a one-monomial block only the first row, its one entry
    rows = [[] for _ in cols]
    for terms in products:
        anchor, c0 = terms[0]
        for b, p in enumerate(anchor):
            r = block_of[p]
            size = len(cols[r])
            if size == 1:
                if not rows[r]:
                    rows[r].append([c0])
                continue
            v = [0] * size
            for pos, c in terms:
                if b < len(pos):
                    v[local[pos[b]]] = c
            rows[r].append(v)

    idx = lay.indices[:m]
    blocks = [Block([idx[c] for c in block_cols], block_rows, exact)
              for block_cols, block_rows in zip(cols, rows)]
    return JetIdeal(gens.n, k, idx, blocks, exact, cols)


def _components(products, m):
    """The components of positions 0..m-1 when the positions that each
    product row touches are joined, in the order of their first positions:
    their positions, ascending, and per position its component and its
    place in the component."""
    # union-find in which a root is the least position of its set
    parent = list(range(m))
    for terms in products:
        anchor = terms[0][0]
        for pos, _ in terms[1:]:
            for a, b in zip(anchor, pos):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
    cols, block_of, local = [], [0] * m, [0] * m
    for c in range(m):
        # parent[c] <= c, and the positions below c already point at roots
        r = parent[c] = parent[parent[c]]
        if r == c:
            block_of[c] = len(cols)
            cols.append([c])
        else:
            k = block_of[c] = block_of[r]
            local[c] = len(cols[k])
            cols[k].append(c)
    return cols, block_of, local


def outside_blocks(J: JetIdeal, f: Jet, exact: bool) -> tuple:
    """The positions in ``J.blocks``, ascending, of the blocks on which f's
    degree < k jet lies outside the span: the blocks that f touches whose
    annihilator does not pair to zero with f's part on them.  Only f's
    terms on ``J.indices`` are read.

    ``exact`` says whether J and those terms are exact: then the verdict is
    exact, in integers.  Otherwise a block is outside when one of f's
    pairings with its orthonormal annihilator (:attr:`Block.float_view`)
    exceeds ``FLOAT_RANK_TOL`` times f's largest coefficient: they are the
    coordinates of f's distance from the block's span.  A block that f
    does not touch pairs to exactly 0 with it, and is not read.
    """
    touched = J._touched(f.coeffs)
    vecs = [f.vector(J.blocks[k].indices) for k in touched]
    if exact:
        return tuple(k for k, vec in zip(touched, vecs) if not annihilates(J.blocks[k].null, vec))
    import numpy as np

    vs = [np.array(vec, dtype=complex) for vec in vecs]
    tol = FLOAT_RANK_TOL * max((abs(v).max() for v in vs), default=0.0)
    return tuple(
        k for k, v in zip(touched, vs)
        if not bool((abs(J.blocks[k].float_view[1] @ v) <= tol).all())
    )


def contains(J: JetIdeal, f: Jet) -> bool:
    """Membership of f in I + m^k, decided on the degree < k jet: f is a
    member when no block lies outside (:func:`outside_blocks`), so an ideal
    with no annihilator contains every jet.  Only the blocks that f's
    support touches are read, each by itself."""
    f = f.truncate(J.level - 1)
    return not outside_blocks(J, f, J.exact and is_exact(f.coeffs.values()))


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
    return [Functional.unchecked(J.n, dict(zip(J.indices, v))) for v in vectors]


# ---------------------------------------------------------------------------
# toric multiplier ideals


class MonomialIdeal:
    """A monomial ideal given by its minimal generating exponents
    (``generators``, an antichain of multi-indices; empty = zero ideal).
    Two are equal when their dimensions and minimal generators are."""

    def __init__(self, n: int, generators: tuple):
        gens = tuple(sorted((validate_index(g, n) for g in generators), key=order_key))
        self.n, self.generators = n, _minimalize(gens)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.generators) == (other.n, other.generators)

    def __hash__(self):
        return hash((self.n, self.generators))

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
