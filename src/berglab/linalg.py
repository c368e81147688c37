"""Small dense exact linear algebra over one ring, the Gaussian integers, by
fraction-free elimination.

Matrices are lists of row lists.  Every scalar decision is an exact zero
test; floating-point problems run through numpy in :mod:`berglab.bergman`
and :mod:`berglab.ideals` instead.

One ring.  An exact row is cleared once, times the least common multiple of
its denominators: an entry with a nonzero imaginary part becomes a
:class:`~berglab.exactnum.QQi` with int parts, any other an int.  The two
mix under ``+``, ``-``, ``*`` and exact ``//``, so no code below asks which
ring a row is in, and each result entry is typed by itself on the way out.

One kernel.  The forward pass is Bareiss's fraction-free elimination
(E. H. Bareiss, Math. Comp. 22 (1968) 565-578): every entry stays an integer
minor of the cleared matrix, and each step divides exactly by an earlier
pivot.  It also reports which input rows became pivot rows.  The back pass
is fraction-free back-substitution over the columns the caller reads, with
the last pivot as the common denominator.  No Fraction is built between the
cleared input and the ring integers these passes return.

The public API:

* :func:`to_ring` and :func:`from_ring`: exact vectors to ring integers over
  one denominator, and back, each entry typed by itself: a QQi where it is
  complex, a Fraction where it is real, 0 where it is zero;
* :func:`span_and_annihilator`: the independent input rows the elimination
  kept, and the null space of the rows, one primitive ring vector per free
  column; :func:`annihilates`: membership in a row space as a zero pairing
  with that null space;
* :func:`solve`: a ring system's solution over one int denominator, and a
  basis of its homogeneous solutions; Hermitian positive definite systems
  are eliminated in a minimum-degree order;
* :func:`hermitian_gram`: a ring Gram matrix under int weights;
* :func:`combine`: a ring linear combination of rows.

Per-row and per-entry helpers stay private, so that a profiler that wraps
the public functions records one call per vector or matrix.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter, mul

from .errors import SingularMatrixError
from .exactnum import QQi

_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def _clear(row):
    """(ring row, d): an exact row times d, the least common multiple of the
    denominators of its parts; an entry whose imaginary part is 0 becomes an
    int and any other a QQi with int parts."""
    if not any(type(x) is QQi for x in row):
        # all real, as most rows are: on exact-ladder rows this takes less than
        # half the time of the loop below
        d = math.lcm(*(x.denominator for x in row))
        return [x.numerator * (d // x.denominator) for x in row], d
    d = math.lcm(*(p.denominator for x in row for p in (x.real, x.imag)))
    out = []
    for x in row:
        re, im = x.real, x.imag
        re = re.numerator * (d // re.denominator)
        out.append(QQi(re, im.numerator * (d // im.denominator)) if im else re)
    return out, d


def to_ring(rows):
    """(ring rows, denominators): each exact row times the least common
    multiple of its denominators, a complex entry as a Gaussian integer and
    any other entry as an int."""
    cleared = [_clear(row) for row in rows]
    return [r for r, _ in cleared], [d for _, d in cleared]


def from_ring(nums, den):
    """nums[k] / den for ring numerators and a nonzero int den, typed per
    entry: a QQi where the numerator's imaginary part is nonzero, a Fraction
    where it is real, 0 where it is zero."""
    out = []
    for v in nums:
        if not v:
            out.append(0)
        elif v.imag:
            out.append(QQi(Fraction(v.real, den), Fraction(v.imag, den)))
        else:
            out.append(Fraction(v.real, den))
    return out


def _int_denominator(nums, den):
    """(nums', d) with nums'[k] / d == nums[k] / den and d an int: a complex
    den is cleared by multiplying through by its conjugate."""
    if den.imag:
        c = den.conjugate()
        return [v * c for v in nums], (den * c).real
    return nums, den.real


def _echelon(rows, ncols):
    """Bareiss forward elimination of ring rows, in place.

    Returns (U, pivots, kept): the pivot rows in order, their pivot columns,
    and the positions in ``rows`` of the input rows they came from.  U[k] is
    exact to the right of its pivot and zero on the free columns left of
    it; the entries under earlier pivot columns are not maintained.  The
    last pivot is the determinant of the pivot block, a common denominator
    of the reduced form.  U[k] is a combination of the input rows kept[:k+1]
    with a nonzero weight on kept[k], so the kept input rows are independent
    and span the row space.
    """
    m = len(rows)
    order = list(range(m))
    # div[i]: the pivot at row i's last update.  A row whose column-c entry
    # is zero is left alone at that step; its entries are then the current
    # ones times div[i]/prev, and one exact division by div[i] at its next
    # update brings it level again.
    div = [1] * m
    prev = 1
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        div[r], div[p] = div[p], div[r]
        order[r], order[p] = order[p], order[r]
        prow = rows[r]
        if div[r] is not prev:
            d = div[r]
            prow[c:] = [x * prev // d for x in prow[c:]]
        piv = prow[c]
        tail = prow[c + 1:]
        for i in range(r + 1, m):
            row = rows[i]
            a = row[c]
            if a:
                d = div[i]
                row[c + 1:] = [(piv * x - a * y) // d for x, y in zip(row[c + 1:], tail)]
                div[i] = piv
        prev = piv
        pivots.append(c)
        r += 1
    return rows[:r], pivots, order[:r]


def _back_substitute(U, pivots, cols):
    """For each column j in ``cols``, the numerators over the last pivot D of
    the solution x of (pivot block of U) x = U[:, j]: D * x_k for every
    pivot row k whose pivot lies left of j (x_k is 0 for the others)."""
    D = U[-1][pivots[-1]]
    upper = [[u[p] for p in pivots[k + 1:]] for k, u in enumerate(U)]
    out = []
    for j in cols:
        K = bisect_left(pivots, j)
        x = [0] * K
        for k in reversed(range(K)):
            u = U[k]
            s = D * u[j] - sum(map(mul, upper[k], x[k + 1:]), 0)
            x[k] = s // u[pivots[k]]
        out.append(x)
    return out


def span_and_annihilator(rows, ncols):
    """(kept, annihilator) of exact rows, in ring integers.

    ``kept``: the input rows the pivot rows came from, each cleared of its
    denominators, independent and spanning the row space.  ``annihilator``:
    per free column j, the RREF null vector e_j - sum_k R[k][j] e_(pivot k)
    (no conjugation) times the least positive integer that clears it, built
    from the back pass as D e_j - sum_k x_k e_(pivot k), times conj(D) when
    the last pivot D is complex, over its integer content.  In both, an
    entry with imaginary part 0 is an int.
    """
    ring = [_clear(row)[0] for row in rows]
    U, pivots, kept = _echelon([row[:] for row in ring], ncols)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    if not pivots:
        return [], [[int(i == j) for i in range(ncols)] for j in free]
    D = U[-1][pivots[-1]]
    annihilator = []
    for j, x in zip(free, _back_substitute(U, pivots, free)):
        # the entries on column j and on the pivot columns left of it
        x, _ = _int_denominator([D] + [-s for s in x], D)
        g = math.gcd(*map(_REAL, x), *map(_IMAG, x))
        if x[0].real < 0:
            g = -g
        x = [QQi(s.real // g, s.imag // g) if s.imag else s.real // g for s in x]
        v = [0] * ncols
        v[j] = x[0]
        for c, s in zip(pivots, x[1:]):
            v[c] = s
        annihilator.append(v)
    return [ring[i] for i in kept], annihilator


def annihilates(vectors, vec):
    """Whether every annihilator vector of :func:`span_and_annihilator` pairs
    to zero with the exact vector ``vec``: whether ``vec`` lies in the row
    space.

    The pairing with the vector of free column j is a nonzero multiple of
    the remainder of ``vec`` on column j after elimination against the rows.
    """
    v = _clear(vec)[0]
    support = [i for i, x in enumerate(v) if x]
    return not any(sum(a[i] * v[i] for i in support) for a in vectors)


def _minimum_degree(rows, n):
    """An elimination order for the unknowns of a system whose n x n matrix
    has a symmetric sparsity pattern: repeatedly the unknown with the fewest
    neighbours left, whose neighbours then become adjacent (the fill-in its
    elimination makes)."""
    adj = [{j for j in range(n) if row[j] and j != i} for i, row in enumerate(rows)]
    alive = set(range(n))
    order = []
    while alive:
        v = min(alive, key=lambda i: (len(adj[i]), i))
        order.append(v)
        alive.discard(v)
        for u in adj[v]:
            adj[u] |= adj[v]
            adj[u] -= {u, v}
    return order


def solve(rows, n, definite=False):
    """Solve the ring system whose rows are [a_1 .. a_n | b], in place.

    Returns (x, D, null): x / D is a solution (free unknowns 0) with D a
    nonzero int, and ``null`` a basis of the solutions of the homogeneous
    system, one ring vector per free unknown, empty when the solution is
    unique.  Raises SingularMatrixError when the system is inconsistent.

    ``definite`` declares the n x n matrix Hermitian positive definite: its
    unknowns are then eliminated in a minimum-degree order, which on a
    sparse matrix keeps the fill-in, and so the number of big-integer
    updates, small.  A symmetric permutation of a definite matrix keeps
    every pivot nonzero, so such a system has no free unknowns.
    """
    order = None
    if definite:
        order = _minimum_degree(rows, n)
        rows = [[rows[i][j] for j in order] + [rows[i][n]] for i in order]
    # eliminate over n+1 columns: a pivot in the RHS column flags inconsistency
    U, pivots, _ = _echelon(rows, n + 1)
    if n in pivots:
        raise SingularMatrixError("inconsistent linear system")
    x = [0] * n
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    if not pivots:
        return x, 1, [[int(i == j) for i in range(n)] for j in free]
    D = U[-1][pivots[-1]]
    *sols, rhs = _back_substitute(U, pivots, free + [n])
    for c, v in zip(pivots, rhs):
        x[c] = v
    null = []
    for j, s in zip(free, sols):
        z = [0] * n
        z[j] = D
        for c, v in zip(pivots, s):
            z[c] = -v
        null.append(z)
    x, D = _int_denominator(x, D)
    if order is not None:
        y = x
        x = [0] * n
        for i, v in zip(order, y):
            x[i] = v
    return x, D, null


def hermitian_gram(vectors, weights):
    """Gram matrix S[i][j] = sum_k conj(v_i[k]) * v_j[k] * w_k of ring
    vectors under int weights.

    The first slot is conjugated, so S is the matrix of the weighted form
    sum_k w_k |sum_j x_j v_j[k]|^2.  Weights are real, so S is Hermitian:
    only its upper triangle is summed, over each vector's nonzero support,
    and the lower triangle is its conjugate.
    """
    m = len(vectors)
    out = [[0] * m for _ in range(m)]
    for i, vi in enumerate(vectors):
        support = [k for k, (a, b) in enumerate(zip(vi, weights)) if a and b]
        cw = [weights[k] * vi[k].conjugate() for k in support]
        for j in range(i, m):
            s = sum(map(mul, cw, map(vectors[j].__getitem__, support)), 0)
            out[i][j] = s
            out[j][i] = s.conjugate()
    return out


def combine(coeffs, rows, start):
    """start + sum_r coeffs[r] * rows[r] over ring integers, touching only the
    nonzero entries of the rows under nonzero coefficients."""
    out = list(start)
    for c, row in zip(coeffs, rows):
        if c:
            for k, v in enumerate(row):
                if v:
                    out[k] = out[k] + c * v
    return out
