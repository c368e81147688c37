"""Small dense exact linear algebra over Fraction / QQi scalars, by
fraction-free integer elimination.

Matrices are lists of row lists.  Every scalar decision is an exact zero
test; floating-point problems run through numpy in :mod:`berglab.bergman`
and :mod:`berglab.ideals` instead.

One kernel serves :func:`rref`, :func:`solve` and :func:`null_space`:

* each input row is multiplied once by the least common multiple of its
  denominators, so elimination runs over Python ints (int, Fraction and
  float input) or over Gaussian integers (when any entry is a QQi);
* the forward pass is Bareiss's fraction-free elimination (E. H. Bareiss,
  Math. Comp. 22 (1968) 565-578): every entry stays an integer minor of
  the cleared matrix, and each step divides exactly by an earlier pivot;
  it also reports which input rows became pivot rows, so a caller can keep
  those independent rows instead of the reduced ones;
* the back pass is fraction-free back-substitution over the columns the
  caller reads, with the last pivot as the common denominator;
* one Fraction (or QQi) is built per output entry, at the end.

Scaling a row does not change its row space, and the reduced row echelon
form of a row space is unique, so :func:`rref` returns rows ``==`` to those
of Fraction Gauss-Jordan elimination, and :func:`solve` the same solution.
A Gaussian entry whose imaginary part is 0 comes back as a Fraction.
:func:`hermitian_gram` likewise sums int products and divides once per entry.

The exact routes of :mod:`berglab.bergman` and :mod:`berglab.ideals` stay in
cleared integers from the jet ideal to the result, through the ring-level
pieces of the same kernel that the functions above wrap:

* :func:`_solve_ring`: a solution over one integer denominator, and the
  homogeneous solutions; :func:`_solve_definite` runs it on a Hermitian
  positive definite system with the unknowns in a minimum-degree order;
* :func:`_gram`: an integer Gram matrix;
* :func:`_combine`: an integer linear combination of rows, which touches
  only the nonzero entries;
* :func:`_annihilator` and :func:`_annihilates`: the null space read off an
  RREF, scaled to integers, and membership as a zero pairing with it;
* :func:`_scalars`: one Fraction or QQi per output entry, with the types
  Fraction / QQi arithmetic on the same inputs would give.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import mul

from .errors import SingularMatrixError
from .exactnum import QQi

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _GaussInt:
    """A Gaussian integer re + im*i: the ring that QQi rows are cleared into."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re
        self.im = im

    def __add__(self, o):
        return _GaussInt(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _GaussInt(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _GaussInt(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    # an int on the left (a sum's start, a cleared weight or denominator)
    def __radd__(self, o):
        return _GaussInt(o + self.re, self.im)

    def __rmul__(self, o):
        return _GaussInt(o * self.re, o * self.im)

    def __floordiv__(self, o):
        # exact division: o divides self
        if not o.im:
            return _GaussInt(self.re // o.re, self.im // o.re)
        n = o.re * o.re + o.im * o.im
        return _GaussInt(
            (self.re * o.re + self.im * o.im) // n, (self.im * o.re - self.re * o.im) // n
        )

    def __neg__(self):
        return _GaussInt(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def conjugate(self):
        return _GaussInt(self.re, -self.im)


def _is_gaussian(rows) -> bool:
    return any(isinstance(x, (QQi, _GaussInt)) for row in rows for x in row)


def _ring(gaussian):
    """The zero and one of the integers or of the Gaussian integers."""
    return (_GaussInt(0, 0), _GaussInt(1, 0)) if gaussian else (0, 1)


def _lift(rows):
    """Integer rows as Gaussian-integer rows."""
    return [[x if isinstance(x, _GaussInt) else _GaussInt(x) for x in row] for row in rows]


def _clear(row, gaussian):
    """(ring row, d): the row times d, its denominators' least common multiple."""
    if not gaussian:
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        return [x.numerator * (d // x.denominator) for x in row], d
    parts = [
        (x.re, x.im) if isinstance(x, (QQi, _GaussInt))
        else (x if isinstance(x, (int, Fraction)) else Fraction(x), 0)
        for x in row
    ]
    d = math.lcm(*(p.denominator for pair in parts for p in pair))
    return [
        _GaussInt(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))
        for re, im in parts
    ], d


def _cleared(rows):
    """The rows over one ring, and that ring's zero and one."""
    gaussian = _is_gaussian(rows)
    return [_clear(row, gaussian)[0] for row in rows], *_ring(gaussian)


def _rational(num, den):
    """num / den as a Fraction, or a QQi when the imaginary part is nonzero;
    ``den`` is a nonzero int or Gaussian integer."""
    if not isinstance(num, _GaussInt):
        return Fraction(num, den)
    if isinstance(den, _GaussInt):
        num, den = num * den.conjugate(), den.re * den.re + den.im * den.im
    re, im = Fraction(num.re, den), Fraction(num.im, den)
    return QQi(re, im) if im else re


def _scalars(nums, den, gaussian=False):
    """nums[k] / den for ring numerators and a nonzero int den: one Fraction
    or QQi per nonzero entry, 0 for a zero one.

    The entries are all QQi when ``gaussian`` is set or any imaginary part
    is nonzero, and all Fractions otherwise: the types Fraction / QQi
    arithmetic on the caller's inputs would give.
    """
    gaussian = gaussian or any(isinstance(v, _GaussInt) and v.im for v in nums)
    out = []
    for v in nums:
        if not v:
            out.append(0)
            continue
        re, im = (v.re, v.im) if isinstance(v, _GaussInt) else (v, 0)
        re = Fraction(re, den)
        out.append(QQi(re, Fraction(im, den)) if gaussian else re)
    return out


def _re(x):
    """The real part of an int or a Gaussian integer."""
    return x.re if isinstance(x, _GaussInt) else x


def _echelon(rows, ncols, one):
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
    div = [one] * m
    prev = one
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


def _back_substitute(U, pivots, cols, zero):
    """For each column j in ``cols``, the numerators over the last pivot D of
    the solution x of (pivot block of U) x = U[:, j]: D * x_k for every
    pivot row k whose pivot lies left of j (x_k is 0 for the others)."""
    D = U[-1][pivots[-1]]
    upper = [[u[p] for p in pivots[k + 1:]] for k, u in enumerate(U)]
    out = []
    for j in cols:
        K = bisect_left(pivots, j)
        x = [zero] * K
        for k in reversed(range(K)):
            u = U[k]
            s = D * u[j] - sum(map(mul, upper[k], x[k + 1:]), zero)
            x[k] = s // u[pivots[k]]
        out.append(x)
    return out


def rref(rows, ncols, keep_rows=False):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Zero rows are dropped; pivots are scaled to 1.  With ``keep_rows`` the
    result also holds, third, the input rows the pivot rows came from,
    cleared to ring integers (each scaled by its own denominators):
    independent rows spanning the same space.
    """
    ring, zero, one = _cleared(rows)
    U, pivots, kept = _echelon([row[:] for row in ring] if keep_rows else ring, ncols, one)
    out = []
    for c in pivots:
        row = [_ZERO] * ncols
        row[c] = _ONE
        out.append(row)
    if pivots:
        D = U[-1][pivots[-1]]
        pivot_set = set(pivots)
        free = [j for j in range(pivots[0] + 1, ncols) if j not in pivot_set]
        for j, x in zip(free, _back_substitute(U, pivots, free, zero)):
            for row, v in zip(out, x):
                if v:
                    row[j] = _rational(v, D)
    if keep_rows:
        return out, pivots, [ring[i] for i in kept]
    return out, pivots


def _annihilator(rref_rows, pivots, ncols):
    """The null space read off an RREF (see :func:`rref_null_space`), each
    vector scaled to ring integers: (vectors, gaussian).

    The vector of free column j is d_j e_j - sum_k d_j R[k][j] e_(pivot k),
    d_j the least common multiple of the denominators in column j.
    """
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    # the pivot columns hold 0 and 1: only the free columns can be Gaussian
    cols = [[row[j] for row in rref_rows] for j in free]
    gaussian = _is_gaussian(cols)
    zero, one = _ring(gaussian)
    vectors = []
    for j, col in zip(free, cols):
        col, d = _clear(col, gaussian)
        v = [zero] * ncols
        v[j] = d * one
        for c, x in zip(pivots, col):
            v[c] = -x
        vectors.append(v)
    return vectors, gaussian


def _annihilates(annihilator, vec):
    """Whether every vector of an :func:`_annihilator` pairs to zero with
    the exact vector ``vec``: whether ``vec`` lies in the row space.

    The pairing with the vector of free column j is d_j times the remainder
    of ``vec`` on column j after elimination against the RREF.
    """
    vectors, gaussian = annihilator
    v = _clear(vec, gaussian or _is_gaussian([vec]))[0]
    support = [i for i, x in enumerate(v) if x]
    return not any(sum(a[i] * v[i] for i in support) for a in vectors)


def in_span(rref_rows, pivots, vec):
    return _annihilates(_annihilator(rref_rows, pivots, len(vec)), vec)


def rref_null_space(rref_rows, pivots, ncols):
    """Basis of the null space read off an RREF: one vector per free column.

    Makes no scalar decision, so it serves float RREFs as well.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(rref_rows, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def null_space(rows, ncols):
    """Basis of {x : A x = 0} for A given by ``rows`` (no conjugation)."""
    return rref_null_space(*rref(rows, ncols), ncols)


def _solve_ring(rows, n, zero, one, homogeneous=False):
    """Solve the ring system whose rows are [a_1 .. a_n | b], in place.

    Returns (x, D, null): x / D is a solution (free unknowns 0) with D a
    nonzero int; ``null`` is, when ``homogeneous`` is set, a basis of the
    solutions of the homogeneous system, scaled to ring integers (else
    empty).  Raises SingularMatrixError when the system is inconsistent.
    """
    # eliminate over n+1 columns: a pivot in the RHS column flags inconsistency
    U, pivots, _ = _echelon(rows, n + 1, one)
    if n in pivots:
        raise SingularMatrixError("inconsistent linear system")
    x = [zero] * n
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set] if homogeneous else []
    if not pivots:
        return x, 1, [[one if i == j else zero for i in range(n)] for j in free]
    D = U[-1][pivots[-1]]
    *sols, rhs = _back_substitute(U, pivots, free + [n], zero)
    for c, v in zip(pivots, rhs):
        x[c] = v
    null = []
    for j, s in zip(free, sols):
        z = [zero] * n
        z[j] = D
        for c, v in zip(pivots, s):
            z[c] = -v
        null.append(z)
    if isinstance(D, _GaussInt):
        if D.im:
            # a real denominator: multiply through by conj(D)
            c = D.conjugate()
            x, D = [v * c for v in x], D * c
        D = D.re
    return x, D, null


def _minimum_degree(S):
    """An elimination order for the unknowns of a matrix with a symmetric
    sparsity pattern: repeatedly the unknown with the fewest neighbours left,
    whose neighbours then become adjacent (the fill-in its elimination
    makes)."""
    adj = [{j for j, s in enumerate(row) if s and j != i} for i, row in enumerate(S)]
    alive = set(range(len(S)))
    order = []
    while alive:
        v = min(alive, key=lambda i: (len(adj[i]), i))
        order.append(v)
        alive.discard(v)
        for u in adj[v]:
            adj[u] |= adj[v]
            adj[u] -= {u, v}
    return order


def _solve_definite(S, rhs, zero, one):
    """(x, D) with S (x / D) = rhs for a Hermitian positive definite ring
    matrix S, D a nonzero int.

    The unknowns are eliminated in a minimum-degree order: on a sparse S
    that keeps the fill-in, and so the number of big-integer updates, small.
    A symmetric permutation of a definite matrix keeps every pivot nonzero.
    """
    order = _minimum_degree(S)
    rows = [[S[i][j] for j in order] + [rhs[i]] for i in order]
    y, D, _ = _solve_ring(rows, len(S), zero, one)
    x = [zero] * len(S)
    for i, v in zip(order, y):
        x[i] = v
    return x, D


def solve(matrix, rhs, n):
    """A solution of the consistent linear system ``matrix x = rhs`` in n
    unknowns.

    The system may be non-square or rank-deficient; free variables are set
    to zero.  Raises SingularMatrixError when the system is inconsistent.
    """
    ring, zero, one = _cleared([list(row) + [b] for row, b in zip(matrix, rhs)])
    x, D, _ = _solve_ring(ring, n, zero, one)
    return [_rational(v, D) if v else 0 for v in x]


def _gram(vectors, weights, zero):
    """Gram matrix S[i][j] = sum_k conj(v_i[k]) * v_j[k] * w_k of ring
    vectors under int weights, as ring integers.

    Only the upper triangle is summed, over each vector's nonzero support;
    the lower triangle is its conjugate.
    """
    m = len(vectors)
    out = [[zero] * m for _ in range(m)]
    for i, vi in enumerate(vectors):
        support = [k for k, (a, b) in enumerate(zip(vi, weights)) if a and b]
        cw = [weights[k] * vi[k].conjugate() for k in support]
        for j in range(i, m):
            s = sum(map(mul, cw, map(vectors[j].__getitem__, support)), zero)
            out[i][j] = s
            out[j][i] = s.conjugate()
    return out


def hermitian_gram(vectors, weights):
    """Gram matrix G[i][j] = sum_k conj(v_i[k]) * v_j[k] * w_k.

    The first slot is conjugated, so G is the matrix of the weighted form
    sum_k w_k |sum_j x_j v_j[k]|^2.  Weights are real, so G is Hermitian and
    only its upper triangle is summed, over each vector's nonzero support.
    """
    gaussian = _is_gaussian(vectors)
    w, wden = _clear(weights, False)
    cleared = [_clear(v, gaussian) for v in vectors]
    S = _gram([v for v, _ in cleared], w, _ring(gaussian)[0])
    return [
        [_rational(s, wden * di * dj) if s else _ZERO for s, (_, dj) in zip(row, cleared)]
        for row, (_, di) in zip(S, cleared)
    ]


def _combine(coeffs, rows, start):
    """start + sum_r coeffs[r] * rows[r] over ring integers, touching only the
    nonzero entries of the rows under nonzero coefficients."""
    out = list(start)
    for c, row in zip(coeffs, rows):
        if c:
            for k, v in enumerate(row):
                if v:
                    out[k] = out[k] + c * v
    return out
