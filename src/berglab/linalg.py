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
* the back pass is fraction-free back-substitution over the columns the
  caller reads, with the last pivot as the common denominator;
* one Fraction (or QQi) is built per output entry, at the end.

Scaling a row does not change its row space, and the reduced row echelon
form of a row space is unique, so :func:`rref` returns rows ``==`` to those
of Fraction Gauss-Jordan elimination, and :func:`solve` the same solution.
A Gaussian entry whose imaginary part is 0 comes back as a Fraction.
:func:`hermitian_gram` likewise sums int products and divides once per entry.
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

    def __floordiv__(self, o):
        # exact division: o divides self
        if not o.im:
            return _GaussInt(self.re // o.re, self.im // o.re)
        n = o.re * o.re + o.im * o.im
        return _GaussInt(
            (self.re * o.re + self.im * o.im) // n, (self.im * o.re - self.re * o.im) // n
        )

    def __bool__(self):
        return bool(self.re or self.im)

    def conjugate(self):
        return _GaussInt(self.re, -self.im)


def _is_gaussian(rows) -> bool:
    return any(isinstance(x, QQi) for row in rows for x in row)


def _clear(row, gaussian):
    """(ring row, d): the row times d, its denominators' least common multiple."""
    if not gaussian:
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        return [x.numerator * (d // x.denominator) for x in row], d
    parts = [(x.re, x.im) if isinstance(x, QQi) else (Fraction(x), _ZERO) for x in row]
    d = math.lcm(*(p.denominator for pair in parts for p in pair))
    return [
        _GaussInt(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))
        for re, im in parts
    ], d


def _cleared(rows):
    """The rows over one ring, and that ring's zero and one."""
    gaussian = _is_gaussian(rows)
    out = [_clear(row, gaussian)[0] for row in rows]
    if gaussian:
        return out, _GaussInt(0, 0), _GaussInt(1, 0)
    return out, 0, 1


def _rational(num, den):
    """num / den as a Fraction, or a QQi when the imaginary part is nonzero;
    ``den`` is a nonzero int or Gaussian integer."""
    if not isinstance(num, _GaussInt):
        return Fraction(num, den)
    if isinstance(den, _GaussInt):
        num, den = num * den.conjugate(), den.re * den.re + den.im * den.im
    re, im = Fraction(num.re, den), Fraction(num.im, den)
    return QQi(re, im) if im else re


def _echelon(rows, ncols, one):
    """Bareiss forward elimination of ring rows, in place.

    Returns (U, pivots): the pivot rows in order and their pivot columns.
    U[k] is exact to the right of its pivot and zero on the free columns
    left of it; the entries under earlier pivot columns are not maintained.
    The last pivot is the determinant of the pivot block, a common
    denominator of the reduced form.
    """
    m = len(rows)
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
    return rows[:r], pivots


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


def _exact(row):
    # ints and floats must become Fractions: int/int is a float in Python
    return [Fraction(x) if isinstance(x, (int, float)) else x for x in row]


def rref(rows, ncols):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Zero rows are dropped; pivots are scaled to 1.
    """
    ring, zero, one = _cleared(rows)
    U, pivots = _echelon(ring, ncols, one)
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
    return out, pivots


def reduce_vector(rref_rows, pivots, vec):
    """Remainder of ``vec`` after elimination against an RREF basis."""
    v = _exact(vec)
    for row, c in zip(rref_rows, pivots):
        factor = v[c]
        if bool(factor):
            v = [a - factor * b for a, b in zip(v, row)]
    return v


def in_span(rref_rows, pivots, vec):
    return not any(bool(x) for x in reduce_vector(rref_rows, pivots, vec))


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


def solve(matrix, rhs, n):
    """A solution of the consistent linear system ``matrix x = rhs`` in n
    unknowns.

    The system may be non-square or rank-deficient; free variables are set
    to zero.  Raises SingularMatrixError when the system is inconsistent.
    """
    ring, zero, one = _cleared([list(row) + [b] for row, b in zip(matrix, rhs)])
    # eliminate over n+1 columns: a pivot in the RHS column flags inconsistency
    U, pivots = _echelon(ring, n + 1, one)
    if n in pivots:
        raise SingularMatrixError("inconsistent linear system")
    x = [0] * n
    if pivots:
        D = U[-1][pivots[-1]]
        for c, v in zip(pivots, _back_substitute(U, pivots, [n], zero)[0]):
            x[c] = _rational(v, D)
    return x


def hermitian_gram(vectors, weights):
    """Gram matrix G[i][j] = sum_k conj(v_i[k]) * v_j[k] * w_k.

    The first slot is conjugated, so G is the matrix of the weighted form
    sum_k w_k |sum_j x_j v_j[k]|^2.  Weights are real, so G is Hermitian and
    only its upper triangle is summed, over each vector's nonzero support.
    """
    gaussian = _is_gaussian(vectors)
    zero = _GaussInt(0, 0) if gaussian else 0
    w, wden = _clear(weights, False)
    if gaussian:
        w = [_GaussInt(x) for x in w]
    cleared = [_clear(v, gaussian) for v in vectors]
    m = len(vectors)
    out = [[_ZERO] * m for _ in range(m)]
    for i, (vi, di) in enumerate(cleared):
        support = [k for k, (a, b) in enumerate(zip(vi, w)) if a and b]
        cw = [vi[k].conjugate() * w[k] for k in support]
        for j in range(i, m):
            vj, dj = cleared[j]
            s = sum(map(mul, cw, map(vj.__getitem__, support)), zero)
            if s:
                g = _rational(s, wden * di * dj)
                out[i][j] = g
                out[j][i] = g.conjugate()
    return out
