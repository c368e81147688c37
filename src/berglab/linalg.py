"""Small dense exact linear algebra over Fraction / QQi scalars.

Matrices are lists of row lists.  Every scalar decision is an exact zero
test; floating-point problems run through numpy in :mod:`berglab.bergman`
and :mod:`berglab.ideals` instead.  Sizes here are tiny (jet spaces up to a
few hundred dims), so clarity wins over vectorization.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrixError
from .exactnum import conj_s


def _exact(row):
    # ints and floats must become Fractions: int/int is a float in Python
    return [Fraction(x) if isinstance(x, (int, float)) else x for x in row]


def _pivot_row(rows, col, start):
    for i in range(start, len(rows)):
        if bool(rows[i][col]):
            return i
    return None


def rref(rows, ncols):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Zero rows are dropped; pivots are scaled to 1.
    """
    rows = [_exact(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = _pivot_row(rows, c, r)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i == r:
                continue
            factor = rows[i][c]
            if bool(factor):
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


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


def solve(matrix, rhs):
    """A solution of the consistent linear system ``matrix x = rhs``.

    The system may be non-square or rank-deficient; free variables are set
    to zero.  Raises SingularMatrixError when the system is inconsistent.
    """
    n = len(matrix[0]) if matrix else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    # eliminate over n+1 columns: a pivot in the RHS column flags inconsistency
    red, pivots = rref(aug, n + 1)
    if n in pivots:
        raise SingularMatrixError("inconsistent linear system")
    x = [0] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return x


def hermitian_gram(vectors, weights):
    """Gram matrix G[i][j] = sum_k conj(v_i[k]) * v_j[k] * w_k.

    The first slot is conjugated, so G is the matrix of the weighted form
    sum_k w_k |sum_j x_j v_j[k]|^2.  Weights are real, so G is Hermitian and
    only its upper triangle is summed.
    """
    m = len(vectors)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        conj_i = [conj_s(a) for a in vectors[i]]
        for j in range(i, m):
            s = 0
            for a, b, w in zip(conj_i, vectors[j], weights):
                if bool(a) and bool(b) and bool(w):
                    s = s + a * b * w
            out[i][j] = s
            out[j][i] = conj_s(s)
    return out
