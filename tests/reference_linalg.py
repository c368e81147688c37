"""Plain Gauss-Jordan elimination over Fraction / QQi scalars: the reference
the exact linear algebra of :mod:`berglab.linalg` and the exact routes are
tested against."""

from fractions import Fraction


def gauss_jordan(rows, ncols):
    """Reference RREF: (rows, pivot columns).  Zero entries are passed over
    rather than multiplied, so that sparse rows reduce quickly."""
    rows = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def null_space(rows, ncols):
    """Basis of {x : A x = 0} for A given by ``rows`` (no conjugation), one
    vector per free column of the reference RREF."""
    red, pivots = gauss_jordan(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis
