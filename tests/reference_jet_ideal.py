"""The jet ideal built the plain way: the reference that
:func:`berglab.ideals.jet_ideal` is tested against.

Every product row g * z^beta is built as sparse (position, coefficient)
pairs, by adding exponents and looking each sum up in a position dict built
for the call; the rows are then joined into blocks by union-find and copied
into dense rows over each block's positions.  Each block holds all of its
rows, and is eliminated by the package's per-block elimination when it is
first read; ``test_layout`` checks that elimination, one-monomial blocks
included, against a direct call of the split on those rows.
"""

from operator import add

from berglab.exactnum import is_exact
from berglab.ideals import Block, JetIdeal
from berglab.indices import indices_up_to


def product_rows(generators, idx):
    """The nonzero rows g * z^beta, truncated to ``idx``, for every generator
    g and every beta in ``idx``, each as (position, coefficient) pairs: each
    exponent of g shifted by beta and placed by its position in ``idx``
    (exponents past the last degree of ``idx`` are cut off)."""
    position = {a: i for i, a in enumerate(idx)}
    rows = []
    for g in generators:
        terms = list(g.coeffs.items())
        for beta in idx:
            row = []
            for a, c in terms:
                i = position.get(tuple(map(add, a, beta)))
                if i is not None:
                    row.append((i, c))
            if row:
                rows.append(row)
    return rows


def blocks(rows, m):
    """The components of positions 0..m-1 when the positions of each sparse
    row are joined (union-find), in the order of their first positions: per
    component its positions, ascending, and its rows, dense over them."""
    parent = list(range(m))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        r = find(row[0][0])
        for c, _ in row[1:]:
            s = find(c)
            if s != r:
                parent[s] = r
    root = [find(c) for c in range(m)]
    members = {}
    for c, r in enumerate(root):
        members.setdefault(r, []).append(c)
    local = [0] * m
    for cols in members.values():
        for i, c in enumerate(cols):
            local[c] = i
    dense = {r: [] for r in members}
    for row in rows:
        r = root[row[0][0]]
        v = [0] * len(members[r])
        for c, x in row:
            v[local[c]] = x
        dense[r].append(v)
    return [(cols, dense[r]) for r, cols in members.items()]


def reference_jet_ideal(gens, k):
    """The jet ideal of ``gens`` at level k, from :func:`product_rows` and
    :func:`blocks`: each block with all of its dense rows."""
    exact = is_exact(c for g in gens.generators for c in g.coeffs.values())
    idx = indices_up_to(gens.n, k - 1)
    out = [
        Block([idx[c] for c in cols], rows, exact)
        for cols, rows in blocks(product_rows(gens.generators, idx), len(idx))
    ]
    return JetIdeal(gens.n, k, idx, out, exact)
