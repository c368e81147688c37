"""Multi-indices and the graded order that fixes every matrix layout.

A multi-index is a plain tuple of non-negative ints.  The order is graded
by total degree; ties are broken by comparing coordinates from the *last*
one down, so e.g. (1,0) comes before (0,1).  All index enumerations in the
package follow this order so that coefficient vectors and Gram matrices
are reproducible.

A multi-index is checked once, by :func:`validate_index`, where it enters
from outside the package (a jet's or a functional's constructor, its JSON
reader); the package builds every other index from checked ones.

Every jet ideal in n variables reads one :class:`Layout` of that dimension
(:func:`layout`): the multi-indices in the graded order, with, for each
variable, the position that multiplying by it moves each index to.  The
indices below degree k are a prefix of those below k + 1, so one layout
serves every level; it is grown, at least doubling its degree, when a
higher degree is asked for, never past ``MAX_JET_INDICES`` indices, and it
is made of tuples, so the ideals that share it cannot change one another's
indices.
"""

from __future__ import annotations

import math
from .errors import DimensionMismatchError, JetSpaceTooLargeError

MultiIndex = tuple  # tuple[int, ...]

# most indices a jet space may have.  One exact level of the two-variable
# ladder of <z1 - (2 - i) z2^2> (`berglab ladder --k k..k`, process
# included) took 0.32 s at 210 indices and 0.30 s at 496, nearly all of it
# interpreter start and imports, on a 2-core Linux x86-64 machine under
# Python 3.11; before the jet space was split into blocks it took 0.70 s and
# 3.8 s.  That ideal splits into blocks of at most 16 indices; but a moment
# problem reads the whole jet space, and the exact time of an ideal with a
# large block grows about as the cube of that block's size.
MAX_JET_INDICES = 500


def degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def validate_index(alpha, n: int) -> MultiIndex:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise DimensionMismatchError(
            f"multi-index {alpha} has length {len(alpha)}, expected {n}"
        )
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has a negative component")
    return alpha


def order_key(alpha: MultiIndex):
    """Sort key realizing the graded order (ties broken from the last slot)."""
    return (sum(alpha), tuple(reversed(alpha)))


def indices_of_degree(n: int, d: int) -> list:
    """All indices with |alpha| = d, in the graded order."""
    if n == 1:
        return [(d,)]
    # smaller last coordinate first
    return [
        rest + (last,)
        for last in range(d + 1)
        for rest in indices_of_degree(n - 1, d - last)
    ]


def indices_up_to(n: int, d: int) -> list:
    """All indices with |alpha| <= d, in the graded order."""
    out = []
    for k in range(d + 1):
        out.extend(indices_of_degree(n, k))
    return out


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


class Layout:
    """The multi-indices of degree <= ``top`` in n variables, as read by jet
    ideals.  Its fields are tuples, so the ideals that share it cannot change
    it.

    ``indices`` is the tuple of them in the graded order, and ``ends[d]``
    the number of those of degree <= d, so the jet space of level k is the
    prefix ``indices[:ends[k - 1]]``.  ``steps[j][p]`` is the position of
    ``indices[p]`` times z_j, for every p below ``ends[top - 1]``: the
    position of alpha + beta, for alpha of degree below k and beta of degree
    at most k - 1 - |alpha|, is reached from beta's by |alpha| steps.
    """

    __slots__ = ("top", "indices", "ends", "steps")

    def __init__(self, n: int, top: int):
        self.top = top
        self.indices = tuple(indices_up_to(n, top))
        self.ends = tuple(math.comb(n + d, n) for d in range(top + 1))
        position = {a: p for p, a in enumerate(self.indices)}
        below = self.indices[: self.ends[top - 1]] if top else ()
        self.steps = tuple(
            tuple(position[a[:j] + (a[j] + 1,) + a[j + 1 :]] for a in below)
            for j in range(n)
        )

    def shifted(self, alpha, k: int):
        """The positions of alpha + beta for the betas of the jet space of
        level k, in order, up to the last one with |alpha + beta| < k: one
        for each of the first ``ends[k - 1 - |alpha|]`` betas, none when
        |alpha| >= k."""
        d = k - 1 - sum(alpha)
        pos = range(self.ends[d] if d >= 0 else 0)
        for step, e in zip(self.steps, alpha):
            for _ in range(e):
                pos = [step[p] for p in pos]
        return pos


# per number of variables, its layout; a larger one replaces it when asked
_LAYOUTS = {}


def _top_degree(n: int) -> int:
    """The largest degree whose layout in n variables has at most
    ``MAX_JET_INDICES`` indices."""
    for d in range(MAX_JET_INDICES):
        if math.comb(n + d + 1, n) > MAX_JET_INDICES:
            return d
    return MAX_JET_INDICES


def layout(n: int, top: int) -> Layout:
    """The shared layout of dimension n, grown to degree ``top`` or more.
    It grows to at least twice its old degree, short of the cap, so a
    ladder climbing one level at a time rebuilds it O(log k) times.
    Raises JetSpaceTooLargeError, growing nothing, when the indices of
    degree <= top number more than ``MAX_JET_INDICES``."""
    lay = _LAYOUTS.get(n)
    if lay is None or lay.top < top:
        check_jet_space(n, top + 1)
        if lay is not None:
            top = max(top, min(2 * lay.top, _top_degree(n)))
        lay = _LAYOUTS[n] = Layout(n, top)
    return lay
