"""Kernels, Riesz representatives, minimal L2 integrals, and their duality.

The two central computations deliberately take different routes:

* :func:`minimal_l2` does constrained weighted least squares in monomial
  coordinates (the orthogonal-projection picture);
* :func:`b_circle` maximizes the kernel ratio over the annihilator of the
  jet ideal (the coefficient-functional picture).

That the two values agree is the equivalence theorem this package is built
to exercise; it is asserted by the test suites, never assumed by the code.

Both routes start from one problem record, a :class:`_Problem` built from
(domain, F, J) alone: it checks them, decides containment and exact vs
float once, and assembles the inputs both routes read (the working
indices, the weights, the finite slots and F's vector).  In exact mode the
record holds them cleared to ring integers, each once: F's vector and the
finite slots' weights, which the projection reads, by
:func:`berglab.linalg.to_ring`, and their reciprocals, the kernel weights
that the kernel ratio reads, from the weights' own ints.  J keeps the last
record built on it (:func:`_record`), so the routes, called one after the
other on the same domain and F objects, read one record.

On a diagonal domain distinct monomials are orthogonal, so the problem
splits along the jet ideal's blocks (:class:`berglab.ideals.Block`), and a
block that F does not touch adds 0 to C and to B.  So does a block on which
F's part lies in the span: the minimizer is 0 there, and every annihilator
vector there pairs to 0 with F.  The record therefore holds the jet ideal
restricted to the blocks on which F lies outside the span
(:func:`berglab.ideals.outside_blocks`, :meth:`JetIdeal.restrict`), with
weights and slots for their indices only, and F is contained when none is
left; the blocks F does not touch are never eliminated, and the blocks
inside the span are not assembled or solved.  A moment
domain's Gram matrix is dense, so there the record holds the whole jet
ideal.  Each route then does its own solve, once, on its own system over
the record's jet ideal ``J``:

* in exact mode the projection solves its normal equations on the
  independent product rows g * z^beta that the blocks' eliminations kept
  (``J.rows``), while the kernel ratio solves on the integer annihilator
  (``J.null``);
* in float mode the projection solves a least-squares problem on the
  span's orthonormal basis, and the kernel ratio a QR factorization on the
  annihilator's (both from ``J.float_view``).

Exact diagonal problems stay in cleared integers (Python ints, and Gaussian
integers where an entry is complex) through :mod:`berglab.linalg` from the
record to the result, and build one QQi per complex output entry and one
Fraction per real one (the norms, too, are built from ints, one Fraction
each: :class:`berglab.domains.DiagonalDomain`); every other problem (moment
domains, float diagonal domains, float or complex data) runs through
numpy.  In exact mode the
routes share no solve and no spanning set, so a wrong annihilator shows up
as C != B.  A float view's span and annihilator come from one singular
value decomposition per block, so the routes share that input, and the
float rank is not checked by C = B; nor is the block split, which both
routes read.
Every result carries the record's diagnostics dict, with one key set for
every backend and outcome.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import cached_property
from operator import mul

from .domains import DiagonalDomain, ExhaustionSequence, MomentDomain
from .errors import (
    DimensionMismatchError,
    NotInComplementError,
    SingularMatrixError,
    UnsupportedDomainError,
    ZeroFunctionalError,
)
from .exactnum import PiValue, encode, finite, in_float_range, is_exact, to_complex, value_float
from .ideals import (
    FLOAT_RANK_TOL,
    IdealPresentation,
    JetIdeal,
    check_jet_space,
    jet_ideal,
    outside_blocks,
    rank_split,
)
from .indices import check_length, degree, indices_up_to
from .jets import Functional, Jet, pair
from .linalg import combine, from_ring, hermitian_gram, solve, to_ring

# ---------------------------------------------------------------------------
# Riesz representatives and kernels


def riesz_representative(domain, xi: Functional) -> Jet:
    """The jet T with <f, T> = (xi . f)(o) for every f in the working space.

    On a diagonal domain that space is A^2(D, e^(-phi)), whose functions
    vanish on the monomials that are not square-integrable: T lives on the
    integrable slots of xi's support.  In exact mode the returned
    coefficients are the rational parts; the true representative carries an
    extra pi**(-n).
    """
    if xi.is_zero():
        raise ZeroFunctionalError("the zero functional has the zero representative")
    if isinstance(domain, MomentDomain):
        beyond = [a for a in xi.entries if degree(a) > domain.degree_bound]
        if beyond:
            raise UnsupportedDomainError(
                f"functional support {beyond[0]} beyond moment degree bound"
            )
        import numpy as np

        vec = np.array([to_complex(c) for c in xi.vector(domain.indices)], dtype=complex)
        t = np.conj(np.linalg.solve(domain.matrix, vec))
        terms = {a: v for a, v in zip(domain.indices, t) if abs(v) > 0}
        return Jet(domain.n, domain.degree_bound, terms)
    exact = domain.exact and is_exact(xi.entries.values())
    norm = domain._norm if exact else domain._norm_float
    coeffs = {}
    for alpha, c in xi.entries.items():
        check_length(alpha, domain.n)  # checked when xi was built, but not against the domain
        nrm = norm(alpha)
        if nrm != math.inf:
            coeffs[alpha] = (c if exact else to_complex(c)).conjugate() / nrm
    return Jet.unchecked(domain.n, xi.order(), coeffs)


def kernel_at_origin(domain, xi: Functional):
    """K_xi = (xi . T)(o), T the Riesz representative of xi: the squared norm
    of T.  On a diagonal domain that is the sum of |xi_alpha|^2 / ||z^alpha||^2
    over the integrable slots, 0 when there are none.  A PiValue with pi
    power -n in exact mode, a float otherwise; a float K of a nonzero T is
    positive, and one past the float range raises QuadratureError
    (:func:`berglab.exactnum.in_float_range`)."""
    T = riesz_representative(domain, xi)
    if domain.exact and is_exact(xi.entries.values()):
        k = pair(xi, T)
        return PiValue(Fraction(k.real), -domain.n)
    # float path: the representative was built from complex(xi)
    k = float(pair(xi.to_float(), T).real)
    return in_float_range("the kernel of xi", lambda: finite(k)) if T.coeffs else k


# ---------------------------------------------------------------------------
# triangular orthonormal basis


class TriangularBasis:
    """Orthonormal basis sigma_alpha with triangular coefficient structure.

    ``coeff_matrix[i, j]`` is the Taylor coefficient of sigma at index
    ``included[j]`` on monomial ``indices[i]``; it vanishes for i strictly
    below j in the graded order.  ``functionals[j]`` is the finitely
    supported xi with T(xi) = sigma, supported on indices up to
    ``included[j]``.
    """

    def __init__(self, domain, degree_bound: int, indices: list, included: list, coeff_matrix,
                 functionals: list):
        self.domain, self.degree_bound, self.indices = domain, degree_bound, indices
        self.included, self.coeff_matrix, self.functionals = included, coeff_matrix, functionals

    def sigma(self, j) -> Jet:
        col = self.coeff_matrix[:, j]
        terms = {a: v for a, v in zip(self.indices, col) if abs(v) > 0}
        return Jet(self.domain.n, self.degree_bound, terms)


def triangular_basis(domain, degree_bound: int) -> TriangularBasis:
    """Orthonormalize monomials in the graded order so that each basis
    element's first nonvanishing Taylor coefficient sits at its own index.

    On a diagonal domain the indices of degree <= ``degree_bound`` are the
    jet space of level ``degree_bound + 1``: past the jet-space cap that
    raises JetSpaceTooLargeError before any matrix is built."""
    import numpy as np

    if isinstance(domain, MomentDomain):
        if degree_bound > domain.degree_bound:
            raise ValueError("degree bound exceeds the moment data")
        idx = indices_up_to(domain.n, degree_bound)
        m = len(idx)
        M = domain.matrix[:m, :m]
        # factor M = L^H L with L lower triangular: Cholesky of the
        # reverse-permuted matrix.  Then sigma columns are conj(L)^{-1} and
        # the paired functionals are the rows of L^H.
        P = np.arange(m)[::-1]
        A = M[np.ix_(P, P)]
        try:
            G = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            cond = np.linalg.cond(M)
            raise SingularMatrixError(
                f"Gram matrix numerically indefinite (condition {cond:.3e})"
            ) from exc
        L = G[np.ix_(P, P)].conj().T  # lower triangular
        # the inverse of a lower triangular matrix is lower triangular: the
        # rounding np.linalg.solve leaves above the diagonal is cleared
        S = np.tril(np.linalg.solve(np.conj(L), np.eye(m)))
        fns = []
        for j in range(m):
            xi = {a: v for a, v in zip(idx, np.conj(L[j, :])) if abs(v) > 1e-14 * abs(L[j, j])}
            fns.append(Functional(domain.n, xi))
        return TriangularBasis(domain, degree_bound, idx, list(idx), S, fns)

    # diagonal case: monomials are already orthogonal
    check_jet_space(domain.n, degree_bound + 1)
    idx = indices_up_to(domain.n, degree_bound)
    included = [a for a in idx if domain.finite(a)]
    m = len(idx)
    S = np.zeros((m, len(included)), dtype=complex)
    fns = []
    for j, alpha in enumerate(included):
        c = domain.norm_float(alpha)
        S[idx.index(alpha), j] = 1 / math.sqrt(c)
        fns.append(Functional.delta(domain.n, alpha, math.sqrt(c)))
    return TriangularBasis(domain, degree_bound, idx, included, S, fns)


# ---------------------------------------------------------------------------
# the problem record


class _Problem:
    """One checked (domain, F, J) and the inputs both routes read.

    The constructor checks (domain, F, J), decides containment and exact vs
    float, and assembles those inputs.  On a diagonal domain distinct
    monomials are orthogonal, so the problem splits with the jet ideal's
    blocks, and a block that F does not touch, or on which F's part lies in
    the span, adds 0 to both routes: only the blocks on which F lies outside
    the span (:func:`outside_blocks`) are assembled, and each route solves
    once on all of them.  F is ``contained`` when no block is left.

    ``backend`` is "exact" (Fraction / QQi lists), "float" (numpy, diagonal
    domain) or "moment" (numpy).  ``J`` is the jet ideal the routes solve
    on: on a diagonal domain the restriction of the given one to the blocks
    on which F lies outside the span (:meth:`JetIdeal.restrict`), none when
    F is contained, on a moment domain the given one, held weakly, as that
    ideal holds the record in its slot (:func:`_record`).  ``indices`` are
    the working monomials, ``J``'s on a diagonal domain, and ``weights`` their
    squared norms (inf where not square-integrable), or on a moment domain
    the moment matrix, with ``chol`` its Cholesky factor.
    ``finite``/``infinite`` split the slots by weight.  ``f`` is F's vector.
    For the exact backend the record holds the routes' inputs cleared to
    ring integers, each once: ``f`` by :func:`to_ring`, over the int
    ``f_den``, the finite slots' weights (:attr:`cleared_weights`) and their
    reciprocals, the kernel weights (:attr:`cleared_kernel_weights`); a
    route that is not run does not clear its weights.  ``sizes`` are the
    whole problem's sizes that every diagnostics dict reports, found once.
    """

    def __init__(self, domain, F: Jet, J: JetIdeal):
        if not (domain.n == F.n == J.n):
            raise DimensionMismatchError("domain, jet and ideal dimensions differ")
        if F.degree_bound < J.level - 1:
            raise ValueError(
                "F must be given at least to degree level-1 (higher terms are "
                "absorbed by the maximal-ideal power)"
            )
        moment = isinstance(domain, MomentDomain)
        if moment and J.level > domain.degree_bound + 1:
            raise UnsupportedDomainError("jet-ideal level exceeds the moment degree bound + 1")
        F = F.truncate(J.level - 1)
        exact = J.exact and is_exact(F.coeffs.values())
        outside = outside_blocks(J, F, exact)
        self.contained = not outside
        self.sizes = {
            "indices": len(domain.indices if moment else J.indices),
            "blocks": len(J.blocks),
            "largest_block": J.largest_block,
        }
        self._J = weakref.ref(J) if moment else J.restrict(blocks=outside)
        self.indices = idx = domain.indices if moment else self._J.indices
        f = F.vector(idx)
        self.chol = self.quad_error = None
        if moment:
            self.backend, weights = "moment", domain.matrix
            self.finite, self.infinite = list(range(len(idx))), []
            self.chol, self.quad_error = domain._chol, domain.quad_error
        else:
            self.backend = "exact" if domain.exact and exact else "float"
            # idx comes from the jet ideal's layout: its norms need no index check
            norm = domain._norm if self.backend == "exact" else domain._norm_float
            weights = [norm(a) for a in idx]
            self.finite, self.infinite = [], []
            for i, w in enumerate(weights):
                # an exact norm is a Fraction: only a non-integrable slot holds a float
                inf = isinstance(w, float) and w == math.inf
                (self.infinite if inf else self.finite).append(i)
        if self.backend == "exact":
            self.pi_power, self.weights = domain.pi_power, weights
            (self.f,), (self.f_den,) = to_ring([f])
        else:
            import numpy as np

            self.pi_power, self.weights = 0, np.asarray(weights)
            self.f = np.array(f, dtype=complex)

    @property
    def J(self):
        return self._J() if self.backend == "moment" else self._J

    @cached_property
    def cleared_weights(self):
        """(ring integers, int denominator) of the finite slots' weights, in
        exact mode: cleared when the projection first reads them."""
        (w,), (den,) = to_ring([[self.weights[i] for i in self.finite]])
        return w, den

    @cached_property
    def cleared_kernel_weights(self):
        """(ring integers, int denominator) of the kernel weights, the
        reciprocals q/p of the finite slots' reduced weights p/q, in exact
        mode: q * (den // p) over den = lcm(p), the ints :func:`to_ring`
        gives, cleared when the kernel ratio first reads them."""
        ws = [self.weights[i] for i in self.finite]
        den = math.lcm(*(w.numerator for w in ws))
        return [w.denominator * (den // w.numerator) for w in ws], den

    def value(self, v):
        """``v`` as a result value: a PiValue in exact mode, a float otherwise."""
        return PiValue(v, self.pi_power) if self.backend == "exact" else float(v)

    def diagnostics(self, outcome, system_dim, condition) -> dict:
        """How a result was obtained, under one key set for every result: the
        route gives its outcome (solved, contained, infeasible or unbounded),
        its own system's size and its condition estimate, or None.  The
        sizes of the whole problem (indices, blocks), which need no
        elimination, come with those of the part that was solved (solved
        indices, the span and annihilator of ``J``, finite and infinite
        slots)."""
        J = self.J
        return {
            "backend": self.backend,
            "outcome": outcome,
            **self.sizes,
            "solved_indices": len(self.indices),
            "solved_span_dim": J.span_dim,
            "solved_annihilator_dim": len(J.indices) - J.span_dim,
            "finite_slots": len(self.finite),
            "infinite_slots": len(self.infinite),
            "system_dim": system_dim,
            "condition": condition,
            "quad_error": self.quad_error,
        }


def _record(domain, F: Jet, J: JetIdeal) -> _Problem:
    """The problem record of (domain, F, J): the one in ``J``'s slot when it
    was built from these ``domain`` and ``F`` objects, else a new one, which
    replaces it there."""
    slot = J._record
    if slot is None or slot[0] is not domain or slot[1] is not F:
        slot = J._record = (domain, F, _Problem(domain, F, J))
    return slot[2]


# ---------------------------------------------------------------------------
# minimal L2 integrals


class ProjectionResult:
    """Outcome of a minimal L2 computation: ``value`` is a PiValue in exact
    mode, a float otherwise, and may be infinite; T(``eta``) = ``minimizer``,
    and exact entries of ``eta`` carry pi**``eta_pi_power``."""

    def __init__(self, value, minimizer: Jet = None, eta: Functional = None,
                 eta_pi_power: int = 0, diagnostics: dict = None):
        self.value, self.minimizer, self.eta = value, minimizer, eta
        self.eta_pi_power = eta_pi_power
        self.diagnostics = {} if diagnostics is None else diagnostics

    def to_json(self):
        return {
            "value": encode(self.value),
            "value_float": value_float(self.value),
            "minimizer": self.minimizer.to_json() if self.minimizer else None,
            "eta": self.eta.to_json() if self.eta else None,
            "eta_pi_power": self.eta_pi_power,
            "diagnostics": self.diagnostics,
        }


def minimal_l2(domain, F: Jet, J: JetIdeal) -> ProjectionResult:
    """Least squared norm over holomorphic functions agreeing with F modulo
    the ideal; the minimizer is the projection of F's low-order jet onto the
    orthogonal complement of the ideal's subspace."""
    return _project(_record(domain, F, J))


def _project(prob: _Problem) -> ProjectionResult:
    if prob.contained:
        J = prob.J
        zero = Jet.zero(J.n, J.level - 1), Functional.unchecked(J.n, {(0,) * J.n: 1}), prob.pi_power
        diag = prob.diagnostics("contained", None, None)
        return ProjectionResult(prob.value(Fraction(0)), *zero, diag)
    if prob.backend == "exact":
        return _minimal_l2_exact(prob)
    return _minimal_l2_float(prob)


def _minimal_l2_exact(prob: _Problem) -> ProjectionResult:
    J, idx, finite, infinite = prob.J, prob.indices, prob.finite, prob.infinite
    # the span is taken on the independent product rows g * z^beta that the
    # elimination kept: the projection does not depend on the spanning set.
    # Everything below stays in ring integers, x = num / den.
    rows = J.rows
    f, den, (w, wden) = prob.f, prob.f_den, prob.cleared_weights

    # the competitor (f + sum_r u_r rows_r) / den must vanish on the
    # non-integrable slots: u = u0 + (homogeneous solutions)
    if infinite:
        cons = [[row[i] for row in rows] + [-f[i]] for i in infinite]
        try:
            u0, d, null = solve(cons, len(rows))
        except SingularMatrixError:
            diag = prob.diagnostics("infeasible", None, None)
            return ProjectionResult(prob.value(math.inf), diagnostics=diag)
        rows = [[row[i] for i in finite] for row in rows]
        base = combine(u0, rows, [d * f[i] for i in finite])
        den *= d
        cols = [combine(z, rows, [0] * len(finite)) for z in null]
    else:
        base, cols = f, rows

    # weighted least squares on the integrable slots: the normal equations
    # S y = -s, S = C^H W C and s = C^H W base the last column of the Gram
    # matrix of [C, base]; then x = (d base + sum_r y_r C_r) / (d den) for
    # y = num / d.  The weights' common denominator cancels.
    x = base
    if cols:
        m = len(cols)
        G = hermitian_gram(cols + [base], w)
        y, d, _ = solve([row[:m] + [-row[m]] for row in G[:m]], m, definite=True)
        x = combine(y, cols, [d * v for v in base])
        den *= d

    # eta = W conj(x), and C = eta(x)
    eta = [wk * v.conjugate() for wk, v in zip(w, x)]
    cval = Fraction(sum(map(mul, eta, x), 0).real, den * den * wden)
    slots = [idx[i] for i in finite]
    minimizer = Jet.unchecked(J.n, J.level - 1, dict(zip(slots, from_ring(x, den))))
    eta = Functional.unchecked(J.n, dict(zip(slots, from_ring(eta, den * wden))))
    diag = prob.diagnostics("solved", len(cols), None)
    return ProjectionResult(prob.value(cval), minimizer, eta, prob.pi_power, diag)


def _columns(rows, m):
    """Complex matrix whose columns are the rows of the array ``rows``,
    zero-padded to length m."""
    import numpy as np

    out = np.zeros((m, len(rows)), dtype=complex)
    out[: rows.shape[1]] = rows.T
    return out


def _weigh(w, a):
    """w @ a for a matrix ``w``, and diag(w) @ a, unformed, for a vector."""
    return w @ a if w.ndim == 2 else (w * a.T).T


def _minimal_l2_float(prob: _Problem) -> ProjectionResult:
    import numpy as np

    J, idx, f, infinite = prob.J, prob.indices, prob.f, prob.infinite
    m = len(idx)
    # the ideal's part of the working space: the jet ideal's span plus
    # every monomial of degree >= level
    high = [i for i, a in enumerate(idx) if degree(a) >= J.level]
    span = np.hstack([_columns(J.float_view[0], m), np.eye(m, dtype=complex)[:, high]])
    if prob.backend == "moment":
        # x^T M conj(x) = ||L^T x||^2 for the Cholesky factor M = L L^H
        gram, root = prob.weights, prob.chol.T
    else:
        # M = diag(the norms, 0 on the non-integrable slots), kept a vector
        gram = np.zeros(m)
        gram[prob.finite] = prob.weights[prob.finite]
        root = np.sqrt(gram)

    if infinite:
        # the competitor f + span u must vanish on the non-integrable slots
        rows, fi = span[infinite], f[infinite]
        keep, zero = rank_split(rows)
        u0 = keep @ np.linalg.lstsq(rows @ keep, -fi, rcond=None)[0]
        if np.linalg.norm(fi + rows @ u0) > FLOAT_RANK_TOL * np.linalg.norm(f):
            diag = prob.diagnostics("infeasible", None, None)
            return ProjectionResult(math.inf, diagnostics=diag)
        f = f + span @ u0
        f[infinite] = 0
        span = span @ zero

    # weighted least squares: min over w of ||root (f + span w)||
    x, cond = f, 1.0
    if span.shape[1]:
        w, _, _, sv = np.linalg.lstsq(_weigh(root, span), -_weigh(root, f), rcond=None)
        x = f + span @ w
        cond = float((sv[0] / sv[-1]) ** 2)
    r = _weigh(root, x)
    value = float(np.vdot(r, r).real)
    value = in_float_range("the minimal L2 integral C", lambda: finite(value)) if value else value
    eta_vec = _weigh(gram, np.conj(x))
    xs = x.tolist()
    bound = max(J.level - 1, degree(idx[-1]))
    minimizer = Jet.unchecked(J.n, bound, {idx[i]: xs[i] for i in prob.finite})
    eta = Functional.unchecked(J.n, dict(zip(idx, eta_vec.tolist())))
    diag = prob.diagnostics("solved", span.shape[1], cond)
    return ProjectionResult(value, minimizer, eta, 0, diag)


# ---------------------------------------------------------------------------
# the kernel-ratio supremum


class KernelRatioResult:
    """Value and maximizer of the kernel-ratio supremum over the annihilator."""

    def __init__(self, value, maximizer: Functional = None, diagnostics: dict = None):
        self.value, self.maximizer = value, maximizer
        self.diagnostics = {} if diagnostics is None else diagnostics


def b_circle(domain, F: Jet, J: JetIdeal) -> KernelRatioResult:
    """Supremum of |(xi.F)(o)|^2 / K_xi over finitely supported xi
    annihilating the ideal, computed as a closed-form quadratic maximum
    over the annihilator basis."""
    return _kernel_ratio(_record(domain, F, J))


def _kernel_ratio(prob: _Problem) -> KernelRatioResult:
    if prob.contained:
        diag = prob.diagnostics("contained", None, None)
        return KernelRatioResult(prob.value(Fraction(0)), None, diag)
    # the annihilator is not empty, as F is outside the span
    if prob.backend == "exact":
        return _b_circle_exact(prob)
    return _b_circle_float(prob)


def _b_circle_exact(prob: _Problem) -> KernelRatioResult:
    idx, finite = prob.indices, prob.finite
    # the annihilator V, each vector scaled to integers: the value p^T x and
    # the maximizer V x of A x = conj(p), A = V^H W V, do not change under
    # V -> V S.  With F's vector scaled by den, p scales by den, the value by
    # den^2 and the maximizer by den; W (the kernel weights 1/w) has the
    # common denominator wden, which scales A.
    vecs = prob.J.null
    f, den, (w, wden) = prob.f, prob.f_den, prob.cleared_kernel_weights
    support = [i for i, c in enumerate(f) if c]
    pvals = [sum((v[i] * f[i] for i in support), 0) for v in vecs]

    # maximize |p^T y|^2 / y^H A y: A x = conj(p), the value p^T x
    m = len(vecs)
    A = hermitian_gram([[v[i] for i in finite] for v in vecs] if prob.infinite else vecs, w)
    rows = [row + [p.conjugate()] for row, p in zip(A, pvals)]
    try:
        # directions supported on non-integrable slots have kernel 0, so with
        # such slots A may be singular.  If one of them pairs nontrivially
        # with F, that is when conj(p) is outside the range of A, the
        # supremum is infinite.  Otherwise every solution gives the same
        # value, and the one with the free unknowns 0 lies on the directions
        # that are independent on the integrable slots.
        x, d, null = solve(rows, m, definite=not prob.infinite)
    except SingularMatrixError:
        diag = prob.diagnostics("unbounded", None, None)
        return KernelRatioResult(prob.value(math.inf), diagnostics=diag)
    val = sum(map(mul, pvals, x), 0).real
    nums = combine(x, vecs, [0] * len(idx))
    coeffs = from_ring([wden * v for v in nums], d * den)
    maximizer = Functional.unchecked(prob.J.n, dict(zip(idx, coeffs)))
    diag = prob.diagnostics("solved", m - len(null), None)
    return KernelRatioResult(prob.value(Fraction(wden * val, d * den * den)), maximizer, diag)


def _b_circle_float(prob: _Problem) -> KernelRatioResult:
    import numpy as np

    idx = prob.indices
    V = _columns(prob.J.float_view[1], len(idx))
    p = V.T @ prob.f  # the pairings (xi . F)(o), bilinear

    if prob.infinite:
        # directions supported on non-integrable slots have kernel 0; if one
        # of them pairs nontrivially with F the supremum is infinite
        keep, zero = rank_split(V[prob.finite])
        if np.any(np.abs(p @ zero) > FLOAT_RANK_TOL * np.linalg.norm(p)):
            diag = prob.diagnostics("unbounded", None, None)
            return KernelRatioResult(math.inf, diagnostics=diag)
        V, p = V @ keep, keep.T @ p
    # the kernel form is A = V^H K V = B^H B with B = K^(1/2) V: K = M^-1 =
    # L^-H L^-1 for the Cholesky factor M = L L^H on a moment domain, and
    # 1/w on a diagonal one (1/inf = 0: non-integrable slots add no kernel)
    if prob.backend == "moment":
        B = np.linalg.solve(prob.chol, V)
    else:
        B = V / np.sqrt(prob.weights)[:, None]

    # maximize |p^T y|^2 / ||B y||^2: A x = conj(p), the value p^T x.  A is
    # not formed, as that would square B's condition number: with B = QR,
    # R^H z = conj(p) gives the value ||z||^2 and x = R^-1 z
    R = np.linalg.qr(B, mode="r")
    z = np.linalg.solve(R.conj().T, np.conj(p))
    x = np.linalg.solve(R, z)
    value = float(np.vdot(z, z).real)
    value = in_float_range("the kernel ratio B", lambda: finite(value)) if value else value
    maximizer = Functional.unchecked(prob.J.n, dict(zip(idx, (V @ x).tolist())))
    return KernelRatioResult(value, maximizer, prob.diagnostics("solved", V.shape[1], None))


def both_routes(domain, F: Jet, J: JetIdeal):
    """(minimal_l2, b_circle) of one (domain, F, J), from one problem record:
    the routes share its input assembly, and each does its own solve."""
    return minimal_l2(domain, F, J), b_circle(domain, F, J)


ROUTES_RTOL = 1e-9


def routes_agree(c, b):
    """Whether the projection value C and the kernel-ratio value B agree,
    with the gap between them: the one place that judges C against B.

    Exact PiValues agree only when equal (the gap is then the float
    difference); an infinite value agrees only with another infinite value;
    otherwise the gap is relative to max(1, |C|) and must be at most
    :data:`ROUTES_RTOL`.
    """
    if isinstance(c, PiValue) and isinstance(b, PiValue):
        ok = c == b
        return ok, 0.0 if ok else abs(value_float(c) - value_float(b))
    cf, bf = value_float(c), value_float(b)
    if math.isinf(cf) or math.isinf(bf):
        ok = cf == bf
        return ok, 0.0 if ok else math.inf
    gap = abs(cf - bf) / max(1.0, abs(cf))
    return gap <= ROUTES_RTOL, gap


# ---------------------------------------------------------------------------
# ladders, exhaustion, density


STABILIZATION_RTOL = 1e-10


class LadderRow:
    def __init__(self, k: int, c_value, b_value):
        self.k, self.c_value, self.b_value = k, c_value, b_value

    def gap(self) -> float:
        return routes_agree(self.c_value, self.b_value)[1]


class LadderResult:
    def __init__(self, rows: list, limit_estimate=None, stabilized: bool = False):
        self.rows, self.limit_estimate, self.stabilized = rows, limit_estimate, stabilized

    def __iter__(self):
        return iter(self.rows)


def krull_ladder(domain, F: Jet, gens: IdealPresentation, k_range) -> LadderResult:
    """Minimal L2 integrals along the ladder I + m^k: nondecreasing in k,
    with the kernel-ratio value computed alongside at every level.

    The ladder has stabilized at the first three consecutive levels whose
    values that are equal (infinite ones included) or differ by at most
    ``STABILIZATION_RTOL`` times the larger of each pair, a relative rule
    with no absolute floor: rescaling the domain, and with it every value,
    does not change the verdict.  ``limit_estimate`` is
    the third of those values, or the last value when the ladder has not
    stabilized.  A level past the jet-space cap is refused before any level
    is computed.
    """
    k_range = list(k_range)
    check_jet_space(gens.n, max(k_range, default=1))
    rows = []
    for k in k_range:
        J = jet_ideal(gens, k)
        # F is a full polynomial here; widen its declared bound as k grows
        Fk = Jet.unchecked(F.n, max(F.degree_bound, k - 1), F.coeffs)
        c, b = both_routes(domain, Fk, J)
        rows.append(LadderRow(k, c.value, b.value))
    stabilized = False
    limit = rows[-1].c_value if rows else None
    for i in range(len(rows) - 2):
        v = [value_float(rows[j].c_value) for j in (i, i + 1, i + 2)]
        # x == y first: two infinite values are equal, and inf - inf is nan
        if all(
            x == y or abs(y - x) <= STABILIZATION_RTOL * max(abs(x), abs(y))
            for x, y in zip(v, v[1:])
        ):
            stabilized = True
            limit = rows[i + 2].c_value
            break
    return LadderResult(rows, limit, stabilized)


def exhaustion_limit(seq: ExhaustionSequence, F: Jet, J: JetIdeal):
    """Minimal L2 integrals along a nested exhaustion; increasing in i."""
    out = []
    for i, domain in enumerate(seq, start=1):
        res = minimal_l2(domain, F, J)
        out.append((i, res.value))
    return out


def _inner_float(domain: DiagonalDomain, f: Jet, g: Jet) -> complex:
    total = 0j
    for a, cf in f.coeffs.items():
        cg = g.coeffs.get(a)
        if cg is not None:
            nrm = domain._norm_float(a)
            if nrm == math.inf:
                continue
            total += to_complex(cf) * to_complex(cg).conjugate() * nrm
    return total


def density_sequence(domain: DiagonalDomain, F: Jet, gens: IdealPresentation, k_range):
    """Distances ||F - G_k|| for the rescaled, rephased representatives
    G_k = e^{i theta} (||F||/||g_k||) T(xi_k), xi_k the ladder maximizer.

    F must lie in the orthogonal complement of the ideal subspace at every
    requested level: |<F, s>| at most 1e-9 ||F|| ||s|| for each spanning
    vector s, a rule that neither rescaling the domain nor a generator
    changes.  An F of infinite norm, one that is not orthogonal to the span
    and one that falls into the ideal raise NotInComplementError.  The phase
    is chosen so <F, G_k> >= 0.
    """
    if F.is_zero():
        raise ZeroFunctionalError("density sequence needs a nonzero F")
    for alpha in F.coeffs:
        check_length(alpha, domain.n)  # checked when F was built, but not against the domain
        if domain._norm(alpha) == math.inf:
            raise NotInComplementError("F has infinite norm on the domain")

    def norm(f, name=None):
        # the integrable slots are the ones _inner_float sums; a named jet is
        # nonzero, so its norm is positive
        val = math.sqrt(_inner_float(domain, f, f).real)
        return in_float_range(f"the norm of {name}", lambda: finite(val)) if name else val

    normF = norm(F, "F")
    k_range = list(k_range)
    check_jet_space(gens.n, max(k_range, default=1))
    out = []
    for k in k_range:
        J = jet_ideal(gens, k)
        Fk = Jet.unchecked(F.n, max(F.degree_bound, k - 1), F.coeffs)
        # validate F against the complement: it must be orthogonal to the
        # span, up to 1e-9 of the Cauchy-Schwarz bound ||F|| ||s||, with ||s||
        # over the integrable slots that the pairing sums.  A span vector on
        # a block that F does not touch pairs to exactly 0 with F, so only
        # F's blocks are read.
        for s in J.restrict(Fk.truncate(k - 1).coeffs).basis_jets():
            ip = _inner_float(domain, F, s)
            if abs(ip) > 1e-9 * normF * norm(s):
                raise NotInComplementError(
                    f"F is not in the orthogonal complement at level {k}"
                )
        bc = b_circle(domain, Fk, J)
        if bc.diagnostics["outcome"] == "contained":
            raise NotInComplementError(
                f"F falls into the ideal at ladder level {k}; start the range "
                "above ord(F)"
            )
        # float entries: the representative is taken with float norms
        g = riesz_representative(domain, bc.maximizer.to_float())
        norm_g = norm(g, f"the level-{k} representative g")
        ip = _inner_float(domain, F, g)
        # <F, G_k> = e^{-i theta} (||F||/||g||) <F, g>; theta kills the phase.
        # The distance is taken from the coefficients of F - G_k: expanding
        # the square cancels to ~1e-8 when G_k = F.
        phase = ip / abs(ip) if ip else 1
        G = g.scale(phase * normF / norm_g)
        out.append((k, norm(F.to_float().add(G.scale(-1)))))
    return out
