"""Kernels, Riesz representatives, minimal L2 integrals, and their duality.

The two central computations deliberately take different routes:

* :func:`minimal_l2` does constrained weighted least squares in monomial
  coordinates (the orthogonal-projection picture);
* :func:`b_circle` maximizes the kernel ratio over the annihilator of the
  jet ideal (the coefficient-functional picture).

That the two values agree is the equivalence theorem this package is built
to exercise; it is asserted by the test suites, never assumed by the code.

Each route has two backends.  Exact diagonal problems (exact domain, jet
and ideal) run over Fraction / QQi through :mod:`berglab.linalg`.  Every
other problem (moment domains, float diagonal domains, float or complex
data) runs through numpy: one assembler, :func:`_float_problem`, builds the
inputs both routes read, and each route then does its own solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .domains import DiagonalDomain, ExhaustionSequence, MomentDomain
from .errors import (
    BerglabError,
    DimensionMismatchError,
    SingularMatrixError,
    SupportBoundError,
    UnboundedFunctionalError,
    ZeroFunctionalError,
)
from .exactnum import PiValue, QQi, abs2_s, conj_s, value_float
from .ideals import FLOAT_RANK_TOL, IdealPresentation, JetIdeal, contains, jet_ideal
from .indices import degree, indices_up_to
from .jets import Functional, Jet, pair
from .linalg import hermitian_gram, null_space, rref, rref_null_space, solve

if TYPE_CHECKING:
    import numpy as np


def _exact_path(domain, *jets_and_ideals) -> bool:
    if not getattr(domain, "exact", False):
        return False
    for obj in jets_and_ideals:
        if isinstance(obj, Jet) and any(
            isinstance(c, (complex, float)) for c in obj.coeffs.values()
        ):
            return False
        if isinstance(obj, JetIdeal) and not obj.exact:
            return False
    return True


# ---------------------------------------------------------------------------
# Riesz representatives and kernels


def riesz_representative(domain, xi: Functional) -> Jet:
    """The jet T with <f, T> = (xi . f)(o) for every f in the working space.

    In exact mode on diagonal domains the returned coefficients are the
    rational parts; the true representative carries an extra pi**(-n).
    """
    if xi.is_zero():
        raise ZeroFunctionalError("the zero functional has the zero representative")
    if isinstance(domain, MomentDomain):
        for alpha in xi.entries:
            if degree(alpha) > domain.degree_bound:
                raise SupportBoundError(
                    f"functional support {alpha} beyond moment degree bound"
                )
        import numpy as np

        vec = np.array([complex(c) for c in xi.vector(domain.indices)], dtype=complex)
        t = np.conj(np.linalg.solve(domain.matrix, vec))
        return Jet(
            domain.n,
            domain.degree_bound,
            {a: v for a, v in zip(domain.indices, t) if abs(v) > 0},
        )
    exact = _exact_path(domain) and all(
        not isinstance(c, (complex, float)) for c in xi.entries.values()
    )
    coeffs = {}
    for alpha, c in xi.entries.items():
        nrm = domain.norm(alpha) if exact else domain.norm_float(alpha)
        if nrm == math.inf:
            raise UnboundedFunctionalError(
                f"functional touches {alpha}, whose weighted norm is infinite"
            )
        coeffs[alpha] = conj_s(c if exact else complex(c)) / nrm
    d = xi.order()
    return Jet(domain.n, d, coeffs)


def kernel_at_origin(domain, xi: Functional):
    """K_xi = (xi . T)(o), T the Riesz representative of xi: the squared norm
    of T.  A PiValue with pi power -n in exact mode, a float otherwise."""
    T = riesz_representative(domain, xi)
    if _exact_path(domain, T):
        k = pair(xi, T)
        return PiValue(Fraction(k.re if isinstance(k, QQi) else k), -domain.n)
    # float path: the representative was built from complex(xi)
    return float(pair(xi.to_float(), T).real)


# ---------------------------------------------------------------------------
# triangular orthonormal basis


@dataclass
class TriangularBasis:
    """Orthonormal basis sigma_alpha with triangular coefficient structure.

    ``coeff_matrix[i, j]`` is the Taylor coefficient of sigma at index
    ``included[j]`` on monomial ``indices[i]``; it vanishes for i strictly
    below j in the graded order.  ``functionals[j]`` is the finitely
    supported xi with T(xi) = sigma, supported on indices up to
    ``included[j]``.
    """

    domain: object
    degree_bound: int
    indices: list
    included: list
    coeff_matrix: np.ndarray
    functionals: list

    def sigma(self, j) -> Jet:
        col = self.coeff_matrix[:, j]
        return Jet(
            self.domain.n,
            self.degree_bound,
            {a: v for a, v in zip(self.indices, col) if abs(v) > 0},
        )


def triangular_basis(domain, degree_bound: int) -> TriangularBasis:
    """Orthonormalize monomials in the graded order so that each basis
    element's first nonvanishing Taylor coefficient sits at its own index."""
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
        from scipy.linalg import solve_triangular

        S = solve_triangular(np.conj(L), np.eye(m), lower=True)
        fns = []
        for j in range(m):
            xi_vec = np.conj(L[j, :])
            fns.append(
                Functional(
                    domain.n,
                    {a: v for a, v in zip(idx, xi_vec) if abs(v) > 1e-14 * abs(L[j, j])},
                )
            )
        return TriangularBasis(domain, degree_bound, idx, list(idx), S, fns)

    # diagonal case: monomials are already orthogonal
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
# minimal L2 integrals


@dataclass
class ProjectionResult:
    """Outcome of a minimal L2 computation."""

    value: object  # PiValue in exact mode, float otherwise; may be infinite
    minimizer: Jet = None
    eta: Functional = None
    eta_pi_power: int = 0
    diagnostics: dict = field(default_factory=dict)

    def value_float(self) -> float:
        return value_float(self.value)

    def to_json(self):
        val = self.value.to_json() if isinstance(self.value, PiValue) else self.value
        return {
            "value": val,
            "value_float": self.value_float(),
            "minimizer": self.minimizer.to_json() if self.minimizer else None,
            "eta": self.eta.to_json() if self.eta else None,
            "eta_pi_power": self.eta_pi_power,
            "diagnostics": self.diagnostics,
        }


def _check_level(domain, J: JetIdeal):
    if isinstance(domain, MomentDomain) and J.level > domain.degree_bound + 1:
        raise ValueError("jet-ideal level exceeds the moment degree bound + 1")


def minimal_l2(domain, F: Jet, J: JetIdeal) -> ProjectionResult:
    """Least squared norm over holomorphic functions agreeing with F modulo
    the ideal; the minimizer is the projection of F's low-order jet onto the
    orthogonal complement of the ideal's subspace."""
    if F.n != J.n:
        raise DimensionMismatchError("jet and ideal dimensions differ")
    if F.degree_bound < J.level - 1:
        raise ValueError(
            "F must be given at least to degree level-1 (higher terms are "
            "absorbed by the maximal-ideal power)"
        )
    _check_level(domain, J)
    if contains(J, F):
        zero = PiValue(Fraction(0), domain.pi_power) if getattr(domain, "exact", False) else 0.0
        return ProjectionResult(
            zero,
            Jet.zero(J.n, J.level - 1),
            Functional.delta(J.n, (0,) * J.n),
            domain.pi_power if getattr(domain, "exact", False) else 0,
            {"contained": True},
        )
    if _exact_path(domain, F, J):
        return _minimal_l2_exact(domain, F, J)
    return _minimal_l2_float(domain, F, J)


def _combine(coeffs, rows, slots, start=None):
    """start + sum_r coeffs[r] * rows[r], read at ``slots`` (zero terms skipped)."""
    out = list(start) if start is not None else [0] * len(slots)
    for c, row in zip(coeffs, rows):
        if bool(c):
            for k, i in enumerate(slots):
                out[k] = out[k] + c * row[i]
    return out


def _minimal_l2_exact(domain: DiagonalDomain, F: Jet, J: JetIdeal) -> ProjectionResult:
    idx = J.indices
    norms = [domain.norm(a) for a in idx]
    finite = [i for i, c in enumerate(norms) if c != math.inf]
    infinite = [i for i, c in enumerate(norms) if c == math.inf]
    f = F.truncate(J.level - 1).vector(idx)
    B = J.basis

    # the competitor f + sum_r u_r B_r must vanish on the non-integrable
    # slots: u = u0 + (null space of those constraints)
    if infinite:
        cons = [[row[i] for row in B] for i in infinite]
        try:
            u0 = solve(cons, [-f[i] for i in infinite])
        except SingularMatrixError:
            return ProjectionResult(
                PiValue(math.inf, domain.pi_power), diagnostics={"feasible": False}
            )
        base = _combine(u0, B, finite, [f[i] for i in finite])
        cols = [_combine(z, B, finite) for z in null_space(cons, len(B))]
    else:
        base = f
        cols = B

    # weighted least squares on the integrable slots: the normal equations
    # G w = -C^H W base, G = C^H W C
    wts = [norms[i] for i in finite]
    x = base
    if cols:
        G = hermitian_gram(cols, wts)
        rhs = [
            -sum((conj_s(c) * b * w for c, b, w in zip(col, base, wts)), start=0)
            for col in cols
        ]
        x = _combine(solve(G, rhs), cols, range(len(finite)), base)

    cval = sum((abs2_s(v) * w for v, w in zip(x, wts)), start=Fraction(0))
    minimizer = Jet(J.n, J.level - 1, {idx[i]: v for i, v in zip(finite, x) if bool(v)})
    eta = Functional(
        J.n, {idx[i]: conj_s(v) * w for i, v, w in zip(finite, x, wts) if bool(v)}
    )
    diag = {"feasible": True, "exact": True, "span_dim": len(B)}
    return ProjectionResult(PiValue(cval, domain.pi_power), minimizer, eta, domain.pi_power, diag)


def _columns(vectors, m):
    """Complex matrix whose columns are ``vectors``, zero-padded to length m."""
    import numpy as np

    out = np.zeros((m, len(vectors)), dtype=complex)
    for j, v in enumerate(vectors):
        out[: len(v), j] = np.array(v, dtype=complex)
    return out


def _float_problem(domain, F: Jet, J: JetIdeal):
    """The inputs both float routes read: (indices, gram, f, span).

    * ``indices``: the working monomials.  On a moment domain these are all
      indices up to its degree bound, on a diagonal domain the jet indices
      of degree < level.
    * ``gram``: on a moment domain the full moment matrix M; on a diagonal
      domain the vector of monomial norms, ``inf`` where the monomial is not
      square-integrable.
    * ``f``: F's coefficients below the level.
    * ``span``: columns spanning the ideal's part of the working space, the
      jet ideal's basis plus every monomial of degree >= level.
    """
    import numpy as np

    if isinstance(domain, MomentDomain):
        idx, gram = domain.indices, domain.matrix
    else:
        idx = J.indices
        gram = np.array([float(domain.norm_float(a)) for a in idx])
    m = len(idx)
    f = np.array(F.truncate(J.level - 1).vector(idx), dtype=complex)
    high = [i for i, a in enumerate(idx) if degree(a) >= J.level]
    span = np.hstack([_columns(J.basis, m), np.eye(m, dtype=complex)[:, high]])
    return idx, gram, f, span


def _rank_split(A):
    """Orthonormal column bases (range, null) splitting the domain of A, the
    rank decided against its largest singular value."""
    import numpy as np

    _, s, vh = np.linalg.svd(A)
    rank = int(np.sum(s > FLOAT_RANK_TOL * s[0])) if s.size else 0
    return vh[:rank].conj().T, vh[rank:].conj().T


def _minimal_l2_float(domain, F: Jet, J: JetIdeal) -> ProjectionResult:
    import numpy as np

    idx, gram, f, span = _float_problem(domain, F, J)
    if gram.ndim == 1:
        finite = np.isfinite(gram)
        gram = np.diag(np.where(finite, gram, 0.0))
        root = np.sqrt(gram)
    else:
        finite = np.ones(len(idx), dtype=bool)
        # x^T M conj(x) = ||L^T x||^2 for the Cholesky factor M = L L^H
        root = np.linalg.cholesky(gram).T

    if not finite.all():
        # the competitor f + span u must vanish on the non-integrable slots
        rows, fi = span[~finite], f[~finite]
        u0 = np.linalg.lstsq(rows, -fi, rcond=None)[0]
        if np.linalg.norm(fi + rows @ u0) > FLOAT_RANK_TOL * np.linalg.norm(f):
            return ProjectionResult(math.inf, diagnostics={"feasible": False, "exact": False})
        f = f + span @ u0
        f[~finite] = 0
        span = span @ _rank_split(rows)[1]

    # weighted least squares: min over w of ||root (f + span w)||
    x, cond = f, 1.0
    if span.shape[1]:
        w, _, _, sv = np.linalg.lstsq(root @ span, -(root @ f), rcond=None)
        x = f + span @ w
        cond = float((sv[0] / sv[-1]) ** 2)
    r = root @ x
    value = float(np.vdot(r, r).real)
    eta_vec = gram @ np.conj(x)
    bound = degree(idx[-1])
    minimizer = Jet(J.n, bound, {a: v for a, v, ok in zip(idx, x.tolist(), finite) if ok and v})
    eta = Functional(J.n, {a: v for a, v in zip(idx, eta_vec.tolist()) if v})
    diag = {"feasible": True, "exact": False, "span_dim": J.span_dim, "gram_condition": cond}
    return ProjectionResult(value, minimizer, eta, 0, diag)


def extremal_functional(domain, F: Jet, J: JetIdeal) -> Functional:
    """The finitely supported eta with T(eta) = minimizer, realizing the
    minimal L2 value as a kernel ratio.  Exact-mode entries carry an
    implicit pi**(domain.n)."""
    return minimal_l2(domain, F, J).eta


# ---------------------------------------------------------------------------
# the kernel-ratio supremum


@dataclass
class KernelRatioResult:
    """Value and maximizer of the kernel-ratio supremum over the annihilator."""

    value: object
    maximizer: Functional = None
    diagnostics: dict = field(default_factory=dict)

    def value_float(self) -> float:
        return value_float(self.value)


def b_circle(domain, F: Jet, J: JetIdeal) -> KernelRatioResult:
    """Supremum of |(xi.F)(o)|^2 / K_xi over finitely supported xi
    annihilating the ideal, computed as a closed-form quadratic maximum
    over the annihilator basis."""
    if F.n != J.n:
        raise DimensionMismatchError("jet and ideal dimensions differ")
    _check_level(domain, J)
    if contains(J, F):
        zero = PiValue(Fraction(0), domain.pi_power) if getattr(domain, "exact", False) else 0.0
        return KernelRatioResult(zero, None, {"contained": True})
    # the annihilator: the null space of the span, read off its RREF
    vecs = rref_null_space(J.basis, J.pivots, len(J.indices))
    if not vecs:
        raise BerglabError("annihilator is empty; the ideal span fills the jet space")
    if _exact_path(domain, F, J):
        return _b_circle_exact(domain, F, J, vecs)
    return _b_circle_float(domain, F, J, vecs)


def _b_circle_exact(domain, F, J, vecs) -> KernelRatioResult:
    idx = J.indices
    norms = [domain.norm(a) for a in idx]
    finite = [i for i, c in enumerate(norms) if c != math.inf]
    fvec = F.truncate(J.level - 1).vector(idx)
    support = [i for i, c in enumerate(fvec) if bool(c)]
    pvals = [sum((v[i] * fvec[i] for i in support), start=0) for v in vecs]

    if len(finite) < len(idx):
        # directions supported on non-integrable slots have kernel 0; if one
        # of them pairs nontrivially with F the supremum is infinite
        red, keep = rref([[v[i] for v in vecs] for i in finite], len(vecs))
        for y in rref_null_space(red, keep, len(vecs)):
            if bool(sum((yi * p for yi, p in zip(y, pvals)), start=0)):
                return KernelRatioResult(
                    PiValue(math.inf, domain.pi_power),
                    diagnostics={"unbounded_direction": True},
                )
        # the pivot directions are independent on the integrable slots; the
        # others add only zero-kernel directions, which pair trivially
        vecs = [vecs[i] for i in keep]
        pvals = [pvals[i] for i in keep]

    # maximize |p^T y|^2 / y^H A y: A x = conj(p), the value p^T x
    wts = [1 / norms[i] for i in finite]
    A = hermitian_gram([[v[i] for i in finite] for v in vecs], wts)
    x = solve(A, [conj_s(p) for p in pvals])
    val = sum((p * xi for p, xi in zip(pvals, x)), start=0)
    val = val.re if isinstance(val, QQi) else val
    maximizer = Functional(J.n, dict(zip(idx, _combine(x, vecs, range(len(idx))))))
    return KernelRatioResult(
        PiValue(Fraction(val), domain.pi_power),
        maximizer,
        {"exact": True, "basis_dim": len(vecs)},
    )


def _b_circle_float(domain, F, J, vecs) -> KernelRatioResult:
    import numpy as np

    idx, gram, f, _ = _float_problem(domain, F, J)
    V = _columns(vecs, len(idx))
    p = V.T @ f  # the pairings (xi . F)(o), bilinear

    if gram.ndim == 1:
        finite = np.isfinite(gram)
        if not finite.all():
            # directions supported on non-integrable slots have kernel 0; if
            # one of them pairs nontrivially with F the supremum is infinite
            keep, zero = _rank_split(V[finite])
            if np.any(np.abs(p @ zero) > FLOAT_RANK_TOL * np.linalg.norm(p)):
                return KernelRatioResult(
                    math.inf, diagnostics={"unbounded_direction": True, "exact": False}
                )
            V, p = V @ keep, keep.T @ p
        KV = V / gram[:, None]  # 1/inf = 0: non-integrable slots add no kernel
    else:
        KV = np.linalg.solve(gram, V)  # the kernel form is M^{-1}

    # maximize |p^T y|^2 / y^H A y: A x = conj(p), the value p^T x
    A = V.conj().T @ KV
    x = np.linalg.solve(A, np.conj(p))
    value = float((p @ x).real)
    maximizer = Functional(J.n, {a: c for a, c in zip(idx, (V @ x).tolist()) if c})
    return KernelRatioResult(value, maximizer, {"exact": False, "basis_dim": V.shape[1]})


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


@dataclass
class LadderRow:
    k: int
    c_value: object
    b_value: object

    def gap(self) -> float:
        return routes_agree(self.c_value, self.b_value)[1]


@dataclass
class LadderResult:
    rows: list
    limit_estimate: object = None
    stabilized: bool = False

    def __iter__(self):
        return iter(self.rows)


def krull_ladder(domain, F: Jet, gens: IdealPresentation, k_range) -> LadderResult:
    """Minimal L2 integrals along the ladder I + m^k: nondecreasing in k,
    with the kernel-ratio value computed alongside at every level."""
    rows = []
    for k in k_range:
        J = jet_ideal(gens, k)
        # F is a full polynomial here; widen its declared bound as k grows
        Fk = Jet(F.n, max(F.degree_bound, k - 1), F.coeffs)
        c = minimal_l2(domain, Fk, J)
        b = b_circle(domain, Fk, J)
        rows.append(LadderRow(k, c.value, b.value))
    stabilized = False
    limit = rows[-1].c_value if rows else None
    for i in range(len(rows) - 2):
        a, b_, c_ = (value_float(rows[j].c_value) for j in (i, i + 1, i + 2))
        if abs(b_ - a) <= STABILIZATION_RTOL * max(1.0, abs(a)) and abs(
            c_ - b_
        ) <= STABILIZATION_RTOL * max(1.0, abs(b_)):
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
            nrm = domain.norm_float(a)
            if nrm == math.inf:
                continue
            total += complex(cf) * complex(cg).conjugate() * nrm
    return total


def _norm_float(domain: DiagonalDomain, f: Jet) -> float:
    total = 0.0
    for a, cf in f.coeffs.items():
        nrm = domain.norm_float(a)
        if nrm == math.inf:
            if abs(complex(cf)) > 0:
                return math.inf
            continue
        total += abs2_s(complex(cf)) * nrm
    return math.sqrt(total)


def density_sequence(domain: DiagonalDomain, F: Jet, gens: IdealPresentation, k_range):
    """Distances ||F - G_k|| for the rescaled, rephased representatives
    G_k = e^{i theta} (||F||/||g_k||) T(xi_k), xi_k the ladder maximizer.

    F must lie in the orthogonal complement of the ideal subspace at every
    requested level; the phase is chosen so <F, G_k> >= 0.
    """
    if F.is_zero():
        raise ZeroFunctionalError("density sequence needs a nonzero F")
    normF = _norm_float(domain, F)
    if not math.isfinite(normF):
        raise UnboundedFunctionalError("F has infinite norm on the domain")
    out = []
    for k in k_range:
        J = jet_ideal(gens, k)
        Fk = Jet(F.n, max(F.degree_bound, k - 1), F.coeffs)
        # validate F against the complement: it must be orthogonal to the span
        for s in J.basis_jets():
            ip = _inner_float(domain, F, s)
            if abs(ip) > 1e-9 * max(1.0, normF):
                raise BerglabError(
                    f"F is not in the orthogonal complement at level {k}"
                )
        if contains(J, Fk):
            raise BerglabError(
                f"F falls into the ideal at ladder level {k}; start the range "
                "above ord(F)"
            )
        bc = b_circle(domain, Fk, J)
        # float entries: the representative is taken with float norms
        g = riesz_representative(domain, bc.maximizer.to_float())
        norm_g = _norm_float(domain, g)
        ip = _inner_float(domain, F, g)
        # <F, G_k> = e^{-i theta} (||F||/||g||) <F, g>; theta kills the phase.
        # The distance is taken from the coefficients of F - G_k: expanding
        # the square cancels to ~1e-8 when G_k = F.
        phase = ip / abs(ip) if ip else 1
        G = g.scale(phase * normF / norm_g)
        out.append((k, _norm_float(domain, F.to_float().add(G.scale(-1)))))
    return out
