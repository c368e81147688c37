"""Kernels, Riesz representatives, minimal L2 integrals, and their duality.

The two central computations deliberately take different routes:

* :func:`minimal_l2` does constrained weighted least squares in monomial
  coordinates (the orthogonal-projection picture);
* :func:`b_circle` maximizes the kernel ratio over the annihilator of the
  jet ideal (the coefficient-functional picture).

That the two values agree is the equivalence theorem this package is built
to exercise; it is asserted by the test suites, never assumed by the code.
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
    InfeasibleError,
    SingularMatrixError,
    SupportBoundError,
    UnboundedFunctionalError,
    ZeroFunctionalError,
)
from .exactnum import PiValue, QQi, abs2_s, as_complex, conj_s, value_float
from .ideals import (
    FLOAT_RANK_TOL,
    FunctionalBasis,
    IdealPresentation,
    JetIdeal,
    annihilator,
    contains,
    jet_ideal,
)
from .indices import degree, indices_up_to
from .jets import Functional, Jet, pair
from .linalg import hermitian_gram, null_space, rref, solve, solve_least_squares

if TYPE_CHECKING:
    import numpy as np


def _is_exact_jet(f) -> bool:
    return not any(isinstance(c, (complex, float)) for c in f.coeffs.values())


def _exact_path(domain, *jets_and_ideals) -> bool:
    if not getattr(domain, "exact", False):
        return False
    for obj in jets_and_ideals:
        if isinstance(obj, Jet) and not _is_exact_jet(obj):
            return False
        if isinstance(obj, JetIdeal) and obj.tol != 0:
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

        vec = np.array(
            [as_complex(c) for c in xi.vector(domain.indices)], dtype=complex
        )
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
        coeffs[alpha] = conj_s(c if exact else as_complex(c)) / nrm
    d = xi.order()
    return Jet(domain.n, d, coeffs)


def kernel_at_origin(domain, xi: Functional):
    """The squared norm of the Riesz representative of xi.

    Diagonal domains: sum |xi_alpha|^2 / c_alpha (a PiValue with pi power
    -n in exact mode).  Moment domains: the Hermitian form of M^{-1}.
    """
    if xi.is_zero():
        raise ZeroFunctionalError("kernel of the zero functional")
    if isinstance(domain, MomentDomain):
        import numpy as np

        vec = np.array(
            [as_complex(c) for c in xi.vector(domain.indices)], dtype=complex
        )
        for alpha in xi.entries:
            if degree(alpha) > domain.degree_bound:
                raise SupportBoundError(
                    f"functional support {alpha} beyond moment degree bound"
                )
        val = np.vdot(vec, np.linalg.solve(domain.matrix, vec))
        return float(val.real)
    exact = _exact_path(domain) and all(
        not isinstance(c, (complex, float)) for c in xi.entries.values()
    )
    total = Fraction(0) if exact else 0.0
    for alpha, c in xi.entries.items():
        nrm = domain.norm(alpha) if exact else domain.norm_float(alpha)
        if nrm == math.inf:
            raise UnboundedFunctionalError(
                f"functional touches {alpha}, whose weighted norm is infinite"
            )
        total = total + abs2_s(c if exact else as_complex(c)) / nrm
    if exact:
        return PiValue(total, -domain.n)
    return total


def _kernel_sum_lenient(domain, entries_vec, index_list, weights):
    """Kernel quadratic form treating infinite-norm slots as contributing 0."""
    total = 0
    for x, w in zip(entries_vec, weights):
        if w is not None and bool(x):
            total = total + abs2_s(x) * w
    return total


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
    if isinstance(domain, MomentDomain):
        return _minimal_l2_moment(domain, F, J)
    return _minimal_l2_diagonal(domain, F, J)


def _minimal_l2_diagonal(domain: DiagonalDomain, F: Jet, J: JetIdeal) -> ProjectionResult:
    exact = _exact_path(domain, F, J)
    idx = J.indices
    tol = 0.0 if exact else max(J.tol, FLOAT_RANK_TOL)
    if exact:
        norms = [domain.norm(a) for a in idx]
        f = F.truncate(J.level - 1).vector(idx)
    else:
        norms = [domain.norm_float(a) for a in idx]
        f = [as_complex(c) for c in F.truncate(J.level - 1).vector(idx)]
    finite = [i for i, c in enumerate(norms) if c != math.inf]
    infinite = [i for i, c in enumerate(norms) if c == math.inf]
    B = J.basis if exact else [[as_complex(x) for x in row] for row in J.basis]
    nrows = len(B)

    # equality constraints: the competitor must vanish on non-integrable slots
    if infinite and nrows:
        cons = [[B[r][i] for r in range(nrows)] for i in infinite]
        rhs = [-f[i] for i in infinite]
        u0 = _particular_solution(cons, rhs, nrows, tol)
        if u0 is None:
            return ProjectionResult(
                PiValue(math.inf, domain.pi_power) if exact else math.inf,
                diagnostics={"feasible": False},
            )
        Z = null_space(cons, nrows, tol)
    elif infinite:
        if any(bool(f[i]) if tol == 0 else abs(f[i]) > tol for i in infinite):
            return ProjectionResult(
                PiValue(math.inf, domain.pi_power) if exact else math.inf,
                diagnostics={"feasible": False},
            )
        u0, Z = [], []
    else:
        u0 = [0] * nrows
        Z = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]

    def apply_span(u):
        out = list(f)
        for r, ur in enumerate(u):
            if bool(ur):
                for i in finite:
                    out[i] = out[i] + ur * B[r][i]
        return out

    base = apply_span(u0)
    cols = []
    for z in Z:
        col = [0] * len(idx)
        for r, zr in enumerate(z):
            if bool(zr):
                for i in finite:
                    col[i] = col[i] + zr * B[r][i]
        cols.append(col)

    if cols:
        weights = [norms[i] if i in set(finite) else 0 for i in range(len(idx))]
        Cvecs = [[col[i] for i in finite] for col in cols]
        bvec = [base[i] for i in finite]
        wts = [norms[i] for i in finite]
        G = hermitian_gram(Cvecs, wts)
        rhs2 = [
            -sum((conj_s(cv) * bv * w for cv, bv, w in zip(Cv, bvec, wts)), start=0)
            for Cv in Cvecs
        ]
        w_sol = solve_least_squares(G, rhs2, tol if tol else 0.0)
        x = list(base)
        for wj, col in zip(w_sol, cols):
            if bool(wj):
                for i in finite:
                    x[i] = x[i] + wj * col[i]
    else:
        x = base

    cval = sum((abs2_s(x[i]) * norms[i] for i in finite), start=Fraction(0) if exact else 0.0)
    minimizer = Jet(J.n, J.level - 1, {idx[i]: x[i] for i in finite if bool(x[i])})
    eta = Functional(
        J.n, {idx[i]: conj_s(x[i]) * norms[i] for i in finite if bool(x[i])}
    )
    value = PiValue(cval, domain.pi_power) if exact else float(cval)
    diag = {"feasible": True, "exact": exact, "span_dim": nrows}
    return ProjectionResult(value, minimizer, eta, domain.pi_power, diag)


def _particular_solution(cons, rhs, nunknowns, tol):
    """A particular solution of a (possibly non-square) linear system, or
    None when inconsistent."""
    aug = [list(row) + [b] for row, b in zip(cons, rhs)]
    red, pivots = rref(aug, nunknowns + 1, tol)
    if nunknowns in pivots:
        return None
    x = [0] * nunknowns
    for row, c in zip(red, pivots):
        x[c] = row[nunknowns]
    return x


def _minimal_l2_moment(domain: MomentDomain, F: Jet, J: JetIdeal) -> ProjectionResult:
    import numpy as np

    idx = domain.indices
    m = len(idx)
    k = J.level
    f = np.zeros(m, dtype=complex)
    for a, c in F.truncate(k - 1).coeffs.items():
        f[idx.index(a)] = as_complex(c)
    # columns: the ideal span below degree k, plus every monomial of degree
    # >= k up to the working bound (those sit inside A^2(D, I))
    cols = []
    for row in J.basis:
        col = np.zeros(m, dtype=complex)
        for i, x in enumerate(row):
            col[i] = as_complex(x)
        cols.append(col)
    for i, a in enumerate(idx):
        if degree(a) >= k:
            e = np.zeros(m, dtype=complex)
            e[i] = 1
            cols.append(e)
    B = np.array(cols).T if cols else np.zeros((m, 0), dtype=complex)
    M = domain.matrix
    Mt = np.conj(M)
    if B.shape[1]:
        gram = B.conj().T @ Mt @ B
        rhs = B.conj().T @ Mt @ f
        beta = np.linalg.solve(gram, rhs)
        x = f - B @ beta
        cond = float(np.linalg.cond(gram))
    else:
        x = f
        cond = 1.0
    cval = float((x @ M @ np.conj(x)).real)
    minimizer = Jet(
        domain.n, domain.degree_bound, {a: v for a, v in zip(idx, x) if abs(v) > 1e-14}
    )
    eta_vec = M @ np.conj(x)
    eta = Functional(
        domain.n, {a: v for a, v in zip(idx, eta_vec) if abs(v) > 1e-14}
    )
    diag = {"feasible": True, "exact": False, "gram_condition": cond}
    return ProjectionResult(cval, minimizer, eta, 0, diag)


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
    basis = annihilator(J)
    if isinstance(domain, MomentDomain):
        return _b_circle_moment(domain, F, J, basis)
    return _b_circle_diagonal(domain, F, J, basis)


def _b_circle_diagonal(domain, F, J, basis: FunctionalBasis) -> KernelRatioResult:
    exact = _exact_path(domain, F, J)
    idx = J.indices
    tol = 0.0 if exact else max(J.tol, FLOAT_RANK_TOL)
    if exact:
        norms = [domain.norm(a) for a in idx]
        fvec = F.truncate(J.level - 1).vector(idx)
        vecs = [nu.vector(idx) for nu in basis]
    else:
        norms = [domain.norm_float(a) for a in idx]
        fvec = [as_complex(c) for c in F.truncate(J.level - 1).vector(idx)]
        vecs = [[as_complex(x) for x in nu.vector(idx)] for nu in basis]
    finite = [i for i, c in enumerate(norms) if c != math.inf]

    pvals = [sum((v[i] * fvec[i] for i in range(len(idx)) if bool(fvec[i])), start=0) for v in vecs]

    # directions supported entirely on non-integrable slots have kernel 0;
    # if one of them pairs nontrivially with F the supremum is infinite
    if len(finite) < len(idx):
        Emat = [[v[i] for i in finite] for v in vecs]
        if finite:
            kernel_dirs = null_space(
                [list(col) for col in zip(*Emat)], len(vecs), tol
            )
        else:
            kernel_dirs = [
                [1 if i == j else 0 for j in range(len(vecs))]
                for i in range(len(vecs))
            ]
        for y in kernel_dirs:
            num = sum((yi * p for yi, p in zip(y, pvals)), start=0)
            if bool(num) if tol == 0 else abs(num) > tol * max(1.0, max(map(abs, pvals), default=0.0)):
                return KernelRatioResult(
                    PiValue(math.inf, domain.pi_power) if exact else math.inf,
                    diagnostics={"unbounded_direction": True},
                )
        keep = _independent_rows(Emat, len(finite), tol)
        vecs = [vecs[i] for i in keep]
        pvals = [pvals[i] for i in keep]

    if not vecs:
        raise BerglabError("annihilator is empty; the ideal span fills the jet space")

    wts = [1 / norms[i] for i in finite]
    Evecs = [[v[i] for i in finite] for v in vecs]
    A = hermitian_gram(Evecs, wts)
    v_rhs = [conj_s(p) for p in pvals]
    x = solve(A, v_rhs, tol)
    val = sum((p * xi for p, xi in zip(pvals, x)), start=0)
    if exact:
        val = val.re if isinstance(val, QQi) else val
        value = PiValue(Fraction(val), domain.pi_power)
    else:
        value = float(as_complex(val).real)
    maximizer = Functional(
        J.n,
        {
            idx[i]: sum((x[r] * vecs[r][i] for r in range(len(vecs))), start=0)
            for i in range(len(idx))
        },
    )
    return KernelRatioResult(value, maximizer, {"exact": exact, "basis_dim": len(vecs)})


def _b_circle_moment(domain: MomentDomain, F, J, basis: FunctionalBasis) -> KernelRatioResult:
    import numpy as np

    idx_full = domain.indices
    m = len(idx_full)
    fvec = np.zeros(m, dtype=complex)
    for a, c in F.truncate(J.level - 1).coeffs.items():
        fvec[idx_full.index(a)] = as_complex(c)
    vecs = []
    for nu in basis:
        v = np.zeros(m, dtype=complex)
        for a, c in nu.entries.items():
            v[idx_full.index(a)] = as_complex(c)
        vecs.append(v)
    V = np.array(vecs).T  # columns are annihilator directions
    Minv_V = np.linalg.solve(domain.matrix, V)
    A = V.conj().T @ Minv_V
    p = V.T @ fvec
    v_rhs = np.conj(p)
    x = np.linalg.solve(A, v_rhs)
    value = float((p @ x).real)
    maximizer_vec = V @ x
    maximizer = Functional(
        domain.n,
        {a: c for a, c in zip(idx_full, maximizer_vec) if abs(c) > 1e-14},
    )
    return KernelRatioResult(
        value, maximizer, {"exact": False, "basis_dim": V.shape[1]}
    )


def _independent_rows(rows, ncols, tol):
    """Indices of a maximal independent subset of rows, greedily in order."""
    acc, pivots, keep = [], [], []
    from .linalg import reduce_vector

    for i, row in enumerate(rows):
        res = reduce_vector(acc, pivots, row, tol)
        pivot = None
        for c in range(ncols):
            nz = bool(res[c]) if tol == 0 else abs(res[c]) > tol
            if nz:
                pivot = c
                break
        if pivot is None:
            continue
        piv = Fraction(res[pivot]) if tol == 0 and isinstance(res[pivot], int) else res[pivot]
        inv = 1 / piv
        acc.append([inv * x for x in res])
        pivots.append(pivot)
        keep.append(i)
    return keep


# ---------------------------------------------------------------------------
# ladders, exhaustion, density


STABILIZATION_RTOL = 1e-10


@dataclass
class LadderRow:
    k: int
    c_value: object
    b_value: object

    def gap(self) -> float:
        return abs(value_float(self.c_value) - value_float(self.b_value))


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
            total += as_complex(cf) * as_complex(cg).conjugate() * nrm
    return total


def _norm_float(domain: DiagonalDomain, f: Jet) -> float:
    total = 0.0
    for a, cf in f.coeffs.items():
        nrm = domain.norm_float(a)
        if nrm == math.inf:
            if abs(as_complex(cf)) > 0:
                return math.inf
            continue
        total += abs2_s(as_complex(cf)) * nrm
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
        xi = bc.maximizer.to_float()
        g = riesz_representative(
            domain if not domain.exact else _float_clone(domain), xi
        )
        norm_g = _norm_float(domain, g)
        ip = _inner_float(domain, F, g)
        # <F, G_k> = e^{-i theta} (||F||/||g||) <F, g>; theta kills the phase.
        # The distance is taken from the coefficients of F - G_k: expanding
        # the square cancels to ~1e-8 when G_k = F.
        phase = ip / abs(ip) if ip else 1
        G = g.scale(phase * normF / norm_g)
        out.append((k, _norm_float(domain, F.to_float().add(G.scale(-1)))))
    return out


def _float_clone(domain: DiagonalDomain) -> DiagonalDomain:
    return DiagonalDomain(
        domain.n,
        domain.kind,
        radii=[float(r) for r in domain.radii] if domain.radii else None,
        radius=float(domain.radius) if domain.radius is not None else None,
        weight_exponents=tuple(float(e) for e in domain.weight_exponents),
        truncated=domain.truncated,
        trunc_scale=domain.trunc_scale,
        exact=False,
        descriptor=domain.descriptor,
    )
