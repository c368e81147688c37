"""Inner-product data for Bergman spaces on explicitly integrable domains.

Two families are supported:

* :class:`DiagonalDomain` -- complete Reinhardt data (polydiscs, balls,
  diagonal toric weights, sublevel sets, truncated weights).  Monomials are
  orthogonal, so the domain is fully described by its monomial norms.  In
  exact mode the norms are rational multiples of pi**n and the pi power is
  factored out.
* :class:`MomentDomain` -- a finite Hermitian positive-definite moment
  matrix of monomial inner products for general bounded domains, assembled
  from closed forms or quadrature.

All values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BerglabError,
    DimensionMismatchError,
    NotNestedError,
    QuadratureError,
    SingularMatrixError,
)
from .indices import degree, indices_up_to, validate_index

# bound on a moment matrix's quadrature error estimate, relative to
# max(1, its largest entry)
QUAD_TOL = 1e-10


def _as_fraction(x):
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{x!r} is not exactly representable; pass a Fraction")
    return Fraction(x)


@dataclass(frozen=True)
class ToricWeight:
    """The diagonal plurisubharmonic weight  sum_j 2*a_j*log|z_j|."""

    a: tuple

    def __post_init__(self):
        a = tuple(Fraction(x) for x in self.a)
        if any(x < 0 for x in a):
            raise ValueError("toric weight exponents must be non-negative")
        if not any(x > 0 for x in a):
            raise ValueError("toric weight needs at least one positive exponent")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return len(self.a)

    def active(self):
        """Coordinates with a positive exponent."""
        return [j for j, x in enumerate(self.a) if x > 0]

    def value(self, point) -> float:
        """phi at a point given by coordinate moduli."""
        return sum(2 * float(aj) * math.log(x) for aj, x in zip(self.a, point) if aj > 0)

    def to_json(self):
        return {"a": [str(x) for x in self.a]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(Fraction(x) for x in data["a"]))


@dataclass(frozen=True)
class TruncatedWeight:
    """The capped weight max(psi, -j) for a toric psi."""

    psi: ToricWeight
    j: int

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("truncation level j must be >= 1")


class DiagonalDomain:
    """Monomial-norm oracle for a complete Reinhardt domain.

    ``weight_exponents`` holds the per-coordinate exponent e_j of the
    attached density prod_j |z_j|^(-2 e_j) (the toric weight with its scale
    already folded in).  ``truncated`` optionally caps the toric part of the
    density at exp(c*j) (the max(psi,-j) construction); ``trunc_scale`` is
    that c.
    """

    def __init__(
        self,
        n,
        kind,
        radii=None,
        radius=None,
        weight_exponents=None,
        truncated=None,
        trunc_scale=None,
        exact=None,
        descriptor=None,
    ):
        self.n = int(n)
        self.kind = kind
        self.truncated = truncated
        self.trunc_scale = Fraction(trunc_scale) if trunc_scale is not None else None
        if kind == "polydisc":
            if radii is None or len(radii) != self.n:
                raise ValueError("polydisc needs one radius per coordinate")
            self.radii = tuple(radii)
            self.radius = None
        elif kind == "ball":
            if radius is None:
                raise ValueError("ball needs a radius")
            self.radius = radius
            self.radii = None
            if weight_exponents is not None and self.n > 1:
                raise BerglabError("toric weights are only supported on polydiscs")
        else:
            raise ValueError(f"unknown diagonal domain kind {kind!r}")
        if weight_exponents is None:
            weight_exponents = (Fraction(0),) * self.n
        self.weight_exponents = tuple(weight_exponents)
        if exact is None:
            exact = self._exactness_possible()
        self.exact = bool(exact)
        if self.exact:
            # normalize stored data to Fractions so arithmetic stays exact
            if self.radii is not None:
                self.radii = tuple(_as_fraction(r) for r in self.radii)
            if self.radius is not None:
                self.radius = _as_fraction(self.radius)
            self.weight_exponents = tuple(Fraction(e) for e in self.weight_exponents)
        self.descriptor = descriptor or self._default_descriptor()
        self._norm_cache = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def polydisc(cls, radii, exact=None):
        return cls(len(radii), "polydisc", radii=radii, exact=exact)

    @classmethod
    def disc(cls, radius=1, exact=None):
        return cls.polydisc([radius], exact=exact)

    @classmethod
    def ball(cls, n, radius=1, exact=None):
        if n == 1:
            return cls.polydisc([radius], exact=exact)
        return cls(n, "ball", radius=radius, exact=exact)

    def with_weight(self, phi: ToricWeight, c=1) -> "DiagonalDomain":
        """Attach the density exp(-c*phi), folding into the exponents."""
        if phi.n != self.n:
            raise DimensionMismatchError("weight dimension differs from domain")
        if self.truncated is not None:
            raise BerglabError("cannot stack a plain weight on a truncated one")
        c = Fraction(c) if self.exact else c
        new_e = tuple(e + c * a for e, a in zip(self.weight_exponents, phi.a))
        if self.kind == "ball" and self.n > 1:
            raise BerglabError("toric weights are only supported on polydiscs")
        dom = DiagonalDomain(
            self.n,
            self.kind,
            radii=self.radii,
            radius=self.radius,
            weight_exponents=new_e,
            descriptor={
                "kind": "toric_weight",
                "a": [str(a) for a in phi.a],
                "c": str(Fraction(c)) if isinstance(c, Fraction) else c,
                "base": self.descriptor,
            },
        )
        return dom

    def with_truncated_weight(self, tw: TruncatedWeight, c=1) -> "DiagonalDomain":
        """Attach exp(-c*max(psi,-j)); norms are finite for every index."""
        if tw.psi.n != self.n:
            raise DimensionMismatchError("weight dimension differs from domain")
        if self.kind != "polydisc":
            raise BerglabError("truncated weights are only supported on polydiscs")
        new_e = tuple(
            e + Fraction(c) * a for e, a in zip(self.weight_exponents, tw.psi.a)
        )
        return DiagonalDomain(
            self.n,
            "polydisc",
            radii=self.radii,
            weight_exponents=new_e,
            truncated=tw,
            trunc_scale=c,
            exact=False,
            descriptor={
                "kind": "truncated_weight",
                "a": [str(a) for a in tw.psi.a],
                "j": tw.j,
                "c": str(Fraction(c)),
                "base": self.descriptor,
            },
        )

    # -- norms ----------------------------------------------------------

    def _exactness_possible(self) -> bool:
        if self.truncated is not None:
            return False
        sizes = self.radii if self.radii is not None else (self.radius,)
        try:
            sizes = [_as_fraction(r) for r in sizes]
            exps = [Fraction(e) for e in self.weight_exponents]
        except (ValueError, TypeError):
            return False
        if self.kind == "ball":
            return not any(exps)
        for r, e in zip(sizes, exps):
            if e != 0 and e.denominator != 1 and r != 1:
                return False
        return True

    @property
    def pi_power(self) -> int:
        """Power of pi factored out of exact-mode norms (0 in float mode)."""
        return self.n if self.exact else 0

    def finite(self, alpha) -> bool:
        return self.norm(alpha) != math.inf

    def norm(self, alpha):
        """Squared monomial norm: reduced Fraction in exact mode (carrying an
        implicit pi**n), plain float otherwise; math.inf when the monomial is
        not square-integrable against the weight.  A monomial's norm is
        positive, so a float norm of 0.0 is an underflow: QuadratureError."""
        alpha = validate_index(alpha, self.n)
        cached = self._norm_cache.get(alpha)
        if cached is None:
            cached = self._compute_norm(alpha)
            if cached == 0:
                raise QuadratureError(f"the norm of z^{alpha} underflows to 0")
            self._norm_cache[alpha] = cached
        return cached

    def norm_float(self, alpha):
        v = self.norm(alpha)
        if v == math.inf:
            return math.inf
        if self.exact:
            return float(v) * math.pi**self.n
        return v

    def _compute_norm(self, alpha):
        if self.truncated is not None:
            return self._truncated_norm(alpha)
        if self.kind == "ball":
            return self._ball_norm(alpha)
        # polydisc: product of 1-D factors  r^(2(k - e + 1)) / (k - e + 1),
        # with a factor pi per coordinate (factored out in exact mode)
        if self.exact:
            out = Fraction(1)
        else:
            out = math.pi**self.n
        for k, r, e in zip(alpha, self.radii, self.weight_exponents):
            x = k - e + 1
            if x <= 0:
                return math.inf
            if self.exact:
                if x.denominator == 1:
                    out *= Fraction(r) ** (2 * int(x)) / x
                else:
                    # exactness check guaranteed r == 1 here
                    out *= 1 / Fraction(x)
            else:
                out *= float(r) ** (2 * float(x)) / float(x)
        return out

    def _ball_norm(self, alpha):
        d = degree(alpha)
        fact = 1
        for k in alpha:
            fact *= math.factorial(k)
        denom = math.factorial(d + self.n)
        if self.exact:
            return Fraction(fact, denom) * Fraction(self.radius) ** (2 * (d + self.n))
        return (
            math.pi**self.n
            * fact
            / denom
            * float(self.radius) ** (2 * (d + self.n))
        )

    def _truncated_norm(self, alpha):
        active = self.truncated.psi.active()
        if len(active) == 1:
            return self._truncated_norm_1var(alpha, active[0])
        if self.n == 2 and len(active) == 2:
            return _truncated_norm_quad_2d(self, alpha)
        raise BerglabError(
            "truncated weights support one active coordinate, or two in dimension 2"
        )

    def _truncated_norm_1var(self, alpha, m):
        """Closed-form split of the weighted integral at |z_m| = e^(-j/(2a))."""
        tw, c = self.truncated, float(self.trunc_scale)
        a = float(tw.psi.a[m])
        j = tw.j
        rho = math.exp(-j / (2 * a))
        out = 1.0
        for i, (k, r) in enumerate(zip(alpha, self.radii)):
            r = float(r)
            e = float(self.weight_exponents[i])
            if i != m:
                x = k - e + 1
                if x <= 0:
                    return math.inf
                out *= math.pi * r ** (2 * x) / x
                continue
            ca = c * a  # e already includes base weight + c*a on this slot
            ebase = e - ca  # any pre-existing weight on the coordinate
            cap = math.exp(c * j)
            if rho >= r:
                # the cap covers the whole disc in this coordinate
                x = k - ebase + 1
                if x <= 0:
                    return math.inf
                out *= cap * math.pi * r ** (2 * x) / x
                continue
            x_in = k - ebase + 1  # capped region: density exp(c*j)
            if x_in <= 0:
                return math.inf
            inner = cap * math.pi * rho ** (2 * x_in) / x_in
            x_out = k - e + 1  # singular region: full weighted density
            if abs(x_out) < 1e-15:
                outer = 2 * math.pi * (math.log(r) + j / (2 * a))
            else:
                outer = math.pi * (r ** (2 * x_out) - rho ** (2 * x_out)) / x_out
            out *= inner + outer
        return out

    # -- structure ------------------------------------------------------

    def is_subset_of(self, other: "DiagonalDomain") -> bool:
        """Inclusion certified from the descriptors (same family, same
        weight, radii nondecreasing)."""
        if self.n != other.n or self.kind != other.kind:
            return False
        we_a = [float(e) for e in self.weight_exponents]
        we_b = [float(e) for e in other.weight_exponents]
        if we_a != we_b or self.truncated != other.truncated:
            return False
        if self.kind == "polydisc":
            return all(float(r) <= float(s) + 1e-15 for r, s in zip(self.radii, other.radii))
        return float(self.radius) <= float(other.radius) + 1e-15

    def _default_descriptor(self):
        if self.kind == "polydisc":
            return {"kind": "polydisc", "radii": [float(r) for r in self.radii]}
        return {"kind": "ball", "radius": float(self.radius), "n": self.n}

    def to_json(self):
        return self.descriptor

    def __repr__(self):
        return f"DiagonalDomain({self.descriptor}, exact={self.exact})"


def monomial_norm(domain: DiagonalDomain, alpha):
    """Squared L2 norm of z^alpha on the domain (exact-mode values carry an
    implicit pi**n factor)."""
    return domain.norm(alpha)


def sublevel_domain(domain: DiagonalDomain, phi: ToricWeight, t) -> DiagonalDomain:
    """The intersection {phi < -t} with a polydisc, keeping its weight."""
    if t < 0:
        raise ValueError("sublevel parameter t must be non-negative")
    if domain.kind != "polydisc":
        raise BerglabError("sublevel domains are only supported over polydiscs")
    if phi.n != domain.n:
        raise DimensionMismatchError("weight dimension differs from domain")
    if t == 0:
        return domain
    active = phi.active()
    if len(active) == 1:
        m = active[0]
        a = float(phi.a[m])
        new_radii = [float(r) for r in domain.radii]
        new_radii[m] = min(new_radii[m], math.exp(-t / (2 * a)))
        return DiagonalDomain(
            domain.n,
            "polydisc",
            radii=new_radii,
            weight_exponents=domain.weight_exponents,
            exact=False,
            descriptor={
                "kind": "sublevel",
                "t": float(t),
                "weight": phi.to_json(),
                "base": domain.descriptor,
            },
        )
    if domain.n != 2:
        raise BerglabError("multi-variable sublevel sets are supported in dimension 2")
    return _SublevelDomain2D(domain, phi, float(t))


class _SublevelDomain2D(DiagonalDomain):
    """{phi < -t} over a bidisc with a two-variable toric weight; norms are
    computed by quadrature over the Reinhardt shadow."""

    def __init__(self, base: DiagonalDomain, phi: ToricWeight, t: float):
        super().__init__(
            2,
            "polydisc",
            radii=[float(r) for r in base.radii],
            weight_exponents=tuple(float(e) for e in base.weight_exponents),
            exact=False,
            descriptor={
                "kind": "sublevel",
                "t": t,
                "weight": phi.to_json(),
                "base": base.descriptor,
            },
        )
        self._phi = phi
        self._t = t

    def _compute_norm(self, alpha):
        from scipy.integrate import quad

        a1, a2 = (float(x) for x in self._phi.a)
        r1, r2 = (float(r) for r in self.radii)
        e1, e2 = (float(e) for e in self.weight_exponents)
        t = self._t
        p = 2 * alpha[0] + 1 - 2 * e1
        q = 2 * alpha[1] + 1 - 2 * e2
        if p + 1 <= 0 or q + 1 <= 0:
            return math.inf

        # log of the kink x2* where the inner bound switches from r1 to the
        # sublevel curve
        u_star = min(math.log(r2), (-t / 2 - a1 * math.log(r1)) / a2)
        # below the kink the inner bound is r1: a product of two powers
        val = r1 ** (p + 1) / (p + 1) * math.exp((q + 1) * u_star) / (q + 1)
        if u_star < math.log(r2):
            # above it the integrand is a steep power of x2 whose values can
            # be far below any absolute tolerance: integrate in u = log x2
            # to relative accuracy only
            def integrand(u):
                x1 = math.exp((-t / 2 - a2 * u) / a1)
                return math.exp((q + 1) * u) * x1 ** (p + 1) / (p + 1)

            upper, err = quad(
                integrand, u_star, math.log(r2), epsabs=0, epsrel=1e-12, limit=200
            )
            if not math.isfinite(upper):
                raise QuadratureError("sublevel norm quadrature diverged", achieved=err)
            val += upper
        return 4 * math.pi**2 * val


def _truncated_norm_quad_2d(domain: DiagonalDomain, alpha):
    """Norm against exp(-c*max(psi,-j)) on a bidisc: outer quadrature with a
    closed-form inner integral split at the cap curve."""
    from scipy.integrate import quad

    tw, c = domain.truncated, float(domain.trunc_scale)
    a1, a2 = (float(x) for x in tw.psi.a)
    j = tw.j
    r1, r2 = (float(r) for r in domain.radii)
    base_e1 = float(domain.weight_exponents[0]) - c * a1
    base_e2 = float(domain.weight_exponents[1]) - c * a2
    p_cap = 2 * alpha[0] + 1 - 2 * base_e1  # capped region: only base weight
    p_sing = p_cap - 2 * c * a1  # singular region: full weighted density
    q_base = 2 * alpha[1] + 1 - 2 * base_e2
    if p_cap + 1 <= 0 or q_base + 1 <= 0:
        return math.inf
    cap = math.exp(c * j)

    def inner(x2):
        # split x1 at the curve a1*log(x1) + a2*log(x2) = -j/2
        x1_star = math.exp((-j / 2 - a2 * math.log(x2)) / a1)
        x1_star = min(x1_star, r1)
        total = cap * x1_star ** (p_cap + 1) / (p_cap + 1)
        if x1_star < r1:
            w2 = x2 ** (-2 * c * a2)
            if abs(p_sing + 1) < 1e-14:
                total += w2 * (math.log(r1) - math.log(x1_star))
            else:
                total += (
                    w2
                    * (r1 ** (p_sing + 1) - x1_star ** (p_sing + 1))
                    / (p_sing + 1)
                )
        return x2**q_base * total

    x2_star = math.exp((-j / 2 - a1 * math.log(r1)) / a2)
    points = [x2_star] if 0 < x2_star < r2 else None
    val, err = quad(inner, 0, r2, points=points, epsabs=1e-13, epsrel=1e-12, limit=200)
    if not math.isfinite(val):
        raise QuadratureError("truncated weight quadrature diverged", achieved=err)
    return 4 * math.pi**2 * val


def truncate_weight(psi: ToricWeight, j: int) -> TruncatedWeight:
    """Descriptor for the capped weight max(psi, -j)."""
    return TruncatedWeight(psi, int(j))


def weighted_integral(domain: DiagonalDomain, F, phi: ToricWeight, c):
    """Integral of |F|^2 * exp(-c*phi) over the domain, for a polynomial jet
    F.  Returns a PiValue in exact mode, a float otherwise; math.inf if any
    contributing monomial diverges."""
    from .exactnum import PiValue, abs2_s

    if c < 0:
        raise ValueError("weight scale c must be non-negative")
    dom = domain.with_weight(phi, c) if c != 0 else domain
    if dom.exact:
        total = Fraction(0)
    else:
        total = 0.0
    for alpha, coeff in F.coeffs.items():
        nrm = dom.norm(alpha)
        if nrm == math.inf:
            return (
                PiValue(math.inf, dom.pi_power) if dom.exact else math.inf
            )
        total = total + abs2_s(coeff) * nrm
    if dom.exact:
        return PiValue(total, dom.pi_power)
    return total


@dataclass
class ExhaustionSequence:
    """A nested family D_1 <= D_2 <= ... of domains containing the origin."""

    domains: list

    def __post_init__(self):
        for prev, nxt in zip(self.domains, self.domains[1:]):
            diagonal = isinstance(prev, DiagonalDomain) and isinstance(nxt, DiagonalDomain)
            if not (diagonal and prev.is_subset_of(nxt)):
                raise NotNestedError("exhaustion sequence is not nested")

    def __iter__(self):
        return iter(self.domains)

    def __len__(self):
        return len(self.domains)


# ---------------------------------------------------------------------------
# moment matrices


class MomentDomain:
    """Finite section of the monomial Gram matrix of a bounded domain.

    ``matrix[i, j] = <z^indices[i], z^indices[j]>`` with the inner product
    conjugating the second slot; indices are enumerated in the graded order.
    """

    def __init__(self, n, degree_bound, matrix, descriptor=None, quad_error=0.0):
        import numpy as np

        self.n = int(n)
        self.degree_bound = int(degree_bound)
        self.indices = indices_up_to(self.n, self.degree_bound)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (len(self.indices), len(self.indices)):
            raise ValueError("moment matrix shape does not match the index set")
        asym = np.max(np.abs(matrix - matrix.conj().T)) if matrix.size else 0.0
        if asym > 1e-10 * max(1.0, np.max(np.abs(matrix))):
            raise SingularMatrixError(f"moment matrix is not Hermitian (asymmetry {asym:.2e})")
        self.matrix = (matrix + matrix.conj().T) / 2
        self.descriptor = descriptor or {"kind": "matrix"}
        self.quad_error = float(quad_error)
        try:
            self._chol = np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("moment matrix is not positive definite") from exc
        self.exact = False
        self.pi_power = 0

    def inner(self, fvec, gvec):
        """<f, g> for dense coefficient vectors along ``indices``."""
        import numpy as np

        return np.asarray(fvec) @ self.matrix @ np.conj(np.asarray(gvec))

    def __repr__(self):
        return f"MomentDomain(n={self.n}, d={self.degree_bound}, {self.descriptor})"


def _offcenter_disc_entry(center: complex, radius: float, a: int, b: int):
    """<z^a, z^b> over a disc centered at ``center``: binomial expansion,
    angular integrals kill all mixed powers."""
    import numpy as np

    total = 0j
    for j in range(min(a, b) + 1):
        total += (
            math.comb(a, j)
            * math.comb(b, j)
            * center ** (a - j)
            * np.conj(center) ** (b - j)
            * math.pi
            * radius ** (2 * j + 2)
            / (j + 1)
        )
    return total


def _radial_entry(rfunc, a, b):
    """<z^a, z^b> over the star-shaped domain {|z| < r(theta)}."""
    from scipy.integrate import quad

    m = a + b + 2

    def re_part(th):
        return math.cos((a - b) * th) * rfunc(th) ** m / m

    def im_part(th):
        return math.sin((a - b) * th) * rfunc(th) ** m / m

    vr, er = quad(re_part, 0, 2 * math.pi, epsabs=QUAD_TOL / 10, epsrel=1e-12, limit=200)
    vi, ei = quad(im_part, 0, 2 * math.pi, epsabs=QUAD_TOL / 10, epsrel=1e-12, limit=200)
    return complex(vr, vi), er + ei


def moment_matrix(descriptor, degree_bound) -> MomentDomain:
    """Assemble the Hermitian moment matrix of a bounded domain descriptor.

    Diagonal descriptors (polydisc, ball) give diagonal matrices of the
    closed-form monomial norms; the off-center disc uses a closed form;
    ``radial`` descriptors integrate a boundary radius function
    r(theta) = base + sum harmonics to :data:`QUAD_TOL`.
    """
    import numpy as np

    kind = descriptor.get("kind")
    if kind == "polydisc":
        radii = descriptor["radii"]
        n = len(radii)
    elif kind == "ball":
        n = int(descriptor.get("n", 1))
    elif kind in ("offcenter_disc", "two_point_disc", "radial"):
        n = 1
    else:
        raise ValueError(f"unsupported moment descriptor kind {kind!r}")
    if n > 3 or degree_bound > 8:
        raise BerglabError("moment matrices support n <= 3 and degree <= 8")

    idx = indices_up_to(n, degree_bound)
    m = len(idx)
    M = np.zeros((m, m), dtype=complex)
    err_total = 0.0

    if kind in ("polydisc", "ball"):
        if kind == "polydisc":
            dom = DiagonalDomain.polydisc(descriptor["radii"], exact=False)
        else:
            dom = DiagonalDomain.ball(n, descriptor["radius"], exact=False)
        for i, alpha in enumerate(idx):
            M[i, i] = dom.norm_float(alpha)
    elif kind in ("offcenter_disc", "two_point_disc"):
        if kind == "two_point_disc":
            # {|z|^2 + |z-c|^2 < r}  ==  disc of center c/2, squared radius
            # (r - |c|^2/2)/2
            c = complex(*descriptor["c"])
            r = float(descriptor["r"])
            rad2 = (r - abs(c) ** 2 / 2) / 2
            if rad2 <= 0:
                raise ValueError("two_point_disc descriptor is empty")
            center, radius = c / 2, math.sqrt(rad2)
        else:
            center = complex(*descriptor["center"])
            radius = float(descriptor["radius"])
        for i in range(m):
            for j in range(m):
                M[i, j] = _offcenter_disc_entry(center, radius, i, j)
    else:  # radial
        base = float(descriptor["base"])
        harmonics = [tuple(h) for h in descriptor.get("harmonics", [])]

        def rfunc(th):
            r = base
            for k, ak, bk in harmonics:
                r += ak * math.cos(k * th) + bk * math.sin(k * th)
            return r

        # r must stay positive: checked on a fine theta grid
        if min(rfunc(2 * math.pi * j / 4096) for j in range(4096)) <= 0:
            raise ValueError("radial descriptor has r(theta) <= 0 somewhere")

        for i in range(m):
            for j in range(i, m):
                val, err = _radial_entry(rfunc, i, j)
                M[i, j] = val
                M[j, i] = np.conj(val)
                err_total += err

    if err_total > QUAD_TOL * max(1.0, float(np.max(np.abs(M)))):
        raise QuadratureError(
            f"quadrature error estimate {err_total:.2e} exceeds tolerance {QUAD_TOL:.2e}",
            achieved=err_total,
        )
    return MomentDomain(n, degree_bound, M, descriptor=descriptor, quad_error=err_total)


def domain_from_json(data):
    """Build a diagonal domain from a JSON descriptor."""
    kind = data.get("kind")
    if kind == "polydisc":
        radii = [Fraction(r) if isinstance(r, str) else r for r in data["radii"]]
        return DiagonalDomain.polydisc(radii)
    if kind == "ball":
        radius = data["radius"]
        radius = Fraction(radius) if isinstance(radius, str) else radius
        return DiagonalDomain.ball(int(data.get("n", 1)), radius)
    if kind == "toric_weight":
        base = domain_from_json(data["base"])
        phi = ToricWeight(tuple(Fraction(x) for x in data["a"]))
        c = data.get("c", 1)
        c = Fraction(c) if isinstance(c, str) else c
        return base.with_weight(phi, c)
    if kind == "sublevel":
        base = domain_from_json(data["base"])
        phi = ToricWeight.from_json(data["weight"])
        return sublevel_domain(base, phi, float(data["t"]))
    if kind == "truncated_weight":
        base = domain_from_json(data["base"])
        psi = ToricWeight(tuple(Fraction(x) for x in data["a"]))
        c = data.get("c", 1)
        c = Fraction(c) if isinstance(c, str) else c
        return base.with_truncated_weight(truncate_weight(psi, int(data["j"])), c)
    raise ValueError(f"unknown domain kind {kind!r}")
