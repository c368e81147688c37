"""Inner-product data for Bergman spaces on explicitly integrable domains.

Two families are supported:

* :class:`DiagonalDomain` -- complete Reinhardt data (polydiscs, balls,
  diagonal toric weights, sublevel sets, truncated weights).  Monomials are
  orthogonal, so the domain is fully described by its monomial norms.  In
  exact mode the norms are rational multiples of pi**n and the pi power is
  factored out: a norm's numerator and denominator are products of ints,
  and it is one Fraction.  Norms are closed forms, cached per multi-index:
  a polydisc norm is a product of per-coordinate factors (a one-variable
  truncated weight changes only its active coordinate's factor), and a
  two-variable cut of a bidisc integrates powers of |z| in u = log|z| with
  :func:`_int_pow`, the part below the cut curve by :func:`_below_curve`.
* :class:`MomentDomain` -- a finite Hermitian positive-definite moment
  matrix of monomial inner products for general bounded domains, assembled
  from closed forms or an exact trapezoid rule.

All values are fixed when a domain is built: no field is written after.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    NotNestedError,
    QuadratureError,
    SingularMatrixError,
    UnsupportedDomainError,
)
from .exactnum import PiValue, abs2_s, finite, in_float_range, is_exact, to_float
from .indices import MAX_JET_INDICES, degree, indices_up_to, validate_index
from .jsonspec import integer, json_list, json_object, number, real

# bound on a moment matrix's quadrature error estimate, relative to
# max(1, its largest entry)
QUAD_TOL = 1e-10

# the slack of a float radius in :meth:`DiagonalDomain.is_subset_of`,
# relative to the outer radius: a few units in its last place, so that radii
# that agree up to rounding nest both ways
NESTING_RTOL = 1e-15

# descriptor kinds that only :func:`moment_matrix` builds
MOMENT_KINDS = ("offcenter_disc", "two_point_disc", "radial")


def _positive(r):
    """``r``; a radius <= 0, or NaN, raises ValueError."""
    if not r > 0:
        raise ValueError(f"a radius must be positive, not {r}")
    return r


def _as_fraction(x):
    """``x`` as a Fraction; a non-integer float raises ValueError."""
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{x!r} is not exactly representable; pass a Fraction")
    return x if type(x) is Fraction else Fraction(x)


class ToricWeight:
    """The diagonal plurisubharmonic weight  sum_j 2*a_j*log|z_j|.  Two are
    equal when their exponents are."""

    def __init__(self, a: tuple):
        a = tuple(Fraction(x) for x in a)
        if any(x < 0 for x in a):
            raise ValueError("toric weight exponents must be non-negative")
        if not any(x > 0 for x in a):
            raise ValueError("toric weight needs at least one positive exponent")
        self.a = a

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a

    def __hash__(self):
        return hash((self.a,))

    @property
    def n(self) -> int:
        return len(self.a)

    def active(self):
        """Coordinates with a positive exponent."""
        return [j for j, x in enumerate(self.a) if x > 0]

    def to_json(self):
        return {"a": [str(x) for x in self.a]}

    @classmethod
    def from_json(cls, data, name="weight"):
        """The weight of the exponents ``data["a"]``, a nonempty list of numbers
        or rational strings; anything else raises ValueError naming the field."""
        a = json_list(json_object(data, name, ("a",))["a"], f"{name}.a", nonempty=True)
        return cls(tuple(number(x, f"{name}.a[{i}]") for i, x in enumerate(a)))


class TruncatedWeight:
    """The capped weight max(psi, -j) for a toric psi.  Two are equal when
    their psi and j are."""

    def __init__(self, psi: ToricWeight, j: int):
        if j < 1:
            raise ValueError("truncation level j must be >= 1")
        self.psi, self.j = psi, j

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.psi, self.j) == (other.psi, other.j)

    def __hash__(self):
        return hash((self.psi, self.j))


class Cut:
    """A domain's one cut: the "truncated" weight exp(-scale*max(psi,
    -level)), its exponents folded into the domain's, or the "sublevel" set
    {psi < -level} of a two-variable psi.  Two are equal when all four
    fields are.  ``a`` and ``c`` are psi's exponents and the scale as floats."""

    def __init__(self, kind: str, psi: ToricWeight, level, scale: Fraction = None):
        self.kind, self.psi, self.level, self.scale = kind, psi, level, scale
        self.a = tuple(to_float(x, "the weight exponent %s") for x in psi.a)
        self.c = None if scale is None else to_float(scale, "the weight scale %s")

    def _fields(self):
        return self.kind, self.psi, self.level, self.scale

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


def _numbers(radii, exps, cut, exact):
    """A diagonal domain's (exact, radii, exponents, coords), exact when
    ``exact`` is, or when it is None if the norms are rational multiples of
    pi**n: no cut, every radius and exponent rational, and a fractional
    exponent only on a radius 1.  Exact: Fractions, and per coordinate the
    ints (p, q, a, b) of r = p/q and e = a/b.  Float: float radii
    (:func:`berglab.exactnum.to_float`) and the exponents as given, so
    x = k - e + 1 stays exact until its one conversion.  ``exact`` True
    with norms not rational multiples of pi**n raises ValueError."""
    if exact or (exact is None and cut is None):
        try:
            rs, es = tuple(map(_as_fraction, radii)), tuple(map(_as_fraction, exps))
        except (ValueError, TypeError):
            if exact:
                raise
        else:
            if cut is None and all(e.denominator == 1 or r == 1 for r, e in zip(rs, es)):
                return True, rs, es, tuple((r.numerator, r.denominator, e.numerator, e.denominator)
                                           for r, e in zip(rs, es))
            if exact:
                raise ValueError("this domain's norms are not rational multiples of pi**n")
    return False, tuple(to_float(r, "the radius %s") for r in radii), exps, None


class DiagonalDomain:
    """Monomial-norm oracle for a complete Reinhardt domain, fixed when built.

    ``radii`` holds a polydisc's radius per coordinate, a ball's one radius.
    ``weight_exponents`` holds the per-coordinate exponent e_j of the
    attached density prod_j |z_j|^(-2 e_j) (the toric weight with its scale
    already folded in).  ``cut`` is the domain's one :class:`Cut`, if any: a
    truncated weight or a two-variable sublevel set of a polydisc (a
    one-variable sublevel set is a smaller radius, not a cut).
    :func:`_numbers` decides the numbers.  Float polydisc norms, truncated
    ones with one active coordinate included, are products of
    per-coordinate factors.  Each norm is computed once and cached by
    multi-index.  Every derived domain is built by :meth:`_derived`.
    """

    def __init__(self, n, kind, radii, weight_exponents=None, cut=None, exact=None,
                 descriptor=None):
        self.n = int(n)
        if len(radii) != {"polydisc": self.n, "ball": 1}.get(kind):
            raise ValueError(f"no diagonal domain of kind {kind!r} has {len(radii)} radii in C^{n}")
        exps = (0,) * self.n if weight_exponents is None else tuple(weight_exponents)
        if kind == "ball" and any(exps):
            raise UnsupportedDomainError("toric weights are only supported on polydiscs")
        self.kind, self.cut = kind, cut
        self.exact, self.radii, self.weight_exponents, self._coords = _numbers(
            radii, exps, cut, exact)
        if not descriptor:  # an exact domain's radii as strings ("1/2"), so it reloads exact
            radii = [str(r) for r in self.radii] if self.exact else list(self.radii)
            descriptor = ({"kind": kind, "radii": radii} if kind == "polydisc"
                          else {"kind": kind, "radius": radii[0], "n": self.n})
        self.descriptor = descriptor
        self._norm_cache = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def polydisc(cls, radii, exact=None):
        """The polydisc of ``radii``; a radius <= 0 raises ValueError."""
        return cls(len(radii), "polydisc", [_positive(r) for r in radii], exact=exact)

    @classmethod
    def disc(cls, radius=1, exact=None):
        return cls.polydisc([radius], exact=exact)

    @classmethod
    def ball(cls, n, radius=1, exact=None):
        """The ball of ``radius`` in C^n; a radius <= 0 raises ValueError."""
        if n == 1:
            return cls.polydisc([radius], exact=exact)
        return cls(n, "ball", [_positive(radius)], exact=exact)

    def as_float(self) -> "DiagonalDomain":
        """This domain in float arithmetic: a copy with the same numbers, cut
        and descriptor, its radii converted once (:func:`_numbers`)."""
        return DiagonalDomain(self.n, self.kind, self.radii, self.weight_exponents, self.cut,
                              False, self.descriptor)

    def _derived(self, descriptor, **changes):
        """The domain of ``descriptor`` built on this one: the radii,
        exponents and cut copied from ``self`` but ``changes`` (which name
        ``exact``), and this domain's descriptor as its ``"base"``.  A domain
        has at most one cut, so a ``cut`` change on a domain that has one
        raises UnsupportedDomainError."""
        if "cut" in changes and self.cut is not None:
            raise UnsupportedDomainError(f"a {changes['cut'].kind} cut on a {self.cut.kind} domain")
        fields = {"radii": self.radii, "weight_exponents": self.weight_exponents, "cut": self.cut}
        fields.update(changes, descriptor=dict(descriptor, base=self.descriptor))
        return DiagonalDomain(self.n, self.kind, **fields)

    def with_weight(self, phi: ToricWeight, c=1) -> "DiagonalDomain":
        """Attach the density exp(-c*phi), folding into the exponents.  A
        sublevel cut is kept; a ball or a truncated domain raises
        UnsupportedDomainError."""
        if phi.n != self.n:
            raise DimensionMismatchError("weight dimension differs from domain")
        if self.kind != "polydisc":
            raise UnsupportedDomainError("toric weights are only supported on polydiscs")
        if self.cut is not None and self.cut.kind == "truncated":
            raise UnsupportedDomainError("cannot stack a plain weight on a truncated one")
        c = Fraction(c) if self.exact else c
        c_json = str(c) if isinstance(c, Fraction) else c
        # a float among e, c and a makes e + c*a a float, which a huge a takes past the range
        exps = lambda: tuple(e + c * a for e, a in zip(self.weight_exponents, phi.a))
        return self._derived(
            {"kind": "toric_weight", "a": [str(a) for a in phi.a], "c": c_json},
            weight_exponents=in_float_range("a weight exponent", exps),
            # a float domain stays float; an exact one is exact again if it can be
            exact=None if self.exact else False,
        )

    def with_truncated_weight(self, tw: TruncatedWeight, c=1) -> "DiagonalDomain":
        """Attach exp(-c*max(psi,-j)); norms are finite for every index.
        The closed forms take one active coordinate, or two in dimension 2:
        any other psi raises UnsupportedDomainError, as does a domain that
        already has a cut."""
        if tw.psi.n != self.n:
            raise DimensionMismatchError("weight dimension differs from domain")
        if self.kind != "polydisc":
            raise UnsupportedDomainError("truncated weights are only supported on polydiscs")
        if len(tw.psi.active()) > 1 and self.n != 2:
            raise UnsupportedDomainError(
                "truncated weights support one active coordinate, or two in dimension 2"
            )
        c = Fraction(c)
        exps = lambda: tuple(e + c * a for e, a in zip(self.weight_exponents, tw.psi.a))
        return self._derived(
            {"kind": "truncated_weight", "a": [str(a) for a in tw.psi.a], "j": tw.j, "c": str(c)},
            weight_exponents=in_float_range("a weight exponent", exps),
            cut=Cut("truncated", tw.psi, tw.j, c),
            exact=False,
        )

    # -- norms ----------------------------------------------------------

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
        positive, so a float norm of 0.0 is an underflow, and one past the
        float range an overflow: both raise QuadratureError."""
        if type(alpha) is tuple:
            cached = self._norm_cache.get(alpha)
            if cached is not None:
                return cached
        return self._norm(validate_index(alpha, self.n))

    def _norm(self, alpha):
        """:meth:`norm` of a multi-index the package built, such as a jet
        ideal's: unchecked."""
        cached = self._norm_cache.get(alpha)
        if cached is None:
            cached = in_float_range("the norm of z^%s", lambda: self._compute_norm(alpha), alpha)
            self._norm_cache[alpha] = cached
        return cached

    def norm_float(self, alpha):
        return self._as_float(self.norm(alpha), alpha)

    def _as_float(self, v, alpha):
        """The norm ``v`` of z^alpha as a float: in exact mode, times the
        implicit pi**n, raising QuadratureError as :meth:`norm` does."""
        if not self.exact or v == math.inf:
            return v
        return in_float_range("the norm of z^%s", lambda: finite(float(v) * math.pi**self.n), alpha)

    def _compute_norm(self, alpha):
        if self.kind == "ball":
            return self._ball_norm(alpha)
        if self.cut is not None and len(self.cut.psi.active()) > 1:
            if self.cut.kind == "sublevel":
                return _sublevel_norm_2d(self, alpha)
            return _truncated_norm_2d(self, alpha)
        # polydisc: the product of the coordinates' factors 2 * (the integral
        # of s^(2x-1) over [0, r]) = r^(2x) / x, x = k - e + 1 for e the
        # weight exponent, with a factor pi per coordinate (factored out in
        # exact mode); math.inf when some x <= 0
        if self.exact:
            # with r = p/q and e = a/b, x = X/b for the int X below
            num = den = 1
            for (p, q, a, b), k in zip(self._coords, alpha):
                x = (k + 1) * b - a
                if x <= 0:
                    return math.inf
                if b == 1:
                    num *= p ** (2 * x)
                    den *= q ** (2 * x) * x
                else:  # a fractional exponent: r = 1, and the factor is b/X
                    num *= b
                    den *= x
            return Fraction(num, den)
        out = math.pi**self.n
        for j, k in enumerate(alpha):
            t = self._polydisc_factor(j, k)
            if t == math.inf:
                return math.inf
            out *= t
        return finite(out)

    def _polydisc_factor(self, j, k):
        """Coordinate j's float factor r^(2x) / x, math.inf when x <= 0.  On
        the active coordinate m of a one-variable truncated weight, the
        density is capped at e^(c*j) below rho = e^(-j/(2a_m)), leaving the
        base weight's exponent x + c*a_m there."""
        r, x = self.radii[j], k - self.weight_exponents[j] + 1
        cut = self.cut
        if cut is not None and cut.psi.a[j] > 0:
            c, a, x = cut.c, cut.a[j], float(x)
            if x + c * a <= 0:
                return math.inf
            log_r, log_rho = math.log(r), -cut.level / (2 * a)
            val = _int_pow(2 * (x + c * a) - 1, -math.inf, min(log_r, log_rho), c * cut.level)
            if log_rho < log_r:
                val += _int_pow(2 * x - 1, log_rho, log_r)
            return 2 * val
        if x <= 0:
            return math.inf
        return r ** (2 * float(x)) / float(x)

    def _ball_norm(self, alpha):
        d, r = degree(alpha), self.radii[0]
        fact = math.prod(map(math.factorial, alpha))
        denom = math.factorial(d + self.n)
        if self.exact:
            t = 2 * (d + self.n)
            return Fraction(fact * r.numerator**t, denom * r.denominator**t)
        # int / int first: alpha! alone can pass the float range
        return finite(math.pi**self.n * (fact / denom) * r ** (2 * (d + self.n)))

    # -- structure ------------------------------------------------------

    def is_subset_of(self, other: "DiagonalDomain") -> bool:
        """Inclusion certified from the descriptors (same family, same
        weight, radii nondecreasing, and the same cut, but for sublevel sets
        {psi < -t} of one psi, which nest by t).  Two exact domains are
        compared exactly; otherwise the weights and radii as floats, a
        radius with a slack of :data:`NESTING_RTOL` relative to the outer
        one, so that the verdict does not change when every radius is
        rescaled."""
        if self.n != other.n or self.kind != other.kind:
            return False
        a, b = self.cut, other.cut
        nested = a == b or (
            a is not None and b is not None and a.kind == b.kind == "sublevel"
            and a.psi == b.psi and a.level >= b.level
        )
        if not nested:
            return False
        pairs = zip(self.radii, other.radii)
        if self.exact and other.exact:
            return self.weight_exponents == other.weight_exponents and all(r <= s for r, s in pairs)
        same_weight = [to_float(e) for e in self.weight_exponents] == [
            to_float(e) for e in other.weight_exponents]
        return same_weight and all(to_float(r) <= to_float(s) * (1 + NESTING_RTOL)
                                   for r, s in pairs)

    def to_json(self):
        return self.descriptor

    def __repr__(self):
        return f"DiagonalDomain({self.descriptor}, exact={self.exact})"


def sublevel_domain(domain: DiagonalDomain, phi: ToricWeight, t) -> DiagonalDomain:
    """The intersection {phi < -t} with a polydisc, keeping its weight and
    its cut.  A one-variable phi shrinks a radius; a two-variable phi, in
    dimension 2 only, is the domain's cut, so a domain that has one raises
    UnsupportedDomainError.  The result is a float domain."""
    if t < 0:
        raise ValueError("sublevel parameter t must be non-negative")
    if domain.kind != "polydisc":
        raise UnsupportedDomainError("sublevel domains are only supported over polydiscs")
    if phi.n != domain.n:
        raise DimensionMismatchError("weight dimension differs from domain")
    if t == 0:
        return domain
    t, active = float(t), phi.active()
    desc = {"kind": "sublevel", "t": t, "weight": phi.to_json()}
    if len(active) == 1:
        m, radii = active[0], list(domain.radii)
        radii[m] = min(radii[m], math.exp(-t / (2 * to_float(phi.a[m], "the weight exponent %s"))))
        return domain._derived(desc, radii=radii, exact=False)
    if domain.n != 2:
        raise UnsupportedDomainError("multi-variable sublevel sets are supported in dimension 2")
    return domain._derived(desc, cut=Cut("sublevel", phi, t), exact=False)


def _int_pow(e, u1, u2, log_c=0.0):
    """c * (integral of x^e over [e^u1, e^u2]), c = exp(log_c).

    In u = log x the integrand is exp(log_c + f*u) with f = e + 1.  The
    exponential is taken at the end where f*u is largest and the rest is
    (1 - exp(-|f|*l)) / |f| <= l for l = u2 - u1, so a term overflows only
    when the integral does.  f = 0 (e = -1) gives c*l, the log; u1 = -inf
    (lower limit 0) needs f > 0.
    """
    f, length = e + 1, u2 - u1
    if f == 0:
        return math.exp(log_c) * length
    end = u2 if f > 0 else u1
    return math.exp(log_c + f * end) * -math.expm1(-abs(f) * length) / abs(f)


def _int_pow_log(e, u1, u2):
    """The integral of x^e * log x over [e^u1, e^u2], both limits finite.

    With f = e + 1 and u = end - sign(f)*v, v in [0, l], this is
    exp(f*end) * (end*E - sign(f)*W), where E and W are the
    integrals of exp(-|f|v) and v*exp(-|f|v) over [0, l]; f = 0 gives
    (u2^2 - u1^2)/2.
    """
    f, length = e + 1, u2 - u1
    end, sign = (u2, 1) if f >= 0 else (u1, -1)
    z = -abs(f) * length
    E = length * math.expm1(z) / z if z else length
    if z > -1:
        # W / l^2 = sum_k z^k / (k! (k+2)); the closed form cancels here
        term, W = 1.0, 0.5
        for k in range(1, 20):
            term *= z / k
            W += term / (k + 2)
    else:
        W = (z * math.exp(z) - math.expm1(z)) / (z * z)
    return math.exp(f * end) * (end * E - sign * W * length * length)


def _below_curve(p, q, log_r1, log_r2, log_k, s, log_c=0.0):
    """c * (the integral of x1^p x2^q over {x1 < min(r1, K*x2^(-s)),
    x2 < r2}), c = exp(log_c) and K = exp(log_k), for p, q > -1 and s > 0.

    In u = log x2 the curve meets x1 = r1 at the kink u* = (log K - log r1)/s:
    below it x1 runs up to r1, above it up to the curve, and the x1 integral
    leaves a power of x2 on each side.
    """
    u_star = (log_k - log_r1) / s
    log_c -= math.log(p + 1)
    val = _int_pow(q, -math.inf, min(u_star, log_r2), log_c + (p + 1) * log_r1)
    if u_star < log_r2:
        val += _int_pow(q - s * (p + 1), u_star, log_r2, log_c + (p + 1) * log_k)
    return val


def _sublevel_norm_2d(domain: DiagonalDomain, alpha):
    """Norm on {phi < -t} over a bidisc, phi two-variable: the integral over
    the Reinhardt shadow, the part of the bidisc below the curve
    x1 = e^(-t/(2 a1)) x2^(-a2/a1) (:func:`_below_curve`)."""
    (a1, a2), (r1, r2) = domain.cut.a, domain.radii
    e1, e2 = (float(e) for e in domain.weight_exponents)
    p = 2 * alpha[0] + 1 - 2 * e1
    q = 2 * alpha[1] + 1 - 2 * e2
    if p + 1 <= 0 or q + 1 <= 0:
        return math.inf
    # 4 pi^2 times the integral of x1^p x2^q over the shadow
    val = _below_curve(p, q, math.log(r1), math.log(r2), -domain.cut.level / (2 * a1), a2 / a1)
    return finite(4 * math.pi**2 * val)


def _truncated_norm_2d(domain: DiagonalDomain, alpha):
    """Norm against exp(-c*max(psi,-j)) on a bidisc, in closed form.

    x1 is split at the cap curve x1* = K*x2^(-s), K = e^(-j/(2a1)),
    s = a2/a1: below it the density is the cap e^(cj) times the base
    weight (:func:`_below_curve`), above it the full weighted density.  The
    curve meets x1 = r1 at x2*; on [x2*, r2] the part above it is a sum of
    powers of x2, with a log x2 term when the singular exponent p_sing is
    -1.
    """
    cut, c = domain.cut, domain.cut.c
    (a1, a2), (r1, r2), j = cut.a, domain.radii, cut.level
    base_e1 = float(domain.weight_exponents[0]) - c * a1
    base_e2 = float(domain.weight_exponents[1]) - c * a2
    p_cap = 2 * alpha[0] + 1 - 2 * base_e1  # capped region: only base weight
    p_sing = p_cap - 2 * c * a1  # singular region: full weighted density
    q_base = 2 * alpha[1] + 1 - 2 * base_e2
    if p_cap + 1 <= 0 or q_base + 1 <= 0:
        return math.inf
    log_k, s = -j / (2 * a1), a2 / a1
    log_r1, u2 = math.log(r1), math.log(r2)
    u_star = (log_k - log_r1) / s  # log x2*
    # the singular region's power of x2 before the x1 integral
    q_sing = q_base - 2 * c * a2

    # under the cap: the base weight times e^(cj)
    val = _below_curve(p_cap, q_base, log_r1, u2, log_k, s, c * j)
    if u_star < u2:
        # above it, on [x2*, r2]: x2^(-2 c a2) * (the integral of x1^p_sing
        # from x1* to r1)
        ps1 = p_sing + 1
        if abs(ps1) < 1e-14:
            # log r1 - log x1* = (log r1 - log K) + s * log x2
            val += (log_r1 - log_k) * _int_pow(q_sing, u_star, u2)
            val += s * _int_pow_log(q_sing, u_star, u2)
        else:
            sign, log_ps1 = math.copysign(1.0, ps1), math.log(abs(ps1))
            val += sign * _int_pow(q_sing, u_star, u2, ps1 * log_r1 - log_ps1)
            val -= sign * _int_pow(q_sing - s * ps1, u_star, u2, ps1 * log_k - log_ps1)
    return finite(4 * math.pi**2 * val)


def weighted_integral(domain: DiagonalDomain, F, phi: ToricWeight, c):
    """Integral of |F|^2 * exp(-c*phi) over the domain, for a polynomial jet
    F.  Returns a PiValue when the weighted domain is exact and so is every
    coefficient of F, a float otherwise; math.inf if any contributing
    monomial diverges.  A nonzero float integral past the float range
    raises QuadratureError (:func:`berglab.exactnum.in_float_range`)."""
    if c < 0:
        raise ValueError("weight scale c must be non-negative")
    dom = domain.with_weight(phi, c) if c != 0 else domain
    exact = dom.exact and is_exact(F.coeffs.values())
    norm = dom.norm if exact else dom.norm_float
    total = Fraction(0) if exact else 0.0
    for alpha, coeff in F.coeffs.items():
        nrm = norm(alpha)
        if nrm == math.inf:
            return PiValue(math.inf, dom.pi_power) if exact else math.inf
        total += (abs2_s(coeff) if exact else to_float(abs2_s(coeff), "|F_alpha|^2 = %s")) * nrm
    if exact:
        return PiValue(total, dom.pi_power)
    return in_float_range("the weighted integral of F", lambda: finite(total)) if total else total


class ExhaustionSequence:
    """A nested family D_1 <= D_2 <= ... of domains containing the origin."""

    def __init__(self, domains: list):
        for prev, nxt in zip(domains, domains[1:]):
            diagonal = isinstance(prev, DiagonalDomain) and isinstance(nxt, DiagonalDomain)
            if not (diagonal and prev.is_subset_of(nxt)):
                raise NotNestedError("exhaustion sequence is not nested")
        self.domains = domains

    def __iter__(self):
        return iter(self.domains)


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


def _radius(base, harmonics, theta):
    """r(theta) = base + sum a_k cos(k theta) + b_k sin(k theta) on an array."""
    import numpy as np

    r = np.full(theta.shape, float(base))
    for k, ak, bk in harmonics:
        r += ak * np.cos(k * theta) + bk * np.sin(k * theta)
    return r


def _radial_moments(base, harmonics, degree_bound):
    """The moment matrix of {|z| < r(theta)} and the quadrature's error.

    Entry (a, b) is  int_0^{2 pi} e^{i(a-b) theta} r^(a+b+2) / (a+b+2) dtheta,
    the integral over a period of a trigonometric polynomial of degree at
    most K(2d+2) + d, for K the highest harmonic and d the degree bound.
    The trapezoid rule on N = K(2d+2) + d + 1 equispaced points integrates
    it exactly up to rounding; the error returned is the largest entrywise
    difference between that rule and the one on 2N points.
    """
    import numpy as np

    d = degree_bound
    top = max((k for k, _, _ in harmonics), default=0)
    N = top * (2 * d + 2) + d + 1
    theta = np.arange(2 * N) * (np.pi / N)
    # rows: r^p for p = 2..2d+2, and e^{i s theta} for s = -d..d
    powers = _radius(base, harmonics, theta) ** np.arange(2, 2 * d + 3)[:, None]
    waves = np.exp(1j * np.outer(np.arange(-d, d + 1), theta))
    coarse = powers[:, ::2] @ waves[:, ::2].T * (2 * np.pi / N)
    fine = powers @ waves.T * (np.pi / N)
    a, b = np.indices((d + 1, d + 1))
    entry = (a + b, a - b + d)
    M = coarse[entry] / (a + b + 2)
    return M, float(np.max(np.abs(fine[entry] - coarse[entry]) / (a + b + 2)))


def moment_matrix(descriptor, degree_bound, name="descriptor") -> MomentDomain:
    """Assemble the Hermitian moment matrix of a bounded domain descriptor.

    Diagonal descriptors (polydisc, ball) give diagonal matrices of the
    closed-form monomial norms; the off-center and two-point discs use a
    binomial closed form.  ``radial`` descriptors give the domain
    {|z| < r(theta)} with r(theta) = base + sum a_k cos(k theta) +
    b_k sin(k theta) over ``harmonics`` [k, a_k, b_k] (k an integer >= 0,
    r positive on a 4096-point grid, else ValueError).  Their
    entries are trigonometric polynomials in theta, integrated exactly up to
    rounding by one trapezoid rule (:func:`_radial_moments`); ``quad_error``
    is its difference from the rule on twice as many points, and one above
    :data:`QUAD_TOL` times max(1, the largest entry) raises QuadratureError.
    A field of the wrong type, an off-center radius <= 0 or an empty
    two-point disc raises ValueError naming it (``name``, its path), and so
    does a domain that misses the origin, where the germs live: an
    off-center disc with |center| >= radius, a two-point disc with
    |c|^2 >= r.  A radial domain always holds the origin, as r > 0.
    """
    import numpy as np

    descriptor = _descriptor(descriptor, name)
    kind = descriptor["kind"]
    if kind in ("polydisc", "ball"):
        dom = _diagonal_from_json(descriptor, name).as_float()
        n = dom.n
    elif kind in MOMENT_KINDS:
        n = 1
    else:
        raise ValueError(f"unsupported moment descriptor kind {kind!r}")
    if n > 3 or degree_bound > 8:
        raise UnsupportedDomainError("moment matrices support n <= 3 and degree <= 8")

    idx = indices_up_to(n, degree_bound)
    m = len(idx)
    M = np.zeros((m, m), dtype=complex)
    quad_error = 0.0

    try:  # an overflow, from the size of the inputs
        if kind in ("polydisc", "ball"):
            for i, alpha in enumerate(idx):
                M[i, i] = dom.norm_float(alpha)
        elif kind in ("offcenter_disc", "two_point_disc"):
            if kind == "two_point_disc":
                # {|z|^2 + |z-c|^2 < r}  ==  disc of center c/2, squared radius
                # (r - |c|^2/2)/2
                c = _point(descriptor["c"], f"{name}.c")
                r = real(descriptor["r"], f"{name}.r")
                rad2 = (r - abs(c) ** 2 / 2) / 2
                if rad2 <= 0:
                    raise ValueError("two_point_disc descriptor is empty")
                # the origin is in the domain iff 0 + |c|^2 < r
                if not abs(c) ** 2 < r:
                    raise ValueError(f"{name}.r must exceed |c|^2 = {abs(c) ** 2!r}, "
                                     "or the domain misses the origin")
                center, radius = c / 2, math.sqrt(rad2)
            else:
                center = _point(descriptor["center"], f"{name}.center")
                radius = _positive(real(descriptor["radius"], f"{name}.radius"))
                if not abs(center) < radius:
                    raise ValueError(
                        f"{name}.center must lie within the radius {radius!r} of the origin, "
                        "or the disc misses it"
                    )
            for i in range(m):
                for j in range(m):
                    M[i, j] = _offcenter_disc_entry(center, radius, i, j)
        else:  # radial
            base = real(descriptor["base"], f"{name}.base")
            harmonics = []
            for i, h in enumerate(json_list(descriptor.get("harmonics", []), f"{name}.harmonics")):
                where = f"{name}.harmonics[{i}]"
                k, *ab = json_list(h, where, length=3)
                ab = [real(x, f"{where}[{j}]") for j, x in enumerate(ab, 1)]
                # the trapezoid rule takes K(2d + 2) + d + 1 points for the top order K
                k = integer(k, f"the harmonic order {where}[0]", 0, MAX_JET_INDICES)
                harmonics.append((k, *ab))
            # r must stay positive (NaN fails too): checked on a fine theta grid
            grid = np.arange(4096) * (2 * np.pi / 4096)
            if not _radius(base, harmonics, grid).min() > 0:
                raise ValueError("radial descriptor has r(theta) <= 0 somewhere")
            M, quad_error = _radial_moments(base, harmonics, degree_bound)
    except OverflowError:
        raise QuadratureError(f"the moment matrix of {name} overflows a float") from None

    if not quad_error <= QUAD_TOL * max(1.0, float(np.max(np.abs(M)))):
        raise QuadratureError(
            f"quadrature error estimate {quad_error:.2e} exceeds tolerance {QUAD_TOL:.2e}"
        )
    return MomentDomain(n, degree_bound, M, descriptor=descriptor, quad_error=quad_error)


# the fields that a descriptor of each kind must have
_REQUIRED = {
    "polydisc": ("radii",), "ball": ("radius",), "toric_weight": ("a", "base"),
    "truncated_weight": ("a", "j", "base"), "sublevel": ("t", "weight", "base"),
    "offcenter_disc": ("center", "radius"), "two_point_disc": ("c", "r"), "radial": ("base",),
}


def _descriptor(data, name):
    """``data``, a descriptor object of a known kind with its kind's fields."""
    kind = json_object(data, name, ("kind",))["kind"]
    if not isinstance(kind, str) or kind not in _REQUIRED:
        raise ValueError(f"{name} has an unknown domain kind {kind!r}")
    return json_object(data, name, _REQUIRED[kind])


def _point(x, name):
    """A descriptor's point [re, im] of the plane, as a complex."""
    re, im = json_list(x, name, length=2)
    return complex(real(re, f"{name}[0]"), real(im, f"{name}[1]"))


def domain_from_json(data, degree=None, name="domain"):
    """Build the domain of a JSON descriptor, of any kind.

    A moment kind (:data:`MOMENT_KINDS`) gives :func:`moment_matrix` of
    degree ``degree``, else the descriptor's ``"degree"`` (an integer >= 0),
    else 4; every other kind a :class:`DiagonalDomain`.  A number is a JSON
    number or a rational string, so a domain whose numbers are all exact is
    exact, and ``domain_from_json(d.to_json())`` rebuilds ``d``, exact if
    ``d`` is (a float domain with integer radii reloads exact too).  An
    unknown kind, a field missing or of the wrong type and a radius <= 0
    raise ValueError naming the field (``name``, the descriptor's path).
    """
    data = _descriptor(data, name)
    if data["kind"] in MOMENT_KINDS:
        if degree is None:
            degree = integer(data.get("degree", 4), f"{name}.degree", 0)
        return moment_matrix(data, degree, name)
    return _diagonal_from_json(data, name)


def _diagonal_from_json(data, name):
    """The diagonal domain of a descriptor (the base of a weighted or
    sublevel kind is diagonal too): ``radii`` is a nonempty list, ``n`` (1
    if absent) and ``j`` integers >= 1, and a domain has at most
    ``MAX_JET_INDICES`` variables."""
    data = _descriptor(data, name)
    kind = data["kind"]
    if kind == "polydisc":
        radii = json_list(data["radii"], f"{name}.radii", nonempty=True)
        if len(radii) > MAX_JET_INDICES:
            raise ValueError(f"{name}.radii must have at most {MAX_JET_INDICES} items")
        radii = [number(r, f"{name}.radii[{i}]") for i, r in enumerate(radii)]
        return DiagonalDomain.polydisc(radii)
    if kind == "ball":
        n = integer(data.get("n", 1), f"{name}.n", 1, MAX_JET_INDICES)
        return DiagonalDomain.ball(n, number(data["radius"], f"{name}.radius"))
    if kind in MOMENT_KINDS:
        raise ValueError(f"{name} must be a diagonal domain, not {kind!r}")
    base = _diagonal_from_json(data["base"], f"{name}.base")
    if kind == "sublevel":
        phi = ToricWeight.from_json(data["weight"], f"{name}.weight")
        return sublevel_domain(base, phi, real(data["t"], f"{name}.t"))
    phi, c = ToricWeight.from_json(data, name), number(data.get("c", 1), f"{name}.c")
    if kind == "toric_weight":
        return base.with_weight(phi, c)
    return base.with_truncated_weight(TruncatedWeight(phi, integer(data["j"], f"{name}.j", 1)), c)
