"""Monomial norms, weighted and sublevel variants, moment matrices.

Closed forms are checked against independent numerical oracles: polar
quadrature coded directly in the tests, never the package's own formulas.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from berglab.bergman import kernel_at_origin
from berglab.domains import (
    Cut,
    DiagonalDomain,
    ExhaustionSequence,
    MomentDomain,
    ToricWeight,
    domain_from_json,
    TruncatedWeight,
    moment_matrix,
    sublevel_domain,
    weighted_integral,
)
from berglab.errors import (
    BerglabError,
    NotNestedError,
    QuadratureError,
    SingularMatrixError,
    UnsupportedDomainError,
)
from berglab.exactnum import PiValue, value_float
from berglab.indices import indices_up_to
from berglab.jets import Functional, Jet
from berglab.sop import effectiveness_report


def polar_norm_1d(k, r, weight_exp=0.0):
    """Oracle: integral of |z|^(2k) * |z|^(-2e) over the r-disc."""
    val, _ = quad(lambda s: s ** (2 * k + 1 - 2 * weight_exp), 0, r)
    return 2 * math.pi * val


class TestPolydiscNorms:
    def test_unit_disc(self):
        disc = DiagonalDomain.disc(1)
        for k in range(5):
            nrm = disc.norm((k,))
            assert nrm == Fraction(1, k + 1)  # reduced: pi factored out
            assert disc.norm_float((k,)) == pytest.approx(math.pi / (k + 1))

    def test_radius_scaling(self):
        disc = DiagonalDomain.disc(Fraction(1, 2))
        assert disc.norm((1,)) == Fraction(1, 4) ** 2 / 2

    def test_bidisc_product(self):
        dom = DiagonalDomain.polydisc([1, 2])
        got = dom.norm_float((2, 1))
        want = polar_norm_1d(2, 1) * polar_norm_1d(1, 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_quadrature_oracle_sweep(self):
        dom = DiagonalDomain.polydisc([Fraction(3, 2)])
        for k in range(4):
            assert dom.norm_float((k,)) == pytest.approx(
                polar_norm_1d(k, 1.5), rel=1e-10
            )

    @pytest.mark.parametrize("exact", [True, False])
    def test_product_of_coordinate_factors(self, exact):
        # the norm is pi^n (float mode) times one factor r^(2x)/x per
        # coordinate, x = k - e + 1, multiplied in coordinate order
        radii = [1, Fraction(1, 3), Fraction(3, 2)]
        dom = DiagonalDomain(
            3, "polydisc", radii=radii, weight_exponents=(Fraction(4, 3), 0, 1), exact=exact
        )
        for alpha in [(0, 0, 1), (2, 1, 3), (1, 4, 2), (0, 0, 0)]:
            want = Fraction(1) if exact else math.pi**3
            for k, r, e in zip(alpha, radii, dom.weight_exponents):
                x = k - e + 1
                if x <= 0:
                    want = math.inf
                    break
                # (the fractional x sits on the coordinate of radius 1)
                want *= Fraction(r) ** int(2 * x) / x if exact else float(r) ** (2 * float(x)) / float(x)
            assert dom.norm(alpha) == want
            assert dom.norm(list(alpha)) == want

    def test_cached_index_still_validated(self):
        disc = DiagonalDomain.disc(1)
        assert disc.norm((1,)) == Fraction(1, 2)
        with pytest.raises(ValueError):
            disc.norm((-1,))
        with pytest.raises(BerglabError):
            disc.norm((1, 0))


def _closed_form_polydisc(coords, alpha, exact):
    """pi^n (factored out in exact mode) times the factor r^(2x) / x of each
    coordinate (r, e), x = k + 1 - e, in coordinate order; math.inf when
    some x <= 0.  Exact: in Fraction arithmetic, the power of a radius 1
    being 1.  Float: float(r) ** (2 * float(x)) / float(x)."""
    want = Fraction(1) if exact else math.pi ** len(alpha)
    for (r, e), k in zip(coords, alpha):
        x = k + 1 - e
        if x <= 0:
            return math.inf
        if exact:
            want *= (1 if r == 1 else r ** int(2 * x)) / x
        else:
            want *= float(r) ** (2 * float(x)) / float(x)
    return want


def _closed_form_ball(n, r, alpha, exact):
    """alpha! r^(2(|alpha| + n)) / (|alpha| + n)!, times pi^n in float mode,
    the factorial quotient taken first."""
    d, fact = sum(alpha), math.prod(math.factorial(k) for k in alpha)
    if exact:
        return Fraction(fact, math.factorial(d + n)) * r ** (2 * (d + n))
    return math.pi**n * (fact / math.factorial(d + n)) * float(r) ** (2 * (d + n))


_RATIONAL_RADII = st.builds(Fraction, st.integers(1, 5), st.integers(1, 5))


class TestNormClosedForms:
    """Norms against their closed forms: exact ones ``==``, float ones
    bitwise equal to the formula evaluated in the order written above."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_polydisc(self, data):
        # per coordinate a radius p/q (p, q <= 5) with an integer exponent,
        # or radius 1 with a half-integer one; an exponent >= k + 1 makes
        # the slot non-integrable
        n = data.draw(st.integers(1, 3))
        coords = [
            data.draw(st.one_of(
                st.tuples(_RATIONAL_RADII, st.integers(0, 3).map(Fraction)),
                st.tuples(st.just(Fraction(1)), st.integers(0, 7).map(lambda h: Fraction(h, 2))),
            ))
            for _ in range(n)
        ]
        alpha = tuple(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
        radii, exps = [r for r, _ in coords], tuple(e for _, e in coords)
        for exact in (True, False):
            # an unweighted domain takes the default exponents
            dom = DiagonalDomain(
                n, "polydisc", radii=radii, weight_exponents=exps if any(exps) else None,
                exact=None if exact else False,
            )
            assert dom.exact is exact
            got, want = dom.norm(alpha), _closed_form_polydisc(coords, alpha, exact)
            assert got == want and type(got) is type(want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), _RATIONAL_RADII, st.data())
    def test_ball(self, n, r, data):
        alpha = tuple(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
        for exact in (True, False):
            got = DiagonalDomain.ball(n, r, exact=exact).norm(alpha)
            want = _closed_form_ball(n, r, alpha, exact)
            assert got == want and type(got) is type(want)

    def test_exact_only_where_the_norms_are_rational(self):
        # r^(2x) / x is rational for a half-integer x only on a radius 1:
        # an exact domain with one elsewhere is refused, not given 1/x
        half = (Fraction(1, 2),)
        unit = DiagonalDomain(1, "polydisc", radii=[1], weight_exponents=half, exact=True)
        assert unit.norm((0,)) == 2
        assert not DiagonalDomain(1, "polydisc", radii=[2], weight_exponents=half).exact
        with pytest.raises(ValueError, match="not rational multiples of pi"):
            DiagonalDomain(1, "polydisc", radii=[2], weight_exponents=half, exact=True)

    def test_non_integrable_slot(self):
        dom = DiagonalDomain(2, "polydisc", radii=[1, Fraction(2, 3)],
                             weight_exponents=(Fraction(3, 2), 1))
        assert dom.norm((0, 3)) == math.inf and dom.norm((1, 0)) == math.inf
        assert dom.norm((1, 1)) == Fraction(2) * Fraction(2, 3) ** 2


class TestBallNorms:
    def test_unit_ball_2d_oracle(self):
        ball = DiagonalDomain.ball(2, 1)
        # oracle: |z1^a z2^b|^2 over the unit ball by nested polar quadrature
        for a, b in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            def inner(x2):
                v, _ = quad(
                    lambda x1: x1 ** (2 * a + 1), 0, math.sqrt(1 - x2 * x2)
                )
                return x2 ** (2 * b + 1) * v
            v, _ = quad(inner, 0, 1)
            want = (2 * math.pi) ** 2 * v
            assert ball.norm_float((a, b)) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("r", [1, 2])
    def test_ball_3d_oracle(self, r):
        ball = DiagonalDomain.ball(3, r)
        # oracle: |z1^a z2^b z3^c|^2 over the ball of radius r by nested polar
        # quadrature; the innermost integral of x1^(2a+1) up to
        # sqrt(r^2 - x2^2 - x3^2) by its antiderivative
        for a, b, c in [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 0), (2, 1, 1), (0, 3, 1), (4, 0, 0)]:
            def middle(x3):
                def inner(x2):
                    rest = r * r - x2 * x2 - x3 * x3
                    return x2 ** (2 * b + 1) * rest ** (a + 1) / (2 * a + 2)
                v, _ = quad(inner, 0, math.sqrt(r * r - x3 * x3))
                return x3 ** (2 * c + 1) * v
            v, _ = quad(middle, 0, r)
            want = (2 * math.pi) ** 3 * v
            assert ball.norm_float((a, b, c)) == pytest.approx(want, rel=1e-9)

    def test_closed_form(self):
        ball = DiagonalDomain.ball(2, 1)
        # alpha! / (|alpha|+n)! with pi^n
        assert ball.norm((1, 1)) == Fraction(1, 24)
        assert ball.norm_float((1, 1)) == pytest.approx(math.pi**2 / 24)

    @pytest.mark.parametrize("n", [2, 3])
    def test_factorial_form(self, n):
        # the norm takes alpha! / (|alpha|+n)! as one over a multinomial
        # coefficient times (|alpha|+1)...(|alpha|+n): the same Fraction, and
        # the same float bits, as the factorials give
        r = Fraction(3, 2)
        exact, flt = DiagonalDomain.ball(n, r), DiagonalDomain.ball(n, r, exact=False)
        for alpha in indices_up_to(n, 6):
            d, t = sum(alpha), 2 * (sum(alpha) + n)
            fact = math.prod(map(math.factorial, alpha))
            assert exact.norm(alpha) == fact * r**t / math.factorial(d + n)
            want = math.pi**n * (fact / math.factorial(d + n)) * 1.5**t
            assert flt.norm(alpha) == want


class TestWeightedNorms:
    def test_weighted_disc(self):
        disc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        assert disc.norm((0,)) == math.inf  # strict boundary divergence
        assert disc.norm((1,)) == Fraction(1)  # pi * r^2 / 1
        assert disc.norm((2,)) == Fraction(1, 2)

    def test_weighted_oracle(self):
        disc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        for k in (1, 2, 3):
            assert disc.norm_float((k,)) == pytest.approx(
                polar_norm_1d(k, 1, weight_exp=1), rel=1e-10
            )

    def test_fractional_scale(self):
        disc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), Fraction(1, 2))
        assert disc.exact  # r = 1 keeps fractional exponents exact
        assert disc.norm((0,)) == Fraction(2)  # 1/(0 - 1/2 + 1)

    def test_boundary_case_diverges(self):
        # k - e + 1 = 0 exactly: log divergence counts as infinite
        disc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 2)
        assert disc.norm((1,)) == math.inf
        assert disc.norm((2,)) == Fraction(1)

    def test_float_domain_stays_float(self):
        dom = DiagonalDomain.polydisc([1, 2], exact=False).with_weight(ToricWeight((1, 0)), 1)
        assert dom.exact is False
        nrm = dom.norm((1, 1))
        assert type(nrm) is float
        # pi * 1^2 / 1 times pi * 2^4 / 2
        assert nrm == pytest.approx(8 * math.pi**2, rel=1e-15)

    def test_weighted_integral_value(self):
        disc = DiagonalDomain.disc(1)
        F = Jet(1, 1, {(1,): 1})
        v = weighted_integral(disc, F, ToricWeight((1,)), 1)
        assert v == PiValue(Fraction(1), 1)
        v2 = weighted_integral(disc, Jet(1, 0, {(0,): 1}), ToricWeight((1,)), 1)
        assert value_float(v2) == math.inf

    def test_weighted_integral_exact_only_for_exact_coefficients(self):
        # |0.1 z|^2 |z|^-2 over the unit disc: a float coefficient gives a
        # float, not a PiValue holding the float's binary expansion
        disc, phi = DiagonalDomain.disc(1), ToricWeight((1,))
        v = weighted_integral(disc, Jet(1, 1, {(1,): 0.1}), phi, 1)
        assert type(v) is float and v == pytest.approx(math.pi / 100, rel=1e-15)
        v = weighted_integral(disc, Jet(1, 1, {(1,): Fraction(1, 10)}), phi, 1)
        assert v == PiValue(Fraction(1, 100), 1)
        v = weighted_integral(disc, Jet(1, 0, {(0,): 0.1}), phi, 1)
        assert v == math.inf and type(v) is float


class TestSublevel:
    def test_one_variable_shrinks_radius(self):
        disc = DiagonalDomain.disc(1)
        phi = ToricWeight((1,))
        sub = sublevel_domain(disc, phi, 2.0)
        # {2 log|z| < -2} = disc of radius e^{-1}
        r = math.exp(-1)
        assert sub.norm_float((0,)) == pytest.approx(math.pi * r * r, rel=1e-12)

    def test_t_zero_is_identity(self):
        disc = DiagonalDomain.disc(1)
        assert sublevel_domain(disc, ToricWeight((1,)), 0) is disc

    def test_two_variable_oracle(self):
        dom = DiagonalDomain.polydisc([1, 1])
        phi = ToricWeight((1, 2))
        t = 1.0
        sub = sublevel_domain(dom, phi, t)

        # oracle: direct 2-D quadrature over the Reinhardt shadow
        def inner(x2):
            bound = min(1.0, math.exp((-t / 2 - 2 * math.log(x2)) / 1))
            v, _ = quad(lambda x1: x1 ** 3, 0, bound)
            return x2 * v

        v, _ = quad(inner, 0, 1, points=[math.exp(-t / 4)])
        want = (2 * math.pi) ** 2 * v
        assert sub.norm_float((1, 0)) == pytest.approx(want, rel=1e-8)

    def test_monotone_in_t(self):
        dom = DiagonalDomain.polydisc([1, 1])
        phi = ToricWeight((1, 1))
        vals = [
            sublevel_domain(dom, phi, t).norm_float((1, 1)) for t in (0.5, 1.0, 2.0)
        ]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("t", [2.0, 22.0, 30.0])
    def test_two_variable_closed_form_deep(self, t):
        # {|z1 z2| < e^(-t/2)} in the unit bidisc: ||z1 z2||^2 in closed form;
        # at large t the values sit far below any absolute quadrature tolerance
        sub = sublevel_domain(DiagonalDomain.polydisc([1, 1]), ToricWeight((1, 1)), t)
        want = 4 * math.pi**2 * math.exp(-2 * t) * (1 / 16 + t / 8)
        assert sub.norm_float((1, 1)) == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("t", [2.0, 22.0, 30.0])
    def test_two_variable_symmetric_weight_symmetric_kernel(self, t):
        sub = sublevel_domain(DiagonalDomain.polydisc([1, 1]), ToricWeight((1, 1)), t)
        k10 = kernel_at_origin(sub, Functional.delta(2, (1, 0)))
        k01 = kernel_at_origin(sub, Functional.delta(2, (0, 1)))
        assert k10 == pytest.approx(k01, rel=1e-10)


def sublevel_oracle(radii, a, t, alpha, e=(0, 0)):
    """Nested quadrature of |z^alpha|^2 prod |z_j|^(-2 e_j) over the shadow of
    {a1 log x1^2 + a2 log x2^2 < -t} in the bidisc, outer variable u = log x2."""
    r1, r2 = radii
    a1, a2 = a
    u_star = (-t / 2 - a1 * math.log(r1)) / a2

    def inner(u):
        bound = r1 if u <= u_star else math.exp((-t / 2 - a2 * u) / a1)
        v, _ = quad(lambda x1: x1 ** (2 * alpha[0] + 1 - 2 * e[0]), 0, bound, epsabs=0, epsrel=1e-13)
        return math.exp((2 * alpha[1] + 2 - 2 * e[1]) * u) * v

    cuts = [-math.inf, min(u_star, math.log(r2)), math.log(r2)]
    v = sum(
        quad(inner, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(cuts, cuts[1:])
        if lo < hi
    )
    return 4 * math.pi**2 * v


def truncated_oracle(radii, a, j, c, alpha):
    """Nested quadrature of |z^alpha|^2 exp(-c max(psi, -j)) over the bidisc,
    psi = a1 log x1^2 + a2 log x2^2, outer variable u = log x2, both
    integrals split where psi = -j."""
    r1, r2 = radii
    a1, a2 = a
    u_star = (-j / 2 - a1 * math.log(r1)) / a2

    def density(x1, u):
        psi = 2 * a1 * math.log(x1) + 2 * a2 * u
        return x1 ** (2 * alpha[0] + 1) * math.exp((2 * alpha[1] + 2) * u - c * max(psi, -j))

    def inner(u):
        cut = r1 if u <= u_star else math.exp((-j / 2 - a2 * u) / a1)
        cuts = [0.0, cut, r1]
        return sum(
            quad(density, lo, hi, args=(u,), epsabs=0, epsrel=1e-13)[0]
            for lo, hi in zip(cuts, cuts[1:])
            if lo < hi
        )

    cuts = [-math.inf, min(u_star, math.log(r2)), math.log(r2)]
    v = sum(
        quad(inner, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(cuts, cuts[1:])
        if lo < hi
    )
    return 4 * math.pi**2 * v


def capped_oracle(radii, m, a, j, c, alpha, e=None):
    """|z^alpha|^2 prod |z_i|^(-2 e_i) exp(-c max(2 a log|z_m|, -j)) over the
    polydisc: 1-D quadrature in |z_m| split at rho = e^(-j/(2a)), times the
    polar closed form pi r^(2x) / x, x = k - e + 1, of every other
    coordinate."""
    e = e or [0] * len(radii)
    r, rho = radii[m], math.exp(-j / (2 * a))

    def density(s):
        return s ** (2 * alpha[m] + 1 - 2 * e[m]) * math.exp(-c * max(2 * a * math.log(s), -j))

    cuts = [0.0, min(rho, r), r]
    v = 2 * math.pi * sum(
        quad(density, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(cuts, cuts[1:])
        if lo < hi
    )
    for i, (k, ri) in enumerate(zip(alpha, radii)):
        if i != m:
            x = k - e[i] + 1
            v *= math.pi * ri ** (2 * x) / x
    return v


class TestOneActiveTruncation:
    """A truncated weight with one active coordinate: its capped factor times
    the polydisc factors of the others, against 1-D quadrature."""

    @pytest.mark.parametrize(
        "radii, a, j, c, alpha",
        [
            ((1.5, 0.5), (1, 0), 3, "1", (2, 1)),  # active on z1 only, r2 != 1
            ((1.5, 0.5), (1, 0), 3, "1", (0, 3)),
            ((1.5, 1), (1, 0), 2, "1", (0, 1)),  # x = 0 above rho: the log
            ((1.5, 0.75), (1, 0), 2, "2", (0, 2)),  # x < 0 above rho
            ((2, 1.5), (0, "1/2"), 1, "1/2", (3, 1)),  # active on z2 only
            ((0.1, 2), ("1/2", 0), 1, "1", (1, 2)),  # rho >= r: the cap covers the disc
            ((1.5, 0.2), (0, 1), 2, "2", (2, 0)),  # rho >= r on z2
        ],
    )
    def test_bidisc(self, radii, a, j, c, alpha):
        psi = ToricWeight(tuple(Fraction(x) for x in a))
        dom = DiagonalDomain.polydisc([Fraction(r) for r in radii], exact=False)
        dom = dom.with_truncated_weight(TruncatedWeight(psi, j), Fraction(c))
        m = psi.active()[0]
        want = capped_oracle(radii, m, float(psi.a[m]), j, float(Fraction(c)), alpha)
        assert dom.norm(alpha) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [(0, 0), (1, 2), (3, 0)])
    @pytest.mark.parametrize("radii, j", [((1, 1.5), 2), ((0.2, 1.5), 2)])
    def test_weighted_base_under_the_cap(self, radii, j, alpha):
        e = (Fraction(1, 3), Fraction(1, 4))
        base = DiagonalDomain.polydisc([Fraction(r) for r in radii], exact=False)
        dom = base.with_weight(ToricWeight(e), 1).with_truncated_weight(
            TruncatedWeight(ToricWeight((1, 0)), j), Fraction(1, 2)
        )
        want = capped_oracle(radii, 0, 1.0, j, 0.5, alpha, e=[float(x) for x in e])
        assert dom.norm(alpha) == pytest.approx(want, rel=1e-12, abs=0)


class TestTwoVariableClosedForms:
    """The closed-form sublevel and truncated-weight norms against nested
    adaptive quadrature, at the 1e-12 the package once integrated them to."""

    @pytest.mark.parametrize(
        "radii, a, t, alpha",
        [
            ((1, 1.5), ("1", "2"), 1.0, (1, 2)),  # the curve cuts the bidisc
            ((0.25, 1), ("1", "1"), 1.0, (2, 1)),  # kink past r2: the whole bidisc
            ((1, 2), ("1", "1"), 5.0, (1, 1)),  # B = 0: constant in u above the kink
            ((1.5, 1.5), ("3/2", "3/2"), 30.0, (2, 2)),  # B = 0, deep
            ((2, 1), ("1/2", "3"), 12.0, (3, 0)),  # B < 0
        ],
    )
    def test_sublevel(self, radii, a, t, alpha):
        phi = ToricWeight(tuple(Fraction(x) for x in a))
        sub = sublevel_domain(DiagonalDomain.polydisc(list(radii), exact=False), phi, t)
        want = sublevel_oracle(radii, [float(x) for x in phi.a], t, alpha)
        assert sub.norm(alpha) == pytest.approx(want, rel=1e-12, abs=0)

    def test_sublevel_over_weighted_bidisc(self):
        base = DiagonalDomain.polydisc([1, 1.5], exact=False).with_weight(
            ToricWeight((Fraction(1, 2), Fraction(1, 4))), 1
        )
        sub = sublevel_domain(base, ToricWeight((1, 2)), 2.0)
        want = sublevel_oracle((1, 1.5), (1, 2), 2.0, (1, 0), e=(0.5, 0.25))
        assert sub.norm((1, 0)) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "radii, a, j, c, alpha",
        [
            ((1, 1.5), ("1/2", "2"), 3, "1", (2, 1)),
            ((0.25, 1), ("1", "1"), 1, "1", (1, 2)),  # x2* >= r2: all under the cap
            ((1, 1), ("1", "1"), 2, "1", (0, 0)),  # p_sing = -1, x2 exponent -1
            ((1, 1.5), ("1", "1/2"), 4, "1", (0, 2)),  # p_sing = -1
            ((0.75, 1), ("1", "1"), 1, "1", (0, 1)),  # p_sing = -1, x2* near r2
            ((1.5, 2), ("2", "1"), 5, "1/2", (1, 1)),
        ],
    )
    def test_truncated(self, radii, a, j, c, alpha):
        psi = ToricWeight(tuple(Fraction(x) for x in a))
        dom = DiagonalDomain.polydisc([Fraction(r) for r in radii], exact=False)
        dom = dom.with_truncated_weight(TruncatedWeight(psi, j), Fraction(c))
        want = truncated_oracle(radii, [float(x) for x in psi.a], j, float(Fraction(c)), alpha)
        assert dom.norm(alpha) == pytest.approx(want, rel=1e-12, abs=0)


class TestCuts:
    """A domain holds at most one cut (a truncated weight or a two-variable
    sublevel set): weights and one-variable sublevel sets compose with it,
    a second cut is refused when the domain is built."""

    BASE = DiagonalDomain.polydisc([1, Fraction(3, 2)])

    @pytest.mark.parametrize("a", [(1, 0), (1, 2)], ids=["one-variable", "two-variable"])
    def test_weight_and_sublevel_commute(self, a):
        phi, q, c = ToricWeight(a), ToricWeight((Fraction(1, 2), Fraction(1, 4))), Fraction(1, 2)
        first = sublevel_domain(self.BASE.with_weight(q, c), phi, 1.0)
        second = sublevel_domain(self.BASE, phi, 1.0).with_weight(q, c)
        for alpha in indices_up_to(2, 4):
            assert second.norm(alpha) == first.norm(alpha)

    @pytest.mark.parametrize(
        "make",
        [
            lambda b: b.with_truncated_weight(TruncatedWeight(ToricWeight((1, 1)), 2), 1)
            .with_truncated_weight(TruncatedWeight(ToricWeight((1, 0)), 3), 1),
            lambda b: sublevel_domain(
                b.with_truncated_weight(TruncatedWeight(ToricWeight((1, 0)), 2), 1),
                ToricWeight((1, 1)),
                1.0,
            ),
            lambda b: sublevel_domain(b, ToricWeight((1, 2)), 1.0).with_truncated_weight(
                TruncatedWeight(ToricWeight((1, 1)), 2), 1
            ),
            lambda b: sublevel_domain(
                sublevel_domain(b, ToricWeight((1, 1)), 1.0), ToricWeight((1, 2)), 2.0
            ),
            lambda b: b.with_truncated_weight(
                TruncatedWeight(ToricWeight((1, 1)), 2), 1
            ).with_weight(ToricWeight((1, 0)), 1),
            lambda b: DiagonalDomain.polydisc([1, 1, 1]).with_truncated_weight(
                TruncatedWeight(ToricWeight((1, 1, 0)), 2), 1
            ),
        ],
        ids=[
            "truncated-over-truncated",
            "sublevel-over-truncated",
            "truncated-over-sublevel",
            "sublevel-over-sublevel",
            "weight-over-truncated",
            "truncated-two-active-in-3d",
        ],
    )
    def test_refused_when_built(self, make):
        with pytest.raises(UnsupportedDomainError):
            make(self.BASE)

    def test_one_variable_sublevel_keeps_the_cap(self):
        tw = TruncatedWeight(ToricWeight((1, 1)), 2)
        small = DiagonalDomain.polydisc([1, math.exp(-1 / 2)], exact=False)
        sub = sublevel_domain(self.BASE.with_truncated_weight(tw, 1), ToricWeight((0, 1)), 1.0)
        for alpha in indices_up_to(2, 3):
            assert sub.norm(alpha) == small.with_truncated_weight(tw, 1).norm(alpha)

    def test_json_round_trip_of_weight_over_sublevel(self):
        e = (Fraction(1, 2), Fraction(1, 4))
        dom = sublevel_domain(self.BASE, ToricWeight((1, 2)), 2.0).with_weight(ToricWeight(e), 1)
        back = domain_from_json(dom.to_json())
        for alpha in indices_up_to(2, 4):
            assert back.norm(alpha) == dom.norm(alpha)
        want = sublevel_oracle((1, 1.5), (1, 2), 2.0, (1, 0), e=(0.5, 0.25))
        assert back.norm((1, 0)) == pytest.approx(want, rel=1e-12, abs=0)

    def test_sublevel_sets_nest_by_t(self):
        phi = ToricWeight((1, 1))
        deep, shallow = sublevel_domain(self.BASE, phi, 3.0), sublevel_domain(self.BASE, phi, 1.0)
        assert deep.is_subset_of(shallow) and deep.is_subset_of(deep)
        assert not shallow.is_subset_of(deep)
        ExhaustionSequence([deep, shallow])
        with pytest.raises(NotNestedError):
            ExhaustionSequence([shallow, deep])

    def test_effectiveness_integral_over_sublevel(self):
        # {|z1| |z2|^2 < e^(-1/2)} in the bidisc of radii (1, 3/2), F = z1 z2,
        # a = (1/2, 1/2): A integrates |z1 z2|^2 / (|z1| |z2|) over the cut
        sub = sublevel_domain(self.BASE, ToricWeight((1, 2)), 1.0)
        rep = effectiveness_report(sub, Jet(2, 2, {(1, 1): 1}), ToricWeight((Fraction(1, 2),) * 2))
        want = sublevel_oracle((1, 1.5), (1, 2), 1.0, (1, 1), e=(0.5, 0.5))
        assert value_float(rep.integral) == pytest.approx(want, rel=1e-12, abs=0)


class TestValueTypes:
    """Weights and cuts are values: equal fields give equal objects with one
    hash, a different field or another class an unequal one."""

    def test_toric_weight(self):
        w = ToricWeight((1, Fraction(1, 2)))
        assert w == ToricWeight((Fraction(1), Fraction(1, 2))) and w.a == (1, Fraction(1, 2))
        assert hash(w) == hash(ToricWeight(("1", "1/2")))
        assert w != ToricWeight((1, 1)) and w != ToricWeight((1, Fraction(1, 2), 0))
        assert w != w.a and w.__eq__(w.a) is NotImplemented
        with pytest.raises(ValueError, match="non-negative"):
            ToricWeight((1, -1))
        with pytest.raises(ValueError, match="positive exponent"):
            ToricWeight((0, 0))

    def test_truncated_weight(self):
        psi = ToricWeight((1, 1))
        tw = TruncatedWeight(psi, 2)
        assert tw == TruncatedWeight(ToricWeight((1, 1)), 2)
        assert hash(tw) == hash(TruncatedWeight(ToricWeight((1, 1)), 2))
        assert tw != TruncatedWeight(psi, 3) and tw != TruncatedWeight(ToricWeight((1, 2)), 2)
        assert tw != psi and tw != (psi, 2)
        with pytest.raises(ValueError, match="j must be >= 1"):
            TruncatedWeight(psi, 0)

    def test_cut(self):
        psi = ToricWeight((1, 2))
        cut = Cut("sublevel", psi, 1.0)
        assert cut == Cut("sublevel", ToricWeight((1, 2)), 1.0, None)
        assert hash(cut) == hash(Cut("sublevel", ToricWeight((1, 2)), 1.0))
        assert len({cut, Cut("sublevel", psi, 1.0), Cut("truncated", psi, 1, 1)}) == 2
        for other in (
            Cut("truncated", psi, 1.0), Cut("sublevel", ToricWeight((1, 1)), 1.0),
            Cut("sublevel", psi, 2.0), Cut("sublevel", psi, 1.0, Fraction(1, 2)),
            ("sublevel", psi, 1.0, None), psi,
        ):
            assert cut != other
        # a domain's cut is compared by value: two builds of one sublevel set nest
        base = DiagonalDomain.polydisc([1, 1])
        a, b = sublevel_domain(base, psi, 1.0), sublevel_domain(base, ToricWeight((1, 2)), 1.0)
        assert a.cut == b.cut and a.cut is not b.cut and a.is_subset_of(b)


class TestOverflow:
    """A norm past the float range is a QuadratureError, never inf (which
    would read as "not square-integrable") or a raw OverflowError."""

    def test_polydisc_product(self):
        # each factor 2^1000/500 is finite, their product is not
        with pytest.raises(QuadratureError):
            DiagonalDomain.polydisc([2, 2], exact=False).norm((499, 499))

    def test_sublevel(self):
        sub = sublevel_domain(DiagonalDomain.polydisc([2, 2], exact=False), ToricWeight((1, 1)), 1.0)
        with pytest.raises(QuadratureError):
            sub.norm((600, 0))

    @pytest.mark.parametrize("a", [(1,), (1, 1)])
    def test_truncated(self, a):
        dom = DiagonalDomain.polydisc([2] * len(a), exact=False).with_truncated_weight(
            TruncatedWeight(ToricWeight(a), 1), 1
        )
        with pytest.raises(QuadratureError):
            dom.norm((600,) + (0,) * (len(a) - 1))

    def test_ball(self):
        # 2^1204 / (601 * 602) is past the float range
        with pytest.raises(QuadratureError):
            DiagonalDomain.ball(2, 2, exact=False).norm((600, 0))

    @pytest.mark.parametrize(
        "radius, alpha, message",
        [
            (10**308, (5,), "overflows a float"),
            (10**154, (0,), "overflows a float"),  # 10^308 fits; pi * 10^308 does not
            (Fraction(1, 10**200), (0,), "underflows to 0"),
        ],
        ids=["past-the-range", "pi-times-past-the-range", "below-the-range"],
    )
    def test_exact_norm_as_float(self, radius, alpha, message):
        # the exact norm is a positive Fraction; its float times pi is not
        dom = DiagonalDomain.polydisc([radius])
        assert dom.exact and 0 < dom.norm(alpha) < math.inf
        with pytest.raises(QuadratureError) as err:
            dom.norm_float(alpha)
        assert str(err.value) == f"the norm of z^{alpha} {message}"

    @pytest.mark.parametrize("filter", ["error", "always"])
    def test_radial_moments(self, filter):
        # r^(2d+2) of a radial domain past the float range raises where numpy
        # overflows, with numpy's message and no warning, rather than warning
        # and going on to a nan quadrature error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(filter)
            with pytest.raises(QuadratureError) as err:
                moment_matrix({"kind": "radial", "base": 1e308}, 3)
        assert str(err.value) == "overflow encountered in power" and not caught


class TestBallFactorials:
    """alpha! past the float range while the ball norm pi^n alpha! /
    (|alpha| + n)! r^(2(|alpha| + n)) is small: no overflow."""

    @pytest.mark.parametrize("a", [(170, 0), (200, 0), (85, 86)])
    def test_matches_exact(self, a):
        want = DiagonalDomain.ball(2, 1).norm_float(a)
        assert DiagonalDomain.ball(2, 1, exact=False).norm(a) == pytest.approx(want, rel=1e-12)

    def test_closed_form(self):
        want = math.pi**2 / (201 * 202)
        assert DiagonalDomain.ball(2, 1, exact=False).norm((200, 0)) == pytest.approx(want, rel=1e-12)


class TestTruncatedWeight:
    def test_one_variable_oracle(self):
        psi = ToricWeight((1,))
        for j in (1, 3):
            dom = DiagonalDomain.disc(1).with_truncated_weight(
                TruncatedWeight(psi, j), 1
            )
            for k in (0, 1, 2):
                # oracle: integral of s^(2k+1) * exp(-max(2 log s, -j)) ds
                def density(s):
                    return s ** (2 * k + 1) * math.exp(-max(2 * math.log(s), -j))
                rho = math.exp(-j / 2)
                v, _ = quad(density, 0, 1, points=[rho])
                assert dom.norm_float((k,)) == pytest.approx(
                    2 * math.pi * v, rel=1e-9
                )

    def test_truncation_finite_everywhere(self):
        psi = ToricWeight((1,))
        dom = DiagonalDomain.disc(1).with_truncated_weight(TruncatedWeight(psi, 5), 1)
        assert math.isfinite(dom.norm_float((0,)))

    def test_converges_to_singular_weight(self):
        psi = ToricWeight((1,))
        target = DiagonalDomain.disc(1).with_weight(psi, 1).norm_float((1,))
        vals = [
            DiagonalDomain.disc(1)
            .with_truncated_weight(TruncatedWeight(psi, j), 1)
            .norm_float((1,))
            for j in (5, 10, 20)
        ]
        errs = [abs(v - target) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_two_variable_oracle(self):
        psi = ToricWeight((1, 1))
        dom = DiagonalDomain.polydisc([1, 1]).with_truncated_weight(
            TruncatedWeight(psi, 2), 1
        )

        def density(x1, x2):
            lg = 2 * math.log(x1) + 2 * math.log(x2)
            return x1 ** 3 * x2 * math.exp(-max(lg, -2.0))

        v, _ = dblquad(density, 0, 1, 0, 1, epsabs=1e-11)
        assert dom.norm_float((1, 0)) == pytest.approx(
            (2 * math.pi) ** 2 * v, rel=1e-6
        )


class TestMomentMatrices:
    def test_polydisc_matches_diagonal(self):
        dom = moment_matrix({"kind": "polydisc", "radii": [1.0, 1.0]}, 3)
        diag = DiagonalDomain.polydisc([1, 1])
        for i, alpha in enumerate(dom.indices):
            assert dom.matrix[i, i].real == pytest.approx(
                diag.norm_float(alpha), rel=1e-9
            )
            for j in range(len(dom.indices)):
                if j != i:
                    assert abs(dom.matrix[i, j]) < 1e-12

    def test_polydisc_diagonal_oracle(self):
        # the moment polydisc's diagonal against a product of 1-D polar
        # integrals, int_0^r 2 pi t^(2a+1) dt per coordinate; unequal radii
        # away from 1, so a wrong power of r shows
        radii = (0.7, 1.3)
        dom = moment_matrix({"kind": "polydisc", "radii": list(radii)}, 3)
        for i, alpha in enumerate(dom.indices):
            want = math.prod(
                quad(lambda t, a=a: 2 * math.pi * t ** (2 * a + 1), 0, r)[0]
                for a, r in zip(alpha, radii)
            )
            assert dom.matrix[i, i].real == pytest.approx(want, rel=1e-10)

    def test_offcenter_disc_oracle(self):
        center, radius = 0.3 + 0.2j, 0.7
        dom = moment_matrix(
            {"kind": "offcenter_disc", "center": [0.3, 0.2], "radius": 0.7}, 3
        )

        def entry(a, b):
            def re_f(y, x):
                z = complex(x, y)
                return (z**a * np.conj(z) ** b).real

            def im_f(y, x):
                z = complex(x, y)
                return (z**a * np.conj(z) ** b).imag

            lo = lambda x: -math.sqrt(max(radius**2 - (x - center.real) ** 2, 0)) + center.imag
            hi = lambda x: math.sqrt(max(radius**2 - (x - center.real) ** 2, 0)) + center.imag
            vr, _ = dblquad(re_f, center.real - radius, center.real + radius, lo, hi, epsabs=1e-12)
            vi, _ = dblquad(im_f, center.real - radius, center.real + radius, lo, hi, epsabs=1e-12)
            return complex(vr, vi)

        for a, b in [(0, 0), (1, 0), (2, 1), (3, 3)]:
            assert dom.matrix[a, b] == pytest.approx(entry(a, b), rel=1e-7, abs=1e-9)

    def test_two_point_disc_is_offcenter(self):
        c, r = 0.4 + 0.0j, 1.0
        dom = moment_matrix({"kind": "two_point_disc", "c": [0.4, 0.0], "r": 1.0}, 2)
        rad = math.sqrt((r - abs(c) ** 2 / 2) / 2)
        ref = moment_matrix(
            {"kind": "offcenter_disc", "center": [0.2, 0.0], "radius": rad}, 2
        )
        assert np.allclose(dom.matrix, ref.matrix, rtol=1e-12)

    @pytest.mark.parametrize(
        "desc, field",
        [
            ({"kind": "offcenter_disc", "center": [2, 0], "radius": 1}, "domain.center"),
            ({"kind": "offcenter_disc", "center": [0.6, 0.8], "radius": 1}, "domain.center"),
            ({"kind": "two_point_disc", "c": [2, 0], "r": 3}, "domain.r"),
            ({"kind": "two_point_disc", "c": [0.6, -0.8], "r": 1}, "domain.r"),
        ],
        ids=["offcenter-outside", "offcenter-on-boundary", "two-point-outside",
             "two-point-on-boundary"],
    )
    def test_domain_must_hold_the_origin(self, desc, field):
        # the germs live at 0: a disc that misses it, or has it on its
        # boundary, is refused, naming the field
        with pytest.raises(ValueError, match=f"^{field} must"):
            moment_matrix(desc, 2, name="domain")

    def test_domain_just_holding_the_origin_is_accepted(self):
        near = moment_matrix({"kind": "offcenter_disc", "center": [0.99, 0], "radius": 1}, 2)
        ref = moment_matrix(
            {"kind": "two_point_disc", "c": [1.98, 0], "r": 2 + 1.98**2 / 2}, 2
        )
        assert np.allclose(near.matrix, ref.matrix, rtol=1e-12)
        moment_matrix({"kind": "two_point_disc", "c": [1, 0], "r": 1.01}, 2)

    def test_radial_oracle(self):
        desc = {"kind": "radial", "base": 1.0, "harmonics": [[2, 0.1, 0.0]]}
        dom = moment_matrix(desc, 2)

        def entry(a, b):
            def f(th):
                r = 1.0 + 0.1 * math.cos(2 * th)
                w = np.exp(1j * (a - b) * th)
                return w * r ** (a + b + 2) / (a + b + 2)

            vr, _ = quad(lambda th: f(th).real, 0, 2 * math.pi, epsabs=1e-12)
            vi, _ = quad(lambda th: f(th).imag, 0, 2 * math.pi, epsabs=1e-12)
            return complex(vr, vi)

        for a in range(3):
            for b in range(3):
                assert dom.matrix[a, b] == pytest.approx(entry(a, b), abs=1e-9)

    @pytest.mark.parametrize(
        "harmonics",
        [[[2, 0.1, -0.05]], [[1, 0.07, 0.03], [3, -0.04, 0.09]]],
        ids=["k2", "k1-k3"],
    )
    def test_radial_trapezoid_matches_adaptive_quadrature(self, harmonics):
        dom = moment_matrix({"kind": "radial", "base": 1.0, "harmonics": harmonics}, 6)

        def radius(th):
            return 1.0 + sum(a * math.cos(k * th) + b * math.sin(k * th) for k, a, b in harmonics)

        def entry(a, b):
            m = a + b + 2
            re = quad(lambda th: math.cos((a - b) * th) * radius(th) ** m / m,
                      0, 2 * math.pi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            im = quad(lambda th: math.sin((a - b) * th) * radius(th) ** m / m,
                      0, 2 * math.pi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            return complex(re, im)

        want = np.array([[entry(a, b) for b in range(7)] for a in range(7)])
        scale = np.abs(want).max()
        assert np.abs(dom.matrix - want).max() <= 1e-12 * scale
        assert dom.quad_error <= 1e-14 * scale

    @pytest.mark.parametrize("k", [1.5, -1, "2", None])
    def test_radial_harmonic_order_must_be_natural(self, k):
        desc = {"kind": "radial", "base": 1.0, "harmonics": [[k, 0.1, 0.0]]}
        with pytest.raises(ValueError, match="harmonic order"):
            moment_matrix(desc, 2)

    def test_radial_integral_float_order_accepted(self):
        desc = {"kind": "radial", "base": 1.0, "harmonics": [[2, 0.1, 0.0]]}
        ref = moment_matrix(desc, 3).matrix
        desc["harmonics"][0][0] = 2.0
        assert np.array_equal(moment_matrix(desc, 3).matrix, ref)

    def test_hermitian_pd_enforced(self):
        with pytest.raises(SingularMatrixError):
            MomentDomain(1, 1, np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            MomentDomain(1, 1, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_inner_product(self):
        dom = moment_matrix({"kind": "polydisc", "radii": [1.0]}, 2)
        f = [1.0, 1.0, 0.0]
        assert (f @ dom.matrix @ np.conj(f)).real == pytest.approx(math.pi + math.pi / 2)


class TestStructure:
    def test_exhaustion_nesting_checked(self):
        d1 = DiagonalDomain.disc(Fraction(1, 2))
        d2 = DiagonalDomain.disc(1)
        ExhaustionSequence([d1, d2])
        with pytest.raises(BerglabError):
            ExhaustionSequence([d2, d1])

    def test_exact_nesting_is_exact(self):
        # a radius 10^-20 past 1 is not inside radius 1, nor an exponent
        # 10^-20 past another, though both agree as floats
        unit, wider = DiagonalDomain.disc(1), DiagonalDomain.disc(1 + Fraction(1, 10**20))
        assert unit.is_subset_of(wider) and not wider.is_subset_of(unit)
        with pytest.raises(NotNestedError):
            ExhaustionSequence([wider, unit])
        a, b = ToricWeight((1,)), ToricWeight((1 + Fraction(1, 10**20),))
        assert not unit.with_weight(a).is_subset_of(unit.with_weight(b))
        ball = DiagonalDomain.ball(2, 1)
        assert ball.is_subset_of(DiagonalDomain.ball(2, 1 + Fraction(1, 10**20)))
        assert not DiagonalDomain.ball(2, 1 + Fraction(1, 10**20)).is_subset_of(ball)

    def test_float_nesting_is_relative(self):
        small = DiagonalDomain.disc(1e-16, exact=False)
        large = DiagonalDomain.disc(3e-16, exact=False)
        assert small.is_subset_of(large) and not large.is_subset_of(small)
        # radii that agree up to rounding nest both ways, at any scale
        for s in (1.0, 1e-20, 1e20):
            a = DiagonalDomain.disc(s, exact=False)
            b = DiagonalDomain.disc(s * (1 + 2**-52), exact=False)
            assert a.is_subset_of(b) and b.is_subset_of(a)
        # an exact domain and a float one are compared as floats
        half = DiagonalDomain.disc(0.5, exact=False)
        assert DiagonalDomain.disc(Fraction(1, 2)).is_subset_of(half)

    @pytest.mark.parametrize("exact", [True, False])
    def test_exhaustion_rescaled_by_1e_20(self, exact):
        # the nesting verdict on discs of radii (1/2, 3/4, 1) and their
        # reverse does not change when every radius is scaled by 10^-20
        radii = [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        for scale in (Fraction(1), Fraction(1, 10**20)):
            make = [
                DiagonalDomain.disc(r * scale if exact else float(r * scale), exact=exact)
                for r in radii
            ]
            ExhaustionSequence(make)
            with pytest.raises(NotNestedError):
                ExhaustionSequence(make[::-1])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DiagonalDomain.polydisc([Fraction(1, 2), 1]),
            lambda: DiagonalDomain.ball(2, Fraction(1, 3)),
            lambda: DiagonalDomain.polydisc([1, 2]).with_weight(ToricWeight((1, 0)), 1),
            lambda: DiagonalDomain.polydisc([0.7, 1.3]),
            lambda: DiagonalDomain.polydisc([1, Fraction(3, 2)]).with_truncated_weight(
                TruncatedWeight(ToricWeight((1, 2)), 3), Fraction(1, 2)
            ),
            lambda: sublevel_domain(DiagonalDomain.polydisc([1, 1]), ToricWeight((1, 0)), 2),
            lambda: sublevel_domain(
                DiagonalDomain.polydisc([1, Fraction(3, 2)]), ToricWeight((1, 2)), 3
            ),
        ],
        ids=[
            "exact-polydisc",
            "exact-ball",
            "weighted",
            "float-polydisc",
            "truncated",
            "sublevel-1d",
            "sublevel-2d",
        ],
    )
    def test_json_round_trip(self, make):
        dom = make()
        back = domain_from_json(dom.to_json())
        assert back.exact == dom.exact
        for alpha in indices_up_to(dom.n, 4):
            assert back.norm(alpha) == dom.norm(alpha)

    @pytest.mark.parametrize(
        "desc",
        [
            {"kind": "offcenter_disc", "center": [0.2, 0.1], "radius": 0.9},
            {"kind": "two_point_disc", "c": [0.3, -0.2], "r": 2.0},
            {"kind": "radial", "base": 1.0, "harmonics": [[1, 0.1, 0.05]]},
        ],
        ids=lambda d: d["kind"],
    )
    def test_moment_kinds_from_json(self, desc):
        # the degree comes from the argument, else the descriptor, else 4
        cases = [(dict(desc, degree=6), 3, 3), (dict(desc, degree=6), None, 6), (desc, None, 4)]
        for data, arg, d in cases:
            dom = domain_from_json(data, arg)
            assert isinstance(dom, MomentDomain) and dom.degree_bound == d
            assert np.array_equal(dom.matrix, moment_matrix(desc, d).matrix)
