"""Monomial norms, weighted and sublevel variants, moment matrices.

Closed forms are checked against independent numerical oracles: polar
quadrature coded directly in the tests, never the package's own formulas.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from berglab.bergman import kernel_at_origin
from berglab.domains import (
    DiagonalDomain,
    ExhaustionSequence,
    MomentDomain,
    ToricWeight,
    domain_from_json,
    moment_matrix,
    monomial_norm,
    sublevel_domain,
    truncate_weight,
    weighted_integral,
)
from berglab.errors import BerglabError, SingularMatrixError
from berglab.exactnum import PiValue, value_float
from berglab.jets import Functional, Jet


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

    def test_closed_form(self):
        ball = DiagonalDomain.ball(2, 1)
        # alpha! / (|alpha|+n)! with pi^n
        assert ball.norm((1, 1)) == Fraction(1, 24)
        assert ball.norm_float((1, 1)) == pytest.approx(math.pi**2 / 24)


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

    def test_weighted_integral_value(self):
        disc = DiagonalDomain.disc(1)
        F = Jet(1, 1, {(1,): 1})
        v = weighted_integral(disc, F, ToricWeight((1,)), 1)
        assert v == PiValue(Fraction(1), 1)
        v2 = weighted_integral(disc, Jet(1, 0, {(0,): 1}), ToricWeight((1,)), 1)
        assert value_float(v2) == math.inf


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


class TestTruncatedWeight:
    def test_one_variable_oracle(self):
        psi = ToricWeight((1,))
        for j in (1, 3):
            dom = DiagonalDomain.disc(1).with_truncated_weight(
                truncate_weight(psi, j), 1
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
        dom = DiagonalDomain.disc(1).with_truncated_weight(truncate_weight(psi, 5), 1)
        assert math.isfinite(dom.norm_float((0,)))

    def test_converges_to_singular_weight(self):
        psi = ToricWeight((1,))
        target = DiagonalDomain.disc(1).with_weight(psi, 1).norm_float((1,))
        vals = [
            DiagonalDomain.disc(1)
            .with_truncated_weight(truncate_weight(psi, j), 1)
            .norm_float((1,))
            for j in (5, 10, 20)
        ]
        errs = [abs(v - target) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_two_variable_oracle(self):
        psi = ToricWeight((1, 1))
        dom = DiagonalDomain.polydisc([1, 1]).with_truncated_weight(
            truncate_weight(psi, 2), 1
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

    def test_hermitian_pd_enforced(self):
        with pytest.raises(SingularMatrixError):
            MomentDomain(1, 1, np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            MomentDomain(1, 1, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_inner_product(self):
        dom = moment_matrix({"kind": "polydisc", "radii": [1.0]}, 2)
        f = [1.0, 1.0, 0.0]
        assert dom.inner(f, f).real == pytest.approx(math.pi + math.pi / 2)


class TestStructure:
    def test_exhaustion_nesting_checked(self):
        d1 = DiagonalDomain.disc(Fraction(1, 2))
        d2 = DiagonalDomain.disc(1)
        ExhaustionSequence([d1, d2])
        with pytest.raises(BerglabError):
            ExhaustionSequence([d2, d1])

    def test_json_round_trip(self):
        dom = DiagonalDomain.polydisc([1, 2]).with_weight(ToricWeight((1, 0)), 1)
        back = domain_from_json(dom.to_json())
        for alpha in [(0, 0), (1, 0), (2, 1)]:
            assert back.norm(alpha) == dom.norm(alpha)

    def test_monomial_norm_helper(self):
        disc = DiagonalDomain.disc(1)
        assert monomial_norm(disc, (3,)) == Fraction(1, 4)
