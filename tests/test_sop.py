"""Jumping numbers, sublevel growth rates, effectiveness reports."""

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from berglab.bergman import b_circle, minimal_l2
from berglab.domains import DiagonalDomain, ToricWeight
from berglab.errors import (
    BerglabError,
    DivergentIntegralError,
    ZeroFunctionalError,
    ZeroKernelError,
)
from berglab.exactnum import PiValue, QQi, abs2_s, value_float
from berglab.ideals import MonomialIdeal, monomial_jet_ideal
from berglab.indices import indices_up_to
from berglab.jets import Functional, Jet
from berglab.sop import (
    effectiveness_report,
    jumping_number,
    membership_threshold,
    verify_corollary_min,
    xi_cse_combinatorial,
    xi_cse_limit,
)


class TestJumpingNumber:
    def test_one_variable_powers(self):
        phi = ToricWeight((1,))
        for m in range(4):
            F = Jet(1, m, {(m,): 1})
            assert jumping_number(F, phi) == m + 1

    def test_weighted_monomial(self):
        F = Jet(2, 3, {(1, 2): 1})
        assert jumping_number(F, ToricWeight((1, 2))) == Fraction(3, 2)

    def test_constant(self):
        F = Jet(2, 0, {(0, 0): 1})
        assert jumping_number(F, ToricWeight((1, 2))) == Fraction(1, 2)

    def test_polynomial_takes_min_over_support(self):
        # 1 + z: the constant term is the binding constraint
        F = Jet(1, 1, {(0,): 1, (1,): 1})
        assert jumping_number(F, ToricWeight((1,))) == 1

    def test_integrability_oracle_1d(self):
        # oracle: the radial integrand of |z^m|^2 e^{-c phi} is s^(2m+1-2c);
        # it is integrable at 0 iff its exponent exceeds -1, i.e. c < m+1
        phi = ToricWeight((1,))
        for m in (0, 1, 2):
            c_star = float(jumping_number(Jet(1, m, {(m,): 1}), phi))
            assert 2 * m + 1 - 2 * c_star == -1  # exact borderline
            below, _ = quad(lambda s: s ** (2 * m + 1 - 2 * (c_star - 0.2)), 0, 1)
            assert math.isfinite(below) and below > 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            jumping_number(Jet.zero(1), ToricWeight((1,)))


class TestCseCombinatorial:
    def test_delta(self):
        phi = ToricWeight((1,))
        for k in range(4):
            assert xi_cse_combinatorial(Functional.delta(1, (k,)), phi) == k + 1

    def test_multi_term_takes_max(self):
        phi = ToricWeight((1,))
        xi = Functional(1, {(0,): 1, (2,): 1})
        assert xi_cse_combinatorial(xi, phi) == 3

    def test_two_variables(self):
        assert xi_cse_combinatorial(
            Functional.delta(2, (0, 0)), ToricWeight((1, 2))
        ) == Fraction(1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroFunctionalError):
            xi_cse_combinatorial(Functional(1, {}), ToricWeight((1,)))


class TestCseLimit:
    def test_delta_affine(self):
        phi = ToricWeight((1,))
        disc = DiagonalDomain.disc(1, exact=False)
        for k in (0, 1, 3):
            res = xi_cse_limit(Functional.delta(1, (k,)), phi, disc, range(1, 11))
            assert res.slope == pytest.approx(k + 1, abs=1e-10)
            # exactly affine: all divided differences equal
            slopes = [
                (l2 - l1) / (t2 - t1)
                for (t1, l1), (t2, l2) in zip(res.table, res.table[1:])
            ]
            assert max(slopes) - min(slopes) < 1e-10

    def test_two_term_tail_slope(self):
        phi = ToricWeight((1,))
        disc = DiagonalDomain.disc(1, exact=False)
        xi = Functional(1, {(0,): 1, (1,): 1})
        res = xi_cse_limit(xi, phi, disc, [30 + 2 * j for j in range(6)])
        assert res.slope == pytest.approx(2, abs=1e-3)
        assert res.convex

    def test_matches_combinatorial_quadrature(self):
        phi = ToricWeight((1, 1))
        dom = DiagonalDomain.polydisc([1, 1], exact=False)
        xi = Functional.delta(2, (1, 0))
        res = xi_cse_limit(xi, phi, dom, [4, 5, 6, 7, 8])
        want = float(xi_cse_combinatorial(xi, phi))
        assert res.slope == pytest.approx(want, abs=5e-2)

    def test_convexity_certificate(self):
        phi = ToricWeight((1,))
        disc = DiagonalDomain.disc(1, exact=False)
        xi = Functional(1, {(0,): 1, (2,): 0.5})
        res = xi_cse_limit(xi, phi, disc, range(1, 9))
        assert res.min_second_difference >= -1e-8

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError):
            xi_cse_limit(
                Functional.delta(1, (0,)),
                ToricWeight((1,)),
                DiagonalDomain.disc(1, exact=False),
                [0],
            )

    @pytest.mark.parametrize("a", [1, 2])
    def test_zero_kernel_is_a_spec_error(self, a):
        # delta_0 against |z|^(-2a) is not square-integrable on the disc nor
        # on any sublevel set of it; delta_a is, so adding it gives a kernel
        dom = DiagonalDomain.disc(1).with_weight(ToricWeight((a,)))
        phi = ToricWeight((1,))
        with pytest.raises(ZeroKernelError) as info:
            xi_cse_limit(Functional.delta(1, (0,)), phi, dom, [1, 2, 3, 4])
        assert isinstance(info.value, ValueError)
        xi = Functional(1, {(0,): 1, (a,): 1})
        assert xi_cse_limit(xi, phi, dom, [1, 2, 3, 4]).table[0][1] > -math.inf

    def test_tail_slope_matches_numpy_least_squares(self, monkeypatch):
        # the slope is the stdlib's least-squares line through the tail;
        # every growth rate of the convexity suite at seeds 0-19 checks it
        # against numpy's fit of the same points
        import numpy as np

        from berglab import suites

        results = []

        def recording(*args):
            results.append(xi_cse_limit(*args))
            return results[-1]

        monkeypatch.setattr(suites, "xi_cse_limit", recording)
        for seed in range(20):
            suites.run_suite("convexity", seed=seed)
        assert len(results) == 240  # one grid per instance
        for res in results:
            tail = res.table[len(res.table) // 2 :]
            want = float(np.polyfit([t for t, _ in tail], [l for _, l in tail], 1)[0])
            assert abs(res.slope - want) <= 1e-12 * max(1.0, abs(want))


class TestCorollaryMin:
    def test_one_variable(self):
        rep = verify_corollary_min(Jet(1, 2, {(1,): 1}), ToricWeight((1,)), 3)
        assert rep.closed_form == 2
        assert rep.attained == 2
        assert rep.all_above and rep.consistent

    def test_weighted_monomial(self):
        rep = verify_corollary_min(
            Jet(2, 3, {(1, 2): 1}), ToricWeight((1, 2)), 4
        )
        assert rep.attained == Fraction(3, 2)
        assert rep.consistent

    def test_f_above_default_jet_level(self):
        rep = verify_corollary_min(Jet(2, 5, {(2, 3): 1}), ToricWeight((2, 1)), 6)
        assert ("extremal_eta", Fraction(3, 2), True) in rep.family
        assert rep.consistent

    def test_constant(self):
        rep = verify_corollary_min(
            Jet(2, 0, {(0, 0): 1}), ToricWeight((1, 2)), 2
        )
        assert rep.attained == Fraction(1, 2)
        assert rep.consistent


class TestMembershipThreshold:
    def test_disc_example(self):
        assert membership_threshold(Jet(1, 1, {(1,): 1}), ToricWeight((1,))) == 2

    def test_matches_jumping_number(self):
        for beta, a in [((2,), (1,)), ((1, 2), (1, 2)), ((0, 1), (2, 1))]:
            F = Jet(len(beta), sum(beta), {beta: 1})
            phi = ToricWeight(a)
            assert membership_threshold(F, phi) == jumping_number(F, phi)


class TestEffectivenessReport:
    def test_sharp_disc_example(self):
        disc = DiagonalDomain.disc(1)
        rep = effectiveness_report(
            disc, Jet(1, 2, {(1,): 1}), ToricWeight((1,))
        )
        assert rep.integral == PiValue(Fraction(1), 1)
        assert rep.jump == 2
        assert rep.ideal_plus.generators == ((2,),)
        assert rep.c_value == PiValue(Fraction(1, 2), 1)
        assert rep.b_value == rep.c_value
        assert rep.ratio == 2
        assert rep.p_max == 2
        assert rep.p_star == 2
        assert rep.sharp

    def test_second_sharp_example(self):
        disc = DiagonalDomain.disc(1)
        rep = effectiveness_report(
            disc, Jet(1, 3, {(2,): 1}), ToricWeight((1,))
        )
        assert rep.integral == PiValue(Fraction(1, 2), 1)
        assert rep.c_value == PiValue(Fraction(1, 3), 1)
        assert rep.ratio == Fraction(3, 2)
        assert rep.p_max == 3
        assert rep.p_star == 3
        assert rep.sharp

    def test_divergent_integral_rejected(self):
        disc = DiagonalDomain.disc(1)
        with pytest.raises(BerglabError):
            effectiveness_report(
                disc, Jet(1, 0, {(0,): 1}), ToricWeight((1,))
            )

    def test_guarantee_soundness(self):
        # every p below p_max must give exact membership
        disc = DiagonalDomain.disc(1)
        rep = effectiveness_report(
            disc, Jet(1, 2, {(1,): 1}), ToricWeight((1,))
        )
        from berglab.ideals import multiplier_ideal

        for num in range(1, 8):
            p = Fraction(num, 4)
            if p < rep.p_max:
                assert multiplier_ideal(ToricWeight((1,)), p).contains_jet(
                    Jet(1, 1, {(1,): 1})
                )

    @pytest.mark.parametrize("beta, a", [((2, 3), (2, 1)), ((3, 2), (1, 2))])
    def test_f_above_default_jet_level(self, beta, a):
        # deg F = 5 reaches the default level of the just-beyond ideal
        # (z1^3 z2 or z1 z2^3, level 5); F must not be truncated to 0
        bidisc = DiagonalDomain.polydisc([1, 1])
        rep = effectiveness_report(bidisc, Jet(2, 5, {beta: 1}), ToricWeight(a))
        assert rep.c_value == PiValue(Fraction(1, 12), 2)
        assert rep.b_value == rep.c_value
        assert rep.ratio == 4
        assert rep.diagnostics["jet_level"] == 6

    def test_p_max_never_exceeds_p_star(self):
        for beta, a in [((1,), (1,)), ((2,), (1,)), ((1, 1), (1, 1))]:
            n = len(beta)
            dom = DiagonalDomain.polydisc([1] * n)
            F = Jet(n, sum(beta) + 1, {beta: 1})
            rep = effectiveness_report(dom, F, ToricWeight(a))
            assert value_float(Fraction(rep.p_max)) <= float(rep.p_star) + 1e-12


def monomial_oracle(domain, F, ideal):
    """C for a monomial ideal on a diagonal domain: monomials are orthogonal
    and the ideal's span is spanned by monomials, so the projection keeps
    exactly F's terms outside the ideal.  C = sum |c_alpha|^2 ||z^alpha||^2
    over alpha in F's support with alpha not in the ideal."""
    total = sum(
        abs2_s(c) * domain.norm(a)
        for a, c in F.coeffs.items()
        if not ideal.contains_exponent(a)
    )
    return PiValue(Fraction(total), domain.pi_power)


def _random_jet(rng, n, max_degree, gaussian):
    terms = {}
    for a in rng.sample(indices_up_to(n, max_degree), 3):
        c = QQi(rng.randint(-3, 3), rng.randint(-3, 3)) if gaussian else rng.randint(-3, 3)
        if c:
            terms[a] = c
    return Jet(n, max_degree, terms or {(1,) * n: 1})


class TestMonomialIdealOracle:
    """C from the projection route against the closed-form monomial sum."""

    def test_effectiveness_c_value(self):
        # the report's just-beyond multiplier ideal is monomial
        rng = random.Random(3)
        checked = 0
        for draw in range(48):
            n = rng.randint(1, 2)
            radii = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n)]
            a = [Fraction(rng.randint(0, 3), 2) for _ in range(n)]
            a[rng.randrange(n)] += Fraction(1, 2)
            D = DiagonalDomain.polydisc(radii)
            F = _random_jet(rng, n, 3, gaussian=draw % 2 == 1)
            try:
                rep = effectiveness_report(D, F, ToricWeight(tuple(a)))
            except DivergentIntegralError:
                continue
            assert rep.c_value == monomial_oracle(D, F, rep.ideal_plus)
            checked += 1
        assert checked >= 12

    def test_routes_on_balls(self):
        # toric weights (and so effectiveness reports) need a polydisc; on
        # balls the oracle checks both routes against random monomial ideals
        rng = random.Random(4)
        for draw in range(12):
            n = rng.randint(2, 3)
            D = DiagonalDomain.ball(n, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
            gens = [g for g in indices_up_to(n, 3) if 0 < sum(g)]
            M = MonomialIdeal(n, tuple(rng.sample(gens, 2)))
            J = monomial_jet_ideal(M, 4)
            F = _random_jet(rng, n, 3, gaussian=draw % 2 == 1)
            want = monomial_oracle(D, F, M)
            assert minimal_l2(D, F, J).value == want
            assert b_circle(D, F, J).value == want
