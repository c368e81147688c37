"""Jet ideals, annihilators, monomial multiplier ideals, jumping data."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab.bergman import krull_ladder
from berglab.domains import DiagonalDomain
from berglab.errors import ImproperIdealError, JetSpaceTooLargeError
from berglab.ideals import (
    MAX_JET_INDICES,
    IdealPresentation,
    MonomialIdeal,
    annihilator,
    contains,
    jet_ideal,
    monomial_jet_ideal,
    multiplier_ideal,
    multiplier_ideal_plus,
    next_jump,
)
from berglab.domains import ToricWeight
from berglab.exactnum import QQi
from berglab.indices import indices_up_to
from berglab.jets import Functional, Jet, jet_multiply, pair
from reference_linalg import gauss_jordan


def z_pow(m):
    return Jet.monomial(1, (m,))


class TestJetIdeal:
    def test_principal_power(self):
        # (z^2) + m^4 below degree 4: spanned by z^2, z^3
        J = jet_ideal(IdealPresentation(1, [z_pow(2)]), 4)
        assert J.span_dim == 2
        assert contains(J, z_pow(2))
        assert contains(J, z_pow(3))
        assert not contains(J, Jet(1, 3, {(1,): 1}))

    def test_binomial_generator(self):
        # (z1 - z2^2) + m^3: span {z1 - z2^2, z1^2, z1 z2}
        g = Jet(2, 2, {(1, 0): 1, (0, 2): -1})
        J = jet_ideal(IdealPresentation(2, [g]), 3)
        assert J.span_dim == 3
        assert contains(J, g)
        assert not contains(J, Jet(2, 2, {(1, 0): 1}))
        assert contains(J, Jet(2, 2, {(2, 0): 1}))

    def test_level_two_collapses_binomial(self):
        g = Jet(2, 2, {(1, 0): 1, (0, 2): -1})
        J = jet_ideal(IdealPresentation(2, [g]), 2)
        # below degree 2 the generator's jet is z1
        assert contains(J, Jet(2, 1, {(1, 0): 1}))

    def test_unit_generator_rejected(self):
        with pytest.raises(ImproperIdealError):
            IdealPresentation(1, [Jet(1, 1, {(0,): 1, (1,): 1})])

    def test_membership_respects_truncation(self):
        J = jet_ideal(IdealPresentation(1, [z_pow(2)]), 3)
        # terms of degree >= 3 are absorbed by m^3
        f = Jet(1, 3, {(2,): 1, (3,): 7})
        assert contains(J, f)

    def test_float_generators_get_tolerance(self):
        g = Jet(1, 2, {(1,): 0.5 + 0.5j, (2,): 1.0})
        J = jet_ideal(IdealPresentation(1, [g]), 3)
        assert not J.exact
        assert contains(J, g)


    def test_real_qqi_coefficients_give_int_rows(self):
        # a real ideal written with QQi(a, 0) coefficients, as a JSON spec
        # reads every string coefficient, eliminates over ints
        g = Jet(2, 3, {(1, 0): QQi(1), (0, 2): QQi(-2), (0, 3): QQi(Fraction(1, 2))})
        J = jet_ideal(IdealPresentation(2, [g]), 4)
        assert J.rows and J.null
        assert all(type(x) is int for v in J.rows + J.null for x in v)

    def test_jet_space_cap(self):
        # C(n + k - 1, n) indices: 2 variables, level 31 has 496 and 32 has 528
        assert MAX_JET_INDICES == 500
        gens = IdealPresentation(2, [Jet(2, 1, {(1, 0): 1})])
        assert len(jet_ideal(gens, 31).indices) == 496
        with pytest.raises(JetSpaceTooLargeError, match="528 indices"):
            jet_ideal(gens, 32)
        # a ladder refuses its top level before computing the others
        bidisc = DiagonalDomain.polydisc([1, 1])
        with pytest.raises(JetSpaceTooLargeError):
            krull_ladder(bidisc, Jet(2, 1, {(0, 1): 1}), gens, range(2, 100_000))


class TestAnnihilator:
    def test_dimension_count(self):
        J = jet_ideal(IdealPresentation(1, [z_pow(2)]), 4)
        basis = annihilator(J)
        assert len(basis) == len(J.indices) - J.span_dim

    def test_annihilates_span(self):
        g = Jet(2, 2, {(1, 0): 1, (0, 2): -1})
        J = jet_ideal(IdealPresentation(2, [g]), 4)
        jets = J.basis_jets()
        for xi in annihilator(J):
            for s in jets:
                assert not bool(pair(xi, s))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 3),
        extra=st.integers(-3, 3),
        level=st.integers(2, 4),
        as_float=st.booleans(),
    )
    def test_annihilator_perp_span_random(self, m, extra, level, as_float):
        g = Jet(1, m, {(m,): 1})
        if extra and m > 1:
            g = g.add(Jet(1, m, {(m - 1,): extra}))
        if as_float:
            g = g.to_float()
        try:
            pres = IdealPresentation(1, [g])
            J = jet_ideal(pres, level)
        except ImproperIdealError:
            return
        assert J.exact is not as_float
        for xi in annihilator(J):
            for s in J.basis_jets():
                if as_float:
                    assert abs(pair(xi, s)) <= 1e-12
                else:
                    assert not bool(pair(xi, s))

    def test_float_ideal_is_orthonormal(self):
        # the float ladder instance of test_spurious_pivots_rejected (n = 4,
        # level 7, span 100): an annihilator read off a float RREF of these
        # rows had entries up to 6.1e10
        gens = IdealPresentation(4, [
            Jet(4, 2, {(0, 0, 2, 0): 0.24138771444374063 + 0.6869240416018061j,
                       (0, 1, 0, 1): 0.5393358824761387 + 0.8499362234748706j,
                       (0, 1, 1, 0): -0.015457407407663437 + 0.07243508769409202j}),
            Jet(4, 3, {(1, 2, 0, 0): 0.06208411242293321 - 0.8695334971260733j,
                       (0, 2, 1, 0): 0.7408918227037125 + 0.754123281304989j,
                       (2, 1, 0, 0): 0.9279839691179126 + 0.4863125219462894j}),
        ])
        J = jet_ideal(gens, 7)
        B = J.rows
        N = np.array([xi.vector(J.indices) for xi in annihilator(J)], dtype=complex)
        assert len(B) + len(N) == len(J.indices)
        for M in (B, N):
            assert abs(M @ M.conj().T - np.eye(len(M))).max() <= 1e-12
        # orthonormal rows: no entry above 1 but for rounding
        assert abs(N).max() <= 1 + 1e-12


_coefficients = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.builds(QQi, st.integers(-2, 2), st.integers(-2, 2)),
)


@st.composite
def presentations(draw):
    n = draw(st.integers(1, 3))
    level = draw(st.integers(2, 4))
    monomials = st.sampled_from(indices_up_to(n, level - 1)[1:])
    terms = st.dictionaries(monomials, _coefficients, min_size=1, max_size=3)
    gens = draw(st.lists(terms, min_size=1, max_size=3))
    return n, level, [Jet(n, level - 1, t) for t in gens]


class TestKeptProductRows:
    @settings(max_examples=80, deadline=None)
    @given(presentations())
    def test_kept_rows_span_the_ideal(self, presentation):
        n, level, gens = presentation
        try:
            J = jet_ideal(IdealPresentation(n, gens), level)
        except (ImproperIdealError, ValueError):
            return
        product_rows = [
            jet_multiply(g, Jet.monomial(n, beta), level - 1).vector(J.indices)
            for g in gens
            for beta in J.indices
        ]
        m = len(J.indices)
        kept = [[QQi(x.real, x.imag) for x in row] for row in J.rows]
        # each kept row is a multiple of a product row ...
        lines = [gauss_jordan([row], m) for row in product_rows]
        assert all(gauss_jordan([row], m) in lines for row in kept)
        # ... and they are independent: span_dim of them, with the same span
        assert len(J.rows) == J.span_dim
        assert gauss_jordan(kept, m) == gauss_jordan(product_rows, m)

    @settings(max_examples=40, deadline=None)
    @given(presentations())
    def test_float_view_splits_at_exact_rank(self, presentation):
        # a float problem on an exact ideal reads orthonormal bases of the
        # same span and annihilator
        n, level, gens = presentation
        try:
            J = jet_ideal(IdealPresentation(n, gens), level)
        except (ImproperIdealError, ValueError):
            return
        span, null = J.float_view
        assert span.shape == (J.span_dim, len(J.indices))
        assert null.shape == (len(J.indices) - J.span_dim, len(J.indices))
        V = np.vstack([span, null.conj()])
        assert abs(V @ V.conj().T - np.eye(len(J.indices))).max() <= 1e-12
        rows = np.array([[complex(x) for x in row] for row in J.rows]).reshape(-1, len(J.indices))
        assert abs(null @ rows.T).max(initial=0) <= 1e-12 * max(1, abs(rows).max(initial=0))
        # the integer annihilator spans the same space as the float one
        ints = np.array([[complex(x) for x in v] for v in J.null]).reshape(-1, len(J.indices))
        assert abs(ints @ span.T).max(initial=0) <= 1e-12 * max(1, abs(ints).max(initial=0))


class TestMonomialIdeal:
    def test_minimal_generators(self):
        M = MonomialIdeal(2, ((2, 0), (2, 1), (0, 3)))
        assert M.generators == ((2, 0), (0, 3))

    def test_membership(self):
        M = MonomialIdeal(2, ((2, 0), (0, 3)))
        assert M.contains_exponent((2, 5))
        assert M.contains_exponent((1, 3))
        assert not M.contains_exponent((1, 2))

    def test_jet_membership_supportwise(self):
        M = MonomialIdeal(2, ((2, 0),))
        assert M.contains_jet(Jet(2, 3, {(2, 0): 1, (3, 0): 2}))
        assert not M.contains_jet(Jet(2, 3, {(2, 0): 1, (1, 1): 1}))

    def test_jet_ideal_of_monomial_ideal(self):
        M = MonomialIdeal(1, ((2,),))
        J = monomial_jet_ideal(M)
        assert J.level == 3
        assert contains(J, z_pow(2))
        assert not contains(J, Jet(1, 2, {(1,): 1}))


class TestMultiplierIdeals:
    def test_principal_generator(self):
        phi = ToricWeight((1,))
        # c*a = 2: boundary diverges, so z^2 is the first integrable power
        assert multiplier_ideal(phi, 2).generators == ((2,),)
        assert multiplier_ideal(phi, Fraction(3, 2)).generators == ((1,),)

    def test_two_variables(self):
        phi = ToricWeight((1, 2))
        M = multiplier_ideal(phi, 1)
        assert M.generators == ((1, 2),)

    def test_scale_zero_is_unit(self):
        assert multiplier_ideal(ToricWeight((1,)), 0).is_unit()

    def test_next_jump(self):
        phi = ToricWeight((1, 2))
        assert next_jump(phi, 0) == Fraction(1, 2)
        assert next_jump(phi, Fraction(1, 2)) == Fraction(1)
        assert next_jump(phi, 1) == Fraction(3, 2)

    def test_ideal_changes_exactly_at_jumps(self):
        phi = ToricWeight((1, 2))
        c = Fraction(0)
        for _ in range(6):
            nxt = next_jump(phi, c)
            mid = (c + nxt) / 2
            assert multiplier_ideal(phi, mid) == multiplier_ideal(
                phi, c + (nxt - c) / 7
            )
            assert multiplier_ideal(phi, nxt) != multiplier_ideal(phi, mid)
            c = nxt

    def test_plus_ideal(self):
        phi = ToricWeight((1,))
        # just beyond c=2 the ideal strictly deepens to (z^2)
        assert multiplier_ideal_plus(phi, 2).generators == ((2,),)
        assert multiplier_ideal(phi, 2).generators == ((2,),)
        # at c just below 2 the ideal is (z); the plus ideal at 1 stays (z)
        assert multiplier_ideal_plus(phi, 1).generators == ((1,),)

    @given(c=st.fractions(min_value=0, max_value=5), a=st.integers(1, 3))
    @settings(max_examples=40)
    def test_plus_contains_all_later(self, c, a):
        phi = ToricWeight((a,))
        plus = multiplier_ideal_plus(phi, c)
        eps = Fraction(1, 1000)
        bigger = multiplier_ideal(phi, c + eps)
        # the plus ideal equals the ideal at any scale inside the gap
        nxt = next_jump(phi, c)
        if c + eps < nxt:
            assert plus == bigger
