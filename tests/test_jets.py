"""Multi-index order, jet arithmetic, pairing, exact scalars, linear algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab.errors import (
    DimensionMismatchError,
    SingularMatrixError,
    SupportBoundError,
    ZeroFunctionalError,
)
from berglab.bergman import b_circle, minimal_l2
from berglab.domains import DiagonalDomain
from berglab.exactnum import PiValue, QQi, conj_s
from berglab.ideals import IdealPresentation, jet_ideal
from berglab.indices import (
    compare,
    degree,
    indices_of_degree,
    indices_up_to,
    order_key,
    sort_indices,
)
from berglab.jets import Functional, Jet, jet_multiply, pair
from berglab.linalg import hermitian_gram, in_span, null_space, rref, solve

multi_index = st.lists(st.integers(0, 6), min_size=1, max_size=4).map(tuple)

fractions_ = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
)
gaussians = st.builds(QQi, fractions_, fractions_)


@st.composite
def matrices(draw, scalars):
    """(rows, ncols): random rows plus zero rows, duplicate rows and linear
    combinations of rows (rank deficiency), any shape from empty to wide or
    tall."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(scalars, min_size=ncols, max_size=ncols), max_size=6))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "comb"]), max_size=3)):
        if kind == "zero":
            rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
        elif rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(scalars) if kind == "comb" else 0
            rows.append([x + c * y for x, y in zip(a, b)])
    return rows, ncols


def gauss_jordan(rows, ncols):
    """Reference RREF: plain Gauss-Jordan over Fraction / QQi scalars."""
    rows = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


class TestOrder:
    def test_graded_before_anything(self):
        assert compare((0, 1), (2, 0)) == -1  # degree 1 before degree 2

    def test_tie_break_from_last_coordinate(self):
        # within a degree, the index with the smaller last coordinate first
        assert compare((1, 0), (0, 1)) == -1
        assert compare((2, 0, 0), (1, 1, 0)) == -1
        assert compare((1, 1, 0), (0, 2, 0)) == -1
        assert compare((0, 2, 0), (1, 0, 1)) == -1

    def test_enumeration_degree_two(self):
        assert indices_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert indices_up_to(2, 2) == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        ]

    def test_enumeration_matches_sort(self):
        idx = indices_up_to(3, 4)
        assert idx == sort_indices(idx)
        assert len(idx) == math.comb(4 + 3, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compare((1, 0), (1,))

    @given(a=multi_index, b=multi_index)
    def test_totality_antisymmetry(self, a, b):
        b = tuple(b[i] if i < len(b) else 0 for i in range(len(a)))
        c = compare(a, b)
        assert c in (-1, 0, 1)
        assert compare(b, a) == -c
        assert (c == 0) == (a == b)

    @given(st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2).map(tuple), min_size=3, max_size=3))
    def test_transitivity(self, triple):
        a, b, c = sorted(triple, key=order_key)
        assert compare(a, b) <= 0 and compare(b, c) <= 0 and compare(a, c) <= 0


class TestJet:
    def test_zero_coefficients_dropped(self):
        f = Jet(2, 2, {(1, 0): 0, (0, 1): 3})
        assert (1, 0) not in f.coeffs
        assert f.coefficient((0, 1)) == 3

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            Jet(1, 1, {(2,): 1})

    def test_order(self):
        assert Jet(2, 3, {(0, 2): 1, (1, 2): 1}).order() == 2
        assert Jet.zero(2).order() is None

    def test_truncate(self):
        f = Jet(1, 3, {(1,): 1, (3,): 2})
        assert f.truncate(2).coeffs == {(1,): 1}

    def test_multiply(self):
        f = Jet(1, 1, {(0,): 1, (1,): 1})  # 1 + z
        g = jet_multiply(f, f, 2)  # (1+z)^2
        assert g.coeffs == {(0,): 1, (1,): 2, (2,): 1}
        assert jet_multiply(f, f, 1).coeffs == {(0,): 1, (1,): 2}

    def test_json_round_trip_exact(self):
        f = Jet(2, 2, {(1, 0): Fraction(1, 3), (0, 2): QQi(1, -2)})
        g = Jet.from_json(f.to_json())
        assert g.coefficient((1, 0)) == Fraction(1, 3)
        assert g.coefficient((0, 2)) == QQi(1, -2)


class TestPairing:
    def test_basic(self):
        xi = Functional(1, {(0,): 2, (1,): 3})
        f = Jet(1, 1, {(0,): 1, (1,): 5})
        assert pair(xi, f) == 2 + 15

    def test_no_conjugation(self):
        xi = Functional(1, {(0,): QQi(0, 1)})
        f = Jet(1, 0, {(0,): QQi(0, 1)})
        assert pair(xi, f) == QQi(-1, 0)  # i * i, bilinear

    def test_support_bound(self):
        xi = Functional(1, {(2,): 1})
        with pytest.raises(SupportBoundError):
            pair(xi, Jet(1, 1, {(1,): 1}))

    def test_order_is_max_of_support(self):
        assert Functional(2, {(0, 0): 1, (1, 2): 1}).order() == 3
        with pytest.raises(ZeroFunctionalError):
            Functional(2, {}).order()

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
    )
    def test_linearity(self, a, b, c):
        xi = Functional(1, {(0,): a, (1,): b})
        f = Jet(1, 1, {(0,): c, (1,): 1})
        g = Jet(1, 1, {(1,): 2})
        assert pair(xi, f.add(g)) == pair(xi, f) + pair(xi, g)
        assert pair(xi.scale(3), f) == 3 * pair(xi, f)


class TestExactScalars:
    def test_qqi_field_ops(self):
        x = QQi(1, 2)
        y = QQi(Fraction(1, 2), -1)
        assert x * y / y == x
        assert (x - y) + y == x
        assert x.conjugate().conjugate() == x
        assert x.abs2() == Fraction(5)

    def test_pivalue(self):
        v = PiValue(Fraction(1, 2), 1)
        assert v.to_float() == pytest.approx(math.pi / 2)
        assert (v * 2).coeff == 1
        assert v.to_json() == {"pi_power": 1, "rational": "1/2"}
        w = PiValue(math.inf, 1)
        assert w.is_infinite() and w.to_float() == math.inf


class TestLinalg:
    def test_rref_exact_stays_rational(self):
        rows, pivots = rref([[2, 4], [1, 3]], 2)
        assert pivots == [0, 1]
        for row in rows:
            for x in row:
                assert isinstance(x, Fraction)

    def test_null_space_bilinear(self):
        ns = null_space([[1, 1, 0]], 3)
        assert len(ns) == 2
        for v in ns:
            assert v[0] + v[1] == 0 or v[2] != 0

    def test_solve_exact(self):
        x = solve([[2, 1], [1, 3]], [5, 10], 2)
        assert x == [Fraction(1), Fraction(3)]

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve([[1, 1], [2, 2]], [1, 1], 2)

    def test_least_squares_rank_deficient_consistent(self):
        x = solve([[1, 1], [2, 2]], [3, 6], 2)
        assert x[0] + x[1] == 3

    def test_least_squares_inconsistent(self):
        with pytest.raises(SingularMatrixError):
            solve([[1, 1], [2, 2]], [3, 7], 2)

    @settings(max_examples=150)
    @given(st.one_of(matrices(fractions_), matrices(gaussians)))
    def test_rref_properties(self, matrix):
        rows, ncols = matrix
        red, pivots = rref(rows, ncols)
        # echelon form with the identity on the pivot columns
        assert pivots == sorted(set(pivots)) and len(red) == len(pivots)
        for k, (row, c) in enumerate(zip(red, pivots)):
            assert len(row) == ncols
            assert not any(row[:c])
            assert [row[p] for p in pivots] == [int(i == k) for i in range(len(pivots))]
        # every input row reduces to zero against the result
        for row in rows:
            assert in_span(red, pivots, row)
        # rank and rows equal plain Gauss-Jordan elimination's
        ref_rows, ref_pivots = gauss_jordan(rows, ncols)
        assert pivots == ref_pivots
        assert red == ref_rows

    @settings(max_examples=150)
    @given(st.one_of(matrices(fractions_), matrices(gaussians)), st.data())
    def test_solve_properties(self, matrix, data):
        rows, n = matrix
        scalars = gaussians if any(isinstance(x, QQi) for r in rows for x in r) else fractions_
        if data.draw(st.booleans()):
            # consistent by construction
            x0 = data.draw(st.lists(scalars, min_size=n, max_size=n))
            rhs = [sum((a * b for a, b in zip(row, x0)), start=0) for row in rows]
        else:
            rhs = data.draw(st.lists(scalars, min_size=len(rows), max_size=len(rows)))
        consistent = len(gauss_jordan(rows, n)[1]) == len(
            gauss_jordan([r + [b] for r, b in zip(rows, rhs)], n + 1)[1]
        )
        try:
            x = solve(rows, rhs, n)
        except SingularMatrixError:
            assert not consistent
            return
        assert consistent and len(x) == n
        for row, b in zip(rows, rhs):
            assert sum((a * xi for a, xi in zip(row, x)), start=0) == b

    @settings(max_examples=100)
    @given(
        st.integers(0, 5).flatmap(
            lambda size: st.tuples(
                st.lists(
                    st.lists(st.one_of(fractions_, gaussians), min_size=size, max_size=size),
                    max_size=4,
                ),
                st.lists(fractions_.map(abs), min_size=size, max_size=size),
            )
        )
    )
    def test_hermitian_gram_direct_sum(self, data):
        vectors, weights = data
        G = hermitian_gram(vectors, weights)
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                want = sum(
                    (conj_s(a) * b * w for a, b, w in zip(u, v, weights)), start=Fraction(0)
                )
                assert G[i][j] == want

    def test_pinned_ball_3d_level_8(self):
        # 120 indices, span 81; the value was computed by Fraction Gauss-Jordan
        gens = IdealPresentation(3, [
            Jet(3, 2, {(2, 0, 0): 1, (0, 1, 1): -2, (0, 0, 2): Fraction(3, 2)}),
            Jet(3, 3, {(1, 1, 1): 2, (0, 3, 0): -1, (2, 0, 1): 1}),
        ])
        F = Jet(3, 7, {(0, 0, 0): 1, (1, 1, 0): Fraction(-1, 3), (0, 0, 4): -3, (3, 3, 1): 2})
        J = jet_ideal(gens, 8)
        assert (len(J.indices), J.span_dim) == (120, 81)
        ball = DiagonalDomain.ball(3, 2)
        want = PiValue(Fraction(
            628251632154277484032115389405676384990944,
            4112774223813837634540664709447987385425,
        ), 3)
        assert minimal_l2(ball, F, J).value == want
        assert b_circle(ball, F, J).value == want

    @settings(max_examples=30)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=3))
    def test_null_space_annihilates(self, rows):
        ns = null_space(rows, 3)
        for v in ns:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
