"""Multi-index order, jet arithmetic, pairing, exact scalars, linear algebra."""

import json
import math
from fractions import Fraction
from operator import add, floordiv, mul, sub, truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab.errors import (
    DimensionMismatchError,
    QuadratureError,
    SingularMatrixError,
    SupportBoundError,
    ZeroFunctionalError,
)
from berglab.bergman import b_circle, minimal_l2
from berglab.domains import DiagonalDomain
from berglab.exactnum import PiValue, QQi, abs2_s, is_exact
from berglab.ideals import IdealPresentation, jet_ideal
from berglab.indices import (
    degree,
    indices_of_degree,
    indices_up_to,
    order_key,
    validate_index,
)
from berglab.jets import Functional, Jet, jet_multiply, pair
from berglab.linalg import (
    annihilates,
    hermitian_gram,
    solve,
    span_and_annihilator,
    to_ring,
)
from reference_linalg import gauss_jordan, null_space

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


class TestOrder:
    def test_graded_before_anything(self):
        assert order_key((0, 1)) < order_key((2, 0))  # degree 1 before degree 2

    def test_tie_break_from_last_coordinate(self):
        # within a degree, the index with the smaller last coordinate first
        assert order_key((1, 0)) < order_key((0, 1))
        assert order_key((2, 0, 0)) < order_key((1, 1, 0))
        assert order_key((1, 1, 0)) < order_key((0, 2, 0))
        assert order_key((0, 2, 0)) < order_key((1, 0, 1))

    def test_enumeration_degree_two(self):
        assert indices_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert indices_up_to(2, 2) == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        ]

    def test_enumeration_matches_sort(self):
        idx = indices_up_to(3, 4)
        assert idx == sorted(idx, key=order_key)
        assert len(idx) == math.comb(4 + 3, 3)

    def test_dimension_mismatch(self):
        # an index enters the package through validate_index, which
        # checks its length against the dimension
        with pytest.raises(DimensionMismatchError):
            validate_index((1, 0), 1)

    @given(a=multi_index, b=multi_index)
    def test_totality_antisymmetry(self, a, b):
        b = tuple(b[i] if i < len(b) else 0 for i in range(len(a)))
        ka, kb = order_key(a), order_key(b)
        assert (ka < kb) + (ka == kb) + (ka > kb) == 1
        assert (kb < ka) == (ka > kb)
        assert (ka == kb) == (a == b)

    @given(st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2).map(tuple), min_size=3, max_size=3))
    def test_transitivity(self, triple):
        a, b, c = sorted(triple, key=order_key)
        assert order_key(a) <= order_key(b) <= order_key(c) and order_key(a) <= order_key(c)


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

    @pytest.mark.parametrize(
        "c", [3, Fraction(-2, 3), QQi(2, -1), QQi(Fraction(1, 2), Fraction(-5, 3))]
    )
    def test_exact_coefficients_round_trip(self, c):
        # an int is written as rational strings too, so it reloads exact
        f = Jet(2, 2, {(1, 0): c, (0, 2): 1})
        xi = Functional(2, {(1, 0): c, (0, 0): Fraction(1, 2)})
        g = Jet.from_json(json.loads(json.dumps(f.to_json())))
        eta = Functional.from_json(json.loads(json.dumps(xi.to_json())))
        assert g == f and is_exact(g.coeffs.values())
        assert eta == xi and is_exact(eta.entries.values())

    @pytest.mark.parametrize(
        "term, want",
        [
            ({"re": 1, "im": "1/2"}, QQi(1, Fraction(1, 2))),
            ({"re": "1/3"}, QQi(Fraction(1, 3))),
            ({"re": 0.5, "im": -1}, 0.5 - 1j),
            ({"re": 2}, 2 + 0j),
        ],
        ids=["int-and-string", "string", "float-and-int", "int"],
    )
    def test_term_type(self, term, want):
        # a string part makes the term exact, numbers alone make it complex
        f = Jet.from_json({"n": 1, "terms": [dict(term, alpha=[1])]})
        c = f.coefficient((1,))
        assert c == want and type(c) is type(want)

    @pytest.mark.parametrize("term", [{"re": 0.1, "im": "0"}, {"re": "1/2", "im": 1.0}])
    def test_float_and_string_term_refused(self, term):
        # 0.1 is a binary fraction; read as exact it would carry its rounding error
        with pytest.raises(ValueError, match=r"F\.terms\[1\] mixes a JSON float with a rational string"):
            Jet.from_json({"n": 1, "terms": [{"alpha": [0], "re": "1"}, dict(term, alpha=[1])]}, "F")

    def test_complex_coefficients_round_trip(self):
        f = Jet(1, 2, {(1,): 1 + 2j, (2,): -0.5 + 0j})
        g = Jet.from_json(json.loads(json.dumps(f.to_json())))
        assert g == f and all(type(c) is complex for c in g.coeffs.values())


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
        assert abs2_s(x) == Fraction(5) == x * x.conjugate()
        # a QQi with imaginary part 0 equals its real part, and hashes as it
        assert hash(QQi(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert {QQi(3): 1}[3] == 1
        # int - QQi, Fraction - QQi and int // QQi run QQi's reflected operators
        assert 3 - QQi(1, 2) == QQi(2, -2)
        assert Fraction(1, 2) - QQi(1, 1) == QQi(Fraction(-1, 2), -1)
        assert 5 // QQi(1, 2) == QQi(1, -2) and 10 // QQi(3, 1) == QQi(3, -1)
        # a real divisor, an int or a Fraction, gives the general formula
        # (ac + bd, bc - ad) / (c^2 + d^2) at d = 0
        for z in (x, y):
            for c in (3, Fraction(-2, 5)):
                n = c * c
                assert z / c == z / QQi(c) == QQi(Fraction(z.real * c, n), Fraction(z.imag * c, n))
        with pytest.raises(ZeroDivisionError):
            x / 0

    def test_pivalue(self):
        v = PiValue(Fraction(1, 2), 1)
        assert v.to_float() == pytest.approx(math.pi / 2)
        assert v == PiValue(Fraction(1, 2), 1) != PiValue(Fraction(1, 2), 2)
        assert repr(v) == "PiValue(1/2 * pi^1)"
        assert v.to_json() == {"pi_power": 1, "rational": "1/2"}
        w = PiValue(math.inf, 1)
        assert w.is_infinite() and w.to_float() == math.inf
        # past the float range as a Fraction, or only once multiplied by pi
        for v, name in ((PiValue(Fraction(3 * 10**400, 2)), "1.5e400 * pi^0"),
                        (PiValue(Fraction(10**308), 1), "1e308 * pi^1")):
            with pytest.raises(QuadratureError) as err:
                v.to_float()
            assert str(err.value) == f"the exact value {name} overflows a float"
        # a positive value whose float underflows is past the range too, and
        # a zero one is 0
        with pytest.raises(QuadratureError) as err:
            PiValue(Fraction(1, 10**400), 2).to_float()
        assert str(err.value) == "the exact value 1e-400 * pi^2 underflows to 0"
        assert PiValue(Fraction(0), 2).to_float() == 0.0

    def test_pivalue_is_a_value(self):
        # equal fields: equal and one hash; a different field or another class: unequal
        v = PiValue(Fraction(1, 2), 1)
        assert v == PiValue(Fraction(1, 2), 1) and hash(v) == hash(PiValue(Fraction(1, 2), 1))
        assert len({v, PiValue(Fraction(1, 2), 1), PiValue(math.inf, 1)}) == 2
        assert v != PiValue(Fraction(1, 3), 1) and v != PiValue(Fraction(1, 2))
        assert PiValue(3) == PiValue(3, 0) and v.__eq__((Fraction(1, 2), 1)) is NotImplemented
        assert v != (Fraction(1, 2), 1) and PiValue(Fraction(1, 2)) != Fraction(1, 2)


ring_ints = st.one_of(
    st.integers(-60, 60), st.builds(QQi, st.integers(-60, 60), st.integers(-60, 60))
)


def parts(x):
    """(real, imag) of an int or a Gaussian integer."""
    return x.real, x.imag


def as_qqi(x, den=1):
    """A ring integer over an int denominator as a QQi, by QQi arithmetic."""
    return QQi(Fraction(x.real, den), Fraction(x.imag, den))


class TestLinalg:
    @settings(max_examples=300)
    @given(ring_ints, ring_ints)
    def test_mixed_ring_operations(self, a, b):
        # Python complex is the oracle: every part below stays far under
        # 2**53, so its sums and products are exact
        def ring(x):
            return type(x.real) is int and type(x.imag) is int

        for op in (add, sub, mul):
            assert ring(op(a, b)) and complex(op(a, b)) == op(complex(a), complex(b))
        # exact division, by either operand, with the product on either side;
        # |b|^2 a is an int multiple of b when a is an int
        for num, den in ((a * b, b), (b * a, a), (abs2_s(b) * a, b), (abs2_s(a), a)):
            if den:
                q = num // den
                assert ring(q) and complex(q) * complex(den) == complex(num)
        for x in (a, b):
            assert complex(-x) == -complex(x)
            assert complex(x.conjugate()) == complex(x).conjugate()
            assert bool(x) == bool(complex(x))

    @settings(max_examples=200)
    @given(gaussians, st.one_of(gaussians, fractions_, st.integers(-6, 6)))
    def test_division_matches_fraction_parts(self, x, y):
        c, d = Fraction(y.real), Fraction(y.imag)
        n = c * c + d * d
        if not n:
            with pytest.raises(ZeroDivisionError):
                x / y
            return
        # (a + bi) / (c + di) = ((ac + bd) + (bc - ad)i) / (c^2 + d^2)
        a, b = x.real, x.imag
        q = x / y
        assert (q.real, q.imag) == ((a * c + b * d) / n, (b * c - a * d) / n)
        if x:
            r = y / x
            m = a * a + b * b
            assert (r.real, r.imag) == ((c * a + d * b) / m, (d * a - c * b) / m)

    @pytest.mark.parametrize("other", [0.5, 2.0, 1j, complex(1, 0)])
    def test_inexact_operands_raise(self, other):
        x = QQi(1, 2)
        for op in (add, sub, mul, truediv, floordiv):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        assert QQi(2) != 2.0 and QQi(0, 1) != 1j

    def test_exact_output_stays_integer(self):
        kept, ns = span_and_annihilator([[2, 4], [1, 3]], 2)
        assert kept == [[2, 4], [1, 3]] and ns == []
        # a row is cleared by its denominators; the RREF row is [1, 2/3, 0]
        kept, ns = span_and_annihilator([[Fraction(1, 2), Fraction(1, 3), 0]], 3)
        assert kept == [[3, 2, 0]]
        assert ns == [[-2, 3, 0], [0, 0, 1]]
        assert all(type(x) is int for v in kept + ns for x in v)

    def test_null_space_bilinear(self):
        _, ns = span_and_annihilator([[1, 1, 0]], 3)
        assert len(ns) == 2
        for v in ns:
            assert v[0] + v[1] == 0

    def test_solve_exact(self):
        x, D, _ = solve([[2, 1, 5], [1, 3, 10]], 2)
        assert [Fraction(v, D) for v in x] == [1, 3]

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve([[1, 1, 1], [2, 2, 1]], 2)

    def test_least_squares_rank_deficient_consistent(self):
        x, D, null = solve([[1, 1, 3], [2, 2, 6]], 2)
        assert x[0] + x[1] == 3 * D
        assert len(null) == 1 and null[0][0] + null[0][1] == 0 and any(null[0])

    def test_least_squares_inconsistent(self):
        with pytest.raises(SingularMatrixError):
            solve([[1, 1, 3], [2, 2, 7]], 2)

    @settings(max_examples=150)
    @given(st.one_of(matrices(fractions_), matrices(gaussians)))
    def test_span_and_annihilator_properties(self, matrix):
        rows, ncols = matrix
        kept, ns = span_and_annihilator(rows, ncols)
        ref_rows, ref_pivots = gauss_jordan(rows, ncols)
        # the kept rows are independent and span the reference row space
        assert len(kept) == len(ref_pivots)
        assert gauss_jordan([[as_qqi(x) for x in row] for row in kept], ncols) == (
            ref_rows, ref_pivots
        )
        # one vector per free column: the reference null vector times its
        # positive free-column entry, with content 1
        free = [j for j in range(ncols) if j not in ref_pivots]
        ref_ns = null_space(rows, ncols)
        assert len(ns) == len(ref_ns) == len(free)
        for v, r, j in zip(ns, ref_ns, free):
            assert type(v[j]) is int and v[j] > 0
            assert [as_qqi(x) for x in v] == [v[j] * x for x in r]
            assert math.gcd(*(p for x in v for p in parts(x))) == 1
        assert all(type(x) is int for v in ns for x in v if not x.imag)
        # every input row pairs to zero with the annihilator
        for row in rows:
            assert annihilates(ns, row)

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
        rank = len(gauss_jordan(rows, n)[1])
        consistent = rank == len(gauss_jordan([r + [b] for r, b in zip(rows, rhs)], n + 1)[1])
        ring, _ = to_ring([r + [b] for r, b in zip(rows, rhs)])
        try:
            x, D, null = solve(ring, n)
        except SingularMatrixError:
            assert not consistent
            return
        assert consistent and len(x) == n and isinstance(D, int) and D
        x = [as_qqi(v, D) for v in x]
        for row, b in zip(rows, rhs):
            assert sum((a * xi for a, xi in zip(row, x)), start=0) == b
        # a basis of the homogeneous solutions
        null = [[as_qqi(v) for v in z] for z in null]
        assert len(null) == n - rank
        assert len(gauss_jordan(null, n)[1]) == len(null)
        for z in null:
            for row in rows:
                assert sum((a * zi for a, zi in zip(row, z)), start=0) == 0

    @settings(max_examples=100)
    @given(
        st.integers(1, 5).flatmap(
            lambda size: st.tuples(
                st.integers(0, 4).flatmap(
                    lambda length: st.lists(
                        st.lists(ring_ints, min_size=length, max_size=length),
                        min_size=size, max_size=size,
                    )
                ),
                st.lists(ring_ints, min_size=size, max_size=size),
            )
        )
    )
    def test_definite_order_same_solution(self, data):
        # S = Gram + identity is Hermitian positive definite; the
        # minimum-degree order gives the solution of the natural order
        vectors, rhs = data
        n = len(rhs)
        S = hermitian_gram(vectors, [1] * len(vectors[0]))
        for i in range(n):
            S[i][i] = S[i][i] + 1
        x1, d1, _ = solve([row + [b] for row, b in zip(S, rhs)], n, definite=True)
        x2, d2, _ = solve([row + [b] for row, b in zip(S, rhs)], n)
        assert [as_qqi(v, d1) for v in x1] == [as_qqi(v, d2) for v in x2]
        for row, b in zip(S, rhs):
            assert sum((as_qqi(a) * as_qqi(v, d1) for a, v in zip(row, x1)), start=0) == as_qqi(b)

    @settings(max_examples=100)
    @given(
        st.integers(0, 5).flatmap(
            lambda size: st.tuples(
                st.lists(st.lists(ring_ints, min_size=size, max_size=size), max_size=4),
                st.lists(st.integers(0, 30), min_size=size, max_size=size),
            )
        )
    )
    def test_hermitian_gram_direct_sum(self, data):
        vectors, weights = data
        G = hermitian_gram(vectors, weights)
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                want = sum(
                    (as_qqi(a).conjugate() * as_qqi(b) * w for a, b, w in zip(u, v, weights)),
                    start=QQi(0),
                )
                assert as_qqi(G[i][j]) == want

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
        kept, ns = span_and_annihilator(rows, 3)
        assert len(ns) == 3 - len(kept)
        for v in ns:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
