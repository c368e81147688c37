"""A diagonal domain is one record, fixed when it is built; the numbers
that float code reads go through one float-range rule."""

import math
from fractions import Fraction

import pytest

from berglab.domains import DiagonalDomain, ToricWeight, TruncatedWeight, sublevel_domain
from berglab.errors import QuadratureError, UnsupportedDomainError
from berglab.exactnum import QQi, to_float
from berglab.indices import MAX_DEGREE, indices_up_to, validate_index
from berglab.jsonspec import integer, real


class TestRecord:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: DiagonalDomain.polydisc([Fraction(1, 3), 2], exact=False),
            lambda: DiagonalDomain.ball(2, Fraction(1, 3), exact=False),
            lambda: DiagonalDomain.polydisc([0.7, Fraction(3, 2)]),
            lambda: DiagonalDomain.polydisc([1, Fraction(3, 2)]).with_truncated_weight(
                TruncatedWeight(ToricWeight((1, 0)), 2)),
        ],
        ids=["polydisc", "ball", "float-radius", "truncated"],
    )
    def test_a_float_domain_holds_float_radii(self, make):
        dom = make()
        assert not dom.exact and all(type(r) is float for r in dom.radii)

    def test_a_ball_holds_its_radius_in_radii(self):
        ball = DiagonalDomain.ball(3, Fraction(1, 2))
        assert ball.exact and ball.radii == (Fraction(1, 2),)
        assert not hasattr(ball, "radius")
        assert ball.descriptor == {"kind": "ball", "radius": "1/2", "n": 3}
        with pytest.raises(UnsupportedDomainError):
            DiagonalDomain(2, "ball", [1], weight_exponents=(1, 0))

    @pytest.mark.parametrize(
        "dom",
        [
            DiagonalDomain.polydisc([Fraction(1, 2), 3]).with_weight(ToricWeight((1, 0))),
            DiagonalDomain.ball(2, Fraction(2, 3)),
        ],
        ids=["weighted-polydisc", "ball"],
    )
    def test_as_float_is_a_copy(self, dom):
        flt = dom.as_float()
        assert dom.exact and not flt.exact and flt is not dom
        assert flt.descriptor == dom.descriptor and flt.kind == dom.kind
        assert flt.radii == tuple(float(r) for r in dom.radii)
        assert flt.weight_exponents == dom.weight_exponents
        for alpha in indices_up_to(2, 3):
            assert flt.norm(alpha) == pytest.approx(dom.norm_float(alpha), rel=1e-13)

    def test_float_radii_past_the_range(self):
        with pytest.raises(QuadratureError, match="the radius 1e400 overflows a float"):
            DiagonalDomain.polydisc([Fraction(10**400), 1], exact=False)
        with pytest.raises(QuadratureError, match="the radius 1e-400 underflows to 0"):
            DiagonalDomain.polydisc([Fraction(1, 10**400)]).as_float()
        with pytest.raises(QuadratureError, match="the weight exponent 1e-400 underflows to 0"):
            sublevel_domain(DiagonalDomain.disc(1), ToricWeight((Fraction(1, 10**400),)), 1)


class TestFloatRangeRule:
    def test_to_float(self):
        assert to_float(Fraction(1, 4)) == 0.25 and to_float(0) == 0.0 and to_float(-3) == -3.0
        for x, message in [
            (Fraction(3, 2) * 10**400, "the exact number 1.5e400 overflows a float"),
            (-(10**400), "the exact number -1e400 overflows a float"),
            (Fraction(1, 10**400), "the exact number 1e-400 underflows to 0"),
        ]:
            with pytest.raises(QuadratureError) as info:
                to_float(x)
            assert str(info.value) == message

    def test_qqi_complex(self):
        assert complex(QQi(Fraction(1, 2), -3)) == complex(0.5, -3.0)
        assert complex(QQi(0, Fraction(1, 10**300))) == 1e-300j
        with pytest.raises(QuadratureError, match="the exact number 1e400 overflows"):
            complex(QQi(1, 10**400))
        with pytest.raises(QuadratureError, match="the exact number 1e-400 underflows"):
            complex(QQi(Fraction(1, 10**400), 1))

    def test_float_only_field(self):
        assert real("1/4", "f") == 0.25 and real(0, "f") == 0.0 and real("-0", "f") == 0.0
        for x in ("1e400", "-1e400", "1e-400", 10**400):
            with pytest.raises(ValueError, match=r"^f\.t .* is outside the float range$"):
                real(x, "f.t")
        with pytest.raises(ValueError, match="must be a finite number"):
            real(math.inf, "f.t")


class TestCaps:
    def test_degree_cap(self):
        assert validate_index((0, MAX_DEGREE), 2) == (0, MAX_DEGREE)
        with pytest.raises(ValueError, match="has a degree above 100000000"):
            validate_index((1, MAX_DEGREE), 2)

    def test_integer_maximum(self):
        assert integer(500.0, "n", 1, 500) == 500
        with pytest.raises(ValueError, match="^n must be at most 500, not 501$"):
            integer(501, "n", 1, 500)
