"""Checks run once, where data enters: a multi-index is checked by the
constructors, the JSON readers and ``DiagonalDomain.norm``, and the range
rule names a number's size only when it fires."""

from fractions import Fraction

import pytest

from berglab import domains, exactnum, ideals, indices, jets
from berglab.bergman import density_sequence, riesz_representative
from berglab.domains import DiagonalDomain, ToricWeight
from berglab.errors import DimensionMismatchError, QuadratureError
from berglab.exactnum import QQi, to_complex, to_float
from berglab.ideals import IdealPresentation
from berglab.jets import Functional, Jet
from berglab.sop import xi_cse_limit
from berglab.suites import run_suite


@pytest.fixture
def counts(monkeypatch):
    """Counts of the calls of ``validate_index``, in every module that
    imports it, and of the ``_Size`` objects the range rule builds."""
    seen = {"validate_index": 0, "_Size": 0}
    check, size = indices.validate_index, exactnum._Size

    def counted_check(alpha, n):
        seen["validate_index"] += 1
        return check(alpha, n)

    def counted_size(x):
        seen["_Size"] += 1
        return size(x)

    for module in (indices, jets, domains, ideals):
        monkeypatch.setattr(module, "validate_index", counted_check)
    monkeypatch.setattr(exactnum, "_Size", counted_size)
    return seen


class TestCheckedOnce:
    def test_the_counters_count(self, counts):
        Jet(1, 1, {(1,): 1})
        with pytest.raises(QuadratureError):
            to_float(Fraction(1, 10**400))
        assert counts == {"validate_index": 1, "_Size": 1}

    def test_hot_paths_check_nothing_again(self, counts):
        run_suite("convexity", seed=0)
        dom = DiagonalDomain.polydisc([1, 1])
        gens = IdealPresentation(2, [Jet.unchecked(2, 1, {(1, 0): 1})])
        F = Jet.unchecked(2, 2, {(0, 1): 1})
        assert density_sequence(dom, F, gens, [2, 3, 4])[-1][1] <= 1e-10
        assert counts == {"validate_index": 0, "_Size": 0}

    @pytest.mark.parametrize(
        "call",
        [
            lambda xi: riesz_representative(DiagonalDomain.disc(1), xi),
            lambda xi: xi_cse_limit(xi, ToricWeight((1,)), DiagonalDomain.disc(1), [1, 2, 3, 4]),
            lambda F: density_sequence(
                DiagonalDomain.disc(1), Jet(2, 2, F.entries),
                IdealPresentation(2, [Jet(2, 2, {(2, 0): 1})]), [2, 3]),
        ],
        ids=["riesz", "cse", "density"],
    )
    def test_a_domain_of_another_dimension(self, call):
        # a checked jet or functional on a domain of another dimension gets
        # the error the index check gives
        with pytest.raises(DimensionMismatchError) as err:
            call(Functional(2, {(1, 0): 1}))
        assert str(err.value) == "multi-index (1, 0) has length 2, expected 1"


class TestRangeRuleMessages:
    @pytest.mark.parametrize(
        "x, message",
        [
            (10**400, "the exact number 1e400 overflows a float"),
            (Fraction(1, 10**400), "the exact number 1e-400 underflows to 0"),
        ],
        ids=["1e400", "1e-400"],
    )
    @pytest.mark.parametrize(
        "convert",
        [to_float, lambda x: to_complex(QQi(x, 1)), lambda x: to_complex(QQi(1, x))],
        ids=["to_float", "to_complex-real", "to_complex-imag"],
    )
    def test_message(self, convert, x, message):
        with pytest.raises(QuadratureError) as err:
            convert(x)
        assert str(err.value) == message

    def test_pivalue(self):
        assert exactnum.PiValue(Fraction(1, 2), 1).to_float() == 0.5 * 3.141592653589793
        for coeff, message in [
            (Fraction(3, 2) * 10**400, "the exact value 1.5e400 * pi^2 overflows a float"),
            (Fraction(1, 10**400), "the exact value 1e-400 * pi^2 underflows to 0"),
            (Fraction(10**308), "the exact value 1e308 * pi^2 overflows a float"),
        ]:
            with pytest.raises(QuadratureError) as err:
                exactnum.PiValue(coeff, 2).to_float()
            assert str(err.value) == message
