"""The shared index layout, the jet ideal built from it against the plain
reference of :mod:`reference_jet_ideal`, and where multi-indices are
checked."""

import random
from fractions import Fraction

import numpy as np
import pytest

from berglab import bergman, domains, ideals, indices
from berglab.bergman import krull_ladder
from berglab.domains import DiagonalDomain
from berglab.errors import DimensionMismatchError, JetSpaceTooLargeError
from berglab.exactnum import QQi
from berglab.ideals import IdealPresentation, annihilator, jet_ideal
from berglab.indices import MAX_JET_INDICES, Layout, indices_up_to, layout
from berglab.jets import Functional, Jet
from berglab.linalg import span_and_annihilator
from reference_jet_ideal import reference_jet_ideal


class TestLayout:
    @pytest.mark.parametrize("n, top", [(1, 0), (1, 9), (2, 6), (3, 5), (4, 4)])
    def test_indices_ends_and_steps(self, n, top):
        lay = Layout(n, top)
        assert list(lay.indices) == indices_up_to(n, top)
        assert lay.ends == tuple(len(indices_up_to(n, d)) for d in range(top + 1))
        for j, step in enumerate(lay.steps):
            assert len(step) == (lay.ends[top - 1] if top else 0)
            for p, q in enumerate(step):
                alpha = list(lay.indices[p])
                alpha[j] += 1
                assert lay.indices[q] == tuple(alpha)

    def test_shifted_positions(self):
        lay = Layout(3, 5)
        for alpha in indices_up_to(3, 5):
            for k in range(1, 7):
                want = [
                    lay.indices.index(tuple(a + b for a, b in zip(alpha, beta)))
                    for beta in indices_up_to(3, k - 1 - sum(alpha))
                ] if sum(alpha) < k else []
                assert list(lay.shifted(alpha, k)) == want

    def test_one_layout_per_dimension_shared_by_every_level(self):
        g = Jet(3, 2, {(1, 0, 0): 1, (0, 1, 1): -2})
        pres = IdealPresentation(3, [g])
        low, high = jet_ideal(pres, 3), jet_ideal(pres, 6)
        assert high.indices[: len(low.indices)] == low.indices
        assert isinstance(low.indices, tuple) and isinstance(high.indices, tuple)
        # a lower level after a higher one reads the grown layout's prefix
        assert jet_ideal(pres, 3).indices == low.indices
        assert layout(3, 2) is layout(3, 5)

    def test_refused_past_the_cap_without_growing(self):
        before = layout(2, 3)
        with pytest.raises(JetSpaceTooLargeError):
            layout(2, 40)
        assert layout(2, 3) is before
        assert len(layout(2, 30).indices) == 496 <= MAX_JET_INDICES

    def test_a_ladder_builds_logarithmically_many_layouts(self, monkeypatch):
        built = []

        class Counted(Layout):
            def __init__(self, n, top):
                built.append(top)
                super().__init__(n, top)

        monkeypatch.setattr(indices, "_LAYOUTS", {})
        monkeypatch.setattr(indices, "Layout", Counted)
        g = Jet(2, 2, {(1, 0): 1, (0, 2): QQi(-2, 1)})
        F = Jet(2, 1, {(1, 0): 1, (0, 1): QQi(Fraction(1, 2), -1)})
        disc = DiagonalDomain.polydisc([1, 2], exact=False)
        krull_ladder(disc, F, IdealPresentation(2, [g]), range(2, 32))
        # each growth at least doubles the degree, and the last stops at the cap
        assert built == [1, 2, 4, 8, 16, 30]

    def test_growth_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(indices, "_LAYOUTS", {})
        assert layout(2, 16).top == 16
        # twice 16 is past the cap: a request that fits grows to the cap
        assert layout(2, 17).top == 30
        with pytest.raises(JetSpaceTooLargeError):
            layout(2, 31)
        assert layout(2, 1).top == 30
        assert layout(4, 5).top == 5 and layout(4, 6).top == 8
        assert len(layout(4, 8).indices) == 495 <= MAX_JET_INDICES
        with pytest.raises(JetSpaceTooLargeError):
            layout(4, 9)

    def test_indices_cannot_be_changed_through_an_ideal(self):
        J = jet_ideal(IdealPresentation(2, [Jet(2, 2, {(2, 0): 1})]), 4)
        with pytest.raises(TypeError):
            J.indices[0] = (9, 9)


def _coefficient(rng, kind):
    if kind == "int":
        return rng.choice((-3, -2, -1, 1, 2, 3))
    if kind == "qqi":
        return QQi(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _presentation(rng, n, level, kind):
    # degree `level` included: truncation cuts those terms off
    monomials = indices_up_to(n, level)[1:]
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {rng.choice(monomials): _coefficient(rng, kind) for _ in range(rng.randint(1, 4))}
        gens.append(Jet(n, level, terms))
    if rng.random() < 0.3:
        gens.insert(rng.randint(0, len(gens)), Jet.zero(n))
    return IdealPresentation(n, gens)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _ring(vectors):
    """Ring-integer vectors as (real, imag) pairs: a Gaussian integer
    compares by identity."""
    return [[(x.real, x.imag) for x in v] for v in vectors]


def assert_same_ideal(J, R):
    """J and the reference R: the same indices, blocks and solves, exact
    vectors ``==`` and float arrays bitwise equal."""
    assert list(J.indices) == list(R.indices)
    assert (J.n, J.level, J.exact) == (R.n, R.level, R.exact)
    assert [b.indices for b in J.blocks] == [b.indices for b in R.blocks]
    for b, r in zip(J.blocks, R.blocks):
        if J.exact:
            assert _ring(b.rows) == _ring(r.rows) and _ring(b.null) == _ring(r.null)
        else:
            assert _same_array(b.rows, r.rows) and _same_array(b.null, r.null)
        assert all(_same_array(x, y) for x, y in zip(b.float_view, r.float_view))
    if J.exact:
        assert _ring(J.rows) == _ring(R.rows) and _ring(J.null) == _ring(R.null)
    assert all(_same_array(x, y) for x, y in zip(J.float_view, R.float_view))


@pytest.mark.parametrize("kind", ["int", "qqi", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jet_ideal_matches_reference(n, kind):
    rng = random.Random(f"{n}-{kind}")
    top = 8 if n < 4 else 7
    for level in range(1, top + 1):
        for _ in range(3 if n < 4 else 2):
            pres = _presentation(rng, n, level, kind)
            assert_same_ideal(jet_ideal(pres, level), reference_jet_ideal(pres, level))


def test_level_31_ideal_matches_reference():
    g = Jet(2, 2, {(1, 0): 1, (0, 2): QQi(-2, 1)})
    pres = IdealPresentation(2, [g])
    assert_same_ideal(jet_ideal(pres, 31), reference_jet_ideal(pres, 31))


def test_restriction_matches_reference():
    rng = random.Random(7)
    for kind in ("int", "float"):
        pres = _presentation(rng, 3, 6, kind)
        J, R = jet_ideal(pres, 6), reference_jet_ideal(pres, 6)
        support = rng.sample(list(J.indices), 3)
        assert_same_ideal(J.restrict(support), R.restrict(support))


@pytest.mark.parametrize("kind", ["int", "qqi", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lazy_blocks_match_eager_elimination(n, kind, monkeypatch):
    # a block is eliminated when first read, through a restriction or
    # through the whole ideal, once, and gives what one eager split of the
    # reference's rows for that block gives (a one-monomial block included,
    # which the package does not split)
    eliminated = []
    eliminate = ideals._eliminate

    def counted(rows, m, exact):
        eliminated.append(id(rows))
        return eliminate(rows, m, exact)

    monkeypatch.setattr(ideals, "_eliminate", counted)
    rng = random.Random(f"lazy-{n}-{kind}")
    left, joined = 0, 0  # blocks a restriction left unread; blocks of several monomials
    for level in range(1, 9):
        pres = _presentation(rng, n, level, kind)
        R = reference_jet_ideal(pres, level)
        split = span_and_annihilator if R.exact else ideals._orthonormal_split
        eager = [split(b.products, len(b.indices)) for b in R.blocks]
        for whole_first in (False, True):
            J = jet_ideal(pres, level)
            eliminated.clear()
            support = rng.sample(list(J.indices), min(3, len(J.indices)))
            if whole_first:
                J.null, J.float_view
            S = J.restrict(support)
            S.rows, S.null, S.float_view
            if not whole_first:
                # membership of a jet on the same support reads the same blocks
                ideals.contains(J, Jet(n, level, {a: 1 for a in support}))
                assert sorted(eliminated) == sorted(id(b.products) for b in S.blocks)
                left += len(J.blocks) - len(S.blocks)
                J.rows, J.float_view
            assert sorted(eliminated) == sorted(id(b.products) for b in J.blocks)
            assert [b.indices for b in J.blocks] == [b.indices for b in R.blocks]
            for b, (span, null) in zip(J.blocks, eager):
                if J.exact:
                    assert _ring(b.rows) == _ring(span) and _ring(b.null) == _ring(null)
                else:
                    assert _same_array(b.rows, span) and _same_array(b.null, null)
            joined += sum(len(b.indices) > 1 for b in J.blocks)
    assert left and joined


def test_layout_cleared_between_calls_gives_the_same_ideal():
    rng = random.Random(11)
    pres = _presentation(rng, 4, 7, "float")
    J = jet_ideal(pres, 7)
    indices._LAYOUTS.clear()
    assert_same_ideal(jet_ideal(pres, 7), J)


def test_derived_jets_and_functionals_equal_checked_ones():
    rng = random.Random(3)
    pres = _presentation(rng, 2, 5, "qqi")
    J = jet_ideal(pres, 5)
    for s in J.basis_jets():
        assert s == Jet(s.n, s.degree_bound, s.coeffs)
    for xi in annihilator(J):
        assert xi == Functional(xi.n, xi.entries)
    f = Jet(2, 4, {(1, 0): Fraction(1, 2), (2, 2): QQi(1, -1), (0, 1): 0})
    assert f.truncate(3) == Jet(2, 3, {(1, 0): Fraction(1, 2)})
    assert f.scale(0) == Jet.zero(2, 4) and f.scale(2).coeffs == {(1, 0): 1, (2, 2): QQi(2, -2)}
    assert f.to_float().coeffs == {(1, 0): 0.5, (2, 2): 1 - 1j}
    xi = Functional(2, {(1, 1): 3, (0, 0): 0})
    assert xi.scale(Fraction(1, 3)).entries == {(1, 1): 1}
    assert xi.to_float().entries == {(1, 1): 3 + 0j}


# each bad index, as every entry point raises it
BAD_INDICES = [
    ("negative", (1, -1), 2, ValueError, "negative component"),
    ("wrong length", (1,), 2, DimensionMismatchError, "has length 1, expected 2"),
    ("not an integer", ("x",), 1, ValueError, "invalid literal"),
]


@pytest.mark.parametrize("name, alpha, n, error, message", BAD_INDICES, ids=[b[0] for b in BAD_INDICES])
def test_entry_points_still_check_indices(name, alpha, n, error, message):
    with pytest.raises(error, match=message):
        Jet(n, 3, {alpha: 1})
    with pytest.raises(error, match=message):
        Functional(n, {alpha: 1})
    with pytest.raises(error, match=message):
        Jet.monomial(n, alpha)


def test_monomial_checks_its_degree_bound():
    with pytest.raises(ValueError, match=r"coefficient at \(3,\) exceeds degree bound 1"):
        Jet.monomial(1, (3,), degree_bound=1)
    assert Jet.monomial(1, (3,), 0, degree_bound=1) == Jet.zero(1, 1)
    assert Jet.monomial(1, ["2"]).coeffs == {(2,): 1}


@pytest.mark.parametrize("cls", [Jet, Functional])
def test_from_json_still_checks_indices(cls):
    def read(alpha, n=1):
        return cls.from_json({"n": n, "terms": [{"alpha": alpha, "re": 1}]}, "xi")

    with pytest.raises(DimensionMismatchError, match="has length 1, expected 2"):
        read([1], n=2)
    with pytest.raises(ValueError, match=r"xi.terms\[0\].alpha\[0\] must be an integer >= 0, not -1"):
        read([-1])
    with pytest.raises(ValueError, match=r"xi.terms\[0\].alpha\[0\] must be an integer >= 0, not 1.5"):
        read([1.5])
    with pytest.raises(ValueError, match=r"xi.terms\[0\].alpha\[0\] must be an integer >= 0, not '1'"):
        read(["1"])


@pytest.mark.parametrize("exact", [True, False])
def test_routes_read_norms_without_checking_indices(exact, monkeypatch):
    # the problem's indices come from the jet ideal's layout: no index check,
    # and the same weights as the checked norm
    g = Jet(2, 2, {(1, 0): 1, (0, 2): QQi(-2, 1)})
    J = jet_ideal(IdealPresentation(2, [g]), 6)
    F = Jet(2, 5, {(1, 0): 1, (0, 1): QQi(Fraction(1, 2), -1), (2, 3): 3})
    checked = []
    check = domains.validate_index
    monkeypatch.setattr(domains, "validate_index", lambda a, n: checked.append(a) or check(a, n))
    dom = DiagonalDomain.polydisc([1, Fraction(3, 2)], exact=exact)
    prob = bergman._Problem(dom, F, J)
    assert checked == []
    assert prob.backend == ("exact" if exact else "float")
    reference = DiagonalDomain.polydisc([1, Fraction(3, 2)], exact=exact)
    if exact:
        assert prob.weights == [reference.norm(a) for a in prob.indices]
    else:
        want = np.asarray([reference.norm_float(a) for a in prob.indices])
        assert _same_array(prob.weights, want)
    assert checked  # the public norm still checks
