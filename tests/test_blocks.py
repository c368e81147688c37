"""The block split of jet ideals, and both routes against an unsplit oracle.

Both routes read the same blocks and solve on the same ones, so C = B
cannot see a wrong split, nor a wrong verdict on which of F's blocks lie
outside the span (the only ones solved).  The oracles here solve each
instance over the whole jet space, with no split: exactly, as the
least-norm problem min sum w_a |x_a|^2 over x = F mod the span, with
x = 0 where w_a is infinite, through the reference null space and normal
equations of :mod:`reference_linalg`; in float, as weighted numpy least
squares over the product rows.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab import ideals
from berglab.bergman import (
    ROUTES_RTOL,
    b_circle,
    both_routes,
    density_sequence,
    krull_ladder,
    minimal_l2,
    routes_agree,
)
from berglab.domains import DiagonalDomain, ToricWeight
from berglab.exactnum import PiValue, QQi, abs2_s
from berglab.ideals import IdealPresentation, jet_ideal
from berglab.indices import indices_up_to
from berglab.jets import Jet, jet_multiply
from reference_linalg import gauss_jordan, null_space
from test_ideals import presentations


def product_rows(gens, level, idx):
    n = gens[0].n
    rows = []
    for g in gens:
        for beta in idx:
            row = jet_multiply(g, Jet.monomial(n, beta), level - 1).vector(idx)
            if any(row):
                rows.append(row)
    return rows


def exact_oracle(domain, F, gens, level):
    """(C, minimizer) over the whole jet space: x = W^-1 N^H mu with
    (N W^-1 N^H) mu = N f, N the reference null space of all product rows;
    C is infinite when that system is inconsistent."""
    idx = indices_up_to(domain.n, level - 1)
    N = null_space(product_rows(gens, level, idx), len(idx))
    w = [domain.norm(a) for a in idx]
    finite = [i for i, x in enumerate(w) if x != math.inf]
    f = F.truncate(level - 1).vector(idx)
    support = [[i for i in finite if v[i]] for v in N]
    K = [
        [sum((t[i] * s[i].conjugate() / w[i] for i in sup), Fraction(0)) for s, sup in zip(N, support)]
        + [sum((t[i] * f[i] for i in range(len(idx)) if f[i]), Fraction(0))]
        for t in N
    ]
    red, pivots = gauss_jordan(K, len(N) + 1)
    if len(N) in pivots:
        return PiValue(math.inf, domain.pi_power), None
    mu = [0] * len(N)
    for row, c in zip(red, pivots):
        mu[c] = row[-1]
    x = {
        idx[i]: sum((v[i].conjugate() * m for v, m in zip(N, mu) if v[i]), Fraction(0)) / w[i]
        for i in finite
    }
    C = sum((abs2_s(v) * domain.norm(a) for a, v in x.items()), Fraction(0))
    return PiValue(C, domain.pi_power), Jet(domain.n, level - 1, x)


def float_oracle(domain, F, gens, level):
    """C over the whole jet space by numpy least squares: min over u of
    sum w_a |F_a + (P u)_a|^2, P the product rows, subject to
    F_a + (P u)_a = 0 where w_a is infinite."""
    idx = indices_up_to(domain.n, level - 1)
    P = np.array(product_rows(gens, level, idx), dtype=complex).reshape(-1, len(idx)).T
    f = np.array(F.truncate(level - 1).vector(idx), dtype=complex)
    w = np.array([domain.norm_float(a) for a in idx])
    inf = np.isinf(w)
    if inf.any():
        A = P[inf]
        u0 = np.linalg.lstsq(A, -f[inf], rcond=None)[0]
        if np.linalg.norm(f[inf] + A @ u0) > 1e-10 * np.linalg.norm(f):
            return math.inf
        f = f + P @ u0
        _, s, vh = np.linalg.svd(A)
        rank = int((s > 1e-10 * s[0]).sum()) if s.size else 0
        P = P @ vh[rank:].conj().T
    r = np.sqrt(w[~inf]) * f[~inf]
    if P.shape[1]:
        B = np.sqrt(w[~inf])[:, None] * P[~inf]
        r = r + B @ np.linalg.lstsq(B, -r, rcond=None)[0]
    return float(np.vdot(r, r).real)


def _domain(rng, kind, n, exact):
    radii = [rng.choice((Fraction(1, 2), 1, 2)) for _ in range(n)]
    if kind == "ball":
        return DiagonalDomain.ball(n, radii[0], exact=exact)
    dom = DiagonalDomain.polydisc(radii, exact=exact)
    if kind == "weighted":
        a = tuple([1] + [rng.randint(0, 1) for _ in range(n - 1)])
        return dom.with_weight(ToricWeight(a), 1)
    return dom


def _coeff(rng, exact):
    if exact:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        return QQi(c, rng.randint(-2, 2)) if rng.random() < 0.5 else c
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _instance(rng, kind, exact):
    n = rng.randint(2 if kind == "ball" else 1, 3)
    level = rng.randint(2, 5)
    idx = indices_up_to(n, level - 1)
    gens = [
        Jet(n, level - 1, {rng.choice(idx[1:]): _coeff(rng, exact) for _ in range(rng.randint(1, 3))})
        for _ in range(rng.randint(1, 2))
    ]
    domain = _domain(rng, kind, n, exact)
    # terms on the integrable slots (on every slot now and then), plus a
    # multiple of a generator, which may touch the others
    slots = [a for a in idx if domain.finite(a)]
    if not slots or rng.random() < 0.3:
        slots = idx
    terms = {rng.choice(slots): _coeff(rng, exact) for _ in range(rng.randint(1, 3))}
    F = Jet(n, level - 1, terms).add(gens[0].scale(_coeff(rng, exact)))
    return domain, F, gens, level


def _check_exact(domain, F, gens, level):
    J = jet_ideal(IdealPresentation(domain.n, gens), level)
    c, b = both_routes(domain, F, J)
    value, minimizer = exact_oracle(domain, F, gens, level)
    assert c.value == value and b.value == value, (c.value, b.value, value)
    assert c.minimizer == minimizer
    return c.diagnostics


def _check_float(domain, F, gens, level):
    J = jet_ideal(IdealPresentation(domain.n, gens), level)
    c, b = both_routes(domain, F, J)
    want = float_oracle(domain, F, gens, level)
    for res in (c, b):
        ok, gap = routes_agree(want, res.value)
        assert ok and gap <= ROUTES_RTOL, (res.value, want)
    return c.diagnostics


class TestUnsplitOracle:
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("kind", ["polydisc", "ball", "weighted"])
    def test_routes_match_unsplit_oracle(self, kind, exact):
        rng = random.Random(f"unsplit-{kind}-{exact}")
        seen = []
        for _ in range(30):
            instance = _instance(rng, kind, exact)
            diag = (_check_exact if exact else _check_float)(*instance)
            seen.append(diag)
        solved = [d for d in seen if d["outcome"] == "solved"]
        assert len(solved) >= 4
        # the split left blocks out of some solves
        assert any(d["solved_indices"] < d["indices"] for d in solved)
        if kind == "weighted":
            assert any(d["infinite_slots"] for d in solved)
            assert any(d["outcome"] in ("infeasible", "unbounded") for d in seen)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("kind", ["polydisc", "ball", "weighted"])
    def test_blocks_inside_the_span_match_unsplit_oracle(self, kind, exact):
        # F holds multiples of product rows besides its terms: Gaussian
        # coefficients half the time in exact mode, and on the weighted
        # domains non-integrable slots, with infeasible and unbounded
        # outcomes among instances whose skipped blocks hold some of F
        rng = random.Random(f"inside-{kind}-{exact}")
        seen = []
        for _ in range(30):
            instance = _instance_with_span_part(rng, kind, exact)
            diag = (_check_exact if exact else _check_float)(*instance)
            seen.append((diag, _touched_indices(*instance[2:], instance[1])))
        skipped = [d for d, touched in seen if d["solved_indices"] < touched]
        assert any(d["outcome"] == "solved" for d in skipped)
        assert any(d["outcome"] == "contained" and d["solved_indices"] == 0 for d, _ in seen)
        if kind == "weighted":
            assert any(d["outcome"] == "infeasible" for d in skipped)
            assert any(d["infinite_slots"] and d["outcome"] == "solved" for d in skipped)

    @settings(max_examples=60, deadline=None)
    @given(presentations(), st.data())
    def test_outside_blocks_match_the_reference(self, presentation, data):
        # F is a combination of product rows plus a few terms; a block is
        # outside exactly when F's part there raises the rank of the block's
        # product rows, and the routes on the blocks outside give the
        # unsplit oracle's value and minimizer, on a plain and on a weighted
        # bidisc or tridisc
        n, level, gens = presentation
        try:
            J = jet_ideal(IdealPresentation(n, gens), level)
        except ValueError:  # every generator drawn zero
            return
        idx = list(J.indices)
        coefficient = st.builds(QQi, st.integers(-2, 2), st.integers(-2, 2))
        F = Jet(n, level - 1, data.draw(
            st.dictionaries(st.sampled_from(idx), coefficient, max_size=2)))
        for g, beta, c in data.draw(st.lists(st.tuples(
                st.sampled_from(gens), st.sampled_from(idx), coefficient), max_size=3)):
            F = F.add(jet_multiply(g, Jet.monomial(n, beta), level - 1).scale(c))
        rows = product_rows(gens, level, idx)
        want = []
        for k, b in enumerate(J.blocks):
            cols = [idx.index(a) for a in b.indices]
            block_rows = [[row[c] for c in cols] for row in rows if any(row[c] for c in cols)]
            part = F.vector(b.indices)
            rank = len(gauss_jordan(block_rows, len(cols))[1])
            if any(part) and len(gauss_jordan(block_rows + [part], len(cols))[1]) > rank:
                want.append(k)
        assert ideals.outside_blocks(J, F, J.exact) == tuple(want)
        assert ideals.contains(J, F) == (not want)
        domain = DiagonalDomain.polydisc([1, 2, Fraction(1, 2)][:n])
        if data.draw(st.booleans()):
            domain = domain.with_weight(ToricWeight((1,) + (0,) * (n - 1)), 1)
        diag = _check_exact(domain, F, gens, level)
        assert diag["solved_indices"] == sum(len(J.blocks[k].indices) for k in want)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_block_of_F_inside_the_span(self, exact):
        # <z1 - c z2^2> at level 3: z1^2 is a block of its own, all of it in
        # the span, and F touches it beside two blocks with annihilators
        c = QQi(2, -1) if exact else 2 - 1j
        g = Jet(2, 2, {(1, 0): 1, (0, 2): -c})
        F = Jet(2, 2, {(2, 0): 3, (0, 1): 1, (1, 0): QQi(1, 1) if exact else 1 + 1j})
        domain = DiagonalDomain.polydisc([1, 2], exact=exact)
        J = jet_ideal(IdealPresentation(2, [g]), 3)
        block = next(b for b in J.blocks if (2, 0) in b.indices)
        assert block.indices == [(2, 0)] and len(block.rows) == 1 and len(block.null) == 0
        diag = (_check_exact if exact else _check_float)(domain, F, [g], 3)
        # the routes solve on the two blocks outside the span only
        assert diag["outcome"] == "solved" and diag["solved_indices"] == 3

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_non_integrable_slots_in_F_block(self, exact):
        # with the weight |z1|^-2, z^alpha is not integrable when alpha_1 = 0:
        # the competitor must vanish on z2^2, which shares z1's block
        c = QQi(1, 1) if exact else 1 + 1j
        g = Jet(2, 2, {(1, 0): 1, (0, 2): -c})
        domain = DiagonalDomain.polydisc([1, 1], exact=exact).with_weight(ToricWeight((1, 0)), 1)
        check = _check_exact if exact else _check_float
        F = Jet(2, 2, {(0, 2): 1, (1, 1): 2})
        diag = check(domain, F, [g], 3)
        assert diag["outcome"] == "solved" and diag["infinite_slots"] == 1
        # z2 is a block of its own, outside the span, and not integrable
        assert check(domain, F.add(Jet(2, 1, {(0, 1): 1})), [g], 3)["outcome"] == "infeasible"


def _instance_with_span_part(rng, kind, exact):
    """An instance of :func:`_instance` whose F also holds a multiple of a
    few product rows g * z^beta: on the blocks that only those touch, F
    lies in the span, and the routes skip them."""
    domain, F, gens, level = _instance(rng, kind, exact)
    idx = indices_up_to(domain.n, level - 1)
    for _ in range(rng.randint(1, 3)):
        row = jet_multiply(rng.choice(gens), Jet.monomial(domain.n, rng.choice(idx)), level - 1)
        F = F.add(row.scale(_coeff(rng, exact)))
    return domain, F, gens, level


def _touched_indices(gens, level, F):
    """The number of indices in the blocks that F's degree < level jet
    touches."""
    J = jet_ideal(IdealPresentation(gens[0].n, gens), level)
    support = F.truncate(level - 1).coeffs
    return sum(len(b.indices) for b in J.blocks if any(a in support for a in b.indices))


CI_GENERATOR = Jet(2, 2, {(1, 0): 1, (0, 2): QQi(-2, 1)})


class TestBlockStructure:
    def test_ci_ideal_at_level_31(self):
        # <z1 - (2 - i) z2^2> on the bidisc of radii (1, 2), as the CI ladder
        # spec: 496 indices in 61 blocks of at most 16
        level = 31
        J = jet_ideal(IdealPresentation(2, [CI_GENERATOR]), level)
        assert (len(J.indices), len(J.blocks), J.largest_block) == (496, 61, 16)
        domain = DiagonalDomain.polydisc([1, 2])
        F = Jet(2, level - 1, {(1, 0): 1, (0, 1): QQi(Fraction(1, 2), -1)})
        c, b = both_routes(domain, F, J)
        assert c.value == b.value
        assert (c.diagnostics["blocks"], c.diagnostics["largest_block"]) == (61, 16)
        value, minimizer = exact_oracle(domain, F, [CI_GENERATOR], level)
        assert c.value == value and c.minimizer == minimizer

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_one_variable_monomials_are_singletons(self, exact):
        # the one-variable rungs of the benchmark ladder: generators c z^2
        # and c z^3
        for level in range(3, 9):
            gens = [Jet(1, 2, {(2,): 3}), Jet(1, 3, {(3,): QQi(1, -2)})]
            if not exact:
                gens = [g.to_float() for g in gens]
            J = jet_ideal(IdealPresentation(1, gens), level)
            assert (len(J.blocks), J.largest_block) == (level, 1)
            assert J.span_dim == level - 2

    @settings(max_examples=60, deadline=None)
    @given(presentations(), st.booleans())
    def test_blocks_partition_the_rows(self, presentation, as_float):
        n, level, gens = presentation
        if as_float:
            gens = [g.to_float() for g in gens]
        try:
            J = jet_ideal(IdealPresentation(n, gens), level)
        except ValueError:  # every generator drawn zero
            return
        # no generator has a constant term, so the constant slot is a block
        # of its own, touched by no row and outside the span
        zero = (0,) * n
        assert J.blocks[0].indices == [zero]
        assert len(J.blocks[0].rows) == 0 and len(J.blocks[0].null) == 1
        # the blocks partition the jet space, and each product row lies in one
        where = {a: k for k, b in enumerate(J.blocks) for a in b.indices}
        assert sorted(where) == sorted(J.indices)
        for row in product_rows(gens, level, J.indices):
            assert len({where[a] for a, x in zip(J.indices, row) if x}) == 1
        assert J.span_dim + sum(len(b.null) for b in J.blocks) == len(J.indices)


# an m-primary ideal: every block of degree >= 3 lies in the span
M_PRIMARY = [
    Jet(2, 2, {(2, 0): 1, (0, 2): -2, (1, 1): QQi(1, 1)}),
    Jet(2, 3, {(3, 0): 3, (1, 2): 1, (0, 3): -1}),
]
M_PRIMARY_F = Jet(2, 30, {
    (0, 0): 1, (1, 0): 2, (0, 1): QQi(0, 1), (1, 1): 3, (2, 3): 1, (7, 9): 1, (20, 10): 2,
})


class TestSolveOutsideTheSpan:
    """The routes solve only on F's blocks outside the span: on an
    m-primary ideal F's high-degree blocks are skipped."""

    domain = DiagonalDomain.polydisc([1, 2])

    def test_m_primary_ladder(self):
        gens = IdealPresentation(2, M_PRIMARY)
        lad = krull_ladder(self.domain, M_PRIMARY_F, gens, range(2, 32))
        assert [r.k for r in lad.rows] == list(range(2, 32))
        steps = {2: Fraction(20), 3: Fraction(3760, 71)}
        for r in lad.rows:
            assert r.c_value == r.b_value == PiValue(_ladder_value(steps, r.k), 2)

    @pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
    def test_m_primary_rungs_match_unsplit_oracle(self, level):
        diag = _check_exact(self.domain, M_PRIMARY_F, M_PRIMARY, level)
        assert diag["outcome"] == "solved"

    def test_m_primary_solves_few_of_Fs_blocks(self):
        # the generators are homogeneous, so each degree >= 2 is a block,
        # and a monomial of lower degree one of its own; F touches degrees
        # 0, 1, 2, 5, 16 and 30, 60 indices, and lies outside the span on
        # degrees 0, 1 and 2 only
        J = jet_ideal(IdealPresentation(2, M_PRIMARY), 31)
        assert _touched_indices(M_PRIMARY, 31, M_PRIMARY_F) == 60
        outside = ideals.outside_blocks(J, M_PRIMARY_F, True)
        assert [len(J.blocks[k].indices) for k in outside] == [1, 1, 1, 3]
        c, b = both_routes(self.domain, M_PRIMARY_F, J)
        sizes = {k: c.diagnostics[k] for k in (
            "indices", "blocks", "solved_indices", "solved_span_dim", "solved_annihilator_dim",
            "finite_slots", "system_dim",
        )}
        assert sizes == {
            "indices": 496, "blocks": 32, "solved_indices": 6, "solved_span_dim": 1,
            "solved_annihilator_dim": 5, "finite_slots": 6, "system_dim": 1,
        }
        assert b.diagnostics["system_dim"] == 5
        assert c.value == b.value == PiValue(Fraction(3760, 71), 2)
        # the minimizer lives on the solved blocks
        assert all(sum(a) <= 2 for a in c.minimizer.coeffs)

    def test_float_verdict_is_against_Fs_largest_coefficient(self):
        # <z^2> at level 3: 1, z and z^2 are blocks of their own, and 1 and
        # z lie outside the span.  A pairing of 1e-12 is outside beside a
        # coefficient of 1e-12 and inside beside one of 1, so membership
        # does not change when F is rescaled, and the routes skip z there
        J = jet_ideal(IdealPresentation(1, [Jet(1, 2, {(2,): 1.0})]), 3)
        assert ideals.outside_blocks(J, Jet(1, 2, {(1,): 1e-12}), False) == (1,)
        assert ideals.contains(J, Jet(1, 2, {(1,): 1e-12, (2,): 1.0}))
        F = Jet(1, 2, {(0,): 1.0, (1,): 1e-12, (2,): 5.0})
        assert ideals.outside_blocks(J, F, False) == (0,)
        c, b = both_routes(DiagonalDomain.polydisc([1], exact=False), F, J)
        for res in (c, b):
            assert res.value == pytest.approx(math.pi, rel=1e-15)
        assert c.diagnostics["solved_indices"] == 1

    def test_contained_reports_no_block(self):
        # F on the span's blocks only: contained, with nothing solved
        J = jet_ideal(IdealPresentation(2, M_PRIMARY), 31)
        F = Jet(2, 30, {(2, 3): 1, (7, 9): 1, (20, 10): 2})
        c, b = both_routes(self.domain, F, J)
        assert c.value == b.value == PiValue(Fraction(0), 2)
        for res in (c, b):
            assert res.diagnostics["outcome"] == "contained"
            assert res.diagnostics["backend"] == "exact"
            assert res.diagnostics["solved_indices"] == res.diagnostics["finite_slots"] == 0
        float_c, _ = both_routes(DiagonalDomain.polydisc([1, 2], exact=False), F, J)
        assert float_c.diagnostics["backend"] == "float" and float_c.value == 0.0


def _ladder_value(steps, k):
    """The value of a ladder whose rungs change at the keys of ``steps``."""
    return steps[max(s for s in steps if s <= k)]


class TestLazyElimination:
    """A block is eliminated when first read: the routes read F's blocks,
    and a reader of the whole ideal the rest, once."""

    CI_F = Jet(2, 30, {(1, 0): 1, (0, 1): QQi(Fraction(1, 2), -1)})

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        eliminate = ideals._eliminate

        def counted(rows, m, exact):
            calls.append(m)
            return eliminate(rows, m, exact)

        monkeypatch.setattr(ideals, "_eliminate", counted)
        return calls

    def test_routes_then_whole_reads_on_the_ci_ideal(self, eliminations):
        J = jet_ideal(IdealPresentation(2, [CI_GENERATOR]), 31)
        assert eliminations == []
        c, b = both_routes(DiagonalDomain.polydisc([1, 2]), self.CI_F, J)
        # F touches {z1, z2^2}, spanned by the generator itself, and {z2}
        assert sorted(eliminations) == [1, 2] and c.value == b.value
        sizes = {k: c.diagnostics[k] for k in (
            "indices", "blocks", "largest_block", "solved_indices", "solved_span_dim",
            "solved_annihilator_dim",
        )}
        assert sizes == {
            "indices": 496, "blocks": 61, "largest_block": 16, "solved_indices": 3,
            "solved_span_dim": 1, "solved_annihilator_dim": 2,
        }
        assert b.diagnostics == c.diagnostics | {"system_dim": b.diagnostics["system_dim"]}
        J.rows
        assert len(eliminations) == 61
        J.null, J.float_view, J.span_dim, J.basis_jets(), ideals.annihilator(J)
        assert ideals.contains(J, CI_GENERATOR) and not ideals.contains(J, self.CI_F)
        assert len(eliminations) == 61

    def test_membership_and_density_read_only_the_jets_blocks(self, eliminations):
        gens = IdealPresentation(2, [CI_GENERATOR])
        J = jet_ideal(gens, 31)
        # g and z2 g: two blocks of two monomials each, both read
        member = CI_GENERATOR.add(jet_multiply(CI_GENERATOR, Jet.monomial(2, (0, 1)), 30))
        assert ideals.contains(J, member)
        assert eliminations == [2, 2]
        # F is outside the span on the block of g; the block of z2 is its other
        assert not ideals.contains(J, self.CI_F)
        assert eliminations in ([2, 2], [2, 2, 1])
        # membership assembles no problem record, and keeps nothing
        assert J._record is None
        # z2 is a block of its own, with no rows: orthogonal to the span
        F = Jet(2, 1, {(0, 1): 1})
        eliminations.clear()
        ((k, distance),) = density_sequence(DiagonalDomain.polydisc([1, 2]), F, gens, [31])
        assert eliminations == [1] and (k, distance) == (31, 0.0)

    def test_only_the_last_restriction_is_held(self):
        # 100 float F of 20 terms each on one ideal: it keeps one problem
        # record, with its restriction, not one per F, which held about 52 MB
        # over these calls
        J = jet_ideal(IdealPresentation(2, [CI_GENERATOR]), 31)
        domain = DiagonalDomain.polydisc([1, 2], exact=False)
        rng, idx = random.Random(0), indices_up_to(2, 30)
        tracemalloc.start()
        try:
            for _ in range(100):
                coeffs = {a: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for a in rng.sample(idx, 20)}
                F = Jet(2, 30, coeffs)
                minimal_l2(domain, F, J)
                assert J._record[0] is domain and J._record[1] is F
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 16e6
        # the kernel-ratio route on the same F reads the record kept, whose
        # restriction is the one on F's blocks outside the span
        kept = J._record
        b_circle(domain, F, J)
        outside = ideals.outside_blocks(J, F, False)
        assert J._record is kept
        assert kept[2].J.blocks == [J.blocks[k] for k in outside]

    @pytest.mark.parametrize("F, steps", [
        (CI_F, {2: Fraction(10), 3: Fraction(1950, 163)}),
        (Jet(2, 11, {(3, 1): 1, (0, 5): 2, (2, 9): 1}),
         {2: Fraction(0), 6: Fraction(8192, 19523), 8: Fraction(24265490432, 10185559083),
          14: Fraction(45530813893348488249344, 19097437317079467537261)}),
    ], ids=["ci", "three-terms"])
    def test_ci_ladder_values(self, F, steps):
        # every rung k = 2..31 on the bidisc of radii (1, 2), with the values
        # that eliminating every block of each level gave
        gens = IdealPresentation(2, [CI_GENERATOR])
        lad = krull_ladder(DiagonalDomain.polydisc([1, 2]), F, gens, range(2, 32))
        assert [r.k for r in lad.rows] == list(range(2, 32))
        for r in lad.rows:
            assert r.c_value == r.b_value == PiValue(_ladder_value(steps, r.k), 2)
