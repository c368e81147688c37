"""Riesz representatives, kernels, projections, and their duality.

Independent oracles: weighted least squares through numpy's lstsq on
Cholesky-scaled coordinates, never the package's own solvers.
"""

import gc
import inspect
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from berglab import bergman
from berglab.bergman import (
    ROUTES_RTOL,
    b_circle,
    density_sequence,
    exhaustion_limit,
    kernel_at_origin,
    krull_ladder,
    minimal_l2,
    riesz_representative,
    routes_agree,
    triangular_basis,
)
from berglab.domains import (
    DiagonalDomain,
    ExhaustionSequence,
    ToricWeight,
    moment_matrix,
    TruncatedWeight,
    sublevel_domain,
)
from berglab.errors import (
    BerglabError,
    DimensionMismatchError,
    QuadratureError,
    ZeroFunctionalError,
)
from berglab.exactnum import PiValue, QQi, abs2_s, value_float
from berglab.ideals import IdealPresentation, annihilator, jet_ideal
from berglab.indices import degree, indices_up_to, order_key
from berglab.jets import Functional, Jet, jet_multiply, pair
from berglab.linalg import to_ring
from reference_linalg import gauss_jordan, null_space


def _product_columns(gens, J):
    """The products g * z^beta truncated below J's level, for every generator
    g and every beta of degree < level, as the columns of a complex matrix
    over J.indices: they span the jet ideal, dependent ones included."""
    return np.array([
        [complex(x) for x in jet_multiply(g, Jet.monomial(J.n, beta), J.level - 1).vector(J.indices)]
        for g in gens.generators
        for beta in J.indices
    ]).reshape(-1, len(J.indices)).T


def oracle_minimal_l2_diagonal(domain, F, gens, J):
    """Weighted least squares over the ideal span, via numpy lstsq."""
    idx = J.indices
    w = np.array([domain.norm_float(a) for a in idx])
    assert np.all(np.isfinite(w)), "oracle only covers finite-norm instances"
    f = np.array([complex(c) for c in F.truncate(J.level - 1).to_float().vector(idx)])
    B = _product_columns(gens, J)
    s = np.sqrt(w)
    u, *_ = np.linalg.lstsq(B * s[:, None], -f * s, rcond=None)
    res = f + B @ u
    return float(np.sum(np.abs(res) ** 2 * w))


def oracle_minimal_l2_moment(dom, F, gens, J):
    """Moment-domain oracle: Cholesky-scale the quadratic form, lstsq."""
    idx = dom.indices
    f = np.zeros(len(idx), dtype=complex)
    for a, c in F.truncate(J.level - 1).coeffs.items():
        f[idx.index(a)] = complex(c)
    P = _product_columns(gens, J)
    cols = [np.concatenate([P[:, j], np.zeros(len(idx) - len(J.indices))]) for j in range(P.shape[1])]
    for i, a in enumerate(idx):
        if degree(a) >= J.level:
            e = np.zeros(len(idx), dtype=complex)
            e[i] = 1
            cols.append(e)
    C = np.linalg.cholesky(dom.matrix)
    # h(x, x) = || C^T x ||^2
    if cols:
        B = np.array(cols).T
        u, *_ = np.linalg.lstsq(C.T @ B, -C.T @ f, rcond=None)
        res = f + B @ u
    else:
        res = f
    return float(np.linalg.norm(C.T @ res) ** 2)


class TestRiesz:
    def test_disc_delta0(self):
        disc = DiagonalDomain.disc(1)
        t = riesz_representative(disc, Functional.delta(1, (0,)))
        # reduced coefficient 1 with implicit pi^-1: the function 1/pi
        assert t.coefficient((0,)) == 1
        tf = riesz_representative(
            DiagonalDomain.disc(1, exact=False), Functional.delta(1, (0,))
        )
        assert tf.coefficient((0,)) == pytest.approx(1 / math.pi)

    def test_disc_delta1(self):
        tf = riesz_representative(
            DiagonalDomain.disc(1, exact=False), Functional.delta(1, (1,))
        )
        assert tf.coefficient((1,)) == pytest.approx(2 / math.pi)

    def test_conjugate_linearity(self):
        disc = DiagonalDomain.disc(1, exact=False)
        xi = Functional(1, {(0,): 1 + 2j, (1,): -1j})
        t = riesz_representative(disc, xi)
        t2 = riesz_representative(disc, xi.scale(1j))
        for a in t.coeffs:
            assert t2.coefficient(a) == pytest.approx(t.coefficient(a) * (-1j))

    def test_reproducing_property_moment(self):
        dom = moment_matrix(
            {"kind": "offcenter_disc", "center": [0.2, -0.1], "radius": 0.9}, 3
        )
        xi = Functional(1, {(0,): 1, (2,): 1 - 1j})
        t = riesz_representative(dom, xi)
        tv = np.array([complex(t.coeffs.get(a, 0)) for a in dom.indices])
        for i, alpha in enumerate(dom.indices):
            e = np.zeros(len(dom.indices), dtype=complex)
            e[i] = 1
            got = e @ dom.matrix @ np.conj(tv)
            want = complex(xi.entries.get(alpha, 0))
            assert got == pytest.approx(want, abs=1e-10)

    def test_non_integrable_slots_add_nothing(self):
        # on the unit disc weighted by |z|^-2 the constant is not
        # square-integrable: T and K sum over the integrable slots only
        wdisc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        delta0 = Functional.delta(1, (0,))
        assert riesz_representative(wdisc, delta0).is_zero()
        assert kernel_at_origin(wdisc, delta0) == PiValue(0, -1)
        assert kernel_at_origin(wdisc, delta0.add(Functional.delta(1, (1,)))) == PiValue(1, -1)

    def test_kernel_of_a_maximizer_on_a_non_integrable_slot(self):
        # F = z1 against <z1 - z2> at level 2 on the bidisc weighted by
        # |z1|^-2: b_circle's maximizer is proportional to delta_z1 + delta_z2,
        # and z2 is not square-integrable.  B = pi^2 = |xi(F)|^2 / K_xi
        bidisc = DiagonalDomain.polydisc([1, 1]).with_weight(ToricWeight((1, 0)), 1)
        J = jet_ideal(IdealPresentation(2, [Jet(2, 1, {(1, 0): 1, (0, 1): -1})]), 2)
        F = Jet(2, 1, {(1, 0): 1})
        res = b_circle(bidisc, F, J)
        assert res.value == PiValue(1, 2)
        xi = res.maximizer.entries
        assert set(xi) == {(1, 0), (0, 1)} and xi[(1, 0)] == xi[(0, 1)]
        assert not bidisc.finite((0, 1))
        K = kernel_at_origin(bidisc, res.maximizer)
        assert PiValue(abs2_s(pair(res.maximizer, F)) / K.coeff, -K.pi_power) == res.value

    def test_zero_rejected(self):
        with pytest.raises(ZeroFunctionalError):
            riesz_representative(DiagonalDomain.disc(1), Functional(1, {}))


class TestKernel:
    def test_disc_values(self):
        disc = DiagonalDomain.disc(1)
        assert kernel_at_origin(disc, Functional.delta(1, (0,))) == PiValue(
            Fraction(1), -1
        )
        K = kernel_at_origin(disc, Functional(1, {(0,): 1, (1,): 1}))
        assert K == PiValue(Fraction(3), -1)  # 1/pi + 2/pi

    def test_weighted_disc(self):
        wdisc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        K = kernel_at_origin(wdisc, Functional.delta(1, (1,)))
        assert K == PiValue(Fraction(1), -1)  # c_1 = pi

    def test_parseval(self):
        dom = moment_matrix(
            {"kind": "offcenter_disc", "center": [0.25, 0.1], "radius": 0.8}, 4
        )
        tb = triangular_basis(dom, 4)
        xi = Functional(1, {(0,): 1, (1,): 0.5 - 0.25j, (3,): 2})
        K = kernel_at_origin(dom, xi)
        acc = sum(
            abs(pair(xi, tb.sigma(j))) ** 2 for j in range(len(tb.included))
        )
        assert K == pytest.approx(acc, rel=1e-9)

    @pytest.mark.parametrize(
        "domain",
        [
            DiagonalDomain.polydisc([1, 2]),
            DiagonalDomain.ball(2, Fraction(3, 2)),
            DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), Fraction(1, 2)),
            DiagonalDomain.polydisc([0.7, 1.3], exact=False),
        ],
        ids=["exact-bidisc", "exact-ball", "weighted-disc", "float-polydisc"],
    )
    @pytest.mark.parametrize("kind", ["int", "fraction", "qqi", "complex"])
    def test_matches_norm_sum(self, domain, kind):
        """K_xi against sum |c_alpha|^2 / ||z^alpha||^2, the norms read from
        ``domain.norm`` (exact values carry an implicit pi**n)."""
        rng = random.Random(f"{domain!r}{kind}")
        draw = {
            "int": lambda: rng.choice([-3, -2, -1, 1, 2, 4]),
            "fraction": lambda: Fraction(rng.randint(1, 9), rng.randint(2, 7)),
            "qqi": lambda: QQi(Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(1, 5), 2)),
            "complex": lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        }[kind]
        idx = rng.sample(indices_up_to(domain.n, 3), 3)
        xi = Functional(domain.n, {a: draw() for a in idx})

        def abs2(c):
            return c.real**2 + c.imag**2

        K = kernel_at_origin(domain, xi)
        if domain.exact and kind != "complex":
            want = sum(
                (Fraction(abs2(c)) / domain.norm(a) for a, c in xi.entries.items()),
                Fraction(0),
            )
            assert K == PiValue(want, -domain.n)
        else:
            want = sum(
                float(abs2(c)) / (float(domain.norm(a)) * math.pi**domain.pi_power)
                for a, c in xi.entries.items()
            )
            assert K == pytest.approx(want, rel=1e-15)

    def test_underflowing_norm_raises(self):
        # {log|z|^2 < -800}: a disc of radius e^-400, ||1||^2 = pi e^-800 = 0.0
        sub = sublevel_domain(DiagonalDomain.disc(1, exact=False), ToricWeight((1,)), 800)
        with pytest.raises(QuadratureError):
            kernel_at_origin(sub, Functional.delta(1, (0,)))


class TestTriangularBasis:
    def test_disc_golden(self):
        disc = DiagonalDomain.disc(1)
        tb = triangular_basis(disc, 2)
        for k in range(3):
            sigma = tb.sigma(k)
            assert sigma.coefficient((k,)) == pytest.approx(
                math.sqrt((k + 1) / math.pi)
            )
            assert tb.functionals[k].entries[(k,)] == pytest.approx(
                math.sqrt(math.pi / (k + 1))
            )

    def test_weighted_disc_omits_divergent(self):
        wdisc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        tb = triangular_basis(wdisc, 2)
        assert tb.included == [(1,), (2,)]

    @pytest.mark.parametrize(
        "desc",
        [
            {"kind": "offcenter_disc", "center": [0.2, -0.1], "radius": 0.9},
            {"kind": "two_point_disc", "c": [0.3, 0.2], "r": 1.2},
            {"kind": "radial", "base": 1.0, "harmonics": [[1, 0.05, 0.02], [3, -0.04, 0.06]]},
            {"kind": "polydisc", "radii": [0.7, 1.3]},
            {"kind": "ball", "n": 3, "radius": 1.1},
        ],
        ids=lambda d: d["kind"],
    )
    def test_moment_coefficients_exactly_triangular(self, desc):
        # sigma_j has no Taylor coefficient before its own index: exactly 0,
        # not a rounding residue
        dom = moment_matrix(desc, 4)
        S = triangular_basis(dom, 4).coeff_matrix
        assert np.all(np.triu(S, 1) == 0)
        assert np.all(np.diag(S) != 0)

    def test_moment_properties(self):
        rng = random.Random(5)
        for _ in range(3):
            dom = moment_matrix(
                {
                    "kind": "offcenter_disc",
                    "center": [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)],
                    "radius": rng.uniform(0.6, 1.0),
                },
                4,
            )
            tb = triangular_basis(dom, 4)
            m = len(tb.indices)
            S = tb.coeff_matrix
            G = S.T @ dom.matrix @ np.conj(S)
            assert np.max(np.abs(G - np.eye(m))) < 1e-10
            for j, alpha in enumerate(tb.included):
                # riesz representative of the paired functional is sigma
                t = riesz_representative(dom, tb.functionals[j])
                tv = np.array(
                    [complex(t.coeffs.get(a, 0)) for a in tb.indices]
                )
                assert np.max(np.abs(tv - S[:, j])) < 1e-10
                # top support index of the functional is alpha
                assert max(tb.functionals[j].entries, key=order_key) == alpha
                # first nonvanishing coefficient of sigma sits at alpha
                first = next(
                    i for i in range(m) if abs(S[i, j]) > 1e-10
                )
                assert tb.indices[first] == alpha


class TestMinimalL2:
    def test_disc_golden(self):
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        r = minimal_l2(disc, Jet(1, 1, {(1,): 1}), J)
        assert r.value == PiValue(Fraction(1, 2), 1)
        assert r.minimizer.coeffs == {(1,): Fraction(1)}

    def test_bidisc_golden(self):
        bidisc = DiagonalDomain.polydisc([1, 1])
        J = jet_ideal(IdealPresentation(2, [Jet.monomial(2, (1, 0))]), 3)
        r = minimal_l2(bidisc, Jet(2, 2, {(1, 0): 1, (0, 1): 1}), J)
        assert r.value == PiValue(Fraction(1, 2), 2)
        assert r.minimizer.coeffs == {(0, 1): Fraction(1)}

    def test_contained_gives_zero(self):
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        r = minimal_l2(disc, Jet(1, 2, {(2,): 3}), J)
        assert value_float(r.value) == 0

    def test_oracle_agreement_random_diagonal(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 2)
            level = rng.randint(2, 4)
            idx = indices_up_to(n, level - 1)
            gens = []
            for _ in range(rng.randint(1, 2)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    a = rng.choice(idx)
                    if sum(a) > 0:
                        terms[a] = rng.randint(-3, 3)
                if terms:
                    gens.append(Jet(n, level - 1, terms))
            if not gens or all(g.is_zero() for g in gens):
                continue
            try:
                gens = IdealPresentation(n, gens)
                J = jet_ideal(gens, level)
            except BerglabError:
                continue
            F = Jet(
                n,
                level - 1,
                {rng.choice(idx): rng.randint(-2, 2) for _ in range(2)},
            )
            dom = DiagonalDomain.polydisc([1] * n)
            got = value_float(minimal_l2(dom, F, J).value)
            want = oracle_minimal_l2_diagonal(dom, F, gens, J)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_oracle_agreement_moment(self):
        dom = moment_matrix(
            {"kind": "offcenter_disc", "center": [0.2, 0.1], "radius": 0.8}, 4
        )
        gens = IdealPresentation(1, [Jet(1, 2, {(2,): 1, (1,): 0.4 - 0.2j})])
        J = jet_ideal(gens, 3)
        F = Jet(1, 2, {(0,): 0.7, (1,): 1})
        got = minimal_l2(dom, F, J).value
        want = oracle_minimal_l2_moment(dom, F, gens, J)
        assert got == pytest.approx(want, rel=1e-9)

    def test_weighted_infinite(self):
        wdisc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        r = minimal_l2(wdisc, Jet(1, 1, {(0,): 1, (1,): 1}), J)
        assert value_float(r.value) == math.inf

    def test_weighted_golden(self):
        wdisc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        r = minimal_l2(wdisc, Jet(1, 1, {(1,): 1}), J)
        assert r.value == PiValue(Fraction(1), 1)  # pi

    def test_value_equals_minimizer_norm(self):
        bidisc = DiagonalDomain.polydisc([1, 1])
        J = jet_ideal(
            IdealPresentation(2, [Jet(2, 2, {(1, 0): 1, (0, 2): -1})]), 3
        )
        r = minimal_l2(bidisc, Jet(2, 2, {(1, 0): 1}), J)
        norm2 = sum(
            abs(complex(c)) ** 2 * bidisc.norm_float(a)
            for a, c in r.minimizer.coeffs.items()
        )
        assert value_float(r.value) == pytest.approx(norm2, rel=1e-12)


def _product_rows(gens, level, idx):
    """Every g * z^beta with |beta| < level, truncated below ``level``."""
    return [
        jet_multiply(g, Jet.monomial(g.n, beta), level - 1).vector(idx)
        for g in gens
        for beta in idx
    ]


class TestProjectionConditions:
    """The exact minimizer x of C against its defining conditions, checked
    on the product rows g * z^beta with plain Gauss-Jordan elimination and
    direct sums, without the package's linear algebra, the jet ideal's
    annihilator or the kernel-ratio route: x - F lies in their span, x vanishes on the
    non-integrable slots, and x is orthogonal under the weights to every
    combination of product rows that vanishes there (every product row,
    when there is no such slot)."""

    @pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["polydisc", "weighted"])
    def test_random_instances(self, gaussian, weighted):
        rng = random.Random(17 + 2 * gaussian + weighted)

        def coeff():
            if gaussian:
                return QQi(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-3, 3))
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

        solved = with_infinite = 0
        for _ in range(24):
            n, level = rng.randint(1, 3), rng.randint(3, 4)
            idx = indices_up_to(n, level - 1)
            gens = [
                Jet(n, level - 1, {rng.choice(idx[1:]): coeff() for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(1, 2))
            ]
            if all(g.is_zero() for g in gens):
                continue
            dom = DiagonalDomain.polydisc([Fraction(rng.randint(1, 3), rng.randint(1, 2))] * n)
            if weighted:
                a = [1] + [rng.randint(0, 1) for _ in range(n - 1)]
                dom = dom.with_weight(ToricWeight(tuple(a)), 1)
            try:
                J = jet_ideal(IdealPresentation(n, gens), level)
            except BerglabError:
                continue
            # terms on integrable slots, plus a multiple of a generator, which
            # may touch the others: feasible, with active constraints
            fin = [a for a in idx if dom.finite(a)]
            terms = {a: coeff() for a in rng.sample(fin, min(3, len(fin)))}
            F = Jet(n, level - 1, terms).add(gens[0].scale(coeff()))
            res = minimal_l2(dom, F, J)
            if res.diagnostics["outcome"] != "solved":
                continue
            solved += 1
            w = [dom.norm(a) for a in idx]
            finite = [i for i, wi in enumerate(w) if wi != math.inf]
            infinite = [i for i, wi in enumerate(w) if wi == math.inf]
            with_infinite += bool(infinite)
            P = _product_rows(gens, level, idx)
            x = res.minimizer.vector(idx)
            f = F.vector(idx)
            # x - F in the span: adding it to the product rows keeps the rank
            rank = len(gauss_jordan(P, len(idx))[1])
            assert len(gauss_jordan(P + [[a - b for a, b in zip(x, f)]], len(idx))[1]) == rank
            assert not any(x[i] for i in infinite)
            # the directions that keep x on the non-integrable slots at 0
            cons = [[row[i] for row in P] for i in infinite]
            directions = [
                [sum((u * row[i] for u, row in zip(z, P)), start=0) for i in finite]
                for z in null_space(cons, len(P))
            ] if infinite else [[row[i] for i in finite] for row in P]
            for d in directions:
                assert sum((x[i].conjugate() * v * w[i] for i, v in zip(finite, d)), start=0) == 0
            cval = sum((abs2_s(x[i]) * w[i] for i in finite), start=Fraction(0))
            assert res.value == PiValue(cval, n)
        assert solved >= 8
        assert with_infinite == (solved if weighted else 0)


class TestCrossBackend:
    """An exact instance run again on its exact=False domain: the float
    routes then read the exact ideal's float view, and their C and B must
    match the exact C."""

    @pytest.mark.parametrize("gaussian", [False, True], ids=["int", "gaussian"])
    @pytest.mark.parametrize("kind", ["polydisc", "ball", "weighted"])
    def test_float_routes_match_exact(self, kind, gaussian):
        rng = random.Random(f"{kind}-{gaussian}")

        def coeff():
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            return QQi(c, rng.randint(-3, 3)) if gaussian else c

        def make_domain(n, radii, a, exact):
            if kind == "ball":
                return DiagonalDomain.ball(n, radii[0], exact=exact)
            dom = DiagonalDomain.polydisc(radii, exact=exact)
            return dom.with_weight(ToricWeight(a), 1) if kind == "weighted" else dom

        outcomes = []
        for _ in range(24):
            n, level = rng.randint(2 if kind == "ball" else 1, 3), rng.randint(3, 4)
            idx = indices_up_to(n, level - 1)
            gens = [
                Jet(n, level - 1, {rng.choice(idx[1:]): coeff() for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(1, 2))
            ]
            radii = [rng.randint(1, 2) for _ in range(n)]
            a = tuple([1] + [rng.randint(0, 1) for _ in range(n - 1)])
            exact_dom = make_domain(n, radii, a, True)
            float_dom = make_domain(n, radii, a, False)
            try:
                J = jet_ideal(IdealPresentation(n, gens), level)
            except BerglabError:
                continue
            # terms on the integrable slots (on every slot now and then),
            # plus a multiple of a generator, which may touch the others
            slots = idx if rng.random() < 0.3 else [b for b in idx if exact_dom.finite(b)]
            terms = {b: coeff() for b in rng.sample(slots, min(3, len(slots)))}
            F = Jet(n, level - 1, terms).add(gens[0].scale(coeff()))
            c = minimal_l2(exact_dom, F, J)
            assert J.exact and c.diagnostics["backend"] == "exact"
            for res in (minimal_l2(float_dom, F, J), b_circle(float_dom, F, J)):
                assert res.diagnostics["backend"] == "float"
                ok, gap = routes_agree(c.value, res.value)
                assert ok and gap <= ROUTES_RTOL, (c.value, res.value)
            outcomes.append((c.diagnostics["outcome"], c.diagnostics["infinite_slots"]))
        assert sum(o == "solved" for o, _ in outcomes) >= 6
        if kind == "weighted":
            assert any(o == "solved" and inf for o, inf in outcomes)
            assert any(o == "infeasible" for o, _ in outcomes)


class TestExtremalFunctional:
    def test_disc_golden(self):
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        eta = minimal_l2(disc, Jet(1, 1, {(1,): 1}), J).eta
        # reduced entry 1/2 with implicit pi: eta_1 = pi/2
        assert eta.entries == {(1,): Fraction(1, 2)}

    def test_bidisc_golden(self):
        bidisc = DiagonalDomain.polydisc([1, 1])
        J = jet_ideal(IdealPresentation(2, [Jet.monomial(2, (1, 0))]), 3)
        eta = minimal_l2(bidisc, Jet(2, 2, {(1, 0): 1, (0, 1): 1}), J).eta
        assert eta.entries == {(0, 1): Fraction(1, 2)}  # pi^2/2

    def test_contained_gives_delta0(self):
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        eta = minimal_l2(disc, Jet(1, 2, {(2,): 1}), J).eta
        assert eta == Functional.delta(1, (0,))

    def test_postconditions(self):
        bidisc = DiagonalDomain.polydisc([1, 1])
        J = jet_ideal(
            IdealPresentation(2, [Jet(2, 2, {(1, 0): 1, (0, 2): -1})]), 4
        )
        F = Jet(2, 3, {(1, 0): 1})
        res = minimal_l2(bidisc, F, J)
        eta = res.eta
        # annihilates the span
        for s in J.basis_jets():
            assert not bool(pair(eta, s))
        # order below the level
        assert eta.order() < J.level
        # ratio |pair(eta,F)|^2 / K_eta = C, and pair(eta,F) = C
        etaf = eta.to_float()
        scale = math.pi ** res.eta_pi_power
        p = complex(pair(etaf, F)) * scale
        K = value_float(kernel_at_origin(bidisc, eta)) * scale**2
        C = value_float(res.value)
        assert p.imag == pytest.approx(0, abs=1e-12)
        assert p.real == pytest.approx(C, rel=1e-10)
        assert abs(p) ** 2 / K == pytest.approx(C, rel=1e-10)


class TestBCircle:
    def test_disc_golden(self):
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        res = b_circle(disc, Jet(1, 1, {(1,): 1}), J)
        assert res.value == PiValue(Fraction(1, 2), 1)
        # maximizer proportional to delta_1
        assert set(res.maximizer.entries) == {(1,)}

    def test_contained_gives_zero(self):
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        assert value_float(b_circle(disc, Jet(1, 2, {(2,): 1}), J).value) == 0

    def test_matches_minimal_l2_moment(self):
        dom = moment_matrix(
            {"kind": "two_point_disc", "c": [0.3, -0.2], "r": 1.2}, 4
        )
        gens = [Jet(1, 2, {(2,): 1, (1,): 0.5j})]
        J = jet_ideal(IdealPresentation(1, gens), 3)
        F = Jet(1, 2, {(0,): 1, (1,): -0.5})
        c = minimal_l2(dom, F, J).value
        res = b_circle(dom, F, J)
        assert res.value == pytest.approx(c, rel=1e-10)

    def test_sandwich_property(self):
        # every individual annihilator direction gives a ratio <= C
        bidisc = DiagonalDomain.polydisc([1, 1])
        J = jet_ideal(
            IdealPresentation(2, [Jet(2, 2, {(1, 0): 1, (0, 2): -1})]), 4
        )
        F = Jet(2, 3, {(1, 0): 1, (0, 1): 2})
        C = value_float(minimal_l2(bidisc, F, J).value)
        for xi in annihilator(J):
            p = abs(complex(pair(xi.to_float(), F)))
            if p == 0:
                continue
            K = value_float(kernel_at_origin(bidisc, xi))
            assert p**2 / K <= C * (1 + 1e-12)

    def test_weighted_unbounded_direction(self):
        wdisc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        # F touches the constant, whose annihilator direction has kernel 0
        res = b_circle(wdisc, Jet(1, 1, {(0,): 1, (1,): 1}), J)
        assert value_float(res.value) == math.inf

    def test_f_below_level_rejected(self):
        # as in minimal_l2: F must be given at least to degree level - 1
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (3,))]), 3)
        with pytest.raises(ValueError):
            b_circle(disc, Jet(1, 0, {(0,): 1}), J)


class TestProblemRecord:
    """What both routes read off the one record built per (domain, F, J)."""

    def test_contained_float_f_on_exact_domain_gives_float_zero(self):
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 3)
        F = Jet(1, 2, {(2,): 1.5})
        c, b = minimal_l2(disc, F, J), b_circle(disc, F, J)
        assert type(c.value) is float and c.value == 0.0
        assert type(b.value) is float and b.value == 0.0
        assert c.eta_pi_power == 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DiagonalDomain.polydisc([Fraction(1, 2), Fraction(3, 2)]),
            lambda: DiagonalDomain.ball(2, Fraction(3, 2)),
            lambda: DiagonalDomain.polydisc([1, Fraction(2, 3)]).with_weight(
                ToricWeight((Fraction(3, 2), 1)), 1),
        ],
        ids=["polydisc", "ball", "weighted"],
    )
    def test_exact_record_holds_cleared_inputs(self, make):
        # F's vector, the finite weights and their reciprocals, each as
        # to_ring clears the Fraction / QQi vector: the same ring integers,
        # of the same types, over the same denominators
        g = Jet(2, 2, {(1, 0): 1, (0, 2): QQi(-2, 1)})
        J = jet_ideal(IdealPresentation(2, [g]), 5)
        F = Jet(2, 4, {(0, 0): QQi(1, 2), (1, 0): 1, (0, 1): QQi(Fraction(1, 2), -1),
                       (2, 1): Fraction(3, 4), (1, 3): QQi(0, 5)})
        domain = make()
        prob = bergman._Problem(domain, F, J)
        assert prob.backend == "exact" and not prob.contained
        norms = [domain.norm(a) for a in prob.indices]
        assert [i for i, w in enumerate(norms) if w != math.inf] == prob.finite
        w = [norms[i] for i in prob.finite]
        want = to_ring([F.vector(prob.indices), w, [1 / x for x in w]])
        (w, w_den), (k, k_den) = prob.cleared_weights, prob.cleared_kernel_weights
        got = [prob.f, w, k], [prob.f_den, w_den, k_den]

        def typed(rows):
            return [[(type(x), x.real, x.imag) for x in row] for row in rows]

        assert typed(got[0]) == typed(want[0]) and got[1] == want[1]
        assert any(type(x) is QQi for x in prob.f)
        if domain.weight_exponents[0]:
            assert prob.infinite
        # and both routes read them: C = B
        assert minimal_l2(domain, F, J).value == b_circle(domain, F, J).value

    def test_domain_dimension_checked(self):
        # on a moment domain a jet of another dimension used to read as zero
        mom = moment_matrix({"kind": "polydisc", "radii": [1.0, 1.0]}, 3)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        for route in (minimal_l2, b_circle):
            with pytest.raises(DimensionMismatchError):
                route(mom, Jet(1, 1, {(1,): 1}), J)

    def test_record_built_from_domain_f_and_ideal_alone(self):
        # one constructor, of (domain, F, J): no function hands it fields in
        # order, and the record keeps the jet ideal the routes solve on and
        # the given one's sizes, not the given one
        assert list(inspect.signature(bergman._Problem).parameters) == ["domain", "F", "J"]
        assert not hasattr(bergman, "_problem")
        J = jet_ideal(IdealPresentation(2, [Jet(2, 2, {(1, 0): 1, (0, 2): -2})]), 4)
        F = Jet(2, 3, {(0, 1): 1, (1, 1): 3})
        mom = moment_matrix({"kind": "polydisc", "radii": [1.0, 1.0]}, 3)
        sizes = {"indices": len(J.indices), "blocks": len(J.blocks),
                 "largest_block": J.largest_block}
        for domain in (DiagonalDomain.polydisc([1, 2]),
                       DiagonalDomain.polydisc([1, 2], exact=False), mom):
            prob = bergman._Problem(domain, F, J)
            assert not hasattr(prob, "ideal")
            assert prob.sizes == sizes and not prob.contained
            assert (prob.J is J) == (domain is mom)

    # the bidisc of radii (1, r) by backend
    SLOT_DOMAINS = {
        "exact": lambda r=2: DiagonalDomain.polydisc([1, r]),
        "float": lambda r=2: DiagonalDomain.polydisc([1, r], exact=False),
        "moment": lambda r=2: moment_matrix({"kind": "polydisc", "radii": [1.0, float(r)]}, 3),
    }

    @staticmethod
    def _slot_problem():
        gens = IdealPresentation(2, [Jet(2, 2, {(1, 0): 1, (0, 2): -2})])
        return gens, jet_ideal(gens, 4), Jet(2, 3, {(0, 1): 1, (1, 1): 3})

    @pytest.mark.parametrize("backend", SLOT_DOMAINS)
    def test_routes_on_the_same_objects_build_one_record(self, backend, monkeypatch):
        built = []

        class Counted(bergman._Problem):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(bergman, "_Problem", Counted)
        domain, (_, J, F) = self.SLOT_DOMAINS[backend](), self._slot_problem()
        c, b = minimal_l2(domain, F, J), b_circle(domain, F, J)
        assert built == [(domain, F, J)] and routes_agree(c.value, b.value)[0]
        bergman.both_routes(domain, F, J)
        assert len(built) == 1

    @pytest.mark.parametrize("backend", SLOT_DOMAINS)
    def test_another_domain_or_F_builds_a_new_record(self, backend):
        # each pair of route calls on one J after another domain or F gives
        # the values of a fresh J, not those of the record kept
        gens, J, F = self._slot_problem()
        first, other = self.SLOT_DOMAINS[backend](), self.SLOT_DOMAINS[backend](3)
        G = Jet(2, 3, {(0, 1): 2, (1, 1): 3, (0, 3): 1})
        for domain, f in ((first, F), (other, F), (other, G), (first, G)):
            got = minimal_l2(domain, f, J).value, b_circle(domain, f, J).value
            fresh = jet_ideal(gens, 4)
            assert got == (minimal_l2(domain, f, fresh).value, b_circle(domain, f, fresh).value)
            assert J._record[0] is domain and J._record[1] is f
        assert minimal_l2(first, F, J).value != minimal_l2(other, F, J).value

    @pytest.mark.parametrize("backend", SLOT_DOMAINS)
    def test_ideal_and_record_freed_by_reference_counting(self, backend):
        # the moment record reads J itself, which holds the record in its
        # slot: no cycle, so both go with the last reference to J, with the
        # cycle collector off
        domain, (_, J, F) = self.SLOT_DOMAINS[backend](), self._slot_problem()
        gc.disable()
        try:
            minimal_l2(domain, F, J), b_circle(domain, F, J)
            ideal, record = weakref.ref(J), weakref.ref(J._record[2])
            assert (record().J is J) == (backend == "moment")
            del J
            assert ideal() is None and record() is None
        finally:
            gc.enable()

    def test_integral_float_generator_gives_float_ideal(self):
        J = jet_ideal(IdealPresentation(1, [Jet(1, 2, {(2,): 2.0})]), 3)
        assert not J.exact

    def test_diagnostics_keys_are_uniform(self):
        disc, fdisc = DiagonalDomain.disc(1), DiagonalDomain.disc(1, exact=False)
        wdisc = disc.with_weight(ToricWeight((1,)), 1)
        mom = moment_matrix({"kind": "two_point_disc", "c": [0.3, -0.2], "r": 1.2}, 4)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        Jm = jet_ideal(IdealPresentation(1, [Jet(1, 2, {(2,): 1, (1,): 0.5j})]), 3)
        z, z2, one_z = Jet(1, 2, {(1,): 1}), Jet(1, 2, {(2,): 1}), Jet(1, 1, {(0,): 1, (1,): 1})
        cases = [
            (disc, z, J), (disc, z2, J), (wdisc, one_z, J),
            (fdisc, z, J), (fdisc, z2, J), (wdisc, one_z.to_float(), J),
            (mom, Jet(1, 2, {(0,): 1, (1,): -0.5}), Jm), (mom, z2, J),
        ]
        seen, keys = set(), set()
        for domain, F, JJ in cases:
            for res in (minimal_l2(domain, F, JJ), b_circle(domain, F, JJ)):
                keys.add(frozenset(res.diagnostics))
                seen.add((res.diagnostics["backend"], res.diagnostics["outcome"]))
        assert len(keys) == 1
        assert {b for b, _ in seen} == {"exact", "float", "moment"}
        for backend in ("exact", "float"):
            assert {o for b, o in seen if b == backend} == {
                "solved", "contained", "infeasible", "unbounded"
            }
        assert minimal_l2(mom, z2, J).diagnostics["quad_error"] == mom.quad_error


class TestRoutesAgree:
    """The one rule that judges the projection value C against B."""

    def test_exact_equal(self):
        v = PiValue(Fraction(1, 2), 1)
        assert routes_agree(v, PiValue(Fraction(1, 2), 1)) == (True, 0.0)

    def test_exact_unequal_however_close(self):
        c = PiValue(Fraction(1, 2), 1)
        b = PiValue(Fraction(1, 2) + Fraction(1, 10**12), 1)
        ok, gap = routes_agree(c, b)
        assert not ok
        assert gap == pytest.approx(math.pi * 1e-12, rel=1e-3, abs=0)

    def test_infinite_agrees_only_with_infinite(self):
        inf = PiValue(math.inf, 1)
        assert routes_agree(inf, PiValue(math.inf, 1)) == (True, 0.0)
        assert routes_agree(math.inf, math.inf) == (True, 0.0)
        assert routes_agree(math.inf, 2.0) == (False, math.inf)
        assert routes_agree(2.0, math.inf) == (False, math.inf)
        assert routes_agree(inf, PiValue(Fraction(2), 1)) == (False, math.inf)

    def test_float_relative_tolerance(self):
        assert routes_agree(10.0, 10.0 * (1 + 0.9e-9))[0]
        assert not routes_agree(10.0, 10.0 * (1 + 1.1e-9))[0]
        # below 1 the gap is absolute
        assert routes_agree(0.5, 0.5 + 0.9e-9)[0]
        assert not routes_agree(0.5, 0.5 + 1.1e-9)[0]


class TestComplexCoefficients:
    """Gaussian and complex data, where the normal equations of both routes
    need the conjugate-transposed Gram matrix."""

    def test_gaussian_bidisc_both_routes(self):
        g = Jet(2, 2, {(2, 0): QQi(-3, 2), (1, 1): QQi(-1, 3), (0, 2): QQi(-1, 1)})
        J = jet_ideal(IdealPresentation(2, [g]), 3)
        F = Jet(
            2,
            2,
            {(0, 0): QQi(-3, -1), (1, 0): QQi(1, 3), (2, 0): QQi(-3, 3), (1, 1): QQi(-1, 2)},
        )
        bidisc = DiagonalDomain.polydisc([1, 1])
        want = PiValue(Fraction(161, 10), 2)
        assert minimal_l2(bidisc, F, J).value == want
        assert b_circle(bidisc, F, J).value == want

    def test_exact_entries_typed_per_entry(self):
        # a Gaussian instance: each entry of the minimizer, eta and the
        # maximizer is a Fraction where it is real and a QQi where it is
        # complex; the values are those of the flag-typed results, which
        # were QQi(a, 0) on the real entries
        dom = DiagonalDomain.polydisc([1, Fraction(3, 2)])
        gens = IdealPresentation(2, [
            Jet(2, 2, {(2, 0): QQi(1, 1), (0, 2): -1}),
            Jet(2, 3, {(1, 1): QQi(0, 1), (0, 3): Fraction(1, 2)}),
        ])
        F = Jet(2, 3, {
            (0, 0): 3, (1, 0): 2, (0, 1): QQi(Fraction(1, 3), -1), (1, 1): 1,
            (2, 1): 3, (0, 2): QQi(0, Fraction(5, 2)),
        })
        J = jet_ideal(gens, 4)
        c, b = minimal_l2(dom, F, J), b_circle(dom, F, J)
        assert c.value == b.value == PiValue(Fraction(61983, 1808), 2)
        minimizer = {
            (0, 0): 3, (1, 0): 2, (0, 1): QQi(Fraction(1, 3), -1),
            (2, 0): QQi(Fraction(-405, 226), Fraction(405, 226)),
            (0, 2): QQi(0, Fraction(80, 113)),
        }
        eta = {
            (0, 0): Fraction(27, 4), (1, 0): Fraction(9, 4),
            (0, 1): QQi(Fraction(27, 32), Fraction(81, 32)),
            (2, 0): QQi(Fraction(-1215, 904), Fraction(-1215, 904)),
            (0, 2): QQi(0, Fraction(-1215, 452)),
        }
        assert c.minimizer.coeffs == minimizer
        assert c.eta.entries == eta == b.maximizer.entries
        # every pinned QQi has a nonzero imaginary part
        for got, want in ((c.minimizer.coeffs, minimizer), (c.eta.entries, eta), (b.maximizer.entries, eta)):
            for a, v in got.items():
                assert type(v) is (QQi if isinstance(want[a], QQi) else Fraction)

    def test_float_complex_ladder_matches_oracle(self):
        gens = IdealPresentation(
            2,
            [
                Jet(2, 2, {(2, 0): 0.3 - 0.8j, (1, 1): -0.5 + 0.2j, (0, 2): 0.9 + 0.4j}),
                Jet(2, 3, {(3, 0): 0.1 + 0.7j, (1, 2): -0.6 - 0.3j, (0, 3): 0.4 - 0.9j}),
            ],
        )
        J = jet_ideal(gens, 4)
        assert J.span_dim >= 2
        F = Jet(2, 3, {(0, 0): 0.2 + 0.5j, (1, 0): -0.7 + 0.1j, (1, 1): 0.6 - 0.4j,
                       (0, 3): -0.3 + 0.8j})
        dom = DiagonalDomain.polydisc([0.7, 1.3], exact=False)
        want = oracle_minimal_l2_diagonal(dom, F, gens, J)
        assert minimal_l2(dom, F, J).value == pytest.approx(want, rel=1e-9)
        assert b_circle(dom, F, J).value == pytest.approx(want, rel=1e-9)

    def test_rank_decision_is_scale_free(self):
        # a generator of size 1e-11 spans the same jet ideal as z^2
        disc = DiagonalDomain.disc(1, exact=False)
        F = Jet(1, 2, {(1,): 1.0, (2,): 1.0})
        for scale in (1e-11, 1.0):
            J = jet_ideal(IdealPresentation(1, [Jet(1, 2, {(2,): scale})]), 3)
            assert J.span_dim == 1
            assert minimal_l2(disc, F, J).value == pytest.approx(math.pi / 2, rel=1e-12)
            assert b_circle(disc, F, J).value == pytest.approx(math.pi / 2, rel=1e-12)

    def test_ill_conditioned_kernel_ratio(self):
        # a float ladder instance (n = 4, level 7, span 100) on which forming
        # the kernel-ratio normal matrix V^H K V, which squares the condition
        # number, lost six digits of B: 1.5905546352337245
        gens = IdealPresentation(4, [
            Jet(4, 2, {(0, 0, 2, 0): -0.6142646764342286 - 0.9858663870943754j,
                       (0, 1, 0, 1): -0.21783756175437596 + 0.9173767689639887j,
                       (0, 1, 1, 0): -0.3239234461830882 - 0.3410831831962584j}),
            Jet(4, 3, {(1, 2, 0, 0): 0.4951210566203994 - 0.478061870287517j,
                       (0, 2, 1, 0): -0.6767374075383303 - 0.6089474363916525j,
                       (2, 1, 0, 0): -0.21566482250997288 - 0.007349112633724175j}),
        ])
        F = Jet(4, 6, {(1, 2, 0, 0): -0.9616518123912077 - 0.7976361704150323j,
                       (2, 0, 2, 0): -0.01734246603340428 - 0.44820693136375j,
                       (0, 2, 1, 3): -0.6834646079434499 + 0.3790522638646019j,
                       (1, 0, 3, 0): 0.23409347493359278 - 0.8140406175230728j})
        radii = [0.591200443142621, 0.9881983641760235, 0.8604796895627013, 0.9414296065831865]
        dom = DiagonalDomain.polydisc(radii, exact=False)
        J = jet_ideal(gens, 7)
        assert J.span_dim == 100
        c, b = minimal_l2(dom, F, J), b_circle(dom, F, J)
        assert c.value == pytest.approx(oracle_minimal_l2_diagonal(dom, F, gens, J), rel=1e-12)
        ok, gap = routes_agree(c.value, b.value)
        assert ok and gap <= ROUTES_RTOL

    def test_spurious_pivots_rejected(self):
        # a float ladder instance (n = 4, level 7) whose exact span is 100:
        # partial-pivoting elimination left three rows that should vanish at
        # 2e-10 to 1.2e-9, took them as pivots (span 103) and both routes
        # agreed on C = 10.5599 instead of 10.7511
        gens = IdealPresentation(4, [
            Jet(4, 2, {(0, 0, 2, 0): 0.24138771444374063 + 0.6869240416018061j,
                       (0, 1, 0, 1): 0.5393358824761387 + 0.8499362234748706j,
                       (0, 1, 1, 0): -0.015457407407663437 + 0.07243508769409202j}),
            Jet(4, 3, {(1, 2, 0, 0): 0.06208411242293321 - 0.8695334971260733j,
                       (0, 2, 1, 0): 0.7408918227037125 + 0.754123281304989j,
                       (2, 1, 0, 0): 0.9279839691179126 + 0.4863125219462894j}),
        ])
        F = Jet(4, 6, {(1, 2, 0, 0): 0.26520414062579944 + 0.1576733132296162j,
                       (2, 0, 2, 0): 0.4676792988710796 - 0.8482794881505182j,
                       (0, 2, 1, 3): 0.71089616027765 + 0.9419175473704435j,
                       (1, 0, 3, 0): 0.2741115557970144 + 0.6972602717085694j})
        radii = [1.4537671696278593, 0.9083457646804948, 1.0036171473882773, 0.7240013089663653]
        dom = DiagonalDomain.polydisc(radii, exact=False)
        J = jet_ideal(gens, 7)
        assert J.span_dim == 100
        # oracle: least squares over the product columns g * z^beta, built
        # here from the generators, with no elimination
        idx = J.indices
        pos = {a: i for i, a in enumerate(idx)}
        cols = []
        for g in gens.generators:
            for beta in idx:
                col = np.zeros(len(idx), dtype=complex)
                for a, v in g.coeffs.items():
                    i = pos.get(tuple(x + y for x, y in zip(a, beta)))
                    if i is not None:
                        col[i] = v
                cols.append(col)
        w = np.sqrt([dom.norm_float(a) for a in idx])
        f = np.array([complex(F.coeffs.get(a, 0)) for a in idx]) * w
        P = np.array(cols).T * w[:, None]
        r = f + P @ np.linalg.lstsq(P, -f, rcond=None)[0]
        want = float(np.vdot(r, r).real)
        assert want == pytest.approx(10.751062954345848, rel=1e-9)
        c, b = minimal_l2(dom, F, J), b_circle(dom, F, J)
        assert c.value == pytest.approx(want, rel=1e-8)
        ok, gap = routes_agree(c.value, b.value)
        assert ok and gap <= ROUTES_RTOL


class TestLadder:
    def test_twisted_cusp(self):
        bidisc = DiagonalDomain.polydisc([1, 1])
        gens = IdealPresentation(2, [Jet(2, 2, {(1, 0): 1, (0, 2): -1})])
        F = Jet(2, 1, {(1, 0): 1})
        lad = krull_ladder(bidisc, F, gens, range(2, 6))
        values = [row.c_value for row in lad.rows]
        assert values[0] == PiValue(Fraction(0), 2)
        for v in values[1:]:
            assert v == PiValue(Fraction(1, 5), 2)
        assert lad.stabilized
        assert lad.limit_estimate == PiValue(Fraction(1, 5), 2)

    def test_stabilization_is_scale_invariant(self):
        # D -> lam D with F(z / lam) and g(z / lam) multiplies every C_k by
        # lam^4; the stabilization verdict and the limit follow
        def ladder(lam):
            dom = DiagonalDomain.polydisc([lam, lam])
            g = Jet(2, 3, {(1, 0): 1 / lam, (0, 2): -1 / lam**2, (0, 3): 1 / lam**3})
            F = Jet(2, 1, {(1, 0): 1 / lam})
            return krull_ladder(dom, F, IdealPresentation(2, [g]), range(2, 10))

        def scaled(v):
            return PiValue(v.coeff * lam**4, v.pi_power)

        lam = Fraction(1, 1000)
        unit, small = ladder(Fraction(1)), ladder(lam)
        assert [scaled(r.c_value) for r in unit.rows] == [r.c_value for r in small.rows]
        assert not unit.stabilized and not small.stabilized
        assert scaled(unit.limit_estimate) == small.limit_estimate

    def test_disc_constant(self):
        disc = DiagonalDomain.disc(1)
        gens = IdealPresentation(1, [Jet.monomial(1, (2,))])
        lad = krull_ladder(disc, Jet(1, 1, {(1,): 1}), gens, range(2, 5))
        for row in lad.rows:
            assert row.c_value == PiValue(Fraction(1, 2), 1)
            assert row.b_value == row.c_value

    def test_contained_all_zero(self):
        disc = DiagonalDomain.disc(1)
        gens = IdealPresentation(1, [Jet.monomial(1, (1,))])
        lad = krull_ladder(disc, Jet(1, 1, {(1,): 1}), gens, range(2, 5))
        for row in lad.rows:
            assert value_float(row.c_value) == 0

    def test_all_infinite_stabilizes(self):
        # F = 1 + z on the disc with weight |z|^-2: the constant has infinite
        # norm, so C_k = inf at every level, and inf - inf is nan
        wdisc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        gens = IdealPresentation(1, [Jet.monomial(1, (2,))])
        lad = krull_ladder(wdisc, Jet(1, 1, {(0,): 1, (1,): 1}), gens, range(2, 7))
        assert all(value_float(r.c_value) == math.inf for r in lad.rows)
        assert lad.stabilized
        assert value_float(lad.limit_estimate) == math.inf

    def test_nondecreasing(self):
        bidisc = DiagonalDomain.polydisc([1, 1])
        gens = IdealPresentation(2, [Jet(2, 3, {(2, 0): 1, (0, 3): 1})])
        F = Jet(2, 1, {(1, 0): 1, (0, 1): 1})
        lad = krull_ladder(bidisc, F, gens, range(2, 6))
        vals = [value_float(r.c_value) for r in lad.rows]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestExhaustion:
    def test_disc_radii(self):
        gens = IdealPresentation(1, [Jet.monomial(1, (2,))])
        J = jet_ideal(gens, 2)
        F = Jet(1, 1, {(1,): 1})
        seq = ExhaustionSequence(
            [DiagonalDomain.disc(Fraction(2**i - 1, 2**i)) for i in range(1, 11)]
        )
        rows = exhaustion_limit(seq, F, J)
        for i, v in rows:
            r = 1 - 2.0 ** (-i)
            assert value_float(v) == pytest.approx(math.pi * r**4 / 2, rel=1e-12)
        vals = [value_float(v) for _, v in rows]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_constant_sequence(self):
        gens = IdealPresentation(1, [Jet.monomial(1, (2,))])
        J = jet_ideal(gens, 2)
        seq = ExhaustionSequence([DiagonalDomain.disc(1)] * 3)
        rows = exhaustion_limit(seq, Jet(1, 1, {(1,): 1}), J)
        assert len({value_float(v) for _, v in rows}) == 1

    def test_bidisc_factor(self):
        gens = IdealPresentation(2, [Jet.monomial(2, (1, 0))])
        J = jet_ideal(gens, 2)
        F = Jet(2, 1, {(0, 1): 1})
        seq = ExhaustionSequence(
            [
                DiagonalDomain.polydisc([Fraction(2**i - 1, 2**i), 1])
                for i in range(1, 6)
            ]
        )
        rows = exhaustion_limit(seq, F, J)
        for i, v in rows:
            r = 1 - 2.0 ** (-i)
            assert value_float(v) == pytest.approx(
                math.pi * r**2 * math.pi / 2, rel=1e-12
            )


class TestDensity:
    def test_disc_exact_at_finite_level(self):
        disc = DiagonalDomain.disc(1)
        gens = IdealPresentation(1, [Jet.monomial(1, (2,))])
        rows = density_sequence(disc, Jet(1, 3, {(1,): 1}), gens, range(2, 5))
        for _, d in rows:
            assert d <= 1e-12

    def test_no_cancellation_floor(self):
        # G_k = F exactly; expanding ||F - G_k||^2 used to leave ~2e-8
        disc = DiagonalDomain.disc(1)
        gens = IdealPresentation(1, [Jet.monomial(1, (3,))])
        rows = density_sequence(disc, Jet(1, 4, {(2,): 1}), gens, range(3, 6))
        for _, d in rows:
            assert d <= 1e-10

    def test_distance_closed_form(self):
        # at k = 2 the maximizer is delta_1, so G_2 = sqrt(7/6) z against
        # F = z + z^2/2, and ||F - G_2||^2 = (1 - sqrt(7/6))^2 pi/2 + pi/12
        disc = DiagonalDomain.disc(1)
        gens = IdealPresentation(1, [Jet.monomial(1, (4,))])
        F = Jet(1, 3, {(1,): 1, (2,): Fraction(1, 2)})
        (_, d), = density_sequence(disc, F, gens, [2])
        want = math.sqrt((1 - math.sqrt(7 / 6)) ** 2 * math.pi / 2 + math.pi / 12)
        assert d == pytest.approx(want, rel=1e-12)

    def test_bidisc_convergence(self):
        bidisc = DiagonalDomain.polydisc([1, 1])
        gens = IdealPresentation(2, [Jet.monomial(2, (1, 0))])
        rows = density_sequence(bidisc, Jet(2, 3, {(0, 1): 1}), gens, [2, 3, 4])
        dists = [d for _, d in rows]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 1e-10

    def test_phase_equivariance(self):
        disc = DiagonalDomain.disc(1, exact=False)
        gens = IdealPresentation(1, [Jet.monomial(1, (3,))])
        F1 = Jet(1, 3, {(1,): 1, (2,): 0.5})
        theta = 0.7
        F2 = F1.scale(complex(math.cos(theta), math.sin(theta)))
        r1 = density_sequence(disc, F1, gens, [3, 4])
        r2 = density_sequence(disc, F2, gens, [3, 4])
        for (_, a), (_, b) in zip(r1, r2):
            assert a == pytest.approx(b, abs=1e-12)

    def test_zero_rejected(self):
        disc = DiagonalDomain.disc(1)
        gens = IdealPresentation(1, [Jet.monomial(1, (2,))])
        with pytest.raises(ZeroFunctionalError):
            density_sequence(disc, Jet.zero(1, 2), gens, [2, 3])

    def test_non_orthogonal_rejected(self):
        disc = DiagonalDomain.disc(1)
        gens = IdealPresentation(1, [Jet.monomial(1, (2,))])
        with pytest.raises(BerglabError):
            density_sequence(disc, Jet(1, 3, {(2,): 1, (1,): 1}), gens, [3])

    @pytest.mark.parametrize(
        "pair, verdict",
        [
            # F = z + z^2 against <z^2> on the unit disc, and F = z + 10^6 z^2
            # on the disc of radius 1/1000, whose norms are all below 1e-5
            ([(1, 1, 1), (Fraction(1, 1000), 10**6, 1)], "raises"),
            # a z^2 term 1e-10 of F against <z^2> and against <100 z^2>
            ([(1, Fraction(1, 10**10), 1), (1, Fraction(1, 10**10), 100)], "passes"),
        ],
        ids=["domain-rescaled", "generator-rescaled"],
    )
    def test_complement_check_is_scale_free(self, pair, verdict):
        for radius, c2, g in pair:
            F = Jet(1, 2, {(1,): 1, (2,): c2})
            gens = IdealPresentation(1, [Jet.monomial(1, (2,), g)])
            try:
                density_sequence(DiagonalDomain.disc(radius), F, gens, [3])
                got = "passes"
            except BerglabError:
                got = "raises"
            assert got == verdict, (radius, c2, g)


class TestWeightedVariants:
    def test_weighted_equivalence_golden(self):
        wdisc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        F = Jet(1, 1, {(1,): 1})
        c = minimal_l2(wdisc, F, J).value
        b = b_circle(wdisc, F, J).value
        assert c == PiValue(Fraction(1), 1)
        assert b == c

    def test_truncated_weight_converges(self):
        psi = ToricWeight((1,))
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        F = Jet(1, 1, {(1,): 1})
        target = value_float(
            minimal_l2(
                DiagonalDomain.disc(1).with_weight(psi, 1), F, J
            ).value
        )
        errs = []
        for j in (10, 20, 40):
            dom = DiagonalDomain.disc(1).with_truncated_weight(
                TruncatedWeight(psi, j), 1
            )
            v = value_float(minimal_l2(dom, F, J).value)
            errs.append(abs(v - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-6
