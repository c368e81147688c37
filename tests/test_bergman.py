"""Riesz representatives, kernels, projections, and their duality.

Independent oracles: weighted least squares through numpy's lstsq on
Cholesky-scaled coordinates, never the package's own solvers.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from berglab.bergman import (
    b_circle,
    density_sequence,
    exhaustion_limit,
    extremal_functional,
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
    sublevel_domain,
    truncate_weight,
)
from berglab.errors import (
    BerglabError,
    QuadratureError,
    UnboundedFunctionalError,
    ZeroFunctionalError,
)
from berglab.exactnum import PiValue, QQi, value_float
from berglab.ideals import IdealPresentation, annihilator, jet_ideal
from berglab.indices import degree, indices_up_to, order_key
from berglab.jets import Functional, Jet, pair


def oracle_minimal_l2_diagonal(domain, F, J):
    """Weighted least squares over the ideal span, via numpy lstsq."""
    idx = J.indices
    w = np.array([domain.norm_float(a) for a in idx])
    assert np.all(np.isfinite(w)), "oracle only covers finite-norm instances"
    f = np.array([complex(c) for c in F.truncate(J.level - 1).to_float().vector(idx)])
    if not J.basis:
        return float(np.sum(np.abs(f) ** 2 * w))
    B = np.array([[complex(x) for x in row] for row in J.basis]).T
    s = np.sqrt(w)
    u, *_ = np.linalg.lstsq(B * s[:, None], -f * s, rcond=None)
    res = f + B @ u
    return float(np.sum(np.abs(res) ** 2 * w))


def oracle_minimal_l2_moment(dom, F, J):
    """Moment-domain oracle: Cholesky-scale the quadratic form, lstsq."""
    idx = dom.indices
    f = np.zeros(len(idx), dtype=complex)
    for a, c in F.truncate(J.level - 1).coeffs.items():
        f[idx.index(a)] = complex(c)
    cols = [
        np.array([complex(x) for x in row] + [0] * (len(idx) - len(row)))
        for row in J.basis
    ]
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
            got = dom.inner(e, tv)
            want = complex(xi.entries.get(alpha, 0))
            assert got == pytest.approx(want, abs=1e-10)

    def test_unbounded_support_rejected(self):
        wdisc = DiagonalDomain.disc(1).with_weight(ToricWeight((1,)), 1)
        with pytest.raises(UnboundedFunctionalError):
            riesz_representative(wdisc, Functional.delta(1, (0,)))

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
            if isinstance(c, QQi):
                return c.re**2 + c.im**2
            if isinstance(c, complex):
                return c.real**2 + c.imag**2
            return c * c

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
                J = jet_ideal(IdealPresentation(n, gens), level)
            except BerglabError:
                continue
            F = Jet(
                n,
                level - 1,
                {rng.choice(idx): rng.randint(-2, 2) for _ in range(2)},
            )
            dom = DiagonalDomain.polydisc([1] * n)
            got = value_float(minimal_l2(dom, F, J).value)
            want = oracle_minimal_l2_diagonal(dom, F, J)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_oracle_agreement_moment(self):
        dom = moment_matrix(
            {"kind": "offcenter_disc", "center": [0.2, 0.1], "radius": 0.8}, 4
        )
        gens = [Jet(1, 2, {(2,): 1, (1,): 0.4 - 0.2j})]
        J = jet_ideal(IdealPresentation(1, gens), 3)
        F = Jet(1, 2, {(0,): 0.7, (1,): 1})
        got = minimal_l2(dom, F, J).value
        want = oracle_minimal_l2_moment(dom, F, J)
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


class TestExtremalFunctional:
    def test_disc_golden(self):
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        eta = extremal_functional(disc, Jet(1, 1, {(1,): 1}), J)
        # reduced entry 1/2 with implicit pi: eta_1 = pi/2
        assert eta.entries == {(1,): Fraction(1, 2)}

    def test_bidisc_golden(self):
        bidisc = DiagonalDomain.polydisc([1, 1])
        J = jet_ideal(IdealPresentation(2, [Jet.monomial(2, (1, 0))]), 3)
        eta = extremal_functional(
            bidisc, Jet(2, 2, {(1, 0): 1, (0, 1): 1}), J
        )
        assert eta.entries == {(0, 1): Fraction(1, 2)}  # pi^2/2

    def test_contained_gives_delta0(self):
        disc = DiagonalDomain.disc(1)
        J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
        eta = extremal_functional(disc, Jet(1, 2, {(2,): 1}), J)
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
        want = oracle_minimal_l2_diagonal(dom, F, J)
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
                truncate_weight(psi, j), 1
            )
            v = value_float(minimal_l2(dom, F, J).value)
            errs.append(abs(v - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-6
