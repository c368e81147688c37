"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test records a single line into the terminal summary (see conftest)
and asserts the same condition, so a red criterion is visible both ways.
Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

import conftest
from berglab.bergman import (
    b_circle,
    density_sequence,
    exhaustion_limit,
    krull_ladder,
    minimal_l2,
    riesz_representative,
    triangular_basis,
)
from berglab.domains import (
    DiagonalDomain,
    ExhaustionSequence,
    ToricWeight,
    TruncatedWeight,
)
from berglab.exactnum import PiValue, value_float
from berglab.ideals import IdealPresentation, jet_ideal
from berglab.indices import order_key
from berglab.jets import Functional, Jet
from berglab.sop import (
    effectiveness_report,
    verify_corollary_min,
    xi_cse_combinatorial,
    xi_cse_limit,
)
from berglab.suites import (
    _random_moment_domain,
    suite_convexity,
    suite_equivalence,
)


def check(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {label}: {verdict}"
    if detail:
        line += f"  ({detail})"
    conftest.ACCEPTANCE.append(line)
    print(line)
    assert ok, line


def test_criterion_1_equivalence_suite():
    # >= 50 randomized diagonal and moment instances, both routes agree:
    # exact in rational mode, relative gap <= 1e-9 in float mode, <= 60 s
    t0 = time.monotonic()
    res = suite_equivalence(seed=2026, count=50)
    elapsed = time.monotonic() - t0
    ok = res.ok and res.total >= 50 and elapsed <= 60
    check(
        1,
        "equivalence of projection and kernel-ratio routes (50 instances)",
        ok,
        f"{res.passed}/{res.total} agree, {elapsed:.1f}s",
    )


def test_criterion_2_sharp_disc_example():
    # unit disc, F = z, toric weight a = (1): the whole report is exact
    # rational-times-pi data with zero tolerance
    rep = effectiveness_report(
        DiagonalDomain.disc(1), Jet(1, 2, {(1,): 1}), ToricWeight((1,))
    )
    ok = (
        rep.integral == PiValue(Fraction(1), 1)
        and rep.c_value == PiValue(Fraction(1, 2), 1)
        and rep.b_value == rep.c_value
        and rep.ratio == 2
        and rep.p_max == 2
        and rep.p_star == 2
        and rep.sharp
    )
    check(2, "sharp disc effectiveness report, exact rationals", ok)


def test_criterion_3_krull_ladder():
    # bidisc, generator z1 - z2^2, F = z1: ladder 0, pi^2/5, pi^2/5, ...
    bidisc = DiagonalDomain.polydisc([1, 1])
    gens = IdealPresentation(2, [Jet(2, 2, {(1, 0): 1, (0, 2): -1})])
    F = Jet(2, 1, {(1, 0): 1})
    lad = krull_ladder(bidisc, F, gens, range(2, 6))
    limit = PiValue(Fraction(1, 5), 2)
    vals = [value_float(r.c_value) for r in lad.rows]
    ok = (
        vals[0] == 0.0
        and lad.rows[1].c_value == limit
        and lad.rows[2].c_value == limit  # stabilized by k = 4
        and all(b >= a for a, b in zip(vals, vals[1:]))
        and lad.stabilized
        and lad.limit_estimate == limit
    )
    check(3, "ladder 0, pi^2/5 stabilized by k=4, exact and nondecreasing", ok)


def test_criterion_4_triangular_basis_random_moment():
    # 20 random positive-definite moment domains, all three structural
    # properties up to degree 4, residual <= 1e-10
    rng = random.Random(41)
    worst = 0.0
    ok = True
    for _ in range(20):
        dom = _random_moment_domain(rng, 4)
        tb = triangular_basis(dom, 4)
        m = len(tb.indices)
        S = tb.coeff_matrix
        for j, alpha in enumerate(tb.included):
            t = riesz_representative(dom, tb.functionals[j])
            tv = np.array([complex(t.coeffs.get(a, 0)) for a in tb.indices])
            resid = float(np.max(np.abs(tv - S[:, j])))
            worst = max(worst, resid)
            ok &= resid <= 1e-10
            ok &= max(tb.functionals[j].entries, key=order_key) == alpha
            first = next(i for i in range(m) if abs(S[i, j]) > 1e-10)
            ok &= tb.indices[first] == alpha
    check(
        4,
        "triangular basis on 20 random moment domains",
        ok,
        f"max residual {worst:.2e}",
    )


def test_criterion_5_cse_two_route_agreement():
    phi = ToricWeight((1,))
    disc = DiagonalDomain.disc(1, exact=False)
    ok = True
    # delta functionals: log K is exactly affine with slope k + 1
    for k in range(4):
        res = xi_cse_limit(Functional.delta(1, (k,)), phi, disc, range(1, 11))
        slopes = [
            (l2 - l1) / (t2 - t1)
            for (t1, l1), (t2, l2) in zip(res.table, res.table[1:])
        ]
        ok &= abs(res.slope - (k + 1)) <= 1e-10
        ok &= max(slopes) - min(slopes) <= 1e-10
    # two-term functional: tail slope matches the combinatorial value 2
    xi = Functional(1, {(0,): 1, (1,): 1})
    res = xi_cse_limit(xi, phi, disc, [30 + 2 * j for j in range(6)])
    ok &= abs(res.slope - 2) <= 1e-3
    # two-variable quadrature route within 5e-2 of the combinatorial value
    dom2 = DiagonalDomain.polydisc([1, 1], exact=False)
    xi2 = Functional.delta(2, (1, 0))
    phi2 = ToricWeight((1, 1))
    res2 = xi_cse_limit(xi2, phi2, dom2, [4, 5, 6, 7, 8])
    ok &= abs(res2.slope - float(xi_cse_combinatorial(xi2, phi2))) <= 5e-2
    check(5, "growth-rate limit matches combinatorial exponent", ok)


def test_criterion_6_log_convexity():
    # discrete second differences of log K are >= -1e-8 everywhere tested
    phi = ToricWeight((1,))
    disc = DiagonalDomain.disc(1, exact=False)
    worst = math.inf
    for entries in [{(0,): 1}, {(0,): 1, (1,): 1}, {(0,): 1, (2,): 0.5}]:
        res = xi_cse_limit(Functional(1, entries), phi, disc, range(1, 11))
        worst = min(worst, res.min_second_difference)
    suite = suite_convexity(seed=11, count=12)
    ok = worst >= -1e-8 and suite.ok
    check(
        6,
        "log-convexity of K along t-grids",
        ok,
        f"min second difference {worst:.2e}, suite {suite.passed}/{suite.total}",
    )


def test_criterion_7_corollary_min():
    # 20 monomial/binomial F against diagonal toric weights: the minimum
    # over the search family equals the closed-form jumping number exactly
    rng = random.Random(7)
    ok = True
    for i in range(20):
        n = rng.choice([1, 2])
        a = tuple(rng.randint(1, 2) for _ in range(n))
        beta = tuple(rng.randint(0, 2) for _ in range(n))
        coeffs = {beta: Fraction(rng.randint(1, 3))}
        if i % 2:  # binomial
            gamma = tuple(rng.randint(0, 2) for _ in range(n))
            coeffs.setdefault(gamma, Fraction(rng.randint(1, 3)))
        deg = max(sum(b) for b in coeffs)
        F = Jet(n, deg, coeffs)
        rep = verify_corollary_min(F, ToricWeight(a), deg + 2)
        ok &= rep.consistent and rep.all_above
        ok &= rep.attained == rep.closed_form
    check(7, "minimum over functionals equals the jumping number (20 cases)", ok)


def test_criterion_8_density():
    # rescaled representatives converge, hitting <= 1e-10 once the jet
    # ideal is exact; nonnegative pairing certified by dist <= sqrt(2)||F||
    disc = DiagonalDomain.disc(1)
    gens1 = IdealPresentation(1, [Jet.monomial(1, (2,))])
    rows1 = density_sequence(disc, Jet(1, 3, {(1,): 1}), gens1, range(2, 5))
    bidisc = DiagonalDomain.polydisc([1, 1])
    gens2 = IdealPresentation(2, [Jet.monomial(2, (1, 0))])
    F2 = Jet(2, 3, {(0, 1): 1})
    rows2 = density_sequence(bidisc, F2, gens2, [2, 3, 4])
    dists2 = [d for _, d in rows2]
    norm_f2 = math.sqrt(math.pi**2 / 2)
    ok = (
        all(d <= 1e-10 for _, d in rows1)
        and all(b <= a + 1e-12 for a, b in zip(dists2, dists2[1:]))
        and dists2[-1] <= 1e-10
        and all(d <= math.sqrt(2) * norm_f2 * (1 + 1e-12) for d in dists2)
    )
    check(8, "density of rescaled representatives, <= 1e-10 at jet-exact level", ok)


def test_criterion_9_weighted_equivalence():
    # randomized weighted instances, the exact golden value pi, and the
    # truncated weights converging to within 1e-6 by j = 40
    suite = suite_equivalence(seed=9, count=25, weighted=True)
    psi = ToricWeight((1,))
    J = jet_ideal(IdealPresentation(1, [Jet.monomial(1, (2,))]), 2)
    F = Jet(1, 1, {(1,): 1})
    wdisc = DiagonalDomain.disc(1).with_weight(psi, 1)
    c = minimal_l2(wdisc, F, J).value
    b = b_circle(wdisc, F, J).value
    golden = c == PiValue(Fraction(1), 1) and b == c
    target = value_float(c)
    tdom = DiagonalDomain.disc(1).with_truncated_weight(TruncatedWeight(psi, 40), 1)
    err = abs(value_float(minimal_l2(tdom, F, J).value) - target)
    ok = suite.ok and golden and err <= 1e-6
    check(
        9,
        "weighted equivalence with golden value pi and truncation j=40",
        ok,
        f"suite {suite.passed}/{suite.total}, truncation error {err:.2e}",
    )


def test_criterion_10_exhaustion():
    # disc radii 1 - 2^-i, F = z, ideal (z^2): C_i = pi (1 - 2^-i)^4 / 2
    # exactly, nondecreasing.  Note: the closed form puts C_15 about 1.9e-4
    # from pi/2, so the 1e-8 window is first reached at i = 30; the exact
    # per-step identity below is the stronger statement and is what we gate on.
    gens = IdealPresentation(1, [Jet.monomial(1, (2,))])
    J = jet_ideal(gens, 2)
    F = Jet(1, 1, {(1,): 1})
    seq = ExhaustionSequence(
        [DiagonalDomain.disc(Fraction(2**i - 1, 2**i)) for i in range(1, 31)]
    )
    rows = exhaustion_limit(seq, F, J)
    ok = True
    for i, v in rows:
        want = PiValue(Fraction((2**i - 1) ** 4, 2 ** (4 * i) * 2), 1)
        ok &= v == want
    vals = [value_float(v) for _, v in rows]
    ok &= all(b >= a for a, b in zip(vals, vals[1:]))
    gap30 = abs(vals[-1] - math.pi / 2)
    ok &= gap30 <= 1e-8
    check(
        10,
        "exhaustion values exact per step, limit pi/2",
        ok,
        f"gap {gap30:.2e} at i=30",
    )
