"""Strong-openness effectiveness quantities for diagonal toric weights.

Everything here is driven by the combinatorics of monomial multiplier
ideals: jumping numbers, the growth exponent gamma of a coefficient
functional (computed both combinatorially and as a sublevel-kernel limit),
and the effectiveness report comparing the guaranteed membership exponent
with the true one.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

from .bergman import both_routes, minimal_l2, routes_agree
from .domains import DiagonalDomain, ToricWeight, sublevel_domain, weighted_integral
from .errors import (
    BerglabError,
    CrossCheckError,
    DivergentIntegralError,
    ZeroFunctionalError,
    ZeroKernelError,
)
from .exactnum import PiValue, encode, value_float
from .ideals import (
    MonomialIdeal,
    monomial_jet_ideal,
    multiplier_ideal,
    multiplier_ideal_plus,
    next_jump,
)
from .indices import degree
from .jets import Functional, Jet, pair


def _monomial_gamma(beta, phi: ToricWeight) -> Fraction:
    return min(Fraction(beta[j] + 1) / phi.a[j] for j in phi.active())


def _plus_jet_ideal(iplus: MonomialIdeal, F: Jet):
    """Jet ideal of the just-beyond multiplier ideal at a level above every
    degree of F, so that truncating F to the jet space keeps all of it."""
    level = max(degree(g) for g in iplus.generators) + 1
    return monomial_jet_ideal(iplus, max(level, F.degree_bound + 1))


def jumping_number(F: Jet, phi: ToricWeight) -> Fraction:
    """sup{c >= 0 : |F|^2 exp(-c*phi) is integrable at the origin}.

    For a diagonal toric weight monomials are orthogonal in every weighted
    norm, so a polynomial survives exactly as long as each monomial in its
    Newton support does: the minimum of the monomial values.
    """
    if F.is_zero():
        raise ValueError("the zero germ has no jumping number")
    if F.n != phi.n:
        raise ValueError("jet and weight dimensions differ")
    return min(_monomial_gamma(beta, phi) for beta in F.coeffs)


def xi_cse_combinatorial(xi: Functional, phi: ToricWeight) -> Fraction:
    """Smallest c at which xi annihilates the multiplier ideal of c*phi:
    the maximum of the monomial jumping values over the support."""
    if xi.is_zero():
        raise ZeroFunctionalError("gamma of the zero functional")
    if xi.n != phi.n:
        raise ValueError("functional and weight dimensions differ")
    return max(_monomial_gamma(beta, phi) for beta in xi.entries)


class CseLimitResult:
    """Tail growth rate of log K over sublevel domains; ``table`` holds the
    (t, log K) pairs."""

    def __init__(self, slope: float, table: list, min_second_difference: float, convex: bool):
        self.slope, self.table, self.convex = slope, table, convex
        self.min_second_difference = min_second_difference

    def to_json(self):
        return {
            "slope": self.slope,
            "table": [[t, lk] for t, lk in self.table],
            "min_second_difference": self.min_second_difference,
            "convex": self.convex,
        }


def t_grid_points(t_grid) -> list:
    """The grid as floats; raises ValueError unless it has at least 4
    points and is strictly increasing."""
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 4:
        raise ValueError("t grid needs at least 4 points")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t grid must be strictly increasing")
    return t_grid


def xi_cse_limit(xi: Functional, phi: ToricWeight, D: DiagonalDomain, t_grid) -> CseLimitResult:
    """Growth rate of log K_{xi} on the sublevel domains {phi < -t} ∩ D.

    Returns the least-squares slope of the tail (the later half of the
    grid) together with a discrete convexity certificate: consecutive
    divided-difference slopes must be nondecreasing.  A xi with no slot
    integrable on D raises ZeroKernelError: K is then 0 at every t.
    """
    from .bergman import kernel_at_origin

    if not any(D.finite(alpha) for alpha in xi.entries):
        raise ZeroKernelError("xi has no square-integrable slot on the domain, so K = 0")
    table = []
    for t in t_grid_points(t_grid):
        sub = sublevel_domain(D, phi, t)
        # K is positive, as xi has an integrable slot, and kernel_at_origin
        # raises when its float leaves the float range
        table.append((t, math.log(value_float(kernel_at_origin(sub, xi)))))
    slopes = [
        (l2 - l1) / (t2 - t1)
        for (t1, l1), (t2, l2) in zip(table, table[1:])
    ]
    second = [b - a for a, b in zip(slopes, slopes[1:])]
    min_second = min(second) if second else 0.0
    tail = table[len(table) // 2 :]
    slope = statistics.linear_regression([t for t, _ in tail], [l for _, l in tail]).slope
    return CseLimitResult(slope, table, min_second, min_second >= -1e-8)


class MinimizationReport:
    """Check that the jumping number is the least gamma over functionals
    pairing nontrivially with F; ``family`` holds (label, gamma,
    pairs_with_F) triples."""

    def __init__(self, closed_form: Fraction, family: list, attained: Fraction, all_above: bool):
        self.closed_form, self.family, self.attained = closed_form, family, attained
        self.all_above = all_above

    @property
    def consistent(self) -> bool:
        return self.attained == self.closed_form and self.all_above


def verify_corollary_min(F: Jet, phi: ToricWeight, degree_bound: int) -> MinimizationReport:
    """Minimize gamma over a search family of functionals pairing
    nontrivially with F: the coordinate deltas on F's Newton support, plus
    the extremal functional of the just-beyond multiplier ideal."""
    c0 = jumping_number(F, phi)
    family = []
    candidates = []
    for beta in sorted(F.coeffs, key=degree):
        if degree(beta) > degree_bound:
            continue
        candidates.append((f"delta_{beta}", Functional.delta(F.n, beta)))
    iplus = multiplier_ideal_plus(phi, c0)
    J = _plus_jet_ideal(iplus, F)
    domain = DiagonalDomain.polydisc([1] * F.n)
    Fw = Jet(F.n, J.level - 1, F.coeffs)
    eta = minimal_l2(domain, Fw, J).eta
    if not eta.is_zero():
        candidates.append(("extremal_eta", eta))
    attained = None
    all_above = True
    for label, xi in candidates:
        gamma = xi_cse_combinatorial(xi, phi)
        pairs = bool(pair(xi, Jet(F.n, max(F.degree_bound, xi.order()), F.coeffs)))
        family.append((label, gamma, pairs))
        if pairs:
            if gamma < c0:
                all_above = False
            attained = gamma if attained is None else min(attained, gamma)
    if attained is None:
        raise BerglabError("no functional in the search family pairs with F")
    return MinimizationReport(c0, family, attained, all_above)


class EffectivenessReport:
    """Guaranteed versus true membership exponents for (D, F, phi)."""

    def __init__(self, integral, jump: Fraction, ideal_plus: MonomialIdeal, c_value, b_value,
                 ratio, p_max, p_star: Fraction, sharp: bool, diagnostics: dict = None):
        self.integral = integral  # A; PiValue in exact mode
        self.jump = jump  # the jumping number of F
        self.ideal_plus = ideal_plus
        self.c_value = c_value  # minimal L2 against the just-beyond ideal
        self.b_value = b_value  # same quantity through the kernel-ratio route
        self.ratio = ratio  # R = A / C
        self.p_max = p_max  # guaranteed exponent bound R/(R-1)
        self.p_star = p_star  # true membership threshold
        self.sharp = sharp
        self.diagnostics = {} if diagnostics is None else diagnostics

    def to_json(self):
        return {
            "integral": encode(self.integral),
            "jumping_number": encode(self.jump),
            "ideal_plus": [list(g) for g in self.ideal_plus.generators],
            "c_value": encode(self.c_value),
            "b_value": encode(self.b_value),
            "ratio": encode(self.ratio),
            "p_max": encode(self.p_max),
            "p_star": encode(self.p_star),
            "sharp": self.sharp,
            "diagnostics": self.diagnostics,
        }

    def text_table(self) -> str:
        rows = [
            ("A (weighted integral)", self.integral),
            ("jumping number", self.jump),
            ("C (minimal L2)", self.c_value),
            ("B (kernel ratio)", self.b_value),
            ("R = A/C", self.ratio),
            ("p_max = R/(R-1)", self.p_max),
            ("p* (membership threshold)", self.p_star),
            ("sharp", self.sharp),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def membership_threshold(F: Jet, phi: ToricWeight) -> Fraction:
    """sup{p : F in the multiplier ideal of p*phi}, found by walking the
    jump set until membership first fails.  Membership is monotone in p, so
    the first failing jump is the threshold."""
    if F.is_zero():
        raise ValueError("the zero germ has no membership threshold")
    p = Fraction(0)
    bound = jumping_number(F, phi) + 2  # membership must fail by here
    while p <= bound:
        p = next_jump(phi, p)
        if not multiplier_ideal(phi, p).contains_jet(F):
            return p
    raise BerglabError("membership sweep failed to terminate")


def effectiveness_report(D: DiagonalDomain, F: Jet, phi: ToricWeight) -> EffectivenessReport:
    """Assemble the effectiveness quantities: the weighted integral A, the
    minimal L2 value C against the just-beyond multiplier ideal, the ratio
    R = A/C, the guaranteed exponent p_max with p/(p-1) > R, and the true
    threshold p* from an exact membership sweep.  Routes that disagree on C
    raise CrossCheckError."""
    A = weighted_integral(D, F, phi, 1)
    if value_float(A) == math.inf:
        raise DivergentIntegralError(
            "the weighted integral of F diverges; no effectiveness bound applies"
        )
    c0 = jumping_number(F, phi)
    iplus = multiplier_ideal_plus(phi, c0)
    J = _plus_jet_ideal(iplus, F)
    Fw = Jet(F.n, J.level - 1, F.coeffs)
    proj, bc = both_routes(D, Fw, J)
    cv, bv = proj.value, bc.value
    agree, gap = routes_agree(cv, bv)
    if not agree:
        raise CrossCheckError(f"cross-check failed: kernel-ratio route disagrees: {cv} vs {bv}")
    exact = isinstance(A, PiValue) and isinstance(cv, PiValue)
    if exact and A.pi_power == cv.pi_power:
        R = Fraction(A.coeff) / Fraction(cv.coeff)
        p_max = math.inf if R == 1 else R / (R - 1)
    else:
        Rf = value_float(A) / value_float(cv)
        R = Rf
        p_max = math.inf if abs(Rf - 1) < 1e-15 else Rf / (Rf - 1)
    p_star = membership_threshold(F, phi)
    if isinstance(p_max, Fraction):
        sharp = p_max == p_star
    else:
        sharp = math.isfinite(p_max) and abs(p_max - float(p_star)) <= 1e-9 * max(
            1.0, float(p_star)
        )
    diag = {
        "jet_level": J.level,
        "b_gap": gap,
    }
    return EffectivenessReport(
        A, c0, iplus, cv, bv, R, p_max, p_star, sharp, diag
    )
