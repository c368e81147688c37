"""Randomized and golden verification suites.

Each suite builds a deterministic batch of instances from a seed, runs
them through two independent code paths where the theory promises equal
answers, and reports pass/fail counts with the worst observed gap.
Instances run one after another; an exception in one instance is recorded
as that instance's failure.
"""

from __future__ import annotations

import math
import os
import random
import traceback
from fractions import Fraction

from .bergman import both_routes, density_sequence, routes_agree
from .domains import (
    DiagonalDomain,
    ToricWeight,
    moment_matrix,
)
from .errors import BerglabError, DivergentIntegralError, ImproperIdealError
from .exactnum import PiValue, value_float
from .ideals import IdealPresentation, jet_ideal
from .indices import indices_up_to
from .jets import Functional, Jet
from .sop import effectiveness_report, jumping_number, xi_cse_combinatorial, xi_cse_limit


def worker_count() -> int:
    """Number of threads a suite runs its instances on: always 1.  Kept for
    callers that record it, such as the benchmark harness."""
    return 1


class SuiteResult:
    def __init__(self, name: str, total: int, passed: int, max_gap: float, failures: list = None,
                 rows: list = None):
        self.name, self.total, self.passed, self.max_gap = name, total, passed, max_gap
        self.failures = [] if failures is None else failures
        self.rows = [] if rows is None else rows  # per-instance CSV rows

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"suite {self.name}: {self.passed}/{self.total} {status}, "
            f"max gap {self.max_gap:.3e}"
        )

    def to_csv(self) -> str:
        header = ["instance", "ok", "gap", "note"]
        lines = [",".join(header)]
        for row in self.rows:
            lines.append(",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


def _guarded(runner, inst):
    """``runner(inst)``, with any exception recorded as the instance's failure."""
    try:
        return runner(inst)
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return False, math.inf, (
            f"error: {type(exc).__name__}: {exc} "
            f"[{os.path.basename(where.filename)}:{where.lineno} in {where.name}]"
        )


def _run_instances(name, instances, runner) -> SuiteResult:
    rows, failures = [], []
    passed, max_gap = 0, 0.0
    for i, inst in enumerate(instances):
        ok, gap, note = _guarded(runner, inst)
        rows.append((i, int(ok), f"{gap:.17g}", note))
        if ok:
            passed += 1
            if math.isfinite(gap):
                max_gap = max(max_gap, gap)
        else:
            failures.append((i, note or f"gap {gap:.3e}"))
    return SuiteResult(name, len(instances), passed, max_gap, failures, rows)


# ---------------------------------------------------------------------------
# instance generators


def _random_polynomial(rng, n, max_degree, exact, count=3):
    idx = indices_up_to(n, max_degree)
    terms = {}
    for _ in range(count):
        alpha = rng.choice(idx)
        c = rng.randint(-3, 3) if exact else complex(
            rng.uniform(-1, 1), rng.uniform(-1, 1)
        )
        if bool(c):
            terms[alpha] = terms.get(alpha, 0) + c
    return Jet(n, max_degree, terms)


def _random_generators(rng, n, level, exact):
    """A proper ideal presentation and its jet ideal at ``level``."""
    for _ in range(60):
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = _random_polynomial(rng, n, level - 1, exact, count=rng.randint(1, 3))
            g = Jet(n, g.degree_bound, {a: c for a, c in g.coeffs.items() if sum(a) > 0})
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        try:
            pres = IdealPresentation(n, gens)
            return pres, jet_ideal(pres, level)
        except (ImproperIdealError, ValueError):
            continue
    raise BerglabError("failed to sample a proper ideal")


def _random_diagonal_domain(rng, n, weighted):
    if n > 1 and rng.random() < 0.3 and not weighted:
        return DiagonalDomain.ball(n, radius=Fraction(rng.randint(1, 2)))
    radii = [Fraction(rng.randint(1, 2)) for _ in range(n)]
    dom = DiagonalDomain.polydisc(radii)
    if weighted:
        a = tuple(rng.randint(0, 1) for _ in range(n))
        if not any(a):
            a = tuple(1 if j == 0 else x for j, x in enumerate(a))
        dom = DiagonalDomain.polydisc([Fraction(1)] * n).with_weight(ToricWeight(a), 1)
    return dom


def _random_moment_domain(rng, degree_bound):
    kind = rng.choice(["offcenter_disc", "two_point_disc", "radial", "polydisc2"])
    if kind == "offcenter_disc":
        desc = {
            "kind": "offcenter_disc",
            "center": [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)],
            "radius": rng.uniform(0.6, 1.2),
        }
        return moment_matrix(desc, degree_bound)
    if kind == "two_point_disc":
        desc = {
            "kind": "two_point_disc",
            "c": [rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)],
            "r": rng.uniform(0.8, 1.5),
        }
        return moment_matrix(desc, degree_bound)
    if kind == "radial":
        desc = {
            "kind": "radial",
            "base": 1.0,
            "harmonics": [[rng.randint(1, 3), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]],
        }
        return moment_matrix(desc, degree_bound)
    desc = {"kind": "polydisc", "radii": [rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)]}
    return moment_matrix(desc, degree_bound)


# ---------------------------------------------------------------------------
# suites


def _equivalence_instance(args):
    _, _, (domain, F, J) = args
    c, b = both_routes(domain, F, J)
    ok, gap = routes_agree(c.value, b.value)
    return ok, gap, ""


def equivalence_instances(seed=0, count=50, weighted=False) -> list:
    """The (index, "moment" or "diagonal", (domain, F, J)) instances of
    :func:`suite_equivalence`."""
    rng = random.Random(seed)
    instances = []
    n_moment = 0 if weighted else max(count // 5, 1)
    for i in range(count):
        if i < n_moment:
            d = rng.randint(2, 4)
            domain = _random_moment_domain(rng, d)
            n = domain.n
            level = rng.randint(2, d + 1)
            _, J = _random_generators(rng, n, level, exact=False)
            F = _random_polynomial(rng, n, max(level - 1, 1), exact=False)
            F = Jet(n, max(F.degree_bound, level - 1), F.coeffs)
            instances.append((i, "moment", (domain, F, J)))
        else:
            n = rng.randint(1, 3)
            level = rng.randint(2, 4 if n < 3 else 3)
            domain = _random_diagonal_domain(rng, n, weighted)
            _, J = _random_generators(rng, n, level, exact=True)
            F = _random_polynomial(rng, n, level - 1, exact=True)
            F = Jet(n, max(F.degree_bound, level - 1), F.coeffs)
            instances.append((i, "diagonal", (domain, F, J)))
    return instances


def suite_equivalence(seed=0, count=50, weighted=False) -> SuiteResult:
    """Randomized agreement of the projection and kernel-ratio routes."""
    name = "equivalence-weighted" if weighted else "equivalence"
    return _run_instances(name, equivalence_instances(seed, count, weighted), _equivalence_instance)


def suite_sop(seed=0, count=10) -> SuiteResult:
    """Effectiveness reports: golden sharp examples plus random monomials."""
    rng = random.Random(seed)
    disc = DiagonalDomain.disc(1)
    instances = []
    # golden: F=z, phi=2log|z| on the unit disc
    instances.append(("golden-z", disc, Jet(1, 2, {(1,): 1}), ToricWeight((1,)),
                      {"A": PiValue(Fraction(1), 1), "p_max": Fraction(2),
                       "p_star": Fraction(2), "sharp": True}))
    instances.append(("golden-z2", disc, Jet(1, 3, {(2,): 1}), ToricWeight((1,)),
                      {"p_max": Fraction(3), "p_star": Fraction(3), "sharp": True}))
    for i in range(count - 2):
        n = rng.randint(1, 2)
        beta = tuple(rng.randint(1, 3) for _ in range(n))
        a = tuple(rng.randint(1, 2) for _ in range(n))
        dom = DiagonalDomain.polydisc([Fraction(1)] * n)
        F = Jet(n, sum(beta), {beta: 1})
        instances.append((f"random-{i}", dom, F, ToricWeight(a), None))

    def run(inst):
        label, dom, F, phi, golden = inst
        try:
            rep = effectiveness_report(dom, F, phi)
        except DivergentIntegralError as exc:
            # no bound applies; right exactly when F's jumping number is <= 1
            ok = golden is None and jumping_number(F, phi) <= 1
            return ok, 0.0 if ok else math.inf, f"{label}: {exc}"
        ok = value_float(rep.ratio) >= 1 - 1e-12
        if isinstance(rep.p_max, Fraction):
            ok = ok and rep.p_max <= rep.p_star
        elif math.isfinite(rep.p_max):
            ok = ok and rep.p_max <= float(rep.p_star) + 1e-9
        gap = rep.diagnostics["b_gap"]
        if golden:
            ok = ok and all(
                getattr(rep, {"A": "integral"}.get(key, key)) == want
                for key, want in golden.items()
            )
        return ok, gap, label
    return _run_instances("sop", instances, run)


def suite_convexity(seed=0, count=12) -> SuiteResult:
    """Discrete log-convexity of sublevel kernels in t, and their growth rate
    against the combinatorial exponent, from one grid per instance: t = 1..5
    and 20, 22, ..., 30, whose tail half 20..30 certifies the slope."""
    rng = random.Random(seed)
    instances = []
    for i in range(count):
        n = 1 if i < count - 2 else 2
        if n == 1:
            k = rng.randint(0, 4)
            a = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2)])
            xi = Functional.delta(1, (k,))
            if rng.random() < 0.5 and k > 0:
                xi = xi.add(Functional.delta(1, (rng.randint(0, k - 1),)))
            phi = ToricWeight((a,))
            dom = DiagonalDomain.disc(1, exact=False)
        else:
            xi = Functional.delta(2, (rng.randint(0, 1), rng.randint(0, 1)))
            phi = ToricWeight((1, 1))
            dom = DiagonalDomain.polydisc([1, 1], exact=False)
        expected = float(xi_cse_combinatorial(xi, phi))
        instances.append((xi, phi, dom, expected, n))

    def run(inst):
        xi, phi, dom, expected, n = inst
        res = xi_cse_limit(xi, phi, dom, [1, 2, 3, 4, 5, 20, 22, 24, 26, 28, 30])
        gap = abs(res.slope - expected)
        tol = 1e-3 if n == 1 else 5e-2
        return res.min_second_difference >= -1e-8 and gap <= tol, gap, ""
    return _run_instances("convexity", instances, run)


def suite_density(seed=0, count=10) -> SuiteResult:
    """Rescaled kernel representatives converge to F in norm."""
    rng = random.Random(seed)
    instances = []
    for i in range(count):
        if rng.random() < 0.5:
            m = rng.randint(2, 4)
            l = rng.randint(0, m - 1)
            dom = DiagonalDomain.disc(1)
            gens = IdealPresentation(1, [Jet.monomial(1, (m,))])
            F = Jet(1, m, {(l,): 1})
            ks = list(range(max(2, l + 1), m + 2))
        else:
            dom = DiagonalDomain.polydisc([1, 1])
            gens = IdealPresentation(2, [Jet.monomial(2, (1, 0))])
            l = rng.randint(0, 2)
            F = Jet(2, max(2, l), {(0, l): 1})
            ks = list(range(max(2, l + 1), l + 4))
        instances.append((dom, F, gens, ks))

    def run(inst):
        dom, F, gens, ks = inst
        dists = density_sequence(dom, F, gens, ks)
        final = dists[-1][1]
        ok = final <= 1e-10
        ok = ok and all(
            b <= a + 1e-12 for (_, a), (_, b) in zip(dists, dists[1:])
        )
        return ok, final, ""
    return _run_instances("density", instances, run)


SUITES = {
    "equivalence": suite_equivalence,
    "sop": suite_sop,
    "convexity": suite_convexity,
    "density": suite_density,
}


def run_suite(name, seed=0, count=None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    kwargs = {"seed": seed}
    if count is not None:
        # fewer than the fixed part (sop's 2 golden instances) cannot run as asked
        least = 2 if name == "sop" else 1
        if count < least:
            raise ValueError(f"suite {name} needs a count of at least {least}")
        kwargs["count"] = count
    return SUITES[name](**kwargs)
