"""The benchmark's four workloads: seeded inputs, the ops that time them and
the checks that judge each op's output.

An op is one user-visible call.  ``run`` is the timed part; ``check`` turns
its result into verdicts, one per instance (or one per CLI exit), and runs
after timing.  Each verdict is ``ok``, ``mismatch`` (a value disagrees with
the other route, an oracle or the in-process value), ``error`` (an
exception) or ``bad_exit`` (a CLI exit code other than 0).  Nothing is
filtered: an op whose check fails counts against ``failed_share``.

Workloads, and why each was chosen:

* ``cli``: one ``python -m berglab.cli`` process per README command on small
  specs.  Its time is interpreter start and imports, not compute.
* ``exact-ladder``: exact-mode ladder on polydiscs and balls, n = 1..4 and
  level <= 8 (n = 4 up to level 7, 210 indices), plus effectiveness
  reports.  Its time is Fraction/QQi elimination.
* ``float-moment``: the same ladder in float mode with complex
  coefficients, moment domains assembled inside each op, triangular bases
  and sublevel growth rates.  Its time is pure-Python complex lists, the
  numpy moment path, quadrature and ``eigh``.
* ``suites``: ``run_suite`` over all four suites at default counts.  Tiny
  instances, so per-call overhead and the thread pool dominate.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from berglab import (
    DiagonalDomain,
    Functional,
    IdealPresentation,
    Jet,
    QQi,
    ToricWeight,
    b_circle,
    contains,
    density_sequence,
    domain_from_json,
    effectiveness_report,
    exhaustion_limit,
    jet_ideal,
    kernel_at_origin,
    krull_ladder,
    minimal_l2,
    moment_matrix,
    run_suite,
    triangular_basis,
    value_float,
    xi_cse_combinatorial,
    xi_cse_limit,
)
from berglab.domains import ExhaustionSequence
from berglab.indices import indices_of_degree, indices_up_to
from berglab.suites import SUITES

# (n, top level) of the ladder; every rung starts at level 3, the first level
# at which the degree-2 generator survives truncation
LADDER = ((1, 8), (2, 8), (3, 8), (4, 7))
# exact rungs up to this many indices alternate integer and Gaussian-integer
# coefficients; larger rungs use integers, because QQi elimination there
# takes 5-15 s per op on a 2-core Xeon, longer than a whole run
GAUSSIAN_MAX_INDICES = 56
# (most indices, instances per rung) of the exact ladder: eight instances on
# the rungs where one op takes under 30 ms (2-core Xeon), so that ladder
# instances make up most of the workload's ops and its median is taken over
# many of them; fewer on the rungs where one op takes 0.1-4 s, so that a
# pass stays near 10 s
EXACT_INSTANCES = ((21, 8), (56, 2), (math.inf, 1))
SUITE_SEEDS = 25
FLOAT_GAP = 1e-9
# the numpy oracle solves the same least-squares problem by another
# factorization; 1e-8 is far above the 2e-12 agreement it reaches on
# real-coefficient ladder instances
ORACLE_RTOL = 1e-8
CLI_RTOL = 1e-12


class Raised:
    """The result of an op that raised."""

    def __init__(self, exc):
        self.note = f"{type(exc).__name__}: {exc}"


@dataclass
class Op:
    label: str
    run: object  # () -> result, the timed call
    check: object  # result -> list of (verdict, note); not timed
    digest: object  # result -> str, compared between passes
    verdicts: int = 1


@dataclass
class Workload:
    name: str
    ops: list
    warmup: int = 0  # index of the op run once before timing


def _sha(text) -> str:
    return hashlib.sha256(str(text).encode()).hexdigest()[:16]


def _raised(result, count=1):
    if isinstance(result, Raised):
        return [("error", result.note)] * count
    return None


# ---------------------------------------------------------------------------
# ladder instances


def _ladder_rungs():
    return [(n, level) for n, top in LADDER for level in range(3, top + 1)]


def _exact_coeff(rng, gaussian):
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    if gaussian:
        return QQi(c, rng.choice((-3, -2, -1, 1, 2, 3)))
    return Fraction(c)


def _float_coeff(rng):
    # the generator of suites._random_polynomial(exact=False)
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _seeded_jet(shape, n, monomials, degree_bound, count, coeff):
    while True:
        terms = {}
        for _ in range(count):
            alpha = shape.choice(monomials)
            terms[alpha] = terms.get(alpha, 0) + coeff()
        jet = Jet(n, degree_bound, terms)
        if not jet.is_zero():
            return jet


def _shape(*key):
    """The random source of an instance's monomial supports.  It depends on
    the instance's place in the workload, not on the seed: the seed draws
    the coefficients, so every seed does work of the same structure and the
    run-to-run spread stays small."""
    return random.Random("-".join(map(str, key)))


def ladder_instance(shape, n, level, coeff):
    """Generators homogeneous of degrees 2 and 3 with three terms each; F
    with four terms below ``level``, resampled while it lies in the jet
    ideal.  Monomials come from ``shape``, coefficients from ``coeff()``."""
    gens = IdealPresentation(
        n, [_seeded_jet(shape, n, indices_of_degree(n, d), d, 3, coeff) for d in (2, 3)]
    )
    J = jet_ideal(gens, level)
    idx = indices_up_to(n, level - 1)
    while True:
        F = _seeded_jet(shape, n, idx, level - 1, 4, coeff)
        if not contains(J, F):
            return gens, F


def _ladder_op(label, make_domain, gens, F, level, check):
    def run():
        domain = make_domain()
        J = jet_ideal(gens, level)
        return J, minimal_l2(domain, F, J), b_circle(domain, F, J)

    def digest(result):
        if isinstance(result, Raised):
            return result.note
        _, c, b = result
        return f"{c.value!r} {b.value!r}"

    return Op(label, run, check, digest)


def _check_exact(result):
    return _raised(result) or [
        ("ok", "") if result[1].value == result[2].value
        else ("mismatch", f"C={result[1].value!r} B={result[2].value!r}")
    ]


def _rel_gap(a, b):
    a, b = value_float(a), value_float(b)
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    return abs(a - b) / max(1.0, abs(a))


# ---------------------------------------------------------------------------
# independent numpy oracle for C on float diagonal domains


def _closed_form_norm(kind, radii, alpha):
    """Squared norm of z^alpha: polydisc prod pi r^(2a+2)/(a+1), ball
    pi^n alpha! r^(2|alpha|+2n) / (|alpha|+n)!."""
    n = len(alpha)
    if kind == "polydisc":
        return math.prod(math.pi * r ** (2 * a + 2) / (a + 1) for a, r in zip(alpha, radii))
    d = sum(alpha)
    fact = math.prod(math.factorial(a) for a in alpha)
    return math.pi**n * fact * radii[0] ** (2 * d + 2 * n) / math.factorial(d + n)


def oracle_c(kind, radii, gens, F, level):
    """min over u of sum_a w_a |F_a + (P u)_a|^2, P the products g * z^beta
    truncated below ``level``, solved by weighted numpy least squares."""
    n = gens.n
    idx = indices_up_to(n, level - 1)
    pos = {a: i for i, a in enumerate(idx)}
    cols = []
    for g in gens.generators:
        for beta in idx:
            col = np.zeros(len(idx), dtype=complex)
            for alpha, c in g.coeffs.items():
                j = pos.get(tuple(x + y for x, y in zip(alpha, beta)))
                if j is not None:
                    col[j] += complex(c)
            if col.any():
                cols.append(col)
    f = np.array([complex(F.coeffs.get(a, 0)) for a in idx])
    w = np.sqrt([_closed_form_norm(kind, radii, a) for a in idx])
    r = f * w
    if cols:
        P = np.array(cols).T * w[:, None]
        u = np.linalg.lstsq(P, -r, rcond=None)[0]
        r = r + P @ u
    return float(np.vdot(r, r).real)


# ---------------------------------------------------------------------------
# exact-ladder


def effectiveness_shapes():
    """Every monomial z^beta (beta_j <= 3) and toric weight a (a_j <= 2) in
    two variables whose weighted integral converges (jumping number > 1);
    inputs with a divergent integral are outside the maths and are left
    out.  One-variable reports take under 2 ms (2-core Xeon); leaving them
    out keeps the workload's median op inside a cluster of similar ops."""
    return [
        (2, beta, a)
        for beta in indices_up_to(2, 6)
        for a in indices_up_to(2, 4)
        if max(beta) <= 3 and 1 <= min(a) and max(a) <= 2
        and min(Fraction(b + 1, x) for b, x in zip(beta, a)) > 1
    ]


def _check_effectiveness(result):
    bad = _raised(result)
    if bad:
        return bad
    # the acceptance rule of suites.suite_sop: p_max <= p* when p_max is finite
    ok = value_float(result.ratio) >= 1 - 1e-12 and (
        math.isinf(result.p_max) or result.p_max <= result.p_star
    )
    return [("ok", "") if ok else ("mismatch", f"p_max={result.p_max} p*={result.p_star}")]


def exact_ladder(seed):
    """Every rung's instances, integer and Gaussian-integer in turn, and one
    effectiveness report per shape: 119 ladder ops and 25 reports."""
    rng = random.Random(seed)
    ops = []
    for n, level in _ladder_rungs():
        size = len(indices_up_to(n, level - 1))
        count = next(c for most, c in EXACT_INSTANCES if size <= most)
        for rep in range(count):
            gaussian = size <= GAUSSIAN_MAX_INDICES and rep % 2 == 1
            shape = _shape("exact", n, level, rep)
            gens, F = ladder_instance(shape, n, level, lambda: _exact_coeff(rng, gaussian))
            if level % 2:
                radii = [Fraction(shape.randint(1, 2)) for _ in range(n)]
                make, kind = (lambda r=radii: DiagonalDomain.polydisc(r)), "polydisc"
            else:
                radius = Fraction(shape.randint(1, 2))
                make, kind = (lambda n=n, r=radius: DiagonalDomain.ball(n, r)), "ball"
            label = f"ladder n={n} level={level} {kind} {'gauss' if gaussian else 'int'} {rep}"
            ops.append(_ladder_op(label, make, gens, F, level, _check_exact))
    # a report's time depends tenfold on F's coefficient; drawn by position,
    # not by the seed, the coefficients do the same work on every seed
    for i, (n, beta, a) in enumerate(effectiveness_shapes()):
        F = Jet(n, sum(beta), {beta: _exact_coeff(_shape("effectiveness", i), False)})
        phi = ToricWeight(a)
        ops.append(Op(
            f"effectiveness {i} beta={beta} a={a}",
            lambda n=n, F=F, phi=phi: effectiveness_report(
                DiagonalDomain.polydisc([1] * n), F, phi
            ),
            _check_effectiveness,
            lambda r: r.note if isinstance(r, Raised) else f"{r.c_value!r} {r.p_max} {r.p_star}",
        ))
    return Workload("exact-ladder", ops)


# ---------------------------------------------------------------------------
# float-moment


def _float_ladder_check(kind, radii, gens, F, level):
    def check(result):
        bad = _raised(result)
        if bad:
            return bad
        _, c, b = result
        gap = _rel_gap(c.value, b.value)
        want = oracle_c(kind, radii, gens, F, level)
        ogap = abs(value_float(c.value) - want) / max(1.0, abs(want))
        if gap <= FLOAT_GAP and ogap <= ORACLE_RTOL:
            return [("ok", "")]
        return [("mismatch", f"C={c.value!r} B={b.value!r} oracle={want!r}")]

    return check


def _check_float_gap(result):
    bad = _raised(result)
    if bad:
        return bad
    gap = _rel_gap(result[1].value, result[2].value)
    return [("ok", "") if gap <= FLOAT_GAP else ("mismatch", f"gap {gap:.3e}")]


# (descriptor kind, moment degree bound, ladder level) of the moment ops
MOMENT_CASES = (
    ("offcenter_disc", 8, 8),
    ("two_point_disc", 8, 8),
    ("radial", 6, 6),
    ("radial2", 6, 5),
    ("polydisc", 6, 5),
    ("ball", 4, 4),
)
# rungs with at least this many indices (n = 3, level 8 and n = 4, levels 6
# and 7, where one float op takes 0.1-0.6 s on a 2-core Xeon) get a fourth
# instance: the slowest tenth of the workload's ops is then these rungs'
# instances, so its p90 falls inside their cluster, not at the gap below it
FLOAT_FOURTH_MIN_INDICES = 120
BASIS_CASES = (("offcenter_disc", 6), ("radial", 5), ("polydisc", 4), ("diagonal-ball", 4))


def _moment_descriptor(rng, kind):
    if kind == "offcenter_disc":
        return {"kind": kind, "center": [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)],
                "radius": rng.uniform(0.6, 1.2)}
    if kind == "two_point_disc":
        return {"kind": kind, "c": [rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)],
                "r": rng.uniform(0.8, 1.5)}
    if kind in ("radial", "radial2"):
        harmonics = [[k, rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]
                     for k in ((2,) if kind == "radial" else (1, 3))]
        return {"kind": "radial", "base": 1.0, "harmonics": harmonics}
    if kind == "polydisc":
        return {"kind": kind, "radii": [rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)]}
    return {"kind": "ball", "n": 3, "radius": rng.uniform(0.8, 1.2)}


def _check_basis(result):
    bad = _raised(result)
    if bad:
        return bad
    tb, gram = result
    S = tb.coeff_matrix
    ortho = np.abs(S.T @ gram @ np.conj(S) - np.eye(S.shape[1])).max()
    upper = any(S[i, j] != 0 for j in range(S.shape[1]) for i in range(min(j, S.shape[0])))
    if ortho <= 1e-8 and not upper:
        return [("ok", "")]
    return [("mismatch", f"orthonormality error {ortho:.3e}, upper entries {upper}")]


def _basis_op(label, desc, degree):
    def run():
        if desc["kind"] == "diagonal-ball":
            dom = DiagonalDomain.ball(3, desc["radius"], exact=False)
            tb = triangular_basis(dom, degree)
            return tb, np.diag([dom.norm_float(a) for a in tb.indices])
        dom = moment_matrix(desc, degree)
        return triangular_basis(dom, degree), dom.matrix[: len(dom.indices), : len(dom.indices)]

    return Op(label, run, _check_basis,
              lambda r: r.note if isinstance(r, Raised) else _sha(r[0].coeff_matrix.tobytes()))


def _cse_check(xi, phi, n):
    tol = 1e-3 if n == 1 else 5e-2

    def check(result):
        bad = _raised(result)
        if bad:
            return bad
        gap = abs(result.slope - float(xi_cse_combinatorial(xi, phi)))
        if result.convex and gap <= tol:
            return [("ok", "")]
        return [("mismatch", f"slope gap {gap:.3e}, convex {result.convex}")]

    return check


def float_moment(seed):
    """Three instances of each moment case and ladder rung (four on the
    largest rungs), two triangular bases per case and eight growth rates:
    106 ops."""
    rng = random.Random(seed)
    ops = []
    for rep in range(3):
        for kind, degree, level in MOMENT_CASES:
            desc = _moment_descriptor(rng, kind)
            n = {"polydisc": 2, "ball": 3}.get(kind, 1)
            gens, F = ladder_instance(
                _shape("moment", kind, rep), n, level, lambda: _float_coeff(rng)
            )
            ops.append(_ladder_op(
                f"moment {kind} {rep} d={degree} level={level}",
                lambda desc=desc, d=degree: moment_matrix(desc, d),
                gens, F, level, _check_float_gap,
            ))
    for rep in range(4):
        for n, level in _ladder_rungs():
            if rep == 3 and len(indices_up_to(n, level - 1)) < FLOAT_FOURTH_MIN_INDICES:
                continue
            shape = _shape("float", n, level, rep)
            gens, F = ladder_instance(shape, n, level, lambda: _float_coeff(rng))
            if level % 2:
                kind, radii = "polydisc", [rng.uniform(0.5, 1.5) for _ in range(n)]
                make = lambda r=radii: DiagonalDomain.polydisc(r, exact=False)
            else:
                kind, radii = "ball", [rng.uniform(0.5, 1.5)]
                make = lambda n=n, r=radii[0]: DiagonalDomain.ball(n, r, exact=False)
            ops.append(_ladder_op(
                f"ladder n={n} level={level} {kind} float {rep}", make, gens, F, level,
                _float_ladder_check(kind, radii, gens, F, level),
            ))
    for rep in range(2):
        for kind, degree in BASIS_CASES:
            if kind == "diagonal-ball":
                desc = {"kind": kind, "radius": rng.uniform(0.5, 1.5)}
            else:
                desc = _moment_descriptor(rng, kind)
            ops.append(_basis_op(f"basis {kind} {rep} d={degree}", desc, degree))
    # a growth rate's input is all structure (which derivatives, which
    # weight), so it is drawn by position, not by the seed, like the supports
    grid = [20 + 2 * j for j in range(6)]
    for i in range(8):
        shape = _shape("cse", i)
        if i % 4 < 3:
            n, k = 1, shape.randint(0, 4)
            xi = Functional.delta(1, (k,))
            if k > 0 and shape.random() < 0.5:
                xi = xi.add(Functional.delta(1, (shape.randint(0, k - 1),)))
            phi = ToricWeight((shape.choice((Fraction(1), Fraction(2), Fraction(1, 2))),))
        else:
            n = 2
            xi = Functional.delta(2, (shape.randint(0, 1), shape.randint(0, 1)))
            phi = ToricWeight((1, 1))
        ops.append(Op(
            f"cse {i} n={n}",
            lambda xi=xi, phi=phi, n=n: xi_cse_limit(
                xi, phi, DiagonalDomain.polydisc([1.0] * n, exact=False), grid
            ),
            _cse_check(xi, phi, n),
            lambda r: r.note if isinstance(r, Raised) else repr(r.table),
        ))
    # warming up on a radial moment op pays for the lazy scipy.integrate and
    # scipy.linalg imports
    warmup = next(i for i, op in enumerate(ops) if op.label.startswith("moment radial"))
    return Workload("float-moment", ops, warmup)


# ---------------------------------------------------------------------------
# suites


def _suite_op(name, seed, count):
    def check(result):
        bad = _raised(result, count)
        if bad:
            return bad
        out = [("ok", "")] * result.passed
        out += [("mismatch", f"instance {i}: {note}") for i, note in result.failures]
        return out

    return Op(
        f"suite {name} seed={seed}",
        lambda: run_suite(name, seed=seed),
        check,
        lambda r: r.note if isinstance(r, Raised) else _sha(r.rows),
        count,
    )


def suites(seed):
    """Each suite at its default count, on its default seed 0 (where ``sop``
    is known to fail) and on seeds drawn from the benchmark seed."""
    rng = random.Random(seed)
    seeds = [0] + [rng.randrange(1, 10**6) for _ in range(SUITE_SEEDS - 1)]
    ops = []
    for s in seeds:
        for name, fn in SUITES.items():
            count = inspect.signature(fn).parameters["count"].default
            ops.append(_suite_op(name, s, count))
    return Workload("suites", ops)


# ---------------------------------------------------------------------------
# cli


def _fraction_jet(jet):
    return Jet(jet.n, jet.degree_bound, {a: Fraction(c) for a, c in jet.coeffs.items()}).to_json()


def _cli_specs(rng):
    """One small spec (and extra arguments) per README command."""
    specs = {}
    n = rng.randint(1, 2)
    gens, F = ladder_instance(rng, n, 4, lambda: _exact_coeff(rng, False))
    radii = [str(rng.randint(1, 2)) for _ in range(n)]
    specs["equiv"] = ({
        "domain": {"kind": "polydisc", "radii": radii},
        "F": _fraction_jet(F),
        "ideal": {"generators": [_fraction_jet(g) for g in gens.generators], "level": 4},
    }, [])
    gens, F = ladder_instance(rng, 2, 5, lambda: _exact_coeff(rng, False))
    specs["ladder"] = ({
        "domain": {"kind": "polydisc", "radii": ["1", "1"]},
        "F": _fraction_jet(F),
        "generators": [_fraction_jet(g) for g in gens.generators],
    }, ["--k", "3..5"])
    m = rng.randint(2, 4)
    specs["exhaust"] = ({
        "domains": [{"kind": "polydisc", "radii": [r]} for r in ("1/2", "3/4", "1")],
        "F": _fraction_jet(Jet(1, m - 1, {(rng.randint(0, m - 1),): 1})),
        "ideal": {"generators": [_fraction_jet(Jet.monomial(1, (m,)))], "level": m},
    }, [])
    specs["kernel"] = ({
        "domain": {"kind": "polydisc", "radii": ["1", "2"]},
        "xi": {"n": 2, "terms": [
            {"alpha": [rng.randint(0, 3), rng.randint(0, 3)], "re": str(rng.randint(1, 3)), "im": "0"},
            {"alpha": [rng.randint(0, 3), rng.randint(0, 3)], "re": "1", "im": str(rng.randint(1, 3))},
        ]},
    }, [])
    specs["basis"] = ({"domain": _moment_descriptor(rng, "radial"), "degree": 4}, [])
    n, beta, a = rng.choice(effectiveness_shapes())
    specs["sop"] = ({
        "domain": {"kind": "polydisc", "radii": ["1"] * n},
        "F": _fraction_jet(Jet(n, sum(beta), {beta: 1})),
        "weight": {"a": list(a)},
    }, [])
    specs["cse"] = ({
        "domain": {"kind": "polydisc", "radii": ["1"]},
        "xi": {"n": 1, "terms": [{"alpha": [rng.randint(0, 4)], "re": "1", "im": "0"}]},
        "weight": {"a": [rng.choice(("1", "2", "1/2"))]},
    }, [])
    m = rng.randint(2, 4)
    l = rng.randint(0, m - 1)
    specs["density"] = ({
        "domain": {"kind": "polydisc", "radii": ["1"]},
        "F": _fraction_jet(Jet(1, m, {(l,): 1})),
        "generators": [_fraction_jet(Jet.monomial(1, (m,)))],
        "k_range": f"{max(2, l + 1)}..{m + 1}",
    }, [])
    specs["suite"] = (None, ["equivalence", "--seed", str(rng.randrange(10**6)), "--count", "20"])
    return specs


def _csv_rows(text, ncols):
    # a row's last cell may hold commas (suite notes, JSON values)
    return [line.split(",", ncols - 1) for line in text.strip().splitlines()[1:]]


def _expected_rows(cmd, spec, args):
    """The CSV body rows the command should print, computed in-process."""
    if cmd == "suite":
        res = run_suite(args[0], seed=int(args[2]), count=int(args[4]))
        return [[str(x) for x in row] for row in res.rows]
    if cmd in ("equiv", "exhaust"):
        F = Jet.from_json(spec["F"])
        level = spec["ideal"]["level"]
        gens = IdealPresentation(F.n, [Jet.from_json(g) for g in spec["ideal"]["generators"]])
        F = Jet(F.n, max(F.degree_bound, level - 1), F.coeffs)
        J = jet_ideal(gens, level)
        if cmd == "exhaust":
            seq = ExhaustionSequence([domain_from_json(d) for d in spec["domains"]])
            return [[i, v] for i, v in exhaustion_limit(seq, F, J)]
        dom = domain_from_json(spec["domain"])
        c, b = minimal_l2(dom, F, J).value, b_circle(dom, F, J).value
        return [["C", c], ["B_circle", b], ["gap", _rel_gap(c, b)]]
    if cmd in ("ladder", "density"):
        F = Jet.from_json(spec["F"])
        gens = IdealPresentation(F.n, [Jet.from_json(g) for g in spec["generators"]])
        lo, hi = (int(x) for x in spec.get("k_range", args[1] if args else "2..5").split(".."))
        ks = range(lo, hi + 1)
        F = Jet(F.n, max(F.degree_bound, hi - 1), F.coeffs)
        dom = domain_from_json(spec["domain"])
        if cmd == "density":
            return [[k, d] for k, d in density_sequence(dom, F, gens, ks)]
        return [[r.k, r.c_value, r.b_value, r.gap()] for r in krull_ladder(dom, F, gens, ks)]
    if cmd == "kernel":
        return [[kernel_at_origin(domain_from_json(spec["domain"]), Functional.from_json(spec["xi"]))]]
    if cmd == "basis":
        tb = triangular_basis(moment_matrix(spec["domain"], spec["degree"]), spec["degree"])
        return [["".join(map(str, a)), list(tb.coeff_matrix[:, j])] for j, a in enumerate(tb.included)]
    if cmd == "cse":
        phi = ToricWeight(tuple(Fraction(x) for x in spec["weight"]["a"]))
        xi = Functional.from_json(spec["xi"])
        res = xi_cse_limit(xi, phi, domain_from_json(spec["domain"]), [float(t) for t in range(1, 11)])
        return [[t, lk] for t, lk in res.table]
    if cmd == "sop":
        phi = ToricWeight(tuple(Fraction(x) for x in spec["weight"]["a"]))
        rep = effectiveness_report(domain_from_json(spec["domain"]), Jet.from_json(spec["F"]), phi)
        return [
            [k, json.dumps(v) if isinstance(v, dict) else str(v)]
            for k, v in rep.to_json().items()
            if k not in ("diagnostics", "ideal_plus")
        ]
    raise ValueError(f"no expected rows for {cmd}")


def _close(got, want):
    if math.isinf(abs(want)) or math.isinf(abs(got)):
        return got == want
    return abs(got - want) <= CLI_RTOL * max(1.0, abs(want))


def _same_cell(got, want):
    if isinstance(want, list):  # a basis column, "a+bi;c+di;..."
        vals = [complex(x[:-1] + "j") for x in got.split(";")]
        return len(vals) == len(want) and all(_close(v, w) for v, w in zip(vals, want))
    if isinstance(want, (str, int)):
        return got == str(want)
    return _close(float(got), value_float(want))


def _cli_check(cmd, spec, args):
    def check(result):
        bad = _raised(result)
        if bad:
            return bad
        code, csv_text, err = result
        if code != 0:
            return [("bad_exit", f"exit {code}: {err}")]
        try:
            want = _expected_rows(cmd, spec, args)
        except Exception as exc:  # the CLI succeeded where the library raised
            return [("error", f"in-process {type(exc).__name__}: {exc}")]
        got = _csv_rows(csv_text, len(want[0]) if want else 1)
        ok = len(got) == len(want) and all(
            len(g) == len(w) and all(_same_cell(gc, wc) for gc, wc in zip(g, w))
            for g, w in zip(got, want)
        )
        return [("ok", "")] if ok else [("mismatch", f"csv {got[:2]} vs expected {want[:2]}")]

    return check


CSV_NAME = {"suite": "suite_equivalence"}


def cli(seed, root: Path, scratch: Path):
    rng = random.Random(seed)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("BERGLAB_THREADS", None)
    ops = []
    for cmd, (spec, args) in _cli_specs(rng).items():
        out = scratch / "cli" / cmd
        argv = [cmd] + args
        if spec is not None:
            out.mkdir(parents=True, exist_ok=True)
            path = out / "spec.json"
            path.write_text(json.dumps(spec))
            argv += ["--spec", str(path)]
        argv += ["--out", str(out)]

        def run(argv=argv, csv_path=out / f"{CSV_NAME.get(cmd, cmd)}.csv"):
            csv_path.unlink(missing_ok=True)
            spans_to = os.environ.get("BENCH_SPANS_OUT")
            if spans_to:
                head = [sys.executable, str(root / "bench" / "traced_cli.py")]
            else:
                head = [sys.executable, "-m", "berglab.cli"]
            proc = subprocess.run(
                head + argv, cwd=root, env=dict(env, BENCH_SPANS_OUT=spans_to or ""),
                capture_output=True, text=True, timeout=120,
            )
            text = csv_path.read_text() if csv_path.exists() else ""
            return proc.returncode, text, proc.stderr.strip()[-300:]

        ops.append(Op(f"cli {cmd}", run, _cli_check(cmd, spec, args),
                      lambda r: r.note if isinstance(r, Raised) else f"{r[0]} {_sha(r[1])}"))
    return Workload("cli", ops)


def build(name, seed, root: Path, scratch: Path) -> Workload:
    if name == "cli":
        return cli(seed, root, scratch)
    return {"exact-ladder": exact_ladder, "float-moment": float_moment, "suites": suites}[name](seed)
