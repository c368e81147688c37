"""Batch command-line front-end.

JSON problem specs in, JSON results and CSV tables out.  Each command is
straight-line code that returns its stdout text, JSON payload, CSV table
and failed cross-check, if any.  :func:`main` alone prints and writes them
and picks the exit code: 0 success, 1 a failed cross-check or a
:class:`CrossCheckError` (two sides of the identity disagree), 2 a
``ValueError`` (a spec error: a field missing or of the wrong type, a
radius <= 0, objects of different dimensions, a zero xi or F, a density F
outside the ideal's orthogonal complement, a problem the construction does
not support) or a usage error, 3 a numerical failure or any other
:class:`BerglabError`.

A process runs one command, so each command imports what only it uses:
:mod:`berglab.sop` loads for ``sop``, ``cse`` and a t grid, and
:mod:`berglab.suites` for ``suite``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bergman import (
    both_routes,
    density_sequence,
    exhaustion_limit,
    kernel_at_origin,
    krull_ladder,
    routes_agree,
    triangular_basis,
)
from .domains import MOMENT_KINDS, ExhaustionSequence, ToricWeight, domain_from_json
from .errors import BerglabError, CrossCheckError, QuadratureError, SingularMatrixError
from .exactnum import PiValue, encode, is_exact, value_float
from .ideals import IdealPresentation, jet_ideal
from .jets import Functional, Jet
from .jsonspec import integer, json_list, json_object

EXIT_CROSSCHECK = 1
EXIT_SPEC = 2
EXIT_NUMERICAL = 3

# most points a "start:stop:step" t grid may have
MAX_T_POINTS = 10_000


def _load_spec(path, *required):
    """The spec at ``path``, a JSON object holding each ``required`` field;
    the reader of each field checks it.  A file that cannot be read or
    parsed raises ValueError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read spec: {exc}") from None
    return json_object(data, "the spec", required)


def _load_domain(desc, degree=None, mode=None, name="domain"):
    """The spec's domain (:func:`domain_from_json`).  ``--mode exact``
    refuses one without exact norms, a moment descriptor before its matrix
    is built; ``--mode float`` runs a diagonal one in float arithmetic."""
    no_exact = ValueError("--mode exact: the domain has no exact norms")
    if mode == "exact" and json_object(desc, name).get("kind") in MOMENT_KINDS:
        raise no_exact
    dom = domain_from_json(desc, degree, name)
    if mode == "exact" and not dom.exact:
        raise no_exact
    if mode == "float":
        dom.exact = False
    return dom


def _load_diagonal(desc, command, name="domain"):
    """The domain ``name`` of a command that needs a diagonal one: a
    moment-domain descriptor is a spec error, before its matrix is built."""
    if json_object(desc, name).get("kind") in MOMENT_KINDS:
        raise ValueError(f"{command} needs a diagonal {name}, not {desc['kind']!r}")
    return domain_from_json(desc, name=name)


def _insist_exact(mode, *coeffs):
    """Under ``--mode exact`` a non-exact coefficient (a JSON number rather
    than a string) in any of the coefficient dicts is a spec error."""
    if mode == "exact" and not all(is_exact(c.values()) for c in coeffs):
        raise ValueError("--mode exact: a coefficient is not exact; pass it as a string")


def _json_safe(v):
    """``v`` with each non-finite float spelled "inf", "-inf" or "nan": JSON
    has no such numbers."""
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


def _fmt(v) -> str:
    f = value_float(v)
    return "inf" if math.isinf(f) else f"{f:.17g}"


def _csv(header, rows):
    """A CSV text: the ``header`` line, then a line of each row's cells."""
    lines = [header] + [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _write_outputs(out, name, payload, table):
    """``<name>.json`` (``payload``) and ``<name>.csv`` (``table``) under
    the directory ``out``, made if missing; none when ``out`` is None."""
    if out is None:
        return
    out = out or os.curdir  # --out "" is the working directory
    os.makedirs(out, exist_ok=True)
    for ext, text in (("json", json.dumps(_json_safe(payload), indent=2) + "\n"), ("csv", table)):
        with open(os.path.join(out, f"{name}.{ext}"), "w") as fh:
            fh.write(text)


def _range_text(data, key, default):
    """The spec's range string ``data[key]``, else the option's value."""
    text = data.get(key, default)
    if not isinstance(text, str):
        raise ValueError(f"{key} must be a string, not {text!r}")
    return text


def _parse_krange(text):
    try:
        a, b = (int(x) for x in text.split(".."))
    except ValueError:  # not two parts, or a part not an integer
        raise ValueError(f"k range {text!r} must be 'a..b' with integers a <= b") from None
    ks = range(a, b + 1)
    if not ks or ks[0] < 1:
        raise ValueError(f"k range {text!r} must be a nonempty range of levels >= 1")
    return ks


def _parse_tgrid(text):
    from .sop import t_grid_points

    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:  # not three parts, or a part not a number
        raise ValueError(f"t grid {text!r} must be 'start:stop:step' with numbers") from None
    if not (math.isfinite(a) and math.isfinite(b) and step > 0):
        raise ValueError(f"t grid {text!r} needs finite ends and a positive step")
    if (b - a) / step >= MAX_T_POINTS:
        raise ValueError(f"t grid {text!r} has more than {MAX_T_POINTS} points")
    out, t = [], a
    while t <= b + 1e-12:
        out.append(round(t, 12))
        t += step
    return t_grid_points(out)


def _decreases(a, b) -> bool:
    """Whether the value ``b`` after ``a`` is a decrease: two exact values
    compare exactly, floats relative to |a| with no absolute floor, and an
    infinite ``a`` before a finite ``b`` is one."""
    if isinstance(a, PiValue) and isinstance(b, PiValue) and a.pi_power == b.pi_power:
        return b.coeff < a.coeff
    a, b = value_float(a), value_float(b)
    return b < a and (math.isinf(a) or a - b > 1e-9 * abs(a))


def _nonzero(obj, name):
    """``obj``, a jet or a functional, unless it is zero: a zero xi has no
    kernel and a zero F no density sequence, so it is a spec error."""
    if obj.is_zero():
        raise ValueError(f"{name} must not be zero")
    return obj


def _jet_and_gens(f_json, gens_json, gens_name, mode=None):
    """F and the presentation of its generators, a nonempty list at ``gens_name``."""
    F = Jet.from_json(f_json, "F")
    gens_json = json_list(gens_json, gens_name, nonempty=True)
    gens = [Jet.from_json(g, f"{gens_name}[{i}]") for i, g in enumerate(gens_json)]
    _insist_exact(mode, F.coeffs, *(g.coeffs for g in gens))
    return F, IdealPresentation(F.n, gens)


def _jet_and_ideal(data, mode=None):
    """F, its generators and the level (an integer >= 1) of a spec's
    ``ideal``, F's degree bound raised to level - 1."""
    ideal = json_object(data["ideal"], "ideal", ("generators", "level"))
    level = integer(ideal["level"], "ideal.level", 1)
    F, gens = _jet_and_gens(data["F"], ideal["generators"], "ideal.generators", mode)
    return Jet(F.n, max(F.degree_bound, level - 1), F.coeffs), gens, level


def equiv(spec_path, mode):
    """Compare the projection and kernel-ratio values on one instance."""
    data = _load_spec(spec_path, "domain", "F", "ideal")
    domain = _load_domain(data["domain"], mode=mode)
    F, gens, level = _jet_and_ideal(data, mode)
    proj, ratio = both_routes(domain, F, jet_ideal(gens, level))
    agree, gap = routes_agree(proj.value, ratio.value)
    c, b = _fmt(proj.value), _fmt(ratio.value)
    payload = {
        "C": encode(proj.value),
        "B_circle": encode(ratio.value),
        "gap": gap,
        "projection": proj.to_json(),
    }
    table = _csv("quantity,value", [("C", c), ("B_circle", b), ("gap", f"{gap:.17g}")])
    return (f"C  = {c}\nB' = {b}\ngap = {gap:.3e}", payload, table,
            None if agree else "cross-check failed: B' != C")


def ladder(spec_path, mode, k_range):
    """Minimal L2 integrals along I + m^k for a range of k."""
    data = _load_spec(spec_path, "domain", "F", "generators")
    domain = _load_domain(data["domain"], mode=mode)
    F, gens = _jet_and_gens(data["F"], data["generators"], "generators", mode)
    ks = _parse_krange(_range_text(data, "k_range", k_range))
    result = krull_ladder(domain, F, gens, ks)
    table = _csv("k,C_k,B_k,gap", (
        (r.k, _fmt(r.c_value), _fmt(r.b_value), f"{r.gap():.17g}") for r in result.rows
    ))
    payload = {
        "rows": [{"k": r.k, "C": encode(r.c_value), "B": encode(r.b_value)} for r in result.rows],
        "stabilized": result.stabilized,
        "limit": encode(result.limit_estimate),
    }
    agree = all(routes_agree(r.c_value, r.b_value)[0] for r in result.rows)
    return (table + f"stabilized: {result.stabilized}", payload, table,
            None if agree else "cross-check failed: B_k != C_k at some level")


def exhaust(spec_path):
    """Minimal L2 integrals along a nested family of domains."""
    data = _load_spec(spec_path, "domains", "F", "ideal")
    # nesting is certified on diagonal domains only: a moment domain is
    # refused before any matrix is built
    seq = ExhaustionSequence([
        _load_diagonal(d, "exhaust", f"domains[{i}]")
        for i, d in enumerate(json_list(data["domains"], "domains", nonempty=True))
    ])
    F, gens, level = _jet_and_ideal(data)
    rows = exhaustion_limit(seq, F, jet_ideal(gens, level))
    table = _csv("i,C_i", ((i, _fmt(v)) for i, v in rows))
    vals = [v for _, v in rows]
    decreases = any(_decreases(a, b) for a, b in zip(vals, vals[1:]))
    return (table.rstrip(), {"rows": [{"i": i, "C": encode(v)} for i, v in rows]}, table,
            "cross-check failed: sequence not nondecreasing" if decreases else None)


def kernel(spec_path, mode):
    """Kernel value at the origin for a coefficient functional."""
    data = _load_spec(spec_path, "domain", "xi")
    domain = _load_domain(data["domain"], mode=mode)
    xi = _nonzero(Functional.from_json(data["xi"], "xi"), "xi")
    _insist_exact(mode, xi.entries)
    value = kernel_at_origin(domain, xi)
    return f"K = {_fmt(value)}", {"K": encode(value)}, _csv("K", [(_fmt(value),)]), None


def basis(spec_path):
    """Triangular orthonormal basis up to a degree bound."""
    data = _load_spec(spec_path, "domain", "degree")
    d = integer(data["degree"], "degree", 0)
    domain = _load_domain(data["domain"], degree=d)
    tb = triangular_basis(domain, d)
    table = _csv("alpha,coefficients", (
        ("".join(map(str, alpha)),
         ";".join(f"{v.real:.17g}{v.imag:+.17g}i" for v in tb.coeff_matrix[:, j]))
        for j, alpha in enumerate(tb.included)
    ))
    return table.rstrip(), {"included": [list(a) for a in tb.included]}, table, None


def sop_cmd(spec_path):
    """Effectiveness report for (domain, F, weight)."""
    from .sop import effectiveness_report

    data = _load_spec(spec_path, "domain", "F", "weight")
    domain = _load_diagonal(data["domain"], "sop")
    F = Jet.from_json(data["F"], "F")
    phi = ToricWeight.from_json(data["weight"])
    rep = effectiveness_report(domain, F, phi)
    payload = rep.to_json()
    table = _csv("quantity,value", (
        (key, json.dumps(v) if isinstance(v, dict) else v)
        for key, v in payload.items() if key not in ("diagnostics", "ideal_plus")
    ))
    return rep.text_table(), payload, table, None


def cse(spec_path, t_grid):
    """Sublevel-kernel growth rate of a functional against a toric weight."""
    from .sop import xi_cse_combinatorial, xi_cse_limit

    data = _load_spec(spec_path, "domain", "xi", "weight")
    domain = _load_diagonal(data["domain"], "cse")
    xi = _nonzero(Functional.from_json(data["xi"], "xi"), "xi")
    phi = ToricWeight.from_json(data["weight"])
    grid = _parse_tgrid(_range_text(data, "t_grid", t_grid))
    res = xi_cse_limit(xi, phi, domain, grid)
    gamma = xi_cse_combinatorial(xi, phi)
    table = _csv("t,logK", ((f"{t:.17g}", f"{lk:.17g}") for t, lk in res.table))
    payload = res.to_json()
    payload["combinatorial"] = encode(gamma)
    return (table + f"slope = {res.slope:.12g}  combinatorial = {float(gamma):.12g}",
            payload, table,
            None if res.convex else "cross-check failed: log K not convex along the grid")


def density(spec_path, k_range):
    """Distances from F to the rescaled kernel representatives."""
    data = _load_spec(spec_path, "domain", "F", "generators")
    domain = _load_diagonal(data["domain"], "density")
    F, gens = _jet_and_gens(data["F"], data["generators"], "generators")
    _nonzero(F, "F")
    ks = _parse_krange(_range_text(data, "k_range", k_range))
    rows = density_sequence(domain, F, gens, ks)
    table = _csv("k,distance", ((k, f"{dist:.17g}") for k, dist in rows))
    return table.rstrip(), {"rows": [{"k": k, "distance": d} for k, d in rows]}, table, None


def suite(name, seed, count):
    """Run a named verification suite (equivalence|sop|convexity|density)."""
    from .suites import run_suite

    result = run_suite(name, seed=seed, count=count)
    payload = {
        "name": result.name,
        "total": result.total,
        "passed": result.passed,
        "max_gap": result.max_gap,
        "failures": result.failures,
    }
    notes = "\n".join(f"  instance {i}: {note}" for i, note in result.failures)
    return (result.summary(), payload, _csv("instance,ok,gap,note", result.rows),
            None if result.ok else notes)


SPEC = ("--spec", {"dest": "spec_path", "required": True, "metavar": "PATH"})
OUT = ("--out", {"dest": "out_dir", "metavar": "PATH"})
MODE = ("--mode", {"choices": ("exact", "float")})
K_RANGE = ("--k", {"dest": "k_range", "default": "2..5", "help": "default: %(default)s"})

# each command, its name and its options, in the order of --help
COMMANDS = (
    (equiv, "equiv", (SPEC, OUT, MODE)),
    (ladder, "ladder", (SPEC, OUT, MODE, K_RANGE)),
    (exhaust, "exhaust", (SPEC, OUT)),
    (kernel, "kernel", (SPEC, OUT, MODE)),
    (basis, "basis", (SPEC, OUT)),
    (sop_cmd, "sop", (SPEC, OUT)),
    (cse, "cse", (SPEC, OUT, ("--t", {"dest": "t_grid", "default": "1:10:1",
                                      "help": "default: %(default)s"}))),
    (density, "density", (SPEC, OUT, K_RANGE)),
    (suite, "suite", (("name", {}), OUT,
                      ("--seed", {"type": int, "default": 0, "help": "default: %(default)s"}),
                      ("--count", {"type": int}))),
)


# the options, every one of which takes a value
VALUE_OPTIONS = {flag for _, _, options in COMMANDS for flag, _ in options if flag[0] == "-"}


def _attach_values(argv):
    """``argv`` with each ``--option value`` written ``--option=value``: an
    option's value is the next argument, whatever it starts with, so
    ``--t -inf:10:1`` is a t grid rather than an unknown option."""
    out, args = [], iter(argv)
    for arg in args:
        if arg in VALUE_OPTIONS:
            value = next(args, None)
            if value is not None:
                arg = f"{arg}={value}"
        out.append(arg)
    return out


def _parser(prog_name):
    parser = argparse.ArgumentParser(
        prog=prog_name,
        description="Bergman kernels, minimal L2 integrals, and effectiveness reports.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for fn, name, options in COMMANDS:
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(command=fn, stem=name)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
    return parser


def main(argv=None, prog_name="berglab") -> int:
    """Run the command named in ``argv`` (default ``sys.argv[1:]``) and
    return its exit code; a usage error is exit 2, ``--help`` exit 0.  The
    command returns its stdout text, JSON payload, CSV table and failed
    cross-check (or None); this prints the text, writes ``<stem>.json`` and
    ``<stem>.csv`` under ``--out`` and then turns the failure into exit 1.
    The type of the error that ends a command picks its code and the prefix
    of its message on stderr."""
    try:
        args = vars(_parser(prog_name).parse_args(
            _attach_values(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:  # argparse exits after --help or a usage error
        return exc.code
    command, stem, out = args.pop("command"), args.pop("stem"), args.pop("out_dir")
    if "name" in args:  # a suite writes suite_<name>.*
        stem = f"{stem}_{args['name']}"
    try:
        text, payload, table, failure = command(**args)
        print(text)
        _write_outputs(out, stem, payload, table)
        if failure is not None:
            raise CrossCheckError(failure)
        return 0
    except CrossCheckError as exc:
        code, message = EXIT_CROSSCHECK, str(exc)
    except ValueError as exc:  # the berglab spec errors are ValueErrors too
        code, message = EXIT_SPEC, f"spec error: {exc}"
    except (QuadratureError, SingularMatrixError) as exc:
        code, message = EXIT_NUMERICAL, f"numerical failure: {exc}"
    except BerglabError as exc:
        code, message = EXIT_NUMERICAL, f"error: {exc}"
    sys.stdout.flush()
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
