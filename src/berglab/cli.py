"""Batch command-line front-end.

JSON problem specs in, JSON results and CSV tables out.  Exit codes:
0 success, 1 theorem cross-check failure, 2 spec error (a field missing or
of the wrong type, a radius <= 0, objects of different dimensions, a zero
xi or F, a density F outside the ideal's orthogonal complement, a problem
the construction does not support) or usage error, 3 numerical failure.

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
from .errors import (
    BerglabError,
    DimensionMismatchError,
    ImproperIdealError,
    JetSpaceTooLargeError,
    NotInComplementError,
    QuadratureError,
    SingularMatrixError,
    UnsupportedDomainError,
    ZeroKernelError,
)
from .exactnum import encode, is_exact, value_float
from .ideals import IdealPresentation, jet_ideal
from .jets import Functional, Jet
from .jsonspec import integer, json_list, json_object

EXIT_CROSSCHECK = 1
EXIT_SPEC = 2
EXIT_NUMERICAL = 3

# most points a "start:stop:step" t grid may have
MAX_T_POINTS = 10_000


class _Exit(Exception):
    """Ends a command with exit code ``code``, ``message`` going to stderr."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load_spec(path, *required):
    """The spec at ``path``, a JSON object holding each ``required`` field
    (else exit 2); the reader of each field checks it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_SPEC, f"cannot read spec: {exc}") from None
    return _build(lambda: json_object(data, "the spec", required))


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


def _load_diagonal(desc, command):
    """The domain of a command that needs a diagonal one: a moment-domain
    descriptor is a spec error."""
    if json_object(desc, "domain").get("kind") in MOMENT_KINDS:
        raise ValueError(f"{command} needs a diagonal domain, not {desc['kind']!r}")
    return domain_from_json(desc)


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


def _write_outputs(out, name, result_json, csv_text=None):
    if out is None:
        return
    out = out or os.curdir  # --out "" is the working directory
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{name}.json"), "w") as fh:
        fh.write(json.dumps(_json_safe(result_json), indent=2) + "\n")
    if csv_text is not None:
        with open(os.path.join(out, f"{name}.csv"), "w") as fh:
            fh.write(csv_text)


def _range_text(data, key, default):
    """The spec's range string ``data[key]``, else the option's value."""
    text = data.get(key, default)
    if not isinstance(text, str):
        raise ValueError(f"{key} must be a string, not {text!r}")
    return text


def _parse_krange(text):
    a, b = text.split("..")
    ks = range(int(a), int(b) + 1)
    if not ks or ks[0] < 1:
        raise ValueError(f"k range {text!r} must be a nonempty range of levels >= 1")
    return ks


def _parse_tgrid(text):
    from .sop import t_grid_points

    a, b, step = (float(x) for x in text.split(":"))
    if not (math.isfinite(a) and math.isfinite(b) and step > 0):
        raise ValueError(f"t grid {text!r} needs finite ends and a positive step")
    if (b - a) / step >= MAX_T_POINTS:
        raise ValueError(f"t grid {text!r} has more than {MAX_T_POINTS} points")
    out, t = [], a
    while t <= b + 1e-12:
        out.append(round(t, 12))
        t += step
    return t_grid_points(out)


def _run(fn, spec_errors=()):
    """Call ``fn``, turning library errors into exit codes: ``spec_errors``,
    a jet space past the size cap, objects of different dimensions and a
    domain the construction does not support (moment data too small
    included) exit 2, numerical and other berglab errors exit 3."""
    try:
        return fn()
    except (JetSpaceTooLargeError, UnsupportedDomainError, DimensionMismatchError,
            *spec_errors) as exc:
        raise _Exit(EXIT_SPEC, f"spec error: {exc}") from None
    except (QuadratureError, SingularMatrixError) as exc:
        raise _Exit(EXIT_NUMERICAL, f"numerical failure: {exc}") from None
    except BerglabError as exc:
        raise _Exit(EXIT_NUMERICAL, f"error: {exc}") from None


def _build(fn):
    """Turn spec data into objects: exit 2 on a spec error (the library
    raises ValueError or ImproperIdealError for input the maths rejects), 3
    on a numerical failure (moment quadrature)."""
    return _run(fn, (ValueError, ImproperIdealError))


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


def equiv(spec_path, out_dir, mode):
    """Compare the projection and kernel-ratio values on one instance."""
    data = _load_spec(spec_path, "domain", "F", "ideal")
    domain = _build(lambda: _load_domain(data["domain"], mode=mode))
    F, gens, level = _build(lambda: _jet_and_ideal(data, mode))

    def compute():
        J = jet_ideal(gens, level)
        return both_routes(domain, F, J)

    proj, ratio = _run(compute)
    agree, gap = routes_agree(proj.value, ratio.value)
    print(f"C  = {_fmt(proj.value)}")
    print(f"B' = {_fmt(ratio.value)}")
    print(f"gap = {gap:.3e}")
    result = {
        "C": encode(proj.value),
        "B_circle": encode(ratio.value),
        "gap": gap,
        "projection": proj.to_json(),
    }
    csv_text = "quantity,value\nC,{}\nB_circle,{}\ngap,{:.17g}\n".format(
        _fmt(proj.value), _fmt(ratio.value), gap
    )
    _write_outputs(out_dir, "equiv", result, csv_text)
    if not agree:
        raise _Exit(EXIT_CROSSCHECK, "cross-check failed: B' != C")


def ladder(spec_path, out_dir, mode, k_range):
    """Minimal L2 integrals along I + m^k for a range of k."""
    data = _load_spec(spec_path, "domain", "F", "generators")
    domain = _build(lambda: _load_domain(data["domain"], mode=mode))
    F, gens = _build(lambda: _jet_and_gens(data["F"], data["generators"], "generators", mode))
    ks = _build(lambda: _parse_krange(_range_text(data, "k_range", k_range)))
    result = _run(lambda: krull_ladder(domain, F, gens, ks))
    lines = ["k,C_k,B_k,gap"]
    for row in result.rows:
        lines.append(
            f"{row.k},{_fmt(row.c_value)},{_fmt(row.b_value)},{row.gap():.17g}"
        )
    csv_text = "\n".join(lines) + "\n"
    print(csv_text.rstrip())
    print(f"stabilized: {result.stabilized}")
    _write_outputs(
        out_dir,
        "ladder",
        {
            "rows": [
                {"k": r.k, "C": encode(r.c_value), "B": encode(r.b_value)}
                for r in result.rows
            ],
            "stabilized": result.stabilized,
            "limit": encode(result.limit_estimate),
        },
        csv_text,
    )
    if not all(routes_agree(r.c_value, r.b_value)[0] for r in result.rows):
        raise _Exit(EXIT_CROSSCHECK, "cross-check failed: B_k != C_k at some level")


def exhaust(spec_path, out_dir):
    """Minimal L2 integrals along a nested family of domains."""
    data = _load_spec(spec_path, "domains", "F", "ideal")
    seq = _build(lambda: ExhaustionSequence([
        _load_domain(d, name=f"domains[{i}]")
        for i, d in enumerate(json_list(data["domains"], "domains", nonempty=True))
    ]))
    F, gens, level = _build(lambda: _jet_and_ideal(data))

    def compute():
        J = jet_ideal(gens, level)
        return exhaustion_limit(seq, F, J)

    rows = _run(compute)
    lines = ["i,C_i"] + [f"{i},{_fmt(v)}" for i, v in rows]
    csv_text = "\n".join(lines) + "\n"
    print(csv_text.rstrip())
    _write_outputs(
        out_dir,
        "exhaust",
        {"rows": [{"i": i, "C": encode(v)} for i, v in rows]},
        csv_text,
    )
    vals = [value_float(v) for _, v in rows]
    if any(b < a - 1e-9 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:])):
        raise _Exit(EXIT_CROSSCHECK, "cross-check failed: sequence not nondecreasing")


def kernel(spec_path, out_dir, mode):
    """Kernel value at the origin for a coefficient functional."""
    data = _load_spec(spec_path, "domain", "xi")
    domain = _build(lambda: _load_domain(data["domain"], mode=mode))
    xi = _build(lambda: _nonzero(Functional.from_json(data["xi"], "xi"), "xi"))
    _build(lambda: _insist_exact(mode, xi.entries))
    value = _run(lambda: kernel_at_origin(domain, xi))
    print(f"K = {_fmt(value)}")
    _write_outputs(out_dir, "kernel", {"K": encode(value)}, f"K\n{_fmt(value)}\n")


def basis(spec_path, out_dir):
    """Triangular orthonormal basis up to a degree bound."""
    data = _load_spec(spec_path, "domain", "degree")
    d = _build(lambda: integer(data["degree"], "degree", 0))
    domain = _build(lambda: _load_domain(data["domain"], degree=d))
    tb = _run(lambda: triangular_basis(domain, d))
    lines = ["alpha,coefficients"]
    for j, alpha in enumerate(tb.included):
        col = tb.coeff_matrix[:, j]
        coeffs = ";".join(f"{v.real:.17g}{v.imag:+.17g}i" for v in col)
        lines.append(f"{''.join(map(str, alpha))},{coeffs}")
    csv_text = "\n".join(lines) + "\n"
    print(csv_text.rstrip())
    _write_outputs(
        out_dir,
        "basis",
        {"included": [list(a) for a in tb.included]},
        csv_text,
    )


def sop_cmd(spec_path, out_dir):
    """Effectiveness report for (domain, F, weight)."""
    from .sop import effectiveness_report

    data = _load_spec(spec_path, "domain", "F", "weight")
    domain = _build(lambda: _load_diagonal(data["domain"], "sop"))
    F = _build(lambda: Jet.from_json(data["F"], "F"))
    phi = _build(lambda: ToricWeight.from_json(data["weight"]))
    # a zero F has no jumping number (ValueError): a spec error
    rep = _run(lambda: effectiveness_report(domain, F, phi), (ValueError,))
    print(rep.text_table())
    csv_lines = ["quantity,value"]
    for key, v in rep.to_json().items():
        if key in ("diagnostics", "ideal_plus"):
            continue
        csv_lines.append(f"{key},{json.dumps(v) if isinstance(v, dict) else v}")
    _write_outputs(out_dir, "sop", rep.to_json(), "\n".join(csv_lines) + "\n")


def cse(spec_path, out_dir, t_grid):
    """Sublevel-kernel growth rate of a functional against a toric weight."""
    from .sop import xi_cse_combinatorial, xi_cse_limit

    data = _load_spec(spec_path, "domain", "xi", "weight")
    domain = _build(lambda: _load_diagonal(data["domain"], "cse"))
    xi = _build(lambda: _nonzero(Functional.from_json(data["xi"], "xi"), "xi"))
    phi = _build(lambda: ToricWeight.from_json(data["weight"]))
    grid = _build(lambda: _parse_tgrid(_range_text(data, "t_grid", t_grid)))

    def compute():
        res = xi_cse_limit(xi, phi, domain, grid)
        return res, xi_cse_combinatorial(xi, phi)

    res, gamma = _run(compute, (ZeroKernelError,))
    lines = ["t,logK"] + [f"{t:.17g},{lk:.17g}" for t, lk in res.table]
    csv_text = "\n".join(lines) + "\n"
    print(csv_text.rstrip())
    print(f"slope = {res.slope:.12g}  combinatorial = {float(gamma):.12g}")
    payload = res.to_json()
    payload["combinatorial"] = encode(gamma)
    _write_outputs(out_dir, "cse", payload, csv_text)
    if not res.convex:
        raise _Exit(EXIT_CROSSCHECK, "cross-check failed: log K not convex along the grid")


def density(spec_path, out_dir, k_range):
    """Distances from F to the rescaled kernel representatives."""
    data = _load_spec(spec_path, "domain", "F", "generators")
    domain = _build(lambda: _load_diagonal(data["domain"], "density"))
    F, gens = _build(lambda: _jet_and_gens(data["F"], data["generators"], "generators"))
    _build(lambda: _nonzero(F, "F"))
    ks = _build(lambda: _parse_krange(_range_text(data, "k_range", k_range)))
    # an F outside the ideal's orthogonal complement is a spec error
    rows = _run(lambda: density_sequence(domain, F, gens, ks), (NotInComplementError,))
    lines = ["k,distance"] + [f"{k},{dist:.17g}" for k, dist in rows]
    csv_text = "\n".join(lines) + "\n"
    print(csv_text.rstrip())
    _write_outputs(
        out_dir,
        "density",
        {"rows": [{"k": k, "distance": d} for k, d in rows]},
        csv_text,
    )


def suite(name, out_dir, seed, count):
    """Run a named verification suite (equivalence|sop|convexity|density)."""
    from .suites import run_suite

    result = _run(lambda: run_suite(name, seed=seed, count=count), (ValueError,))
    print(result.summary())
    _write_outputs(
        out_dir,
        f"suite_{name}",
        {
            "name": result.name,
            "total": result.total,
            "passed": result.passed,
            "max_gap": result.max_gap,
            "failures": result.failures,
        },
        result.to_csv(),
    )
    if not result.ok:
        notes = (f"  instance {i}: {note}" for i, note in result.failures)
        raise _Exit(EXIT_CROSSCHECK, "\n".join(notes))


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
        sub.set_defaults(command=fn)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
    return parser


def main(argv=None, prog_name="berglab") -> int:
    """Run the command named in ``argv`` (default ``sys.argv[1:]``) and
    return its exit code; a usage error is exit 2, ``--help`` exit 0."""
    try:
        args = vars(_parser(prog_name).parse_args(
            _attach_values(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:  # argparse exits after --help or a usage error
        return exc.code
    command = args.pop("command")
    try:
        command(**args)
    except _Exit as exc:
        sys.stdout.flush()
        print(exc, file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
