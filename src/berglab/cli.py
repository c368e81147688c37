"""Batch command-line front-end.

JSON problem specs in, JSON results and CSV tables out.  Exit codes:
0 success, 1 theorem cross-check failure, 2 spec/schema violation,
3 numerical failure.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import click

from .bergman import (
    b_circle,
    density_sequence,
    exhaustion_limit,
    kernel_at_origin,
    krull_ladder,
    minimal_l2,
    routes_agree,
    triangular_basis,
)
from .domains import (
    ExhaustionSequence,
    ToricWeight,
    domain_from_json,
    moment_matrix,
)
from .errors import (
    BerglabError,
    DimensionMismatchError,
    ImproperIdealError,
    QuadratureError,
    SingularMatrixError,
)
from .exactnum import PiValue, value_float
from .ideals import IdealPresentation, jet_ideal
from .jets import Functional, Jet
from .sop import effectiveness_report, xi_cse_combinatorial, xi_cse_limit
from .suites import run_suite

EXIT_CROSSCHECK = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3

_TERMS = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["alpha"],
        "properties": {
            "alpha": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            "re": {"type": ["number", "string"]},
            "im": {"type": ["number", "string"]},
        },
    },
}
_JET = {
    "type": "object",
    "required": ["n", "terms"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "degree_bound": {"type": "integer", "minimum": 0},
        "terms": _TERMS,
    },
}
_DOMAIN = {"type": "object", "required": ["kind"]}
_IDEAL = {
    "type": "object",
    "required": ["generators", "level"],
    "properties": {
        "generators": {"type": "array", "items": _JET, "minItems": 1},
        "level": {"type": "integer", "minimum": 1},
    },
}
_WEIGHT = {
    "type": "object",
    "required": ["a"],
    "properties": {"a": {"type": "array", "minItems": 1}},
}

SCHEMAS = {
    "equiv": {
        "type": "object",
        "required": ["domain", "F", "ideal"],
        "properties": {"domain": _DOMAIN, "F": _JET, "ideal": _IDEAL},
    },
    "ladder": {
        "type": "object",
        "required": ["domain", "F", "generators"],
        "properties": {
            "domain": _DOMAIN,
            "F": _JET,
            "generators": {"type": "array", "items": _JET, "minItems": 1},
        },
    },
    "exhaust": {
        "type": "object",
        "required": ["domains", "F", "ideal"],
        "properties": {
            "domains": {"type": "array", "items": _DOMAIN, "minItems": 1},
            "F": _JET,
            "ideal": _IDEAL,
        },
    },
    "kernel": {
        "type": "object",
        "required": ["domain", "xi"],
        "properties": {
            "domain": _DOMAIN,
            "xi": {"type": "object", "required": ["n", "terms"]},
        },
    },
    "basis": {
        "type": "object",
        "required": ["domain", "degree"],
        "properties": {"domain": _DOMAIN, "degree": {"type": "integer", "minimum": 0}},
    },
    "sop": {
        "type": "object",
        "required": ["domain", "F", "weight"],
        "properties": {"domain": _DOMAIN, "F": _JET, "weight": _WEIGHT},
    },
    "cse": {
        "type": "object",
        "required": ["domain", "xi", "weight"],
        "properties": {
            "domain": _DOMAIN,
            "xi": {"type": "object", "required": ["n", "terms"]},
            "weight": _WEIGHT,
        },
    },
    "density": {
        "type": "object",
        "required": ["domain", "F", "generators"],
        "properties": {
            "domain": _DOMAIN,
            "F": _JET,
            "generators": {"type": "array", "items": _JET, "minItems": 1},
        },
    },
}

_MOMENT_KINDS = {"offcenter_disc", "two_point_disc", "radial"}


def _load_spec(path, command):
    import jsonschema

    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        click.echo(f"cannot read spec: {exc}", err=True)
        sys.exit(EXIT_SCHEMA)
    try:
        jsonschema.validate(data, SCHEMAS[command])
    except jsonschema.ValidationError as exc:
        pointer = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        click.echo(f"spec validation failed at {pointer}: {exc.message}", err=True)
        sys.exit(EXIT_SCHEMA)
    return data


def _load_domain(desc, degree=None, mode=None):
    if desc.get("kind") in _MOMENT_KINDS or desc.get("moment"):
        d = degree if degree is not None else int(desc.get("degree", 4))
        return moment_matrix(desc, d)
    dom = domain_from_json(desc)
    if mode == "float" and hasattr(dom, "exact"):
        dom.exact = False
    return dom


def _encode(v):
    if isinstance(v, PiValue):
        return v.to_json()
    if isinstance(v, Fraction):
        return str(v)
    return v


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
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.json").write_text(json.dumps(_json_safe(result_json), indent=2) + "\n")
    if csv_text is not None:
        (out / f"{name}.csv").write_text(csv_text)


def _parse_krange(text):
    a, b = text.split("..")
    return range(int(a), int(b) + 1)


def _parse_tgrid(text):
    a, b, step = (float(x) for x in text.split(":"))
    out, t = [], a
    while t <= b + 1e-12:
        out.append(round(t, 12))
        t += step
    return out


# what the library raises for input the maths rejects: while a spec is turned
# into objects, these are spec errors
_SPEC_ERRORS = (ValueError, KeyError, DimensionMismatchError, ImproperIdealError)


def _run(fn, spec_errors=()):
    """Call ``fn``, turning library errors into exit codes: ``spec_errors``
    exit 2, numerical and other berglab errors exit 3."""
    try:
        return fn()
    except spec_errors as exc:
        click.echo(f"spec error: {exc}", err=True)
        sys.exit(EXIT_SCHEMA)
    except (QuadratureError, SingularMatrixError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    except BerglabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)


def _build(fn):
    """Turn spec data into objects: exit 2 on a spec error, 3 on a numerical
    failure (moment quadrature)."""
    return _run(fn, _SPEC_ERRORS)


def _jet_and_gens(f_json, gens_json):
    F = Jet.from_json(f_json)
    return F, IdealPresentation(F.n, [Jet.from_json(g) for g in gens_json])


def _weight(w_json):
    return ToricWeight(tuple(Fraction(x) for x in w_json["a"]))


spec_opt = click.option("--spec", "spec_path", required=True, type=click.Path())
out_opt = click.option("--out", "out_dir", default=None, type=click.Path())
mode_opt = click.option("--mode", type=click.Choice(["exact", "float"]), default=None)


@click.group()
def main():
    """Bergman kernels, minimal L2 integrals, and effectiveness reports."""


@main.command()
@spec_opt
@out_opt
@mode_opt
def equiv(spec_path, out_dir, mode):
    """Compare the projection and kernel-ratio values on one instance."""
    data = _load_spec(spec_path, "equiv")
    domain = _build(lambda: _load_domain(data["domain"], mode=mode))
    F, gens = _build(lambda: _jet_and_gens(data["F"], data["ideal"]["generators"]))
    level = data["ideal"]["level"]
    F = Jet(F.n, max(F.degree_bound, level - 1), F.coeffs)

    def compute():
        J = jet_ideal(gens, level)
        return minimal_l2(domain, F, J), b_circle(domain, F, J)

    proj, ratio = _run(compute)
    agree, gap = routes_agree(proj.value, ratio.value)
    click.echo(f"C  = {_fmt(proj.value)}")
    click.echo(f"B' = {_fmt(ratio.value)}")
    click.echo(f"gap = {gap:.3e}")
    result = {
        "C": _encode(proj.value),
        "B_circle": _encode(ratio.value),
        "gap": gap,
        "projection": proj.to_json(),
    }
    csv_text = "quantity,value\nC,{}\nB_circle,{}\ngap,{:.17g}\n".format(
        _fmt(proj.value), _fmt(ratio.value), gap
    )
    _write_outputs(out_dir, "equiv", result, csv_text)
    if not agree:
        click.echo("cross-check failed: B' != C", err=True)
        sys.exit(EXIT_CROSSCHECK)


@main.command()
@spec_opt
@out_opt
@mode_opt
@click.option("--k", "k_range", default="2..5", show_default=True)
def ladder(spec_path, out_dir, mode, k_range):
    """Minimal L2 integrals along I + m^k for a range of k."""
    data = _load_spec(spec_path, "ladder")
    domain = _build(lambda: _load_domain(data["domain"], mode=mode))
    F, gens = _build(lambda: _jet_and_gens(data["F"], data["generators"]))
    ks = _build(lambda: _parse_krange(data.get("k_range", k_range)))
    F = Jet(F.n, max(F.degree_bound, max(ks) - 1), F.coeffs)
    result = _run(lambda: krull_ladder(domain, F, gens, ks))
    lines = ["k,C_k,B_k,gap"]
    for row in result.rows:
        lines.append(
            f"{row.k},{_fmt(row.c_value)},{_fmt(row.b_value)},{row.gap():.17g}"
        )
    csv_text = "\n".join(lines) + "\n"
    click.echo(csv_text.rstrip())
    click.echo(f"stabilized: {result.stabilized}")
    _write_outputs(
        out_dir,
        "ladder",
        {
            "rows": [
                {"k": r.k, "C": _encode(r.c_value), "B": _encode(r.b_value)}
                for r in result.rows
            ],
            "stabilized": result.stabilized,
            "limit": _encode(result.limit_estimate),
        },
        csv_text,
    )
    if not all(routes_agree(r.c_value, r.b_value)[0] for r in result.rows):
        click.echo("cross-check failed: B_k != C_k at some level", err=True)
        sys.exit(EXIT_CROSSCHECK)


@main.command()
@spec_opt
@out_opt
def exhaust(spec_path, out_dir):
    """Minimal L2 integrals along a nested family of domains."""
    data = _load_spec(spec_path, "exhaust")
    seq = _build(lambda: ExhaustionSequence([_load_domain(d) for d in data["domains"]]))
    F, gens = _build(lambda: _jet_and_gens(data["F"], data["ideal"]["generators"]))
    level = data["ideal"]["level"]
    F = Jet(F.n, max(F.degree_bound, level - 1), F.coeffs)

    def compute():
        J = jet_ideal(gens, level)
        return exhaustion_limit(seq, F, J)

    rows = _run(compute)
    lines = ["i,C_i"] + [f"{i},{_fmt(v)}" for i, v in rows]
    csv_text = "\n".join(lines) + "\n"
    click.echo(csv_text.rstrip())
    _write_outputs(
        out_dir,
        "exhaust",
        {"rows": [{"i": i, "C": _encode(v)} for i, v in rows]},
        csv_text,
    )
    vals = [value_float(v) for _, v in rows]
    if any(b < a - 1e-9 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:])):
        click.echo("cross-check failed: sequence not nondecreasing", err=True)
        sys.exit(EXIT_CROSSCHECK)


@main.command()
@spec_opt
@out_opt
@mode_opt
def kernel(spec_path, out_dir, mode):
    """Kernel value at the origin for a coefficient functional."""
    data = _load_spec(spec_path, "kernel")
    domain = _build(lambda: _load_domain(data["domain"], mode=mode))
    xi = _build(lambda: Functional.from_json(data["xi"]))
    value = _run(lambda: kernel_at_origin(domain, xi))
    click.echo(f"K = {_fmt(value)}")
    _write_outputs(out_dir, "kernel", {"K": _encode(value)}, f"K\n{_fmt(value)}\n")


@main.command()
@spec_opt
@out_opt
def basis(spec_path, out_dir):
    """Triangular orthonormal basis up to a degree bound."""
    data = _load_spec(spec_path, "basis")
    d = data["degree"]
    domain = _build(lambda: _load_domain(data["domain"], degree=d))
    tb = _run(lambda: triangular_basis(domain, d))
    lines = ["alpha,coefficients"]
    for j, alpha in enumerate(tb.included):
        col = tb.coeff_matrix[:, j]
        coeffs = ";".join(f"{v.real:.17g}{v.imag:+.17g}i" for v in col)
        lines.append(f"{''.join(map(str, alpha))},{coeffs}")
    csv_text = "\n".join(lines) + "\n"
    click.echo(csv_text.rstrip())
    _write_outputs(
        out_dir,
        "basis",
        {"included": [list(a) for a in tb.included]},
        csv_text,
    )


@main.command(name="sop")
@spec_opt
@out_opt
def sop_cmd(spec_path, out_dir):
    """Effectiveness report for (domain, F, weight)."""
    data = _load_spec(spec_path, "sop")
    domain = _build(lambda: _load_domain(data["domain"]))
    F = _build(lambda: Jet.from_json(data["F"]))
    phi = _build(lambda: _weight(data["weight"]))
    rep = _run(lambda: effectiveness_report(domain, F, phi))
    click.echo(rep.text_table())
    csv_lines = ["quantity,value"]
    for key, v in rep.to_json().items():
        if key in ("diagnostics", "ideal_plus"):
            continue
        csv_lines.append(f"{key},{json.dumps(v) if isinstance(v, dict) else v}")
    _write_outputs(out_dir, "sop", rep.to_json(), "\n".join(csv_lines) + "\n")


@main.command()
@spec_opt
@out_opt
@click.option("--t", "t_grid", default="1:10:1", show_default=True)
def cse(spec_path, out_dir, t_grid):
    """Sublevel-kernel growth rate of a functional against a toric weight."""
    data = _load_spec(spec_path, "cse")
    domain = _build(lambda: _load_domain(data["domain"]))
    xi = _build(lambda: Functional.from_json(data["xi"]))
    phi = _build(lambda: _weight(data["weight"]))
    grid = _build(lambda: _parse_tgrid(data.get("t_grid", t_grid)))

    def compute():
        res = xi_cse_limit(xi, phi, domain, grid)
        return res, xi_cse_combinatorial(xi, phi)

    res, gamma = _run(compute)
    lines = ["t,logK"] + [f"{t:.17g},{lk:.17g}" for t, lk in res.table]
    csv_text = "\n".join(lines) + "\n"
    click.echo(csv_text.rstrip())
    click.echo(f"slope = {res.slope:.12g}  combinatorial = {float(gamma):.12g}")
    payload = res.to_json()
    payload["combinatorial"] = str(gamma)
    _write_outputs(out_dir, "cse", payload, csv_text)
    if not res.convex:
        click.echo("cross-check failed: log K not convex along the grid", err=True)
        sys.exit(EXIT_CROSSCHECK)


@main.command()
@spec_opt
@out_opt
@click.option("--k", "k_range", default="2..5", show_default=True)
def density(spec_path, out_dir, k_range):
    """Distances from F to the rescaled kernel representatives."""
    data = _load_spec(spec_path, "density")
    domain = _build(lambda: _load_domain(data["domain"]))
    F, gens = _build(lambda: _jet_and_gens(data["F"], data["generators"]))
    ks = _build(lambda: _parse_krange(data.get("k_range", k_range)))
    F = Jet(F.n, max(F.degree_bound, max(ks) - 1), F.coeffs)
    rows = _run(lambda: density_sequence(domain, F, gens, ks))
    lines = ["k,distance"] + [f"{k},{dist:.17g}" for k, dist in rows]
    csv_text = "\n".join(lines) + "\n"
    click.echo(csv_text.rstrip())
    _write_outputs(
        out_dir,
        "density",
        {"rows": [{"k": k, "distance": d} for k, d in rows]},
        csv_text,
    )


@main.command()
@click.argument("name")
@out_opt
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=None)
def suite(name, out_dir, seed, count):
    """Run a named verification suite (equivalence|sop|convexity|density)."""
    result = _run(lambda: run_suite(name, seed=seed, count=count), (ValueError,))
    click.echo(result.summary())
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
        for i, note in result.failures:
            click.echo(f"  instance {i}: {note}", err=True)
        sys.exit(EXIT_CROSSCHECK)


if __name__ == "__main__":
    main()
