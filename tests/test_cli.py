"""CLI behavior: dispatch, schema validation, exit codes, determinism."""

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import pytest

from berglab import bergman, cli, suites
from berglab.cli import main
from berglab.errors import BerglabError
from berglab.exactnum import PiValue

DISC_Z_SQUARED = {
    "domain": {"kind": "polydisc", "radii": [1]},
    "F": {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]},
    "ideal": {
        "generators": [{"n": 1, "terms": [{"alpha": [2], "re": "1", "im": "0"}]}],
        "level": 2,
    },
}

TWISTED_CUSP = {
    "domain": {"kind": "polydisc", "radii": [1, 1]},
    "F": {"n": 2, "terms": [{"alpha": [1, 0], "re": "1", "im": "0"}]},
    "generators": [
        {
            "n": 2,
            "terms": [
                {"alpha": [1, 0], "re": "1", "im": "0"},
                {"alpha": [0, 2], "re": "-1", "im": "0"},
            ],
        }
    ],
}


# both routes are infinite: F = 1 + z on the disc with weight |z|^-2, whose
# constant has infinite norm, modulo <z^2>
WEIGHTED_DISC_INFINITE = {
    "domain": {
        "kind": "toric_weight",
        "a": ["1"],
        "c": "1",
        "base": {"kind": "polydisc", "radii": [1]},
    },
    "F": {
        "n": 1,
        "terms": [{"alpha": [0], "re": "1", "im": "0"}, {"alpha": [1], "re": "1", "im": "0"}],
    },
    "ideal": {
        "generators": [{"n": 1, "terms": [{"alpha": [2], "re": "1", "im": "0"}]}],
        "level": 2,
    },
}


# the terms 1, z and z^2, the unit disc, and the unit disc weighted by |z|^-2,
# on which the constant is not square-integrable
ONE, Z, Z_SQUARED = ({"alpha": [k], "re": "1", "im": "0"} for k in range(3))
DISC = {"kind": "polydisc", "radii": [1]}
WEIGHTED_DISC = {"kind": "toric_weight", "a": ["1"], "base": DISC}


# the two-variable ideal <z1 - (2 - i) z2^2> on the polydisc of radii (1, 2)
EXACT_2D_LADDER = {
    "domain": {"kind": "polydisc", "radii": [1, 2]},
    "F": {
        "n": 2,
        "terms": [
            {"alpha": [1, 0], "re": "1", "im": "0"},
            {"alpha": [0, 1], "re": "1/2", "im": "-1"},
        ],
    },
    "generators": [
        {
            "n": 2,
            "terms": [
                {"alpha": [1, 0], "re": "1", "im": "0"},
                {"alpha": [0, 2], "re": "-2", "im": "1"},
            ],
        }
    ],
}

# Gaussian data whose projection and eta have real and complex entries
GAUSSIAN_BIDISC = {
    "domain": {"kind": "polydisc", "radii": ["1", "3/2"]},
    "F": {
        "n": 2,
        "terms": [
            {"alpha": [0, 0], "re": "3", "im": "0"},
            {"alpha": [1, 0], "re": "2", "im": "0"},
            {"alpha": [0, 1], "re": "1/3", "im": "-1"},
            {"alpha": [1, 1], "re": "1", "im": "0"},
            {"alpha": [0, 2], "re": "0", "im": "5/2"},
            {"alpha": [2, 1], "re": "3", "im": "0"},
        ],
    },
    "ideal": {
        "generators": [
            {
                "n": 2,
                "terms": [
                    {"alpha": [2, 0], "re": "1", "im": "1"},
                    {"alpha": [0, 2], "re": "-1", "im": "0"},
                ],
            },
            {
                "n": 2,
                "terms": [
                    {"alpha": [1, 1], "re": "0", "im": "1"},
                    {"alpha": [0, 3], "re": "1/2", "im": "0"},
                ],
            },
        ],
        "level": 4,
    },
}


def reject_constant(token):
    raise ValueError(f"invalid JSON constant {token}")


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str


def run_cli(args):
    """Run ``berglab <args>`` in-process: its exit code, stdout and stderr.
    An exception out of ``main`` fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return CliResult(code, out.getvalue(), err.getvalue())


def write_spec(tmp_path, data, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


class TestUsage:
    def test_help_exit_0(self):
        result = run_cli(["--help"])
        assert result.exit_code == 0, result.stderr
        for command in ("equiv", "ladder", "exhaust", "kernel", "basis", "sop", "cse",
                        "density", "suite"):
            assert command in result.stdout

    @pytest.mark.parametrize(
        "args",
        [[], ["nope"], ["equiv"], ["equiv", "--spec"], ["suite"],
         ["suite", "equivalence", "--seed", "x"], ["equiv", "--spec", "s.json", "--mode", "fast"]],
        ids=["no-command", "unknown-command", "no-spec", "spec-without-value", "no-suite-name",
             "seed-not-an-integer", "unknown-mode"],
    )
    def test_usage_error_exit_2(self, args):
        result = run_cli(args)
        assert result.exit_code == 2
        assert result.stdout == "" and "usage: berglab" in result.stderr


class TestEquiv:
    def test_disc_example(self, tmp_path):
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        out = tmp_path / "out"
        result = run_cli(["equiv", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.stderr
        assert f"{math.pi/2:.17g}"[:10] in result.stdout
        data = json.loads((out / "equiv.json").read_text())
        assert data["C"] == {"pi_power": 1, "rational": "1/2"}
        assert data["B_circle"] == data["C"]

    @pytest.mark.parametrize("out", ["", "new/nested/"], ids=["empty", "missing-parents"])
    def test_out_directory(self, tmp_path, monkeypatch, out):
        # --out "" writes to the working directory; a missing one is made with its parents
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        monkeypatch.chdir(tmp_path)
        result = run_cli(["equiv", "--spec", spec, "--out", out])
        assert result.exit_code == 0, result.stderr
        data = json.loads((tmp_path / out / "equiv.json").read_text())
        assert data["C"] == {"pi_power": 1, "rational": "1/2"}
        assert (tmp_path / out / "equiv.csv").read_text().startswith("quantity,value\nC,")

    def test_float_mode(self, tmp_path):
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        result = run_cli(["equiv", "--spec", spec, "--mode", "float"])
        assert result.exit_code == 0

    def test_exact_mode(self, tmp_path):
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        result = run_cli(["equiv", "--spec", spec, "--mode", "exact"])
        assert result.exit_code == 0, result.stderr
        assert "gap = 0.000e+00" in result.stdout

    @pytest.mark.parametrize(
        "domain",
        [
            {"kind": "polydisc", "radii": [0.7]},
            {"kind": "offcenter_disc", "center": [0.2, 0.1], "radius": 0.9},
        ],
        ids=["float-radius", "offcenter-disc"],
    )
    def test_exact_mode_without_exact_norms_exit_2(self, tmp_path, domain):
        spec = write_spec(tmp_path, dict(DISC_Z_SQUARED, domain=domain))
        result = run_cli(["equiv", "--spec", spec, "--mode", "exact"])
        assert result.exit_code == 2, result.stderr
        assert "spec error" in result.stderr

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("equiv", dict(DISC_Z_SQUARED, F={"n": 1, "terms": [{"alpha": [1], "re": 1}]})),
            (
                "ladder",
                dict(
                    TWISTED_CUSP,
                    generators=[{"n": 2, "terms": [{"alpha": [1, 0], "re": 1, "im": 0}]}],
                ),
            ),
            (
                "kernel",
                {
                    "domain": {"kind": "polydisc", "radii": [1]},
                    "xi": {"n": 1, "terms": [{"alpha": [1], "re": 2.5, "im": 0}]},
                },
            ),
        ],
        ids=["equiv-F", "ladder-generator", "kernel-xi"],
    )
    def test_exact_mode_non_exact_coefficient_exit_2(self, tmp_path, command, spec):
        # a JSON number is a float coefficient: --mode exact refuses it
        result = run_cli([command, "--spec", write_spec(tmp_path, spec)])
        assert result.exit_code == 0, result.stderr
        result = run_cli(
            [command, "--spec", write_spec(tmp_path, spec), "--mode", "exact"]
        )
        assert result.exit_code == 2, result.stderr
        assert "spec error: --mode exact: a coefficient is not exact" in result.stderr

    def test_missing_field_exit_2(self, tmp_path):
        bad = {"domain": {"kind": "polydisc", "radii": [1]}}
        spec = write_spec(tmp_path, bad)
        result = run_cli(["equiv", "--spec", spec])
        assert result.exit_code == 2
        assert "F" in result.stderr

    @pytest.mark.parametrize(
        "command, path, value",
        [
            ("equiv", ("ideal", "generators", 0), {"n": 2, "terms": [{"alpha": [2, 0]}]}),
            ("equiv", ("F", "terms", 0, "alpha"), [1, 0]),
            ("equiv", ("domain",), {"kind": "hexagon"}),
            ("equiv", ("ideal", "generators", 0, "terms", 0, "alpha"), [0]),
            ("equiv", ("domain",), {"kind": "polydisc"}),
            (
                "exhaust",
                ("domains",),
                [{"kind": "polydisc", "radii": [1]}, {"kind": "polydisc", "radii": ["1/2"]}],
            ),
            (
                "basis",
                ("domain",),
                {"kind": "radial", "base": 1.0, "harmonics": [[1, 1.5, 0]]},
            ),
            (
                "basis",
                ("domain",),
                {"kind": "radial", "base": 1.0, "harmonics": [[1.5, 0.1, 0]]},
            ),
            (
                "basis",
                ("domain",),
                {"kind": "radial", "base": 1.0, "harmonics": [[-2, 0.1, 0]]},
            ),
            ("sop", ("domain",), {"kind": "ball", "n": 2, "radius": "1"}),
            ("cse", ("domain",), {"kind": "ball", "n": 2, "radius": "1"}),
        ],
        ids=[
            "generator-n",
            "alpha-length",
            "unknown-kind",
            "unit-generator",
            "no-radii",
            "exhaust-not-nested",
            "radial-nonpositive",
            "radial-fractional-order",
            "radial-negative-order",
            "sop-weight-on-ball",
            "cse-weight-on-ball",
        ],
    )
    def test_rejected_spec_exit_2(self, tmp_path, command, path, value):
        bad = json.loads(json.dumps(DISC_Z_SQUARED))
        if command == "exhaust":
            bad["domains"] = [bad.pop("domain")]
        elif command == "basis":
            bad = {"domain": bad["domain"], "degree": 3}
        elif command in ("sop", "cse"):
            # a two-variable toric weight: only polydiscs carry one
            jet = {"n": 2, "terms": [{"alpha": [1, 0], "re": "1", "im": "0"}]}
            key = "F" if command == "sop" else "xi"
            bad = {"domain": bad["domain"], key: jet, "weight": {"a": ["1", "1"]}}
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        spec = write_spec(tmp_path, bad)
        result = run_cli([command, "--spec", spec])
        assert result.exit_code == 2, result.stderr
        assert "spec error" in result.stderr

    def test_malformed_json_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        result = run_cli(["equiv", "--spec", str(p)])
        assert result.exit_code == 2

    def test_gaussian_json_bytes(self, tmp_path):
        # a real entry of an exact result is written {"re": "a", "im": "0"}
        # whether it is a Fraction or a QQi: these are the bytes written
        # when every entry of a Gaussian result was a QQi, with the
        # diagnostics' span and annihilator sizes those of the solved system
        spec = write_spec(tmp_path, GAUSSIAN_BIDISC)
        out = tmp_path / "out"
        result = run_cli(["equiv", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.stderr
        data = (out / "equiv.json").read_bytes()
        assert b'"re": "3",' in data and b'"re": "27/4",' in data
        assert hashlib.sha256(data).hexdigest() == (
            "d2459b27f3053adf25e36469b71b6f5ed472a0fc287fd84c5a50fe2c80628b15"
        )

    def test_no_tolerance_option(self, tmp_path):
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        result = run_cli(["equiv", "--spec", spec, "--tol", "1e-8"])
        assert result.exit_code == 2

    def test_both_routes_infinite_gap_0(self, tmp_path):
        spec = write_spec(tmp_path, WEIGHTED_DISC_INFINITE)
        out = tmp_path / "out"
        result = run_cli(["equiv", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.stderr
        assert "gap = 0.000e+00" in result.stdout
        assert "gap,0\n" in (out / "equiv.csv").read_text()
        data = json.loads((out / "equiv.json").read_text(), parse_constant=reject_constant)
        assert data["gap"] == 0
        assert data["C"] == data["B_circle"] == {"pi_power": 1, "rational": "inf"}


def off_by_pi_e12(real_kernel_ratio):
    """A kernel-ratio solve whose exact value is off by pi^n * 1e-12: far
    inside any float tolerance, yet unequal."""

    def kernel_ratio(prob):
        res = real_kernel_ratio(prob)
        res.value = PiValue(res.value.coeff + Fraction(1, 10**12), res.value.pi_power)
        return res

    return kernel_ratio


class TestCrossCheck:
    """An exact C != B is a cross-check failure, however small the gap."""

    def test_equiv_exact_mismatch_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bergman, "_kernel_ratio", off_by_pi_e12(bergman._kernel_ratio))
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        result = run_cli(["equiv", "--spec", spec])
        assert result.exit_code == 1, result.stderr
        assert "cross-check failed" in result.stderr

    def test_ladder_exact_mismatch_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bergman, "_kernel_ratio", off_by_pi_e12(bergman._kernel_ratio))
        spec = write_spec(tmp_path, TWISTED_CUSP)
        result = run_cli(["ladder", "--spec", spec, "--k", "2..5"])
        assert result.exit_code == 1, result.stderr
        assert "cross-check failed" in result.stderr


class TestLadder:
    def test_twisted_cusp_csv(self, tmp_path):
        spec = write_spec(tmp_path, TWISTED_CUSP)
        out = tmp_path / "out"
        result = run_cli(
            ["ladder", "--spec", spec, "--k", "2..5", "--out", str(out)]
        )
        assert result.exit_code == 0, result.stderr
        lines = (out / "ladder.csv").read_text().strip().splitlines()
        assert lines[0] == "k,C_k,B_k,gap"
        assert lines[1].startswith("2,0,0,")
        val = float(lines[2].split(",")[1])
        assert val == pytest.approx(math.pi**2 / 5, rel=1e-12)
        data = json.loads((out / "ladder.json").read_text())
        assert data["stabilized"] is True
        assert data["limit"] == {"pi_power": 2, "rational": "1/5"}

    def test_both_routes_infinite_gap_0(self, tmp_path):
        data = dict(WEIGHTED_DISC_INFINITE)
        data["generators"] = data.pop("ideal")["generators"]
        spec = write_spec(tmp_path, data)
        result = run_cli(["ladder", "--spec", spec, "--k", "2..3"])
        assert result.exit_code == 0, result.stderr
        rows = result.stdout.strip().splitlines()[1:3]
        assert [row.split(",") for row in rows] == [
            ["2", "inf", "inf", "0"],
            ["3", "inf", "inf", "0"],
        ]

    def test_deterministic_csv_bytes(self, tmp_path):
        spec = write_spec(tmp_path, TWISTED_CUSP)
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            result = run_cli(
                ["ladder", "--spec", spec, "--k", "2..5", "--out", str(out)],
            )
            assert result.exit_code == 0
            outs.append((out / "ladder.csv").read_bytes())
        assert outs[0] == outs[1]


class TestKernelBasis:
    def test_kernel_value(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "domain": {"kind": "polydisc", "radii": [1]},
                "xi": {
                    "n": 1,
                    "terms": [
                        {"alpha": [0], "re": "1", "im": "0"},
                        {"alpha": [1], "re": "1", "im": "0"},
                    ],
                },
            },
        )
        result = run_cli(["kernel", "--spec", spec])
        assert result.exit_code == 0
        assert float(result.stdout.split("=")[1]) == pytest.approx(3 / math.pi)

    def test_kernel_sums_the_integrable_slots(self, tmp_path):
        # on the disc weighted by |z|^-2 the constant is not square-integrable:
        # K(delta_0 + delta_1) = 1 / ||z||^2 = 1 / pi
        spec = write_spec(tmp_path, {"domain": WEIGHTED_DISC, "xi": {"n": 1, "terms": [ONE, Z]}})
        result = run_cli(["kernel", "--spec", spec])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == f"K = {1 / math.pi:.17g}\n"

    def test_cse_refuses_a_zero_kernel(self, tmp_path):
        # delta_0 lives only on a non-integrable slot there: K = 0 has no
        # log, and the maths rejects the input, so it is a spec error
        xi = {"n": 1, "terms": [ONE]}
        spec = write_spec(tmp_path, {"domain": WEIGHTED_DISC, "xi": xi, "weight": {"a": ["1"]}})
        result = run_cli(["cse", "--spec", spec])
        assert result.exit_code == 2
        assert "spec error: xi has no square-integrable slot" in result.stderr

    def test_basis(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {"domain": {"kind": "polydisc", "radii": [1]}, "degree": 2},
        )
        result = run_cli(["basis", "--spec", spec])
        assert result.exit_code == 0
        assert "alpha,coefficients" in result.stdout


class TestSopCse:
    def test_sop_report(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "domain": {"kind": "polydisc", "radii": [1]},
                "F": {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]},
                "weight": {"a": ["1"]},
            },
        )
        out = tmp_path / "out"
        result = run_cli(["sop", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.stderr
        data = json.loads((out / "sop.json").read_text())
        assert data["sharp"] is True
        assert data["p_max"] == "2"

    def test_cse(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "domain": {"kind": "polydisc", "radii": [1]},
                "xi": {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]},
                "weight": {"a": ["1"]},
            },
        )
        result = run_cli(["cse", "--spec", spec, "--t", "1:8:1"])
        assert result.exit_code == 0, result.stderr
        assert "slope = 2" in result.stdout

    def test_cse_underflow_exit_3(self, tmp_path):
        # ||z1 z2||^2 on {log|z1|^2 + log|z2|^2 < -t} is about e^-2t: 0.0 at t = 400
        spec = write_spec(
            tmp_path,
            {
                "domain": {"kind": "polydisc", "radii": [1, 1]},
                "xi": {"n": 2, "terms": [{"alpha": [1, 1], "re": "1", "im": "0"}]},
                "weight": {"a": ["1", "1"]},
            },
        )
        result = run_cli(["cse", "--spec", spec, "--t", "100:400:100"])
        assert result.exit_code == 3, result.stderr
        assert "numerical failure" in result.stderr

    def test_cse_overflow_exit_3(self, tmp_path):
        # ||z1^600||^2 on the sublevel sets of the radius-2 bidisc is about
        # 2^1202: past the float range
        spec = write_spec(
            tmp_path,
            {
                "domain": {"kind": "polydisc", "radii": ["2", "2"]},
                "xi": {"n": 2, "terms": [{"alpha": [600, 0], "re": "1", "im": "0"}]},
                "weight": {"a": ["1", "1"]},
            },
        )
        result = run_cli(["cse", "--spec", spec])
        assert result.exit_code == 3, result.stderr
        assert "numerical failure" in result.stderr


class TestExhaustDensity:
    def test_exhaust(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "domains": [
                    {"kind": "polydisc", "radii": ["1/2"]},
                    {"kind": "polydisc", "radii": ["3/4"]},
                    {"kind": "polydisc", "radii": [1]},
                ],
                "F": {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]},
                "ideal": {
                    "generators": [
                        {"n": 1, "terms": [{"alpha": [2], "re": "1", "im": "0"}]}
                    ],
                    "level": 2,
                },
            },
        )
        result = run_cli(["exhaust", "--spec", spec])
        assert result.exit_code == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        vals = [float(line.split(",")[1]) for line in lines[1:4]]
        assert vals == sorted(vals)
        assert vals[-1] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_density(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "domain": {"kind": "polydisc", "radii": [1]},
                "F": {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]},
                "generators": [
                    {"n": 1, "terms": [{"alpha": [2], "re": "1", "im": "0"}]}
                ],
            },
        )
        result = run_cli(["density", "--spec", spec, "--k", "2..4"])
        assert result.exit_code == 0, result.stderr
        for line in result.stdout.strip().splitlines()[1:]:
            assert float(line.split(",")[1]) <= 1e-10

    @pytest.mark.parametrize(
        "domain, F, k_range, message",
        [
            (DISC, [Z, Z_SQUARED], "3..3", "F is not in the orthogonal complement at level 3"),
            (DISC, [Z], "1..3",
             "F falls into the ideal at ladder level 1; start the range above ord(F)"),
            (WEIGHTED_DISC, [ONE], "2..3", "F has infinite norm on the domain"),
        ],
        ids=["z-plus-z-squared", "below-ord-F", "infinite-norm"],
    )
    def test_density_rejections_exit_2(self, tmp_path, domain, F, k_range, message):
        # each is an F outside the orthogonal complement of <z^2>: a spec error
        spec = write_spec(tmp_path, {
            "domain": domain,
            "F": {"n": 1, "terms": F},
            "generators": [{"n": 1, "terms": [Z_SQUARED]}],
        })
        result = run_cli(["density", "--spec", spec, "--k", k_range])
        assert result.exit_code == 2
        assert result.stdout == "" and result.stderr == f"spec error: {message}\n"


DISC_Z = {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]}
DIAGONAL_SPECS = {
    "ladder": dict(TWISTED_CUSP),
    "sop": {"domain": {"kind": "polydisc", "radii": [1]}, "F": DISC_Z, "weight": {"a": ["1"]}},
    "cse": {"domain": {"kind": "polydisc", "radii": [1]}, "xi": DISC_Z, "weight": {"a": ["1"]}},
    "density": {
        "domain": {"kind": "polydisc", "radii": [1]},
        "F": DISC_Z,
        "generators": [{"n": 1, "terms": [{"alpha": [2], "re": "1", "im": "0"}]}],
    },
}


class TestSpecRanges:
    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("ladder", "--k", "5..2"),
            ("density", "--k", "5..2"),
            ("ladder", "--k", "0..3"),
            ("cse", "--t", "1:3:1"),
            ("cse", "--t", "10:1:1"),
            ("cse", "--t", "1:10:0"),
            ("cse", "--t", "1:10:-1"),
            ("cse", "--t", "-inf:10:1"),
            ("cse", "--t", "0:1:1e-9"),
            ("cse", "--t", "0:1e300:1e-300"),
        ],
        ids=[
            "ladder-empty-k",
            "density-empty-k",
            "ladder-level-0",
            "cse-three-points",
            "cse-backwards",
            "cse-zero-step",
            "cse-negative-step",
            "cse-infinite-start",
            "cse-tiny-step",
            "cse-step-underflows",
        ],
    )
    def test_bad_range_exit_2(self, tmp_path, command, option, value):
        spec = write_spec(tmp_path, DIAGONAL_SPECS[command])
        result = run_cli([command, "--spec", spec, option, value])
        assert result.exit_code == 2, result.stderr
        assert "spec error" in result.stderr

    @pytest.mark.parametrize(
        "command, key, value",
        [("ladder", "k_range", "5..2"), ("density", "k_range", "5..2"), ("cse", "t_grid", "1:3:1")],
    )
    def test_bad_range_in_spec_exit_2(self, tmp_path, command, key, value):
        spec = write_spec(tmp_path, dict(DIAGONAL_SPECS[command], **{key: value}))
        result = run_cli([command, "--spec", spec])
        assert result.exit_code == 2, result.stderr
        assert "spec error" in result.stderr

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("ladder", "k_range", [2, 5]),
            ("density", "k_range", [2, 5]),
            ("cse", "t_grid", [1, 2, 3, 4]),
        ],
    )
    def test_range_given_as_list_exit_2(self, tmp_path, command, key, value):
        spec = write_spec(tmp_path, dict(DIAGONAL_SPECS[command], **{key: value}))
        result = run_cli([command, "--spec", spec])
        assert result.exit_code == 2, result.stderr
        assert f"spec error: {key} must be a string" in result.stderr

    @pytest.mark.parametrize(
        "command, spec, args",
        [
            ("ladder", EXACT_2D_LADDER, ["--k", "2..100000"]),
            (
                "equiv",
                {
                    "domain": EXACT_2D_LADDER["domain"],
                    "F": EXACT_2D_LADDER["F"],
                    "ideal": {"generators": EXACT_2D_LADDER["generators"], "level": 100000},
                },
                [],
            ),
            (
                "sop",
                {
                    "domain": {"kind": "polydisc", "radii": [1, 1]},
                    "F": {"n": 2, "terms": [{"alpha": [200, 200], "re": "1", "im": "0"}]},
                    "weight": {"a": ["1", "1"]},
                },
                [],
            ),
            ("basis", {"domain": {"kind": "polydisc", "radii": [1, 1]}, "degree": 300}, []),
        ],
        ids=["ladder-k-100000", "equiv-level-100000", "sop-degree-400", "basis-degree-300"],
    )
    def test_jet_space_past_cap_exit_2(self, tmp_path, command, spec, args):
        result = run_cli([command, "--spec", write_spec(tmp_path, spec), *args])
        assert result.exit_code == 2, result.stderr
        assert "spec error: the jet space of level" in result.stderr

    def test_t_grid_point_cap(self):
        assert len(cli._parse_tgrid(f"0:{cli.MAX_T_POINTS - 1}:1")) == cli.MAX_T_POINTS
        with pytest.raises(ValueError, match="points"):
            cli._parse_tgrid(f"0:{cli.MAX_T_POINTS}:1")

    @pytest.mark.parametrize("command", ["sop", "cse", "density"])
    def test_moment_domain_exit_2(self, tmp_path, command):
        domain = {"kind": "offcenter_disc", "center": [0.2, 0.1], "radius": 0.9}
        spec = write_spec(tmp_path, dict(DIAGONAL_SPECS[command], domain=domain))
        result = run_cli([command, "--spec", spec])
        assert result.exit_code == 2, result.stderr
        assert f"spec error: {command} needs a diagonal domain" in result.stderr


    OFFCENTER = {"kind": "offcenter_disc", "center": [0.1, 0.0], "radius": 1.0}

    @pytest.mark.parametrize(
        "command, spec, args",
        [
            (
                "equiv",
                {
                    "domain": OFFCENTER,
                    "F": DISC_Z_SQUARED["F"],
                    "ideal": dict(DISC_Z_SQUARED["ideal"], level=7),
                },
                [],
            ),
            (
                "ladder",
                {
                    "domain": OFFCENTER,
                    "F": DISC_Z_SQUARED["F"],
                    "generators": DISC_Z_SQUARED["ideal"]["generators"],
                },
                ["--k", "2..8"],
            ),
            ("equiv", dict(DISC_Z_SQUARED, domain=dict(OFFCENTER, degree=12)), []),
            ("basis", {"domain": OFFCENTER, "degree": 12}, []),
            (
                "kernel",
                {
                    "domain": OFFCENTER,
                    "xi": {"n": 1, "terms": [{"alpha": [6], "re": "1", "im": "0"}]},
                },
                [],
            ),
        ],
        ids=["equiv-level-7", "ladder-k-8", "equiv-degree-12", "basis-degree-12", "kernel-z6"],
    )
    def test_past_moment_data_exit_2(self, tmp_path, command, spec, args):
        # the off-center disc's moment matrix has degree 4 unless set
        result = run_cli([command, "--spec", write_spec(tmp_path, spec), *args])
        assert result.exit_code == 2, result.stderr
        assert "spec error: " in result.stderr

    @pytest.mark.parametrize(
        "command, spec",
        [
            (
                "equiv",
                dict(
                    DISC_Z_SQUARED,
                    domain={
                        "kind": "truncated_weight",
                        "a": ["1"],
                        "j": 3,
                        "base": {
                            "kind": "truncated_weight",
                            "a": ["1"],
                            "j": 2,
                            "base": {"kind": "polydisc", "radii": [1]},
                        },
                    },
                ),
            ),
            (
                "exhaust",
                {
                    "domains": [
                        {
                            "kind": "sublevel",
                            "t": t,
                            "weight": {"a": ["1", "1"]},
                            "base": {"kind": "polydisc", "radii": [1, 1]},
                        }
                        for t in (1.0, 3.0)
                    ],
                    "F": TWISTED_CUSP["F"],
                    "ideal": {"generators": TWISTED_CUSP["generators"], "level": 3},
                },
            ),
        ],
        ids=["truncated-over-truncated", "sublevel-exhaustion-decreasing"],
    )
    def test_cut_spec_error_exit_2(self, tmp_path, command, spec):
        result = run_cli([command, "--spec", write_spec(tmp_path, spec)])
        assert result.exit_code == 2, result.stderr
        assert "spec error: " in result.stderr


class TestSuite:
    def test_equivalence_suite(self):
        result = run_cli(
            ["suite", "equivalence", "--seed", "7", "--count", "10"]
        )
        assert result.exit_code == 0, result.stderr
        assert "10/10 PASS" in result.stdout

    def test_unknown_suite_exit_2(self):
        result = run_cli(["suite", "nope"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "name,count", [("equivalence", "-5"), ("equivalence", "0"), ("sop", "-3"), ("sop", "1")]
    )
    def test_count_below_the_fixed_part_exit_2(self, name, count):
        # such a run checks less than it would report, so it must not PASS
        result = run_cli(["suite", name, "--count", count])
        assert result.exit_code == 2, result.stdout
        assert "PASS" not in result.stdout
        assert f"spec error: suite {name} needs a count of at least" in result.stderr

    def test_library_error_exit_3(self, monkeypatch):
        def failing(name, seed=0, count=None):
            raise BerglabError("injected")

        monkeypatch.setattr(suites, "run_suite", failing)
        result = run_cli(["suite", "equivalence"])
        assert result.exit_code == 3
        assert "error: injected" in result.stderr

    def test_suite_deterministic(self, tmp_path):
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            result = run_cli(
                ["suite", "density", "--seed", "3", "--count", "4", "--out", str(out)],
            )
            assert result.exit_code == 0
            outs.append((out / "suite_density.csv").read_bytes())
        assert outs[0] == outs[1]


DELETE = object()
BIDISC_EQUIV = {
    "domain": {"kind": "polydisc", "radii": [1, 1]},
    "F": TWISTED_CUSP["F"],
    "ideal": {"generators": TWISTED_CUSP["generators"], "level": 3},
}
MALFORMED_BASES = {
    "equiv": DISC_Z_SQUARED,
    "bidisc-equiv": BIDISC_EQUIV,
    "ladder": DIAGONAL_SPECS["density"],
    "exhaust": {
        "domains": [DISC_Z_SQUARED["domain"]],
        "F": DISC_Z_SQUARED["F"],
        "ideal": DISC_Z_SQUARED["ideal"],
    },
    "kernel": {"domain": DISC_Z_SQUARED["domain"], "xi": DISC_Z},
    "basis": {"domain": DISC_Z_SQUARED["domain"], "degree": 2},
    "sop": DIAGONAL_SPECS["sop"],
    "cse": DIAGONAL_SPECS["cse"],
    "density": DIAGONAL_SPECS["density"],
}
BIDISC = {"kind": "polydisc", "radii": [1, 1]}
DISC_Z1 = {"n": 2, "terms": [{"alpha": [1, 0], "re": "1", "im": "0"}]}

# (base spec, path to the replaced value, the value or DELETE, message)
MALFORMED = {
    # fields that were read as a different problem, or ended in a traceback
    "radii-string": ("bidisc-equiv", ("domain", "radii"), "12", "domain.radii must be a list"),
    "radius-bool": (
        "bidisc-equiv", ("domain", "radii"), [True, 1], "domain.radii[0] must be a finite number"
    ),
    "ball-n-fraction": (
        "bidisc-equiv", ("domain",), {"kind": "ball", "n": 2.5, "radius": 1},
        "domain.n must be an integer >= 1, not 2.5",
    ),
    "ball-n-string": (
        "bidisc-equiv", ("domain",), {"kind": "ball", "n": "2", "radius": 1},
        "domain.n must be an integer >= 1, not '2'",
    ),
    "toric-a-string": (
        "bidisc-equiv", ("domain",), {"kind": "toric_weight", "a": "10", "base": BIDISC},
        "domain.a must be a list",
    ),
    "ball-radius-list": (
        "bidisc-equiv", ("domain",), {"kind": "ball", "n": 2, "radius": [1]},
        "domain.radius must be a finite number",
    ),
    "xi-alpha-fraction": (
        "kernel", ("xi", "terms", 0, "alpha"), [1.5], "xi.terms[0].alpha[0] must be an integer"
    ),
    # each rule of the former schema
    "spec-not-object": ("equiv", (), [1], "the spec must be a JSON object"),
    "no-domain": ("equiv", ("domain",), DELETE, "the spec is missing 'domain'"),
    "no-F": ("equiv", ("F",), DELETE, "the spec is missing 'F'"),
    "no-ideal": ("equiv", ("ideal",), DELETE, "the spec is missing 'ideal'"),
    "domain-not-object": ("equiv", ("domain",), "polydisc", "domain must be a JSON object"),
    "domain-no-kind": ("equiv", ("domain", "kind"), DELETE, "domain is missing 'kind'"),
    "jet-not-object": ("equiv", ("F",), [1], "F must be a JSON object"),
    "jet-no-n": ("equiv", ("F", "n"), DELETE, "F is missing 'n'"),
    "jet-no-terms": ("equiv", ("F", "terms"), DELETE, "F is missing 'terms'"),
    "jet-n-string": ("equiv", ("F", "n"), "1", "F.n must be an integer >= 1"),
    "jet-n-bool": ("equiv", ("F", "n"), True, "F.n must be an integer >= 1"),
    "jet-n-0": ("equiv", ("F", "n"), 0, "F.n must be an integer >= 1"),
    "degree-bound-fraction": (
        "equiv", ("F", "degree_bound"), 1.5, "F.degree_bound must be an integer >= 0"
    ),
    "degree-bound-negative": (
        "equiv", ("F", "degree_bound"), -1, "F.degree_bound must be an integer >= 0"
    ),
    "degree-bound-null": (
        "equiv", ("F", "degree_bound"), None, "F.degree_bound must be an integer >= 0"
    ),
    "terms-not-list": ("equiv", ("F", "terms"), {}, "F.terms must be a list"),
    "term-not-object": ("equiv", ("F", "terms", 0), "x", "F.terms[0] must be a JSON object"),
    "term-no-alpha": ("equiv", ("F", "terms", 0, "alpha"), DELETE, "F.terms[0] is missing 'alpha'"),
    "alpha-not-list": ("equiv", ("F", "terms", 0, "alpha"), 1, "F.terms[0].alpha must be a list"),
    "alpha-string": (
        "equiv", ("F", "terms", 0, "alpha"), ["1"], "F.terms[0].alpha[0] must be an integer >= 0"
    ),
    "alpha-negative": (
        "equiv", ("F", "terms", 0, "alpha"), [-1], "F.terms[0].alpha[0] must be an integer >= 0"
    ),
    "re-null": ("equiv", ("F", "terms", 0, "re"), None, "F.terms[0].re must be a finite number"),
    "im-list": ("equiv", ("F", "terms", 0, "im"), [0], "F.terms[0].im must be a finite number"),
    "re-not-rational": ("equiv", ("F", "terms", 0, "re"), "x", "F.terms[0].re 'x' is not a rational"),
    "ideal-not-object": ("equiv", ("ideal",), [], "ideal must be a JSON object"),
    "ideal-no-generators": (
        "equiv", ("ideal", "generators"), DELETE, "ideal is missing 'generators'"
    ),
    "ideal-no-level": ("equiv", ("ideal", "level"), DELETE, "ideal is missing 'level'"),
    "generators-not-list": ("equiv", ("ideal", "generators"), {}, "ideal.generators must be a list"),
    "generators-empty": ("equiv", ("ideal", "generators"), [], "ideal.generators must not be empty"),
    "generator-not-object": (
        "equiv", ("ideal", "generators", 0), 1, "ideal.generators[0] must be a JSON object"
    ),
    "generator-n-fraction": (
        "equiv", ("ideal", "generators", 0, "n"), 1.5, "ideal.generators[0].n must be an integer"
    ),
    "level-0": ("equiv", ("ideal", "level"), 0, "ideal.level must be an integer >= 1"),
    "level-fraction": ("equiv", ("ideal", "level"), 1.5, "ideal.level must be an integer >= 1"),
    "level-string": ("equiv", ("ideal", "level"), "2", "ideal.level must be an integer >= 1"),
    "ladder-generators-empty": ("ladder", ("generators",), [], "generators must not be empty"),
    "ladder-generators-not-list": ("ladder", ("generators",), DISC_Z, "generators must be a list"),
    "k-range-number": ("density", ("k_range",), 5, "k_range must be a string"),
    "t-grid-null": ("cse", ("t_grid",), None, "t_grid must be a string"),
    "domains-empty": ("exhaust", ("domains",), [], "domains must not be empty"),
    "domains-not-list": ("exhaust", ("domains",), BIDISC, "domains must be a list"),
    "domains-item-not-object": ("exhaust", ("domains", 0), "disc", "domains[0] must be a JSON"),
    "xi-not-object": ("kernel", ("xi",), [], "xi must be a JSON object"),
    "xi-no-terms": ("kernel", ("xi", "terms"), DELETE, "xi is missing 'terms'"),
    "basis-degree-negative": ("basis", ("degree",), -1, "degree must be an integer >= 0"),
    "basis-degree-fraction": ("basis", ("degree",), 2.5, "degree must be an integer >= 0"),
    "basis-degree-string": ("basis", ("degree",), "2", "degree must be an integer >= 0"),
    "weight-not-object": ("sop", ("weight",), ["1"], "weight must be a JSON object"),
    "weight-no-a": ("sop", ("weight", "a"), DELETE, "weight is missing 'a'"),
    "weight-a-empty": ("sop", ("weight", "a"), [], "weight.a must not be empty"),
    "weight-a-string": ("sop", ("weight", "a"), "1", "weight.a must be a list"),
    "weight-a-bool": ("cse", ("weight", "a", 0), True, "weight.a[0] must be a finite number"),
    # objects of different dimensions
    "sop-weight-dimension": (
        "sop", (), {"domain": BIDISC, "F": DISC_Z1, "weight": {"a": ["1"]}},
        "weight dimension differs from domain",
    ),
    "equiv-F-dimension": (
        "bidisc-equiv", ("domain",), {"kind": "polydisc", "radii": [1]}, "dimension",
    ),
    "cse-weight-dimension": (
        "cse", ("weight", "a"), ["1", "1"], "weight dimension differs from domain"
    ),
    "kernel-xi-dimension": ("kernel", ("xi",), DISC_Z1, "has length 2, expected 1"),
    # F = 0 has no jumping number, xi = 0 no kernel, F = 0 no density sequence
    "sop-zero-F": ("sop", ("F", "terms"), [], "the zero germ has no jumping number"),
    "kernel-zero-xi": ("kernel", ("xi", "terms"), [], "xi must not be zero"),
    "cse-zero-xi": ("cse", ("xi", "terms"), [], "xi must not be zero"),
    "cse-zero-xi-coefficient": (
        "cse", ("xi", "terms", 0, "re"), "0", "xi must not be zero"
    ),
    "density-zero-F": ("density", ("F", "terms"), [], "F must not be zero"),
    # radii must be positive
    "radius-negative-string": (
        "equiv", ("domain", "radii"), ["-2"], "a radius must be positive, not -2"
    ),
    "ball-radius-negative": (
        "bidisc-equiv", ("domain",), {"kind": "ball", "n": 2, "radius": -1.5},
        "a radius must be positive, not -1.5",
    ),
    "radius-0": ("equiv", ("domain", "radii"), [0], "a radius must be positive, not 0"),
    "offcenter-radius-negative": (
        "equiv", ("domain",), {"kind": "offcenter_disc", "center": [0.1, 0.0], "radius": -1.0},
        "a radius must be positive, not -1.0",
    ),
    # a zero denominator
    "re-zero-denominator": (
        "equiv", ("F", "terms", 0, "re"), "1/0", "F.terms[0].re '1/0' is not a rational"
    ),
    "radius-zero-denominator": (
        "equiv", ("domain", "radii"), ["1/0"], "domain.radii[0] '1/0' is not a rational"
    ),
}


class TestMalformedSpec:
    """A malformed spec is a spec error (exit 2) whose message names the
    field, never a traceback or a run on other data."""

    @pytest.mark.parametrize("base, path, value, message", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_spec_exit_2(self, tmp_path, base, path, value, message):
        command = base.split("-")[-1]
        spec = json.loads(json.dumps(MALFORMED_BASES[base]))
        if not path:
            spec = value
        else:
            node = spec
            for key in path[:-1]:
                node = node[key]
            if value is DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        result = run_cli([command, "--spec", write_spec(tmp_path, spec)])
        assert result.exit_code == 2, result.stderr
        assert "Traceback" not in result.stdout + result.stderr
        assert "spec error: " in result.stderr and message in result.stderr

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("equiv", dict(DISC_Z_SQUARED, ideal=dict(DISC_Z_SQUARED["ideal"], level=2.0))),
            ("basis", {"domain": DISC_Z_SQUARED["domain"], "degree": 2.0}),
        ],
        ids=["equiv-level", "basis-degree"],
    )
    def test_integral_float_reads_as_int(self, tmp_path, command, spec):
        # 2.0 is the integer 2, as it was to the former schema
        result = run_cli([command, "--spec", write_spec(tmp_path, spec)])
        assert result.exit_code == 0, result.stderr
        want = {"domain": spec["domain"]}
        if command == "equiv":
            want.update(F=spec["F"], ideal=DISC_Z_SQUARED["ideal"])
        else:
            want["degree"] = 2
        again = run_cli([command, "--spec", write_spec(tmp_path, want, "int.json")])
        assert (result.stdout, result.stderr) == (again.stdout, again.stderr)
