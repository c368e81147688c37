"""CLI behavior: dispatch, schema validation, exit codes, determinism."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from click.testing import CliRunner

from berglab import bergman, cli
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


@pytest.fixture
def runner():
    return CliRunner()


def write_spec(tmp_path, data, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


class TestEquiv:
    def test_disc_example(self, runner, tmp_path):
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        out = tmp_path / "out"
        result = runner.invoke(main, ["equiv", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert f"{math.pi/2:.17g}"[:10] in result.output
        data = json.loads((out / "equiv.json").read_text())
        assert data["C"] == {"pi_power": 1, "rational": "1/2"}
        assert data["B_circle"] == data["C"]

    def test_float_mode(self, runner, tmp_path):
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        result = runner.invoke(main, ["equiv", "--spec", spec, "--mode", "float"])
        assert result.exit_code == 0

    def test_exact_mode(self, runner, tmp_path):
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        result = runner.invoke(main, ["equiv", "--spec", spec, "--mode", "exact"])
        assert result.exit_code == 0, result.output
        assert "gap = 0.000e+00" in result.output

    @pytest.mark.parametrize(
        "domain",
        [
            {"kind": "polydisc", "radii": [0.7]},
            {"kind": "offcenter_disc", "center": [0.2, 0.1], "radius": 0.9},
        ],
        ids=["float-radius", "offcenter-disc"],
    )
    def test_exact_mode_without_exact_norms_exit_2(self, runner, tmp_path, domain):
        spec = write_spec(tmp_path, dict(DISC_Z_SQUARED, domain=domain))
        result = runner.invoke(main, ["equiv", "--spec", spec, "--mode", "exact"])
        assert result.exit_code == 2, result.output
        assert "spec error" in result.output

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
    def test_exact_mode_non_exact_coefficient_exit_2(self, runner, tmp_path, command, spec):
        # a JSON number is a float coefficient: --mode exact refuses it
        result = runner.invoke(main, [command, "--spec", write_spec(tmp_path, spec)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main, [command, "--spec", write_spec(tmp_path, spec), "--mode", "exact"]
        )
        assert result.exit_code == 2, result.output
        assert "spec error: --mode exact: a coefficient is not exact" in result.output

    def test_missing_field_exit_2(self, runner, tmp_path):
        bad = {"domain": {"kind": "polydisc", "radii": [1]}}
        spec = write_spec(tmp_path, bad)
        result = runner.invoke(main, ["equiv", "--spec", spec])
        assert result.exit_code == 2
        assert "F" in result.output

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
    def test_rejected_spec_exit_2(self, runner, tmp_path, command, path, value):
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
        result = runner.invoke(main, [command, "--spec", spec])
        assert result.exit_code == 2, result.output
        assert "spec error" in result.output

    def test_malformed_json_exit_2(self, runner, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        result = runner.invoke(main, ["equiv", "--spec", str(p)])
        assert result.exit_code == 2

    def test_gaussian_json_bytes(self, runner, tmp_path):
        # a real entry of an exact result is written {"re": "a", "im": "0"}
        # whether it is a Fraction or a QQi: these are the bytes written
        # when every entry of a Gaussian result was a QQi
        spec = write_spec(tmp_path, GAUSSIAN_BIDISC)
        out = tmp_path / "out"
        result = runner.invoke(main, ["equiv", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.output
        data = (out / "equiv.json").read_bytes()
        assert b'"re": "3",' in data and b'"re": "27/4",' in data
        assert hashlib.sha256(data).hexdigest() == (
            "ca0ab7effa581408e73d7767e2f51bed64c56124a53dad994690ed025d44f999"
        )

    def test_no_tolerance_option(self, runner, tmp_path):
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        result = runner.invoke(main, ["equiv", "--spec", spec, "--tol", "1e-8"])
        assert result.exit_code == 2

    def test_both_routes_infinite_gap_0(self, runner, tmp_path):
        spec = write_spec(tmp_path, WEIGHTED_DISC_INFINITE)
        out = tmp_path / "out"
        result = runner.invoke(main, ["equiv", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "gap = 0.000e+00" in result.output
        assert "gap,0\n" in (out / "equiv.csv").read_text()
        data = json.loads((out / "equiv.json").read_text(), parse_constant=reject_constant)
        assert data["gap"] == 0
        assert data["C"] == data["B_circle"] == {"pi_power": 1, "rational": "inf"}


def off_by_pi_e12(real_kernel_ratio):
    """A kernel-ratio solve whose exact value is off by pi^n * 1e-12: far
    inside any float tolerance, yet unequal."""

    def kernel_ratio(prob):
        res = real_kernel_ratio(prob)
        res.value = res.value + PiValue(Fraction(1, 10**12), res.value.pi_power)
        return res

    return kernel_ratio


class TestCrossCheck:
    """An exact C != B is a cross-check failure, however small the gap."""

    def test_equiv_exact_mismatch_exit_1(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(bergman, "_kernel_ratio", off_by_pi_e12(bergman._kernel_ratio))
        spec = write_spec(tmp_path, DISC_Z_SQUARED)
        result = runner.invoke(main, ["equiv", "--spec", spec])
        assert result.exit_code == 1, result.output
        assert "cross-check failed" in result.output

    def test_ladder_exact_mismatch_exit_1(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(bergman, "_kernel_ratio", off_by_pi_e12(bergman._kernel_ratio))
        spec = write_spec(tmp_path, TWISTED_CUSP)
        result = runner.invoke(main, ["ladder", "--spec", spec, "--k", "2..5"])
        assert result.exit_code == 1, result.output
        assert "cross-check failed" in result.output


class TestLadder:
    def test_twisted_cusp_csv(self, runner, tmp_path):
        spec = write_spec(tmp_path, TWISTED_CUSP)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["ladder", "--spec", spec, "--k", "2..5", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = (out / "ladder.csv").read_text().strip().splitlines()
        assert lines[0] == "k,C_k,B_k,gap"
        assert lines[1].startswith("2,0,0,")
        val = float(lines[2].split(",")[1])
        assert val == pytest.approx(math.pi**2 / 5, rel=1e-12)
        data = json.loads((out / "ladder.json").read_text())
        assert data["stabilized"] is True
        assert data["limit"] == {"pi_power": 2, "rational": "1/5"}

    def test_both_routes_infinite_gap_0(self, runner, tmp_path):
        data = dict(WEIGHTED_DISC_INFINITE)
        data["generators"] = data.pop("ideal")["generators"]
        spec = write_spec(tmp_path, data)
        result = runner.invoke(main, ["ladder", "--spec", spec, "--k", "2..3"])
        assert result.exit_code == 0, result.output
        rows = result.output.strip().splitlines()[1:3]
        assert [row.split(",") for row in rows] == [
            ["2", "inf", "inf", "0"],
            ["3", "inf", "inf", "0"],
        ]

    def test_deterministic_csv_bytes(self, runner, tmp_path):
        spec = write_spec(tmp_path, TWISTED_CUSP)
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            result = runner.invoke(
                main,
                ["ladder", "--spec", spec, "--k", "2..5", "--out", str(out)],
            )
            assert result.exit_code == 0
            outs.append((out / "ladder.csv").read_bytes())
        assert outs[0] == outs[1]


class TestKernelBasis:
    def test_kernel_value(self, runner, tmp_path):
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
        result = runner.invoke(main, ["kernel", "--spec", spec])
        assert result.exit_code == 0
        assert float(result.output.split("=")[1]) == pytest.approx(3 / math.pi)

    def test_basis(self, runner, tmp_path):
        spec = write_spec(
            tmp_path,
            {"domain": {"kind": "polydisc", "radii": [1]}, "degree": 2},
        )
        result = runner.invoke(main, ["basis", "--spec", spec])
        assert result.exit_code == 0
        assert "alpha,coefficients" in result.output


class TestSopCse:
    def test_sop_report(self, runner, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "domain": {"kind": "polydisc", "radii": [1]},
                "F": {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]},
                "weight": {"a": ["1"]},
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["sop", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.output
        data = json.loads((out / "sop.json").read_text())
        assert data["sharp"] is True
        assert data["p_max"] == "2"

    def test_cse(self, runner, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "domain": {"kind": "polydisc", "radii": [1]},
                "xi": {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]},
                "weight": {"a": ["1"]},
            },
        )
        result = runner.invoke(main, ["cse", "--spec", spec, "--t", "1:8:1"])
        assert result.exit_code == 0, result.output
        assert "slope = 2" in result.output

    def test_cse_underflow_exit_3(self, runner, tmp_path):
        # ||z1 z2||^2 on {log|z1|^2 + log|z2|^2 < -t} is about e^-2t: 0.0 at t = 400
        spec = write_spec(
            tmp_path,
            {
                "domain": {"kind": "polydisc", "radii": [1, 1]},
                "xi": {"n": 2, "terms": [{"alpha": [1, 1], "re": "1", "im": "0"}]},
                "weight": {"a": ["1", "1"]},
            },
        )
        result = runner.invoke(main, ["cse", "--spec", spec, "--t", "100:400:100"])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "numerical failure" in result.output

    def test_cse_overflow_exit_3(self, runner, tmp_path):
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
        result = runner.invoke(main, ["cse", "--spec", spec])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "numerical failure" in result.output


class TestExhaustDensity:
    def test_exhaust(self, runner, tmp_path):
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
        result = runner.invoke(main, ["exhaust", "--spec", spec])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        vals = [float(line.split(",")[1]) for line in lines[1:4]]
        assert vals == sorted(vals)
        assert vals[-1] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_density(self, runner, tmp_path):
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
        result = runner.invoke(main, ["density", "--spec", spec, "--k", "2..4"])
        assert result.exit_code == 0, result.output
        for line in result.output.strip().splitlines()[1:]:
            assert float(line.split(",")[1]) <= 1e-10


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
    def test_bad_range_exit_2(self, runner, tmp_path, command, option, value):
        spec = write_spec(tmp_path, DIAGONAL_SPECS[command])
        result = runner.invoke(main, [command, "--spec", spec, option, value])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "spec error" in result.output

    @pytest.mark.parametrize(
        "command, key, value",
        [("ladder", "k_range", "5..2"), ("density", "k_range", "5..2"), ("cse", "t_grid", "1:3:1")],
    )
    def test_bad_range_in_spec_exit_2(self, runner, tmp_path, command, key, value):
        spec = write_spec(tmp_path, dict(DIAGONAL_SPECS[command], **{key: value}))
        result = runner.invoke(main, [command, "--spec", spec])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "spec error" in result.output

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("ladder", "k_range", [2, 5]),
            ("density", "k_range", [2, 5]),
            ("cse", "t_grid", [1, 2, 3, 4]),
        ],
    )
    def test_range_given_as_list_exit_2(self, runner, tmp_path, command, key, value):
        spec = write_spec(tmp_path, dict(DIAGONAL_SPECS[command], **{key: value}))
        result = runner.invoke(main, [command, "--spec", spec])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"spec validation failed at {key}" in result.output

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
    def test_jet_space_past_cap_exit_2(self, runner, tmp_path, command, spec, args):
        result = runner.invoke(main, [command, "--spec", write_spec(tmp_path, spec), *args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "spec error: the jet space of level" in result.output

    def test_t_grid_point_cap(self):
        assert len(cli._parse_tgrid(f"0:{cli.MAX_T_POINTS - 1}:1")) == cli.MAX_T_POINTS
        with pytest.raises(ValueError, match="points"):
            cli._parse_tgrid(f"0:{cli.MAX_T_POINTS}:1")

    @pytest.mark.parametrize("command", ["sop", "cse", "density"])
    def test_moment_domain_exit_2(self, runner, tmp_path, command):
        domain = {"kind": "offcenter_disc", "center": [0.2, 0.1], "radius": 0.9}
        spec = write_spec(tmp_path, dict(DIAGONAL_SPECS[command], domain=domain))
        result = runner.invoke(main, [command, "--spec", spec])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"spec error: {command} needs a diagonal domain" in result.output


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
    def test_past_moment_data_exit_2(self, runner, tmp_path, command, spec, args):
        # the off-center disc's moment matrix has degree 4 unless set
        result = runner.invoke(main, [command, "--spec", write_spec(tmp_path, spec), *args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "spec error: " in result.output

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
    def test_cut_spec_error_exit_2(self, runner, tmp_path, command, spec):
        result = runner.invoke(main, [command, "--spec", write_spec(tmp_path, spec)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "spec error: " in result.output


class TestSuite:
    def test_equivalence_suite(self, runner):
        result = runner.invoke(
            main, ["suite", "equivalence", "--seed", "7", "--count", "10"]
        )
        assert result.exit_code == 0, result.output
        assert "10/10 PASS" in result.output

    def test_unknown_suite_exit_2(self, runner):
        result = runner.invoke(main, ["suite", "nope"])
        assert result.exit_code == 2

    def test_library_error_exit_3(self, runner, monkeypatch):
        def failing(name, seed=0, count=None):
            raise BerglabError("injected")

        monkeypatch.setattr(cli, "run_suite", failing)
        result = runner.invoke(main, ["suite", "equivalence"])
        assert result.exit_code == 3
        assert "error: injected" in result.output

    def test_suite_deterministic(self, runner, tmp_path):
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            result = runner.invoke(
                main,
                ["suite", "density", "--seed", "3", "--count", "4", "--out", str(out)],
            )
            assert result.exit_code == 0
            outs.append((out / "suite_density.csv").read_bytes())
        assert outs[0] == outs[1]
