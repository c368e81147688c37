"""CLI behavior: dispatch, schema validation, exit codes, determinism."""

import json
import math

import pytest
from click.testing import CliRunner

from berglab.cli import main

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
        ],
        ids=[
            "generator-n",
            "alpha-length",
            "unknown-kind",
            "unit-generator",
            "no-radii",
            "exhaust-not-nested",
            "radial-nonpositive",
        ],
    )
    def test_rejected_spec_exit_2(self, runner, tmp_path, command, path, value):
        bad = json.loads(json.dumps(DISC_Z_SQUARED))
        if command == "exhaust":
            bad["domains"] = [bad.pop("domain")]
        elif command == "basis":
            bad = {"domain": bad["domain"], "degree": 3}
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
