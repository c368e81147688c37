"""Import hygiene: ``import berglab`` loads no submodule, and a CLI process
loads only what its command uses.  numpy loads only for commands that use
it (not for a growth rate on a diagonal domain), :mod:`berglab.sop` and
:mod:`berglab.suites` only for the commands that read them, and scipy,
jsonschema and click never load.

Each check runs in a fresh interpreter, because this test process has long
since imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

README_DISC = {
    "domain": {"kind": "polydisc", "radii": [1]},
    "F": {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]},
    "ideal": {
        "generators": [{"n": 1, "terms": [{"alpha": [2], "re": "1", "im": "0"}]}],
        "level": 2,
    },
}

# run the CLI in-process, stopping on a nonzero exit code, then report which
# heavy modules it loaded
RUN_CLI = """
import json, sys
from berglab.cli import main
code = main(sys.argv[1:])
if code:
    sys.exit(code)
print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_loads_neither_numpy_nor_scipy():
    proc = _python(
        "-c",
        "import sys, berglab.cli; "
        "print([m for m in ('numpy', 'scipy') if m in sys.modules])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _imported(stderr):
    """The modules ``python -X importtime`` reports importing."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


def test_cli_import_loads_no_click():
    proc = _python("-c", "import sys, berglab.cli; print('click' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_equiv_process_loads_neither_click_nor_sop_nor_suites(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(README_DISC))
    proc = _python("-X", "importtime", "-m", "berglab.cli", "equiv", "--spec", str(spec))
    assert proc.returncode == 0, proc.stderr
    assert "B' = " in proc.stdout
    imported = _imported(proc.stderr)
    assert "berglab.bergman" in imported
    assert not imported & {"click", "berglab.sop", "berglab.suites"}


def test_package_import_loads_no_submodule():
    proc = _python(
        "-c",
        "import sys, berglab; print([m for m in sys.modules if m.startswith('berglab.')])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# every public name resolves and is bound on first lookup, ``import *`` binds
# them all, an unknown name is an AttributeError, and a submodule still
# imports by name
PACKAGE_NAMES = """
import berglab
names = berglab.__all__
assert len(names) == len(set(names)) > 60
for name in names:
    value = getattr(berglab, name)
    assert vars(berglab)[name] is value, name
    assert getattr(berglab, name) is value, name
star = {}
exec("from berglab import *", star)
assert all(star[name] is getattr(berglab, name) for name in names)
try:
    berglab.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("berglab.no_such_name resolved")
from berglab import bergman, cli, suites
from berglab.bergman import minimal_l2
assert berglab.minimal_l2 is minimal_l2 and suites.run_suite is berglab.run_suite
assert set(names) | {"__version__", "bergman", "cli"} <= set(dir(berglab))
assert berglab.__version__ == "0.1.0"
print("ok")
"""


def test_package_names_resolve_lazily():
    proc = _python("-c", PACKAGE_NAMES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_cli_never_loads_jsonschema(tmp_path):
    # the spec readers check every field themselves: no schema library
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(README_DISC))
    loaded = "print([m for m in sys.modules if m.startswith('jsonschema')])"
    proc = _python("-c", f"import sys, berglab.cli; {loaded}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    proc = _python("-c", f"{RUN_CLI}{loaded}", "equiv", "--spec", str(spec))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_exact_equiv_runs_without_numpy_or_scipy(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(README_DISC))
    proc = _python("-c", RUN_CLI, "equiv", "--spec", str(spec))
    assert proc.returncode == 0, proc.stderr
    assert "B' = " in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_basis_on_radial_domain_still_runs(tmp_path):
    # the trapezoid-rule moments and the triangular inverse are numpy only
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {"domain": {"kind": "radial", "base": 1.0, "harmonics": [[2, 0.1, 0.0]]}, "degree": 3}
        )
    )
    proc = _python("-c", RUN_CLI, "basis", "--spec", str(spec), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == ["numpy"]
    rows = (tmp_path / "basis.csv").read_text().strip().splitlines()
    assert rows[0] == "alpha,coefficients"
    assert len(rows) == 1 + 4


def test_equivalence_suite_runs_without_scipy(tmp_path):
    # seed 4 draws a radial moment domain for its one moment instance
    proc = _python(
        "-c", RUN_CLI, "suite", "equivalence", "--seed", "4", "--count", "5",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == ["numpy"]
    assert (tmp_path / "suite_equivalence.csv").exists()


def test_two_variable_sublevel_cse_runs_without_scipy(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "domain": {"kind": "polydisc", "radii": ["1", "1"]},
                "xi": {"n": 2, "terms": [{"alpha": [1, 0], "re": "1", "im": "0"}]},
                "weight": {"a": ["1", "1"]},
            }
        )
    )
    proc = _python("-c", RUN_CLI, "cse", "--spec", str(spec))
    assert proc.returncode == 0, proc.stderr
    assert "slope = " in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_two_variable_truncated_weight_equiv_runs_without_scipy(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "domain": {
                    "kind": "truncated_weight",
                    "a": ["1", "1"],
                    "j": 2,
                    "base": {"kind": "polydisc", "radii": ["1", "1"]},
                },
                "F": {"n": 2, "terms": [{"alpha": [1, 0], "re": "1", "im": "0"}]},
                "ideal": {
                    "generators": [
                        {"n": 2, "terms": [{"alpha": [2, 0], "re": "1", "im": "0"}]},
                        {"n": 2, "terms": [{"alpha": [0, 1], "re": "1", "im": "0"}]},
                    ],
                    "level": 2,
                },
            }
        )
    )
    proc = _python("-c", RUN_CLI, "equiv", "--spec", str(spec))
    assert proc.returncode == 0, proc.stderr
    assert "B' = " in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == ["numpy"]
