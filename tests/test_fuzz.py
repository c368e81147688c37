"""Structural fuzzing of the command-line specs: every spec ends in a
documented exit.

A case takes a spec that runs for one of the nine commands, applies one to
three structural mutations drawn by hypothesis (a node of the JSON tree
replaced by a value from :data:`VALUES`, or deleted) and runs the command
in-process.  It must end in exit 0 with no "nan" printed, exit 1 (a failed
cross-check), exit 2 (a spec error) or exit 3 (a numerical failure), each
with its message on stderr and, for exits 2 and 3, nothing on stdout.  An
exception out of ``main``, a traceback for a user, fails the case, and so
does a numpy RuntimeWarning: an overflow or an invalid operation that went
unnoticed.  A finding is fixed in ``src/``; the value set is never trimmed.

Tier-1 runs a few hundred derandomized cases.  A longer run takes one seed
per process, so that a hang ends under ``timeout``::

    PYTHONPATH=src timeout 1200 python tests/test_fuzz.py --seed 3 --cases 10000
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from berglab.cli import main

# each found an escape: an exact number past the float range read into
# float code ("1e400", "1e-400"), a huge multi-index degree (1e308 reads as
# the integer 10^308) and a huge dimension (2000)
VALUES = ["1e400", "1e-400", 1e308, 2000, 0, 1, -1, 0.5, -0.5, 3, "1/2", "0", "-2", "x", "",
          None, True, [], {}, [0], [1, 1], 1e-300, 10**400]

_X1 = {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]}
_X1_FLOAT = {"n": 1, "terms": [{"alpha": [0], "re": 0.5, "im": -0.25}, {"alpha": [1], "re": 1.0}]}
_Z2 = {"n": 1, "terms": [{"alpha": [2], "re": "1", "im": "0"}]}
_X2 = {"n": 2, "terms": [{"alpha": [1, 0], "re": "1", "im": "0"},
                         {"alpha": [0, 1], "re": "1/2", "im": "-1"}]}
_G2 = {"n": 2, "terms": [{"alpha": [1, 0], "re": "1", "im": "0"},
                         {"alpha": [0, 2], "re": "-2", "im": "1"}]}
_DISC = {"kind": "polydisc", "radii": ["1"]}
_BIDISC = {"kind": "polydisc", "radii": ["1", "3/2"]}

# (domain, a functional or jet on it, a generator, a toric weight's exponents)
_DOMAINS = [
    (_DISC, _X1, _Z2, ["1"]),
    ({"kind": "polydisc", "radii": [0.5]}, _X1_FLOAT, _Z2, ["1"]),
    (_BIDISC, _X2, _G2, ["1", "1"]),
    ({"kind": "ball", "n": 2, "radius": "1"}, _X2, _G2, ["1", "2"]),
    ({"kind": "toric_weight", "a": ["1/2"], "base": _DISC}, _X1, _Z2, ["1"]),
    ({"kind": "toric_weight", "a": ["1/2"], "c": 0.5, "base": {"kind": "polydisc", "radii": [0.5]}},
     _X1_FLOAT, _Z2, ["1"]),
    ({"kind": "truncated_weight", "a": ["1", "1"], "j": 2, "base": _BIDISC}, _X2, _G2, ["1", "1"]),
    ({"kind": "sublevel", "t": 1.0, "weight": {"a": ["1", "2"]}, "base": _BIDISC}, _X2, _G2,
     ["1/2", "1/2"]),
    ({"kind": "offcenter_disc", "center": [0.1, 0.0], "radius": 0.9, "degree": 4}, _X1, _Z2, ["1"]),
    ({"kind": "two_point_disc", "c": [0.3, -0.2], "r": 2.0}, _X1, _Z2, ["1"]),
    ({"kind": "radial", "base": 1.0, "harmonics": [[1, 0.1, 0.05]]}, _X1, _Z2, ["1"]),
]


def _bases():
    """(command, spec, options) of specs that run: each command on each
    domain it takes, and the suites by their options."""
    out = []
    for dom, f, g, a in _DOMAINS:
        ideal = {"generators": [g], "level": 2}
        out += [
            ("equiv", {"domain": dom, "F": f, "ideal": ideal}, ["--mode", "float"]),
            ("equiv", {"domain": dom, "F": f, "ideal": ideal}, []),
            ("ladder", {"domain": dom, "F": f, "generators": [g], "k_range": "1..3"}, []),
            ("kernel", {"domain": dom, "xi": f}, []),
            ("basis", {"domain": dom, "degree": 3}, []),
        ]
        if dom["kind"] in ("offcenter_disc", "two_point_disc", "radial"):
            continue
        out += [
            ("exhaust", {"domains": [dom, dom], "F": f, "ideal": ideal}, []),
            ("sop", {"domain": dom, "F": f, "weight": {"a": a}}, []),
            ("cse", {"domain": dom, "xi": f, "weight": {"a": a}, "t_grid": "1:3:1"}, []),
            ("density", {"domain": dom, "F": f, "generators": [g], "k_range": "2..3"}, []),
        ]
    names = ("equivalence", "sop", "convexity", "density")
    return out + [("suite", None, [name, "--count", "3"]) for name in names]


BASES = _bases()
# what a suite's name, seed or count may be replaced by
SUITE_VALUES = ["equivalence", "x", "1e400", "2", "1", "0", "-1", "7", ""]


def _paths(node, path=()):
    """The paths of every node under ``node``, itself excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _leaf(spec, path):
    for key in path:
        spec = spec[key]
    return not isinstance(spec, (dict, list))


@st.composite
def cases(draw):
    """A base case with one to three mutations."""
    command, spec, options = draw(st.sampled_from(BASES))
    options = list(options)
    if spec is None:  # a suite: its name or count replaced, or a seed added
        value, where = draw(st.sampled_from(SUITE_VALUES)), draw(st.sampled_from([0, 2, None]))
        if where is None:
            return command, None, options + ["--seed", value]
        options[where] = value
        return command, None, options
    spec = copy.deepcopy(spec)
    for _ in range(draw(st.integers(1, 3))):
        replace = draw(st.integers(0, 3)) > 0
        # a value replaces a leaf: a number or a string
        paths = [p for p in _paths(spec) if not replace or _leaf(spec, p)]
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = spec
        for p in parents:
            parent = parent[p]
        if replace:
            # half the time one of the four values that found escapes
            value = draw(st.one_of(st.sampled_from(VALUES[:4]), st.sampled_from(VALUES)))
            parent[key] = copy.deepcopy(value)
        else:
            del parent[key]
    return command, spec, options


def run_case(command, spec, options):
    """Run one case; an AssertionError, or any exception out of ``main``,
    names what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        args = [command, *options]
        if spec is not None:
            args += ["--spec", os.path.join(tmp, "spec.json")]
            with open(args[-1], "w") as fh:
                json.dump(spec, fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with redirect_stdout(out), redirect_stderr(err):
                code = main(args)
    out, err = out.getvalue(), err.getvalue()
    where = f"{command} {options} on {json.dumps(spec)}: exit {code}, stderr {err!r}"
    if code == 0:
        assert "nan" not in out.lower(), where
    elif code == 2:
        assert err.startswith(("spec error: ", "usage: ")) and not out, where
    elif code == 3:
        assert err.startswith(("numerical failure: ", "error: ")) and not out, where
    else:  # a suite's failures list its instances
        assert code == 1 and (command == "suite" or err.startswith("cross-check failed")), where


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(cases())
def test_mutated_specs_end_in_a_documented_exit(case):
    run_case(*case)


def _long_run(seed_value, count):
    """``count`` cases drawn from ``seed_value``: an escape raises."""
    @seed(seed_value)
    @settings(max_examples=count, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(cases())
    def run(case):
        run_case(*case)

    run()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=10_000)
    ns = parser.parse_args()
    _long_run(ns.seed, ns.cases)
    print(f"seed {ns.seed}: {ns.cases} cases, no escape")
    sys.exit(0)
