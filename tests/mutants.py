"""Checked-in mutants: each one breaks the package in a known way, and the
tests it names must catch it.

Run from anywhere, with pytest installed::

    python tests/mutants.py

Each entry names a file under ``src/``, an exact source snippet that must
occur in it once, the snippet's replacement, and the test node ids that must
fail on the mutated code.  The runner copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory and first runs every named id
there on the unmutated code; it exits 1 unless each one passes, since an id
that already fails or errors would report any mutant as killed.  Then, for
each entry, it applies the replacement in the copy, runs only the entry's
ids, and restores the file.  It exits 1 when a mutant survives, that is when
one of its ids passes, and when a snippet does not occur exactly once: the
code it broke has changed, and the entry must be re-targeted to the code as
it reads now.  A mutant is never deleted to get a clean run.

This module is not collected by pytest and imports only the standard
library; tier-1 does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/berglab, snippet, replacement, node ids that must fail)
MUTANTS = [
    # -- the problem record (bergman._Problem) --
    (
        "kernel-weights-p-for-q",
        "bergman.py",
        "return [w.denominator * (den // w.numerator) for w in ws], den",
        "return [w.numerator * (den // w.numerator) for w in ws], den",
        [
            "tests/test_bergman.py::TestBCircle::test_disc_golden",
            "tests/test_bergman.py::TestProblemRecord::test_exact_record_holds_cleared_inputs[ball]",
            "tests/test_acceptance.py::test_criterion_2_sharp_disc_example",
        ],
    ),
    (
        "every-slot-finite",
        "bergman.py",
        "(self.infinite if inf else self.finite).append(i)",
        "self.finite.append(i)",
        [
            "tests/test_bergman.py::TestMinimalL2::test_weighted_infinite",
            "tests/test_bergman.py::TestBCircle::test_weighted_unbounded_direction",
            "tests/test_bergman.py::TestProblemRecord::test_diagnostics_keys_are_uniform",
        ],
    ),
    (
        "exact-infinite-slot-missed",
        "bergman.py",
        "inf = isinstance(w, float) and w == math.inf",
        'inf = self.backend != "exact" and w == math.inf',
        [
            "tests/test_bergman.py::TestMinimalL2::test_weighted_infinite",
            "tests/test_bergman.py::TestCrossBackend::test_float_routes_match_exact[weighted-int]",
            "tests/test_bergman.py::TestLadder::test_all_infinite_stabilizes",
        ],
    ),
    (
        "record-keeps-whole-ideal",
        "bergman.py",
        "self._J = weakref.ref(J) if moment else J.restrict(blocks=outside)",
        "self._J = weakref.ref(J) if moment else J",
        [
            "tests/test_bergman.py::TestProblemRecord::test_record_built_from_domain_f_and_ideal_alone",
            "tests/test_blocks.py::TestUnsplitOracle::test_block_of_F_inside_the_span[exact]",
            "tests/test_blocks.py::TestUnsplitOracle::test_block_of_F_inside_the_span[float]",
        ],
    ),
    (
        "record-keyed-on-F-only",
        "bergman.py",
        "if slot is None or slot[0] is not domain or slot[1] is not F:",
        "if slot is None or slot[1] is not F:",
        [
            "tests/test_bergman.py::TestProblemRecord::test_another_domain_or_F_builds_a_new_record[exact]",
            "tests/test_bergman.py::TestProblemRecord::test_another_domain_or_F_builds_a_new_record[float]",
            "tests/test_bergman.py::TestProblemRecord::test_another_domain_or_F_builds_a_new_record[moment]",
        ],
    ),
    (
        "density-infinite-norm-accepted",
        "bergman.py",
        "if not all(map(domain.finite, F.coeffs)):",
        "if False:",
        [
            "tests/test_cli.py::TestExhaustDensity::test_density_rejections_exit_2[infinite-norm]",
        ],
    ),
    (
        "float-kernel-unchecked",
        "bergman.py",
        'return in_float_range("the kernel of xi", lambda: finite(k)) if T.coeffs else k',
        "return k",
        [
            "tests/test_cli.py::TestNormsPastTheFloatRange::test_exit_3[kernel-float-1e200]",
            "tests/test_cli.py::TestNormsPastTheFloatRange::test_exit_3[cse-float-1e200]",
        ],
    ),
    # -- exact linear algebra (linalg) --
    (
        "gram-unconjugated",
        "linalg.py",
        "cw = [weights[k] * vi[k].conjugate() for k in support]",
        "cw = [weights[k] * vi[k] for k in support]",
        [
            "tests/test_jets.py::TestLinalg::test_hermitian_gram_direct_sum",
            "tests/test_bergman.py::TestComplexCoefficients::test_gaussian_bidisc_both_routes",
        ],
    ),
    (
        "bareiss-divides-by-previous-pivot",
        "linalg.py",
        "row[c + 1:] = [(piv * x - a * y) // d for x, y in zip(row[c + 1:], tail)]",
        "row[c + 1:] = [(piv * x - a * y) // prev for x, y in zip(row[c + 1:], tail)]",
        [
            "tests/test_jets.py::TestLinalg::test_pinned_ball_3d_level_8",
            "tests/test_bergman.py::TestLadder::test_stabilization_is_scale_invariant",
        ],
    ),
    (
        "bareiss-stale-pivot-row-kept",
        "linalg.py",
        "if div[r] is not prev:",
        "if False:",
        [
            "tests/test_blocks.py::TestBlockStructure::test_ci_ideal_at_level_31",
            "tests/test_bergman.py::TestComplexCoefficients::test_exact_entries_typed_per_entry",
        ],
    ),
    # -- jet ideals (ideals) --
    (
        "restrict-drops-last-block",
        "ideals.py",
        "kept = self._touched(support) if blocks is None else tuple(blocks)\n",
        "kept = self._touched(support) if blocks is None else tuple(blocks)\n"
        "        kept = kept[:-1] if len(kept) > 2 else kept\n",
        [
            "tests/test_blocks.py::TestSolveOutsideTheSpan::test_m_primary_rungs_match_unsplit_oracle[2]",
            "tests/test_bergman.py::TestComplexCoefficients::test_gaussian_bidisc_both_routes",
        ],
    ),
    (
        "outside-verdict-inverted",
        "ideals.py",
        "if not annihilates(J.blocks[k].null, vec))",
        "if annihilates(J.blocks[k].null, vec))",
        [
            "tests/test_bergman.py::TestBCircle::test_disc_golden",
            "tests/test_acceptance.py::test_criterion_3_krull_ladder",
        ],
    ),
    (
        "union-find-skips-a-union",
        "ideals.py",
        "                if a < b:\n                    parent[b] = a\n",
        "                if a < b:\n                    parent[b] = b\n",
        [
            "tests/test_acceptance.py::test_criterion_3_krull_ladder",
            "tests/test_bergman.py::TestComplexCoefficients::test_spurious_pivots_rejected",
        ],
    ),
    # -- norms and domains (domains) --
    (
        "exact-polydisc-norm-2k",
        "domains.py",
        "num *= p ** (2 * x)\n                    den *= q ** (2 * x) * x",
        "num *= p ** (2 * x - 2)\n                    den *= q ** (2 * x - 2) * x",
        [
            "tests/test_acceptance.py::test_criterion_10_exhaustion",
            "tests/test_bergman.py::TestCrossBackend::test_float_routes_match_exact[polydisc-int]",
        ],
    ),
    (
        "float-polydisc-norm-r-2x-plus-1",
        "domains.py",
        "return r ** (2 * float(x)) / float(x)",
        "return r ** (2 * float(x) + 1) / float(x)",
        [
            "tests/test_bergman.py::TestCrossBackend::test_float_routes_match_exact[polydisc-int]",
            "tests/test_acceptance.py::test_criterion_6_log_convexity",
        ],
    ),
    (
        "ball-norm-factorial",
        "domains.py",
        "denom = math.factorial(d + self.n)",
        "denom = math.factorial(d + self.n - 1)",
        [
            "tests/test_domains.py::TestBallNorms::test_closed_form",
            "tests/test_domains.py::TestBallNorms::test_ball_3d_oracle[2]",
            "tests/test_jets.py::TestLinalg::test_pinned_ball_3d_level_8",
        ],
    ),
    (
        "derived-domain-drops-cut",
        "domains.py",
        '"weight_exponents": self.weight_exponents, "cut": self.cut}',
        '"weight_exponents": self.weight_exponents, "cut": None}',
        [
            "tests/test_domains.py::TestCuts::test_one_variable_sublevel_keeps_the_cap",
            "tests/test_domains.py::TestCuts::test_weight_and_sublevel_commute[two-variable]",
        ],
    ),
    (
        "as-float-unchecked",
        "domains.py",
        'return in_float_range("the norm of z^%s", lambda: finite(float(v) * math.pi**self.n), alpha)',
        "return float(v) * math.pi**self.n",
        [
            "tests/test_cli.py::TestNormsPastTheFloatRange::test_exit_3[kernel-1e308]",
            "tests/test_domains.py::TestOverflow::test_exact_norm_as_float[below-the-range]",
        ],
    ),
    (
        "harmonic-order-uncapped",
        "domains.py",
        'k = integer(k, f"the harmonic order {where}[0]", 0, MAX_JET_INDICES)',
        'k = integer(k, f"the harmonic order {where}[0]", 0)',
        [
            "tests/test_cli.py::TestKernelBasis::test_basis_refuses_a_harmonic_order_past_the_cap",
        ],
    ),
    # -- the range rule on inputs, and the degree and dimension caps --
    (
        "exact-to-complex-without-the-range-rule",
        "exactnum.py",
        "return c if type(c) is complex else complex(to_float(c.real), to_float(c.imag))",
        "return c if type(c) is complex else complex(float(c.real), float(c.imag))",
        [
            "tests/test_cli.py::TestInputsPastTheFloatRange::test_exit[kernel-xi]",
            "tests/test_cli.py::TestInputsPastTheFloatRange::test_exit[equiv-float-mode-1e-400]",
            "tests/test_domain_record.py::TestFloatRangeRule::test_qqi_complex",
        ],
    ),
    (
        "degree-uncapped",
        "indices.py",
        "if sum(alpha) > MAX_DEGREE:",
        "if False:",
        [
            "tests/test_cli.py::TestDegreeAndDimensionCaps::test_degree_past_the_cap_exit_2_in_time",
            "tests/test_domain_record.py::TestCaps::test_degree_cap",
        ],
    ),
    (
        "dimension-uncapped",
        "jsonspec.py",
        "if maximum is not None and x > maximum:",
        "if False:",
        [
            "tests/test_cli.py::TestDegreeAndDimensionCaps::test_dimension_past_the_cap_exit_2[xi]",
            "tests/test_cli.py::TestDegreeAndDimensionCaps::test_dimension_past_the_cap_exit_2[ball-1e308]",
            "tests/test_domain_record.py::TestCaps::test_integer_maximum",
        ],
    ),
    (
        "float-only-field-unchecked",
        "jsonspec.py",
        "return to_float(number(x, name))",
        "return float(number(x, name))",
        [
            "tests/test_cli.py::TestInputsPastTheFloatRange::test_exit[radial-base]",
            "tests/test_cli.py::TestInputsPastTheFloatRange::test_exit[two-point-c-1e-400]",
            "tests/test_domain_record.py::TestFloatRangeRule::test_float_only_field",
        ],
    ),
    # -- values and the command line (exactnum, cli) --
    (
        "float-range-rule-passes-0",
        "exactnum.py",
        'if not val:\n        raise QuadratureError(f"{name % args} underflows to 0")',
        'if False:\n        raise QuadratureError(f"{name % args} underflows to 0")',
        [
            "tests/test_jets.py::TestExactScalars::test_pivalue",
            "tests/test_cli.py::TestNormsPastTheFloatRange::test_exit_3[equiv-C-5e-401]",
            "tests/test_domains.py::TestOverflow::test_exact_norm_as_float[below-the-range]",
        ],
    ),
    (
        "qqi-real-divisor-swaps-parts",
        "exactnum.py",
        "return _qqi(Fraction(a, c), Fraction(b, c))",
        "return _qqi(Fraction(b, c), Fraction(a, c))",
        [
            "tests/test_jets.py::TestExactScalars::test_qqi_field_ops",
            "tests/test_bergman.py::TestKernel::test_matches_norm_sum[qqi-exact-bidisc]",
            "tests/test_cli.py::TestKernelBasis::test_kernel_value",
        ],
    ),
    (
        "qqi-rsub-sign-flipped",
        "exactnum.py",
        "return _qqi(o - self.real, -self.imag)",
        "return _qqi(self.real - o, self.imag)",
        [
            "tests/test_jets.py::TestExactScalars::test_qqi_field_ops",
            "tests/test_bergman.py::TestProjectionConditions::test_random_instances[weighted-gaussian]",
        ],
    ),
    (
        "int-floordiv-qqi-drops-imaginary-part",
        "exactnum.py",
        "return _qqi(o, 0) // self\n",
        "return _qqi(o, 0) // self.real\n",
        [
            "tests/test_jets.py::TestExactScalars::test_qqi_field_ops",
            "tests/test_jets.py::TestLinalg::test_mixed_ring_operations",
        ],
    ),
    (
        "pivalue-identity-equality",
        "exactnum.py",
        "return (self.coeff, self.pi_power) == (other.coeff, other.pi_power)",
        "return self is other",
        [
            "tests/test_bergman.py::TestBCircle::test_disc_golden",
            "tests/test_acceptance.py::test_criterion_10_exhaustion",
        ],
    ),
    (
        "exhaust-loads-moment-domains",
        "cli.py",
        '_load_diagonal(d, "exhaust", f"domains[{i}]")',
        '_load_domain(d, name=f"domains[{i}]")',
        [
            "tests/test_cli.py::TestSpecRanges::test_exhaust_moment_domain_exit_2",
        ],
    ),
    (
        "exhaust-exact-decrease-missed",
        "cli.py",
        "return b.coeff < a.coeff",
        "return False",
        [
            "tests/test_cli.py::TestExhaustCrossCheck::test_decrease_exit_1[exact-1e-30]",
            "tests/test_cli.py::TestExhaustCrossCheck::test_decrease_exit_1[exact-inf-then-finite]",
        ],
    ),
]


def _outcomes(output):
    """{node id: "FAILED", "ERROR" or "PASSED"} from pytest's ``-rfEp``
    short summary."""
    out = {}
    for line in output.splitlines():
        tag, _, rest = line.partition(" ")
        if tag in ("FAILED", "ERROR", "PASSED"):
            out[rest.split(" - ")[0].strip()] = tag
    return out


def _pytest(tmp, ids):
    """Run ``ids`` in the copy at ``tmp``: ({node id: outcome}, None), or
    (None, problem) when pytest gave no test outcome."""
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfEp", "-p", "no:cacheprovider", *ids],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):  # not a test outcome: a usage or collection error
        lines = (proc.stdout + proc.stderr).strip().splitlines() or [""]
        return None, f"pytest exited {proc.returncode}: {lines[-1]}"
    return _outcomes(proc.stdout), None


def baseline(tmp):
    """Run every named id once on the unmutated copy: a list of problems,
    empty when each one passed.  An id that fails, errors or does not run
    here would count as a kill for reasons of its own."""
    ids = list(dict.fromkeys(i for m in MUTANTS for i in m[4]))
    seen, problem = _pytest(tmp, ids)
    if problem:
        return [problem]
    return [f"{i}: {seen.get(i, 'did not run')} on the unmutated copy"
            for i in ids if seen.get(i) != "PASSED"]


def run(tmp, file, snippet, replacement, ids):
    """Apply one mutant in the copy at ``tmp``, run its ids and restore the
    file: a list of problems, empty when every id failed."""
    path = tmp / "src" / "berglab" / file
    text = path.read_text()
    found = text.count(snippet)
    if found != 1:
        return [f"snippet occurs {found} times in src/berglab/{file}: re-target the entry"]
    if not ids:
        return ["no test ids: name the tests that must fail"]
    path.write_text(text.replace(snippet, replacement))
    try:
        seen, problem = _pytest(tmp, ids)
    finally:
        path.write_text(text)
    if problem:
        return [problem]
    problems = [f"survived: {i} passed" for i in ids if seen.get(i) == "PASSED"]
    problems += [f"did not run: {i} (is the id right?)" for i in ids if i not in seen]
    return problems


def main():
    with tempfile.TemporaryDirectory(prefix="berglab-mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        problems = baseline(tmp)
        if problems:
            print("named tests do not all pass on the unmutated code:")
            for p in problems:
                print(f"    {p}")
            return 1
        bad = 0
        for mutant in MUTANTS:
            problems = run(tmp, *mutant[1:])
            print(f"{'FAILED' if problems else 'killed'}  {mutant[0]}")
            for p in problems:
                print(f"    {p}")
            bad += bool(problems)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
