"""Verification suites: every suite passes at every seed, and a fault in one
instance is recorded as that instance's failure."""

import pytest

from berglab import suites
from berglab.bergman import b_circle, kernel_at_origin
from berglab.exactnum import PiValue, abs2_s
from berglab.jets import pair
from berglab.suites import SUITES, equivalence_instances, run_suite


def test_unexpected_exception_is_one_failure(monkeypatch):
    real = suites.effectiveness_report

    def faulty(D, F, phi):
        if F.coeffs == {(1,): 1}:  # the golden-z instance only
            raise ZeroDivisionError("injected")
        return real(D, F, phi)

    monkeypatch.setattr(suites, "effectiveness_report", faulty)
    result = run_suite("sop", seed=0)
    assert result.total == 10
    assert [i for i, _ in result.failures] == [0]
    assert "ZeroDivisionError: injected" in result.failures[0][1]
    assert result.passed == 9


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_seeds_0_to_19(name):
    failed = {}
    for seed in range(20):
        result = run_suite(name, seed=seed)
        if not result.ok:
            failed[seed] = result.failures
    assert not failed


def test_b_circle_is_the_kernel_ratio_of_its_maximizer():
    # one K_xi: on every solved exact instance of the equivalence suites at
    # seeds 0-19 (40 instances each, weighted and unweighted), B equals
    # |xi(F)|^2 / K_xi for b_circle's maximizer xi, with K_xi from
    # kernel_at_origin, also where xi touches a non-integrable slot
    solved = touching = 0
    for weighted in (False, True):
        for seed in range(20):
            for _, _, (dom, F, J) in equivalence_instances(seed, 40, weighted):
                res = b_circle(dom, F, J)
                if (res.diagnostics["backend"], res.diagnostics["outcome"]) != ("exact", "solved"):
                    continue
                xi = res.maximizer
                K = kernel_at_origin(dom, xi)
                assert PiValue(abs2_s(pair(xi, F)) / K.coeff, -K.pi_power) == res.value
                solved += 1
                touching += not all(dom.finite(a) for a in xi.entries)
    assert (solved, touching) == (583, 24)
