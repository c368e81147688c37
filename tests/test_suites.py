"""Verification suites: every suite passes at every seed, and a fault in one
instance is recorded as that instance's failure."""

import pytest

from berglab import suites
from berglab.suites import SUITES, run_suite


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
