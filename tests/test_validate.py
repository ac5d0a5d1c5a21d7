import pytest

from scatter1d.errors import DomainError
from scatter1d.validate import DEFAULT_SEED, run_suite


def test_all_suites_pass():
    reports = run_suite("all", seed=DEFAULT_SEED)
    assert {r.suite for r in reports} == {"bessel", "transfer", "analytic"}
    failures = [f"{r.suite}/{res.name}: {res.detail}"
                for r in reports for res in r.results if not res.passed]
    assert not failures, failures


def test_conjecture_probe_is_recorded_not_asserted():
    rep = run_suite("bessel", seed=DEFAULT_SEED)[0]
    record = rep.records["no_common_zero_probe"]
    assert set(record) >= {"min_abs_j", "violation"}
    assert isinstance(record["violation"], bool)


def test_unknown_suite_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown suite 'nope'"):
        run_suite("nope")
