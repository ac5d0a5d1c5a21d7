import numpy as np
import pytest

from scatter1d import bessel, validate
from scatter1d.bessel import bessel_j, identity_residuals
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


def scalar_grid_worsts() -> tuple[float, float]:
    # the two grids as a loop over identity_residuals and bessel_j, one
    # point at a time: the reference for the array path
    J = bessel_j
    worst_identity = 0.0
    orders, ws = validate._identity_grid()
    for nu in orders:
        for w in ws:
            res = identity_residuals(nu, w)
            scale = max(abs(J(nu + 1, w) * J(-nu, w)), abs(J(nu, w) * J(-nu - 1, w)), 1.0)
            worst_identity = max(worst_identity, res.cross_sum / scale, res.cross_diff / scale,
                                 res.continuation / max(abs(J(nu, w)), 1.0))
    worst_recurrence = 0.0
    orders, ws = validate._recurrence_grid()
    for nu in orders:
        for w in ws:
            jm, j0, jp = J(nu - 1, w), J(nu, w), J(nu + 1, w)
            scale = max(abs(jm), abs(j0), abs(jp), 1.0)
            worst_recurrence = max(worst_recurrence,
                                   abs(w * jp - 2 * nu * j0 + w * jm) / scale)
    return worst_identity, worst_recurrence


def test_bessel_grids_equal_the_scalar_loop(monkeypatch):
    identity, recurrence = scalar_grid_worsts()
    assert validate._identity_worst().hex() == identity.hex()
    assert validate._recurrence_worst().hex() == recurrence.hex()
    rep = run_suite("bessel", seed=DEFAULT_SEED)[0]
    assert [(r.name, r.passed, r.detail) for r in rep.results[:2]] == [
        ("identity-residuals-moderate-args", identity < 1e-10,
         f"worst scaled residual {identity:.2e} (bound 1e-10)"),
        ("recurrence-residual-large-grid", recurrence < 1e-10,
         f"worst scaled residual {recurrence:.2e} over |w| <= 30 (bound 1e-10)")]
    # and the whole report, records included, with every grid value from
    # bessel_j: an array form that refuses every element
    def refusing(nu, w):
        shape = np.broadcast_shapes(np.shape(nu), np.shape(w))
        return np.full(shape, np.nan, dtype=complex), np.ones(shape, dtype=bool)

    monkeypatch.setattr(bessel, "bessel_j_array", refusing)
    assert run_suite("bessel", seed=DEFAULT_SEED)[0] == rep


def test_unknown_suite_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown suite 'nope'"):
        run_suite("nope")
