"""Acceptance battery: every check must pass at its stated tolerance.

Each test runs one check from cmdplab.acceptance and prints its summary
line, so `pytest -v` doubles as the release gate report.
"""

import pytest

import cmdplab.acceptance as acceptance
from cmdplab.acceptance import ALL_CHECKS, CheckResult, _budget, run_checks


@pytest.mark.parametrize(
    "check", ALL_CHECKS,
    ids=[fn.__name__.removeprefix("check_") for fn in ALL_CHECKS])
def test_acceptance(check):
    result = check()
    print(result.line())
    assert result.passed, f"{result.name}: {result.detail}"


def test_battery_names_and_order():
    # the names suite prints and --only accepts, read without running a check
    assert list(acceptance._REGISTRY) == [
        "solver-oracle-equivalence", "mc-dp-agreement", "dual-regret-bound",
        "doubling-epochs", "optimism-frequency", "dual-variable-bounds",
        "greedy-backup-exactness", "convergence-trend", "grid-rounding",
        "reproducibility"]
    assert tuple(acceptance._REGISTRY.values()) == ALL_CHECKS


def test_over_budget_check_fails_with_its_own_detail(monkeypatch):
    monkeypatch.setattr(acceptance, "_REGISTRY", {})

    @_budget(0.0)
    def check_stub_thing():
        """A stub that passes at once."""
        return True, "stub ran"

    result = check_stub_thing()
    assert isinstance(result, CheckResult)
    assert (result.name, result.passed) == ("stub-thing", False)
    assert result.detail == "stub ran; exceeded 0s budget"
    assert check_stub_thing.__name__ == "check_stub_thing"
    assert acceptance._REGISTRY == {"stub-thing": check_stub_thing}


def test_named_checks_run_once_in_first_given_order(monkeypatch):
    monkeypatch.setattr(acceptance, "_REGISTRY", {})
    ran = []

    @_budget(60.0)
    def check_first():
        ran.append("first")
        return True, "1"

    @_budget(60.0)
    def check_second():
        ran.append("second")
        return True, "2"

    results = run_checks(["second", "first", "second"])
    assert [r.name for r in results] == ran == ["second", "first"]
