"""Built-in self-check suites: all green on honest code, and each suite
must actually catch a deliberately corrupted instance."""

import pytest

from latdec.validation import SUITES, run_suites


def test_all_suites_pass():
    results = run_suites()
    assert len(results) == len(SUITES)
    for res in results:
        assert res["passed"], f"{res['suite']}: {res['detail']}"
        assert res["checks"] > 0


def test_suite_selection():
    results = run_suites(names=["metric-identity"])
    assert len(results) == 1
    assert results[0]["suite"] == "metric-identity"
    with pytest.raises(ValueError):
        run_suites(names=["no-such-suite"])
    with pytest.raises(ValueError):     # a poison names a suite, nothing else
        run_suites(names=["reduction-bound"], poison="lll")


def test_poison_is_detected_in_every_suite():
    for name in SUITES:
        results = run_suites(names=[name], poison=name)
        assert not results[0]["passed"], f"poison in {name} went unnoticed"


def test_poison_leaves_other_suites_green():
    results = run_suites(poison="metric-identity")
    by_name = {res["suite"]: res for res in results}
    assert not by_name["metric-identity"]["passed"]
    for name, res in by_name.items():
        if name != "metric-identity":
            assert res["passed"], f"{name} affected by foreign poison"
