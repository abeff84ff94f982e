"""Property-suite plumbing: selectors, overrides, failure reporting."""

import pytest

from dgsl.properties import SUITES, run_property_suite


def test_all_selector_covers_every_suite():
    results = run_property_suite("all")
    assert [r.name for r in results] == list(SUITES)


def test_unknown_selector():
    with pytest.raises(KeyError):
        run_property_suite("bogus")


@pytest.mark.parametrize("name", ["quadrature", "mesh", "symmetry", "edge_identity"])
def test_fast_suites_pass(name):
    (result,) = run_property_suite(name)
    assert result.passed, result.detail


def test_coercivity_override_reports_failure():
    (result,) = run_property_suite("coercivity", {"penalty": 0.01})
    assert not result.passed
    assert "0.25" in result.detail
    assert result.detail.endswith("local certificate fails")


def test_coercivity_reports_the_local_certificate():
    (result,) = run_property_suite("coercivity")
    assert result.passed
    assert result.line().endswith("local certificate holds")


def test_result_line_format():
    (result,) = run_property_suite("quadrature")
    line = result.line()
    assert line.startswith("PASS") or line.startswith("FAIL")
    assert "quadrature" in line
