"""Property-suite plumbing: selectors, overrides, failure reporting."""

import dataclasses

import numpy as np
import pytest

import dgsl.properties
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


# each fault is applied to the degree-3 rule of one family; the quadrature
# suite must name it
RULE_FAULTS = {
    "weight_nudged": (lambda rule: dataclasses.replace(
        rule, weights=rule.weights + 1e-9 * (np.arange(len(rule)) == 0)),
        "tightness ok"),                 # the exactness defect alone fails
    "negative_weight": (lambda rule: dataclasses.replace(
        rule, weights=np.where(np.arange(len(rule)) == 0, -rule.weights,
                               rule.weights)),
        "negative weight at {family} degree 3"),
    "claims_two_degrees_less": (lambda rule: dataclasses.replace(
        rule, exactness_degree=rule.exactness_degree - 2),
        "tightness violated"),
}


@pytest.mark.parametrize("family", ["triangle", "edge"])
@pytest.mark.parametrize("fault", RULE_FAULTS)
def test_quadrature_suite_fails_on_a_broken_rule(family, fault, monkeypatch):
    breaks, detail = RULE_FAULTS[fault]
    name = f"{family}_rule"
    original = getattr(dgsl.properties, name)
    monkeypatch.setattr(dgsl.properties, name, lambda degree: breaks(
        original(degree)) if degree == 3 else original(degree))
    (result,) = run_property_suite("quadrature")
    assert not result.passed
    assert detail.format(family=family) in result.detail
