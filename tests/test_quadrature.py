"""Quadrature rules against closed-form monomial integrals.

The oracle: int over the reference triangle of x^a y^b equals
a! b! / (a+b+2)!, and int_0^1 t^a = 1/(a+1).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dgsl
from dgsl import edge_rule, triangle_rule
from dgsl.errors import UnsupportedDegree
from dgsl.quadrature import _gauss_jacobi_10, _gauss_legendre_01


def tri_integral(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def tri_apply(rule, a, b):
    x, y = rule.points[:, 0], rule.points[:, 1]
    return float(rule.weights @ (x ** a * y ** b))


def test_degree1_is_centroid_rule():
    rule = triangle_rule(1)
    assert len(rule) == 1
    assert_allclose(rule.weights, [0.5], rtol=0, atol=1e-15)
    assert_allclose(rule.points, [[1 / 3, 1 / 3]], rtol=0, atol=1e-15)


def test_degree2_quadratic_monomial():
    # int x^2 = 2!0!/4! = 1/12
    assert abs(tri_apply(triangle_rule(2), 2, 0) - 1 / 12) < 1e-14


def test_degree10_mixed_monomial():
    exact = tri_integral(4, 6)
    assert abs(tri_apply(triangle_rule(10), 4, 6) - exact) < 1e-12 * exact


@pytest.mark.parametrize("degree", range(1, 15))
def test_triangle_exactness_sweep(degree):
    rule = triangle_rule(degree)
    assert rule.exactness_degree >= degree
    assert rule.weights.min() > 0
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    for total in range(rule.exactness_degree + 1):
        for a in range(total + 1):
            exact = tri_integral(a, total - a)
            assert abs(tri_apply(rule, a, total - a) - exact) < 1e-12 * exact


@pytest.mark.parametrize("degree", range(1, 15))
def test_triangle_exactness_is_tight(degree):
    rule = triangle_rule(degree)
    probe = rule.exactness_degree + 2
    worst = max(
        abs(tri_apply(rule, a, probe - a) - tri_integral(a, probe - a))
        / tri_integral(a, probe - a)
        for a in range(probe + 1)
    )
    assert worst > 1e-13


@pytest.mark.parametrize("degree", range(1, 15))
def test_triangle_rule_matches_the_conical_product_loop(degree):
    # the rule's arrays feed every integral, so a reordered or rounded
    # point moves output bytes
    m = (degree + 2) // 2
    s, ws = _gauss_legendre_01(m)
    t, wt = _gauss_jacobi_10(m)
    t, wt = (t + 1.0) / 2.0, wt / 4.0
    pts, wgt = np.empty((m * m, 2)), np.empty(m * m)
    k = 0
    for i in range(m):
        for j in range(m):
            pts[k, 0] = s[i] * (1.0 - t[j])
            pts[k, 1] = t[j]
            wgt[k] = ws[i] * wt[j]
            k += 1
    rule = triangle_rule(degree)
    assert np.array_equal(rule.points, pts)
    assert np.array_equal(rule.weights, wgt)


def test_edge_midpoint_rule():
    rule = edge_rule(1)
    assert len(rule) == 1
    assert abs(float(rule.weights @ rule.points) - 0.5) < 1e-15


def test_edge_three_point_degree5():
    rule = edge_rule(5)
    assert len(rule) == 3
    assert abs(float(rule.weights @ rule.points ** 5) - 1 / 6) < 1e-15


def test_edge_five_point_degree9():
    rule = edge_rule(9)
    assert len(rule) == 5
    assert abs(float(rule.weights @ rule.points ** 9) - 1 / 10) < 1e-14


@pytest.mark.parametrize("degree", range(1, 21))
def test_edge_exactness_sweep(degree):
    rule = edge_rule(degree)
    assert rule.weights.min() > 0
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for a in range(rule.exactness_degree + 1):
        assert abs(float(rule.weights @ rule.points ** a) - 1 / (a + 1)) \
            < 1e-12 / (a + 1)
    probe = rule.exactness_degree + 2
    assert abs(float(rule.weights @ rule.points ** probe) - 1 / (probe + 1)) \
        > 1e-13 / (probe + 1)


@pytest.mark.parametrize("degree", [0, 15, -3])
def test_triangle_unsupported_degree(degree):
    with pytest.raises(UnsupportedDegree):
        triangle_rule(degree)


@pytest.mark.parametrize("degree", [0, 21])
def test_edge_unsupported_degree(degree):
    with pytest.raises(UnsupportedDegree):
        edge_rule(degree)


def test_rules_are_immutable():
    rule = triangle_rule(3)
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


def test_rules_are_built_once_per_degree():
    assert triangle_rule(7) is triangle_rule(7)
    assert edge_rule(6) is edge_rule(6)
    assert triangle_rule(7) is not triangle_rule(9)


@pytest.mark.parametrize("m", range(1, 12))
def test_gauss_jacobi_rule_matches_scipy(m):
    from scipy.special import roots_jacobi
    nodes, weights = _gauss_jacobi_10(m)
    ref_nodes, ref_weights = roots_jacobi(m, 1.0, 0.0)
    assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-14)
    assert_allclose(weights, ref_weights, rtol=0, atol=1e-14)


def test_import_leaves_scipy_special_unloaded():
    src = Path(dgsl.__file__).resolve().parent.parent
    code = ("import sys; import dgsl, dgsl.cli; "
            "print(any(m.startswith('scipy.special') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
