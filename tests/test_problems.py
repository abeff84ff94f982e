"""Problem registry and manufactured-solution consistency."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dgsl import Problem, get_problem, verify_manufactured


def test_sine_source_formula(rng):
    # g = 2 pi^2 sin(pi x) sin(pi y) + sin^3(pi x) sin^3(pi y)
    sine = get_problem("sine")
    x = rng.uniform(0, 1, 30)
    y = rng.uniform(0, 1, 30)
    s = np.sin(np.pi * x) * np.sin(np.pi * y)
    assert_allclose(sine.source(x, y), 2 * np.pi ** 2 * s + s ** 3, rtol=1e-14)


def test_sine_is_manufactured_consistent():
    assert verify_manufactured(get_problem("sine")) <= 1e-10


def test_inconsistent_problem_detected():
    bad = Problem(
        name="broken",
        nonlinearity=lambda u: u ** 3,
        d_nonlinearity=lambda u: 3 * u ** 2,
        source=lambda x, y: np.ones_like(x),  # wrong source for this exact
        exact=get_problem("sine").exact,
    )
    with pytest.raises(ValueError, match="manufactured"):
        verify_manufactured(bad)


def test_registry_contents_and_errors():
    assert get_problem("sine").name == "sine"
    with pytest.raises(KeyError, match="unknown problem"):
        get_problem("nope")


def test_nonlinearity_sign_witness(rng):
    # the shipped problem satisfies N'(u) >= 0 over any sampled range
    sine = get_problem("sine")
    u = rng.uniform(-5, 5, 200)
    assert sine.d_nonlinearity(u).min() >= 0.0
