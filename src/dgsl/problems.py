"""Semilinear problem definitions -Delta u + N(u) = g and the built-in
manufactured-solution registry.

In the solver's convention f(x, u) = g(x) - N(u), so the sign assumption
f_u <= 0 becomes N'(u) >= 0. All callbacks must broadcast over numpy
arrays.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MANUFACTURED_POINTS = 50
MANUFACTURED_SEED = 0
MANUFACTURED_TOL = 1e-10


@dataclass(frozen=True)
class ExactSolution:
    """Manufactured solution with analytic gradient and Laplacian."""

    value: Callable
    gradient: Callable      # returns (du/dx, du/dy)
    laplacian: Callable


@dataclass(frozen=True)
class Problem:
    """One semilinear problem: nonlinearity, its derivative, and source."""

    name: str
    nonlinearity: Callable          # N(u)
    d_nonlinearity: Callable        # N'(u)
    source: Callable                # g(x, y)
    exact: Optional[ExactSolution] = None


def verify_manufactured(problem: Problem) -> float:
    """Max |g - (-Delta u + N(u))| at random interior points.

    Raises ValueError when the problem has no exact solution attached or
    the discrepancy exceeds MANUFACTURED_TOL.
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    rng = np.random.default_rng(MANUFACTURED_SEED)
    x = rng.uniform(0.05, 0.95, MANUFACTURED_POINTS)
    y = rng.uniform(0.05, 0.95, MANUFACTURED_POINTS)
    lhs = -problem.exact.laplacian(x, y) + problem.nonlinearity(problem.exact.value(x, y))
    gap = float(np.abs(problem.source(x, y) - lhs).max())
    if gap > MANUFACTURED_TOL:
        raise ValueError(
            f"problem {problem.name!r} is not manufactured-consistent: gap {gap:.3e}"
        )
    return gap


def _sine_problem():
    pi = np.pi

    def value(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def gradient(x, y):
        return (pi * np.cos(pi * x) * np.sin(pi * y),
                pi * np.sin(pi * x) * np.cos(pi * y))

    def laplacian(x, y):
        return -2.0 * pi ** 2 * np.sin(pi * x) * np.sin(pi * y)

    def source(x, y):
        s = np.sin(pi * x) * np.sin(pi * y)
        return 2.0 * pi ** 2 * s + s ** 3

    return Problem(
        name="sine",
        # two products: numpy's u ** 3 goes through pow() and takes
        # about 35x longer, once per Newton residual
        nonlinearity=lambda u: u * u * u,
        d_nonlinearity=lambda u: 3.0 * u ** 2,
        source=source,
        exact=ExactSolution(value, gradient, laplacian),
    )


_REGISTRY = {"sine": _sine_problem()}


def get_problem(name: str) -> Problem:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
