"""Runnable structural checks: the release-gate property suites.

Each suite exercises one invariant family (operator symmetry, the
coercivity and continuity bounds, the element-boundary edge identity
by the scheme's consistency on polynomials, quadrature exactness,
projection/interpolation rates, Newton's quadratic contraction,
trace-constant mesh independence, mesh bookkeeping) and reports
pass/fail with a one-line detail. Suites use seeded randomness so
results are reproducible; overrides let a caller probe failure regimes
on purpose (e.g. a tiny penalty breaks coercivity).
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (apply_bilinear_to_field, dg_error, dg_norm_discrete,
                       elliptic_project, estimate_trace_constant, l2_error,
                       l2_norm_discrete, observed_orders)
from .assembly import AssemblyConfig, NewtonKernel, assemble_bilinear
from .errors import DgslError
from .mesh import build_perturbed, build_structured
from .newton import NewtonConfig, solve_semilinear
from .problems import ExactSolution, get_problem, verify_manufactured
from .quadrature import (MAX_EDGE_DEGREE, MAX_TRIANGLE_DEGREE, edge_rule,
                         triangle_rule)
from .space import DGSpace, DGVector, interpolate


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _random_vector(space, rng):
    return DGVector(space, rng.standard_normal(space.total_dofs))


def _monomial_defects(rule, total):
    """Relative errors of `rule` on the monomials of total degree `total`
    over its reference cell: t^a on [0, 1], with integral 1 / (a + 1), and
    x^a y^b on the triangle, with integral a! b! / (a + b + 2)!."""
    if rule.points.ndim == 1:
        pairs = [(rule.points ** total, 1.0 / (total + 1))]
    else:
        x, y = rule.points.T
        pairs = [(x ** a * y ** (total - a), math.factorial(a)
                  * math.factorial(total - a) / math.factorial(total + 2))
                 for a in range(total + 1)]
    return [abs(float(rule.weights @ f) - exact) / exact for f, exact in pairs]


def check_quadrature(overrides):
    worst = 0.0
    tight_ok = True
    for family, make_rule, max_degree in (("triangle", triangle_rule, MAX_TRIANGLE_DEGREE),
                                          ("edge", edge_rule, MAX_EDGE_DEGREE)):
        for degree in range(1, max_degree + 1):
            rule = make_rule(degree)
            if rule.weights.min() <= 0.0:
                return CheckResult("quadrature", False,
                                   f"negative weight at {family} degree {degree}")
            for total in range(rule.exactness_degree + 1):
                worst = max(worst, *_monomial_defects(rule, total))
            # a rule must miss some monomial two degrees above its claim
            probe = rule.exactness_degree + 2
            tight_ok = tight_ok and max(_monomial_defects(rule, probe)) > 1e-13
    passed = worst <= 1e-12 and tight_ok
    return CheckResult("quadrature", passed,
                       f"max relative exactness defect {worst:.2e}, "
                       f"tightness {'ok' if tight_ok else 'violated'}")


def check_mesh(overrides):
    issues = []
    for n in (1, 4, 7):
        mesh = build_structured(n)
        if abs(mesh.total_area() - 1.0) > 1e-12:
            issues.append(f"structured n={n} area {mesh.total_area()}")
        boundary = int(mesh.edges.boundary.sum())
        interior = len(mesh.edges) - boundary
        if 3 * mesh.num_triangles != 2 * interior + boundary:
            issues.append(f"structured n={n} edge partition broken")
    m1 = build_perturbed(10, 0.25, 42)
    m2 = build_perturbed(10, 0.25, 42)
    if not np.array_equal(m1.vertices, m2.vertices):
        issues.append("perturbed mesh is not seed-deterministic")
    if abs(m1.total_area() - 1.0) > 1e-12:
        issues.append(f"perturbed area {m1.total_area()}")
    if np.array_equal(m1.vertices, build_perturbed(10, 0.25, 43).vertices):
        issues.append("different seeds gave identical meshes")
    return CheckResult("mesh", not issues, "; ".join(issues) or
                       "area, edge partition, determinism all hold")


def check_symmetry(overrides):
    penalty = overrides.get("penalty", 100.0)
    problem = get_problem("sine")
    rng = np.random.default_rng(3)
    worst = 0.0
    for n, r in ((2, 1), (2, 2), (2, 3), (4, 1)):
        space = DGSpace(build_structured(n), r)
        cfg = AssemblyConfig(penalty=penalty)
        a = assemble_bilinear(space, cfg)
        worst = max(worst, a.max_asymmetry() / a.max_abs())
        jac = NewtonKernel(space, problem, cfg, stiffness=a).jacobian(
            _random_vector(space, rng).coeffs)
        worst = max(worst, jac.max_asymmetry() / jac.max_abs())
    return CheckResult("symmetry", worst <= 1e-12,
                       f"max relative asymmetry {worst:.2e}")


def polynomial_field(r):
    """p = (0.3 + x - 2y)^r + x y^(r-1), a member of P_r, as an
    ExactSolution."""
    def value(x, y):
        return (0.3 + x - 2.0 * y) ** r + x * y ** (r - 1)

    def gradient(x, y):
        base = r * (0.3 + x - 2.0 * y) ** (r - 1)
        dy = (r - 1) * x * y ** (r - 2) if r > 1 else 0.0 * x
        return base + y ** (r - 1), -2.0 * base + dy

    def laplacian(x, y):
        # a term whose coefficient is 0 keeps its power >= 0, so no inf
        return 5.0 * r * (r - 1) * (0.3 + x - 2.0 * y) ** max(r - 2, 0) \
            + (r - 1) * (r - 2) * x * y ** max(r - 3, 0)

    return ExactSolution(value, gradient, laplacian)


def bilinear_consistency(space, cfg):
    """max |A I p - a(p, phi_i)| / max |a(p, phi_i)| for the polynomial
    p of `polynomial_field`: the assembled matrix applied to the
    interpolant against the form built from -Lap p and boundary terms
    alone. The matrix's interior edge sums are all that the two do not
    share, so wrong side traces, local edges or normals break it."""
    p = polynomial_field(space.degree)
    exact = apply_bilinear_to_field(space, p, cfg)
    via_matrix = assemble_bilinear(space, cfg) @ interpolate(space, p.value).coeffs
    return float(np.abs(via_matrix - exact).max() / np.abs(exact).max())


def check_edge_identity(overrides):
    # the operator sums each element's boundary integrals edge by edge as
    # averages and jumps; consistency checks that identity where it is used
    worst = 0.0
    for mesh in (build_structured(2), build_structured(4),
                 build_perturbed(6, 0.2, 3)):
        for r in (1, 2, 3):
            worst = max(worst, bilinear_consistency(
                DGSpace(mesh, r), AssemblyConfig(penalty=37.0)))
    return CheckResult("edge_identity", worst <= 1e-11,
                       f"A I p against (-Lap p, .) + boundary terms for p in "
                       f"P_r, r = 1-3, on 3 meshes: max relative gap {worst:.2e}")


def check_continuity(overrides):
    penalty = overrides.get("penalty", 100.0)
    rng = np.random.default_rng(17)
    worst = 0.0
    for n in (4, 8):
        for r in (1, 2):
            space = DGSpace(build_structured(n), r)
            a = assemble_bilinear(space, AssemblyConfig(penalty=penalty))
            for _ in range(25):
                w = _random_vector(space, rng)
                v = _random_vector(space, rng)
                lhs = abs(float(v.coeffs @ (a @ w.coeffs)))
                bound = 3.0 * dg_norm_discrete(space, w, penalty) \
                    * dg_norm_discrete(space, v, penalty)
                worst = max(worst, lhs / bound)
    return CheckResult("continuity", worst <= 1.0 + 1e-12,
                       f"max |a(w,v)| / (3 |||w||| |||v|||) = {worst:.4f}")


def check_coercivity(overrides):
    penalty = overrides.get("penalty", 1000.0)
    rng = np.random.default_rng(23)
    worst = np.inf
    certified = True
    for n, r in ((16, 1), (8, 2), (8, 3)):
        space = DGSpace(build_structured(n), r)
        a = assemble_bilinear(space, AssemblyConfig(penalty=penalty))
        certified = certified and a.certified
        for _ in range(34):
            v = _random_vector(space, rng)
            quad = float(v.coeffs @ (a @ v.coeffs))
            norm2 = dg_norm_discrete(space, v, penalty) ** 2
            worst = min(worst, quad / norm2)
    return CheckResult("coercivity", worst >= 0.25 and certified,
                       f"min a(v,v) / |||v|||^2 = {worst:.4f} "
                       f"(needs >= 0.25 at penalty {penalty:g}), local "
                       f"certificate {'holds' if certified else 'fails'}")


def check_jacobian_fd(overrides):
    problem = get_problem("sine")
    rng = np.random.default_rng(29)
    worst = 0.0
    for n, r in ((4, 1), (3, 2)):
        space = DGSpace(build_structured(n), r)
        kernel = NewtonKernel(space, problem, AssemblyConfig(penalty=100.0))
        u = interpolate(space, problem.exact.value)
        u.coeffs += 0.1 * rng.standard_normal(space.total_dofs)
        jac = kernel.jacobian(u.coeffs)
        d = rng.standard_normal(space.total_dofs)
        eps = 1e-6
        fd = (kernel.residual(u.coeffs + eps * d)
              - kernel.residual(u.coeffs - eps * d)) / (2 * eps)
        jd = jac @ d
        worst = max(worst, float(np.linalg.norm(fd - jd) / np.linalg.norm(jd)))
    return CheckResult("jacobian_fd", worst <= 1e-6,
                       f"max relative FD mismatch {worst:.2e}")


def check_rates(overrides):
    penalty = overrides.get("penalty", 100.0)
    problem = get_problem("sine")
    details = []
    passed = True
    for r in (1, 2, 3):
        proj_pts, interp_pts = [], []
        for n in (8, 16, 32):
            space = DGSpace(build_structured(n), r)
            cfg = AssemblyConfig(penalty=penalty)
            proj = elliptic_project(space, problem.exact, cfg)
            proj_pts.append((1.0 / n, l2_error(space, proj, problem.exact)))
            interp = interpolate(space, problem.exact.value)
            interp_pts.append((1.0 / n,
                               dg_error(space, interp, problem.exact, penalty)))
        proj_order = observed_orders(proj_pts)[-1]
        interp_order = observed_orders(interp_pts)[-1]
        ok = abs(proj_order - (r + 1)) <= 0.15 and abs(interp_order - r) <= 0.15
        passed = passed and ok
        details.append(f"r={r}: projection L2 order {proj_order:.3f}, "
                       f"interpolant energy order {interp_order:.3f}")
    return CheckResult("rates", passed, "; ".join(details))


def newton_contraction_slope(residuals, floor_ratio=1e-11):
    """Least-squares slope of log r_{k+1} against log r_k over the last
    quadratic-regime pairs of a residual history.

    Residuals within `floor_ratio` of the initial one are discarded:
    they sit on the linear-algebra noise floor, not the Newton
    contraction curve."""
    floor = max(residuals) * floor_ratio
    usable = [x for x in residuals if x > floor]
    pairs = [(math.log(a), math.log(b)) for a, b in zip(usable, usable[1:])][-3:]
    if len(pairs) < 2:
        raise ValueError("not enough Newton iterations to fit a slope")
    xs, ys = np.array(pairs).T
    return float(np.polyfit(xs, ys, 1)[0])


def check_newton_quadratic(overrides):
    penalty = overrides.get("penalty", 100.0)
    problem = get_problem("sine")
    space = DGSpace(build_structured(16), 1)
    _, report = solve_semilinear(
        space, problem, AssemblyConfig(penalty=penalty),
        NewtonConfig(abs_tol=1e-12))
    slope = newton_contraction_slope(report.residual_norms)
    return CheckResult("newton_quadratic", 1.7 <= slope <= 2.3,
                       f"contraction slope {slope:.3f} over "
                       f"{report.iterations} iterations")


def check_trace(overrides):
    estimates = {n: estimate_trace_constant(DGSpace(build_structured(n), 2))
                 for n in (8, 32)}
    drift = abs(estimates[8] - estimates[32]) / estimates[8]
    return CheckResult("trace", drift < 0.10,
                       f"constants {estimates[8]:.4f} (n=8) vs "
                       f"{estimates[32]:.4f} (n=32), drift {drift:.2%}")


def check_uniqueness(overrides):
    penalty = overrides.get("penalty", 100.0)
    problem = get_problem("sine")
    worst = 0.0
    for n in (8, 16):
        space = DGSpace(build_structured(n), 1)
        cfg = AssemblyConfig(penalty=penalty)
        u0, _ = solve_semilinear(space, problem, cfg, NewtonConfig())
        u1, _ = solve_semilinear(
            space, problem, cfg,
            NewtonConfig(initial_guess=problem.exact.value))
        diff = DGVector(space, u0.coeffs - u1.coeffs)
        worst = max(worst, l2_norm_discrete(space, diff))
    return CheckResult("uniqueness", worst <= 1e-8,
                       f"max L2 gap between starts {worst:.2e}")


def check_manufactured(overrides):
    try:
        gap = verify_manufactured(get_problem("sine"))
    except ValueError as exc:
        return CheckResult("manufactured", False, str(exc))
    return CheckResult("manufactured", True,
                       f"source consistency gap {gap:.2e}")


# each suite is named after its function, in this order
SUITES = {check.__name__.removeprefix("check_"): check for check in (
    check_quadrature, check_mesh, check_symmetry, check_edge_identity,
    check_continuity, check_coercivity, check_jacobian_fd, check_rates,
    check_newton_quadratic, check_trace, check_uniqueness,
    check_manufactured)}


def run_property_suite(selector: str = "all", overrides=None):
    """Run one named suite or all of them; failures are reported, not
    raised. Returns a list of CheckResult."""
    overrides = dict(overrides or {})
    if selector == "all":
        names = list(SUITES)
    elif selector in SUITES:
        names = [selector]
    else:
        raise KeyError(f"unknown suite {selector!r}; available: "
                       f"{', '.join(sorted(SUITES))} or 'all'")
    results = []
    for name in names:
        try:
            results.append(SUITES[name](overrides))
        except DgslError as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
