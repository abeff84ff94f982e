"""Acceptance gate: one test per criterion clause, each printing a
PASS/FAIL line.

Two clauses compare absolute error magnitudes against the reference
tables and FAIL; they are kept failing deliberately. The reference
magnitudes lie below hard best-approximation floors of the norms
defined for this solver (no piecewise-linear field can be closer to the
manufactured solution than the element-wise projection, yet the
reference L2 entries are smaller; likewise the reference energy values
undercut the broken-gradient floor). The same runs measured as
distance-to-interpolant reproduce the references closely; those
diagnostics are printed alongside the failures. Orders, trends, and all
structural criteria pass.
"""

import pytest

import dgsl
from dgsl import NewtonConfig, RunConfig, run_convergence
from dgsl.analysis import dg_norm_discrete, l2_error
from dgsl.properties import SUITES

# reference tables: r=1, penalty 100 (levels 1/16 .. 1/128)
TABLE2_L2 = (1.03e-3, 2.61e-4, 6.56e-5, 1.65e-5)
TABLE2_DG = (5.02e-2, 2.41e-2, 1.18e-2, 5.85e-3)
TABLE2_L2_ORDERS = (1.98, 1.99, 1.99)
TABLE2_DG_ORDERS = (1.06, 1.03, 1.01)
# penalty sweep at h = 1/64: reference energy errors decrease with penalty
SWEEP_DG = {10.0: 3.18e-2, 100.0: 1.18e-2, 1000.0: 3.83e-3, 2000.0: 2.72e-3}

LEVELS = (16, 32, 64, 128)


def report_line(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def table2_report():
    return run_convergence(RunConfig(degree=1, penalty=100.0, levels=LEVELS))


@pytest.fixture(scope="module")
def r2_report():
    return run_convergence(RunConfig(degree=2, penalty=100.0, levels=LEVELS))


@pytest.fixture(scope="module")
def r3_report():
    # raised quadrature and a tighter Newton tolerance keep algebraic and
    # integration noise below the ~1e-10 errors at the finest level
    return run_convergence(RunConfig(
        degree=3, penalty=100.0, levels=LEVELS,
        volume_degree=14, edge_degree=12,
        newton=NewtonConfig(abs_tol=1e-11)))


@pytest.fixture(scope="module")
def sweep_rows():
    rows = {}
    for lam in SWEEP_DG:
        report = run_convergence(RunConfig(degree=1, penalty=lam, levels=(64,)))
        rows[lam] = report.rows[0]
    return rows


def test_criterion_1_orders(table2_report):
    got_l2 = [row.l2_order for row in table2_report.rows[1:]]
    got_dg = [row.dg_order for row in table2_report.rows[1:]]
    ok = all(abs(g - e) <= 0.10 for g, e in zip(got_l2, TABLE2_L2_ORDERS)) \
        and all(abs(g - e) <= 0.10 for g, e in zip(got_dg, TABLE2_DG_ORDERS))
    report_line("1-orders", ok,
                f"L2 orders {[f'{o:.2f}' for o in got_l2]} vs {TABLE2_L2_ORDERS}, "
                f"energy orders {[f'{o:.2f}' for o in got_dg]} vs {TABLE2_DG_ORDERS}")
    assert ok


def test_criterion_1_absolute_errors(table2_report):
    worst = 0.0
    for row, ref_l2, ref_dg in zip(table2_report.rows, TABLE2_L2, TABLE2_DG):
        worst = max(worst, row.l2_error / ref_l2, ref_l2 / row.l2_error,
                    row.dg_error / ref_dg, ref_dg / row.dg_error)
    ok = worst <= 2.0

    # diagnostic: the same solve measured as distance to the interpolant
    # reproduces the reference row at h = 1/64
    space = dgsl.DGSpace(dgsl.build_structured(64), 1)
    u, _ = dgsl.solve_semilinear(space, dgsl.get_problem("sine"),
                                 dgsl.AssemblyConfig(penalty=100.0))
    gap = dgsl.DGVector(space, dgsl.interpolate(
        space, dgsl.get_problem("sine").exact.value).coeffs - u.coeffs)
    report_line(
        "1-absolute", ok,
        f"worst true-error ratio vs reference {worst:.2f} (limit 2.0); "
        f"measured true errors at h=1/64: L2 {table2_report.rows[2].l2_error:.3e}, "
        f"energy {table2_report.rows[2].dg_error:.3e}; reference lists "
        f"{TABLE2_L2[2]:.3e} / {TABLE2_DG[2]:.3e}, below the best-approximation "
        f"floors (7.8e-5 / 3.6e-2) of these norms; the interpolant distance "
        f"reproduces it instead: L2 {l2_error(gap, None):.3e}, "
        f"energy {dg_norm_discrete(gap, 100.0):.3e}")
    assert ok, (
        "reference magnitudes are not attainable in the norms as defined: "
        "at h=1/64 no piecewise-linear field has L2 distance to the exact "
        "solution below 7.78e-5 or broken-gradient distance below 3.63e-2, "
        "yet the reference lists 6.56e-5 and 1.18e-2; the solver reproduces "
        "the reference as distance-to-interpolant (printed above)")


def test_criterion_2_higher_orders(r2_report, r3_report):
    final_l2_r2 = r2_report.rows[-1].l2_order
    final_dg_r2 = r2_report.rows[-1].dg_order
    final_l2_r3 = r3_report.rows[-1].l2_order
    final_dg_r3 = r3_report.rows[-1].dg_order
    ok = (abs(final_l2_r2 - 3.0) <= 0.15 and abs(final_dg_r2 - 2.0) <= 0.1
          and abs(final_l2_r3 - 4.0) <= 0.2 and abs(final_dg_r3 - 3.0) <= 0.1)
    report_line("2-higher-degree", ok,
                f"r=2 final orders L2 {final_l2_r2:.2f} / energy {final_dg_r2:.2f}; "
                f"r=3 final orders L2 {final_l2_r3:.2f} / energy {final_dg_r3:.2f}")
    assert ok


def test_criterion_3_penalty_trend(sweep_rows):
    lams = sorted(sweep_rows)
    dg = [sweep_rows[lam].dg_error for lam in lams]
    ok = all(a > b for a, b in zip(dg, dg[1:]))
    report_line("3-penalty-trend", ok,
                "energy errors at h=1/64 across penalties "
                + " > ".join(f"{v:.4e}" for v in dg))
    assert ok


def test_criterion_3_absolute_errors(sweep_rows):
    ratios = {lam: max(sweep_rows[lam].dg_error / ref,
                       ref / sweep_rows[lam].dg_error)
              for lam, ref in SWEEP_DG.items()}
    ok = all(r <= 2.0 for r in ratios.values())
    report_line("3-absolute", ok,
                "true-error ratio vs reference per penalty: "
                + ", ".join(f"{lam:g}: {r:.2f}" for lam, r in ratios.items()))
    assert ok, (
        "the reference sweep values shrink with the penalty because they "
        "measure the distance to the interpolant; the true energy error is "
        "floored at the broken-gradient best approximation (3.63e-2 at "
        "h=1/64), so the factor-2 comparison cannot hold at large penalty")


@pytest.mark.parametrize("r,extra", [
    (1, {}),
    (2, {}),
    (3, dict(volume_degree=14, edge_degree=12,
             newton=NewtonConfig(abs_tol=1e-11))),
])
def test_criterion_4_perturbed_rates(r, extra):
    report = run_convergence(RunConfig(
        degree=r, penalty=100.0, mesh_kind="perturbed",
        amplitude=0.2, seed=42, levels=(8, 16, 32, 64), **extra))
    l2_order = report.rows[-1].l2_order
    dg_order = report.rows[-1].dg_order
    ok = abs(dg_order - r) <= 0.25 and abs(l2_order - (r + 1)) <= 0.25
    report_line(f"4-perturbed-r{r}", ok,
                f"final orders: L2 {l2_order:.2f} (target {r + 1}), "
                f"energy {dg_order:.2f} (target {r})")
    assert ok


STRUCTURAL = [
    ("5a-symmetry", "symmetry"),
    ("5b-edge-identity", "edge_identity"),
    ("5c-continuity", "continuity"),
    ("5d-coercivity", "coercivity"),
    ("5e-jacobian-fd", "jacobian_fd"),
    ("5f-newton-quadratic", "newton_quadratic"),
    ("5g-rates", "rates"),
    ("5h-quadrature", "quadrature"),
]


@pytest.mark.parametrize("label,suite", STRUCTURAL)
def test_criterion_5_structural(label, suite):
    result = SUITES[suite]({})
    report_line(label, result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_6_determinism(table2_report):
    again = run_convergence(RunConfig(degree=1, penalty=100.0, levels=LEVELS))
    ok = again.to_csv().encode() == table2_report.to_csv().encode()
    report_line("6-determinism", ok,
                "two consecutive full runs produce byte-identical CSV"
                if ok else "CSV outputs differ between runs")
    assert ok
