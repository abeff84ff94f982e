#!/usr/bin/env python3
"""Solve -Lap u + u^3 = g with the manufactured sine solution and watch
Newton's quadratic contraction, then measure both error norms."""

import numpy as np

import dgsl

problem = dgsl.get_problem("sine")
penalty = 100.0

space = dgsl.DGSpace(dgsl.build_structured(32), degree=1)
config = dgsl.AssemblyConfig(penalty=penalty)
solution, report = dgsl.solve_semilinear(space, problem, config)

print(f"mesh 32x32x2, P1, {space.total_dofs} unknowns")
print("newton residual history:")
for k, r in enumerate(report.residual_norms):
    print(f"  iter {k}: {r:.3e}")

l2 = dgsl.l2_error(solution, problem.exact)
dg = dgsl.dg_error(solution, problem.exact, penalty)
print(f"\nerror in L2:          {l2:.4e}")
print(f"error in energy norm: {dg:.4e}")

# The discrete solution is also the unique one: starting Newton from the
# interpolant of the exact solution lands on the same coefficients.
interp = dgsl.interpolate(space, problem.exact.value)
other, _ = dgsl.solve_semilinear(space, problem, config, start=interp)
gap = np.linalg.norm(solution.coeffs - other.coeffs)
print(f"\nzero-start vs interpolant-start coefficient gap: {gap:.2e}")

# Distance to the nodal interpolant: a much smaller, superconvergent
# quantity; this is what reference implementations often report.
diff = dgsl.DGVector(space, interp.coeffs - solution.coeffs)
print(f"\ndistance to interpolant, L2:     {dgsl.l2_error(diff, None):.4e}")
print(f"distance to interpolant, energy: "
      f"{dgsl.dg_error(diff, None, penalty):.4e}")
