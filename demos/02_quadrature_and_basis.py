#!/usr/bin/env python3
"""Quadrature exactness and reference-basis sanity, demonstrated directly."""

import math

import numpy as np

import dgsl

# Triangle rules integrate monomials x^a y^b exactly up to their declared
# degree; the closed form is a! b! / (a+b+2)!.
rule = dgsl.triangle_rule(10)
print(f"degree-10 triangle rule: {len(rule)} points, "
      f"certified degree {rule.exactness_degree}")
for a, b in ((0, 0), (4, 6), (5, 5), (11, 0)):
    exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
    print(f"  int x^{a} y^{b}: rule {got:.15e}, exact {exact:.15e}, "
          f"defect {abs(got - exact) / exact:.1e}")

# One degree past certification the rule visibly fails; that is the point.
probe = rule.exactness_degree + 2
got = float(rule.weights @ rule.points[:, 0] ** probe)
exact = math.factorial(probe) / math.factorial(probe + 2)
print(f"  int x^{probe} (beyond certification): defect "
      f"{abs(got - exact) / exact:.1e}")

# Edge rules are Gauss-Legendre on [0, 1].
erule = dgsl.edge_rule(9)
print(f"\ndegree-9 edge rule: {len(erule)} points; "
      f"int t^9 = {float(erule.weights @ erule.points ** 9):.15f} (exact 0.1)")

# The nodal basis has the Kronecker property on the principal lattice and
# sums to one everywhere.
for r in (1, 2, 3):
    basis = dgsl.ReferenceBasis(r)
    vals = basis.values(basis.nodes)
    pou = basis.values([[0.21, 0.33]]).sum()
    print(f"\nP{r}: dim {basis.dim}, "
          f"max |phi_i(node_j) - delta_ij| = "
          f"{np.abs(vals - np.eye(basis.dim)).max():.1e}, "
          f"sum phi at a random point = {pou:.15f}")
