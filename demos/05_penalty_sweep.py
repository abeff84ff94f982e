#!/usr/bin/env python3
"""Effect of the penalty parameter on both error norms at a fixed mesh.

The energy error decreases as the penalty grows (jumps are squeezed
toward the conforming limit) while the L2 error creeps up slightly.
"""

from dataclasses import replace

from dgsl import RunConfig, run_convergence
from dgsl.convergence import sweep_summary

base = RunConfig(degree=1, levels=(32,))
penalties = [10.0, 100.0, 1000.0, 2000.0]
finest = [run_convergence(replace(base, penalty=lam)).rows[-1]
          for lam in penalties]
summary = sweep_summary(finest)

print("penalty  L2 error     energy error")
for lam, row in zip(penalties, finest):
    print(f"{lam:7g}  {row.l2_error:.4e}  {row.dg_error:.4e}")

print(f"\nenergy error strictly decreasing: {summary['dg_decreasing']}")
print(f"L2 error monotonically increasing: {summary['l2_increasing']}")
