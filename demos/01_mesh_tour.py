#!/usr/bin/env python3
"""A tour of the mesh layer: generators, file round-trips, edge topology.

Run with `python demos/01_mesh_tour.py`.
"""

import numpy as np

import dgsl

# The structured family splits each grid cell along the lower-left to
# upper-right diagonal. Element count grows as 2 n^2.
for n in (1, 4, 16):
    mesh = dgsl.build_structured(n)
    print(f"structured n={n:2d}: {mesh.num_vertices:4d} vertices, "
          f"{mesh.num_triangles:4d} triangles, "
          f"{int((~mesh.edges.boundary).sum()):4d} interior edges, "
          f"h_max = {mesh.h_max:.4f}, reported size = {mesh.nominal_h:g}")

# Perturbed meshes displace interior vertices by a seeded uniform offset;
# the same seed always reproduces the same mesh, and boundary vertices
# never move.
mesh = dgsl.build_perturbed(10, amplitude=0.25, seed=42)
print(f"\nperturbed n=10: area sum = {mesh.total_area():.15f}, "
      f"smallest triangle = {mesh.areas().min():.3e}, h_max = {mesh.h_max:.4f}")

again = dgsl.build_perturbed(10, amplitude=0.25, seed=42)
print("seed determinism:", np.array_equal(mesh.vertices, again.vertices))

# Meshes serialize to a plain-text format and round-trip exactly.
text = dgsl.export_mesh(mesh)
back = dgsl.import_mesh(text)
print("round-trip exact:", np.array_equal(back.vertices, mesh.vertices))
print("\nfile format preview:")
print("\n".join(text.splitlines()[:4]), "\n...")

# The edge set holds one array per attribute: endpoints, the (plus, minus)
# triangles and local edge indices, flip flags, and a unit normal pointing
# out of the lower-indexed ("plus") triangle. Boundary edges have no minus
# side (-1).
edges = mesh.edges
e = int(np.flatnonzero(~edges.boundary)[0])
print(f"\nfirst interior edge: endpoints {tuple(edges.endpoints[e].tolist())}, "
      f"length {edges.length[e]:.4f}, normal {np.round(edges.normal[e], 4)}")
print(f"(plus, minus) triangles = {tuple(edges.tri[e].tolist())}, "
      f"local edges = {tuple(edges.local[e].tolist())}")

# Conservation check: triangle sides partition into interior + boundary.
boundary = int(edges.boundary.sum())
interior = len(edges) - boundary
print(f"\nside partition: 3*{mesh.num_triangles} = "
      f"2*{interior} + {boundary} -> "
      f"{3 * mesh.num_triangles == 2 * interior + boundary}")
