"""Hyperplane sections of a generalized Severi variety, iterated to a forest.

Starting from the locus of genus-2 curves of class 3f+2e meeting E0 in three
moving transverse points, we cut with hyperplanes H_p (curves through a
generic point p of E0) and enumerate the candidate components of each cut.
Type I terms pin a moving point; type II terms split off E0 with some
multiplicity m, at the price of genus.
"""

import tempfile
from pathlib import Path

from severi import degeneration as dg
from severi.profiles import Profile
from severi.states import SeveriState, dimension, normalize, symbol

root = SeveriState(
    d=3, N=2, g=2,
    alpha=(),
    betas=((Profile.ones(3), symbol("L", 3)),),
)
print(f"root state: d={root.d}, N={root.N}, g={root.g}, b=1^3, dim={dimension(root)}")

print()
print("== one hyperplane cut (transverse-case statement) ==")
for term in dg.successors_simple(root):
    child = term.child
    print(f"  {term.kind:3s} m={term.m} tau={list(term.tau.entries)} -> "
          f"g={child.g}, N={child.N}, alpha={list(child.alpha_profile().entries)}, "
          f"betas={[list(b.entries) for b, _ in child.betas]}, dim={dimension(child)}")

print()
print("== a richer cut: two fixed points available ==")
rich = SeveriState(
    d=4, N=2, g=3,
    alpha=((1, "p1"), (1, "p2")),
    betas=((Profile.ones(2), symbol("L", 2)),),
)
terms = dg.successors_simple(rich)
print(f"{len(terms)} candidate components; the type II ones describe limit stable maps:")
for term in terms:
    if term.kind == "I":
        continue
    shape = dg.limit_stable_map(term)
    print(f"  {term.kind} m={term.m} tau={list(term.tau.entries)}: {shape.nodes} nodes, "
          f"cover degree partitions {[list(p) for p in shape.cover_degree_partitions]}")

print()
print("== the full forest under iterated cuts ==")
forest = dg.build_forest([root], floor=0)
print(f"nodes: {len(forest.nodes)}, edges: {len(forest.edges)}, truncated: {forest.truncated}")
by_dim = {}
for key, state in forest.nodes.items():
    by_dim.setdefault(dimension(state), []).append(state)
for dim_value in sorted(by_dim, reverse=True):
    row = by_dim[dim_value]
    print(f"  dim {dim_value}: {len(row)} state(s)")

# DOT output for a graph viewer, written to a scratch directory that is
# removed again; `severi forest --dot PATH` keeps one
dot = dg.forest_to_dot(forest)
with tempfile.TemporaryDirectory() as tmp:
    (Path(tmp) / "forest.dot").write_text(dot)
print(f"DOT rendering: {len(dot.splitlines())} lines")

print()
print("== singleton groups split as b^2 sibling varieties ==")
s = SeveriState(d=3, N=1, g=1, alpha=(), betas=((Profile.of(3), symbol("L", 3)),))
normalized, factor = normalize(s)
print(f"a group (3) moves to a fixed point of order 3 at a cube root of its class; "
      f"factor {factor}, dim preserved: {dimension(normalized) == dimension(s)}")
