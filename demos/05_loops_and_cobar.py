"""Finite-monoid loop models and cobar constructions.

For a finite monoid M with a submonoid N, a cosimplicial object modelling
the relative loop space is totalized into an explicit chain complex with
cup/concatenation products, a commutator homotopy, and exact homology.
The cobar layer builds (relative) cobar complexes of dg-coalgebras and
checks the correspondence between twisting data and dg-module maps.
"""

from operadix import cobar, loops
from operadix.chains import LinComb
from operadix.loops import FiniteMonoid, TotComplex, cup, sqcup

Z2 = FiniteMonoid.cyclic(2)

closed = TotComplex(Z2, (0,), truncation=4, kind="closed")
opened = TotComplex(Z2, Z2.elements, truncation=4, kind="open")
print("loop-model homology (rank, torsion) by degree:")
print("  closed:", {d: v for d, v in closed.homology().items() if d < 3})
print("  open:  ", {d: v for d, v in opened.homology().items() if d < 3})

f = closed.conormal_project(LinComb.unit((1,)))
g = closed.conormal_project(LinComb.unit((1,)))
print("\ncup product of two degree-1 classes:", cup(closed, f, g))

u = opened.conormal_project(LinComb.unit(((), 1)))
v = opened.conormal_project(LinComb.unit(((1,), 0)))
print("concatenation:", sqcup(opened, u, v))

B = cobar.group_bialgebra(Z2)
cx = cobar.CobarTot(B, truncation=4).chain_complex()
cx.validate()
print("\nunreduced cobar of Z[Z/2] has a valid differential (d^2 = 0)")

rep = cobar.rs2_experimental_report(B, truncation=4, max_level=2)
print("experimental structure relations on the cobar totalization:")
for name, (holds, cases) in rep.items():
    print("  %-28s %s (%d cases)" % (name, "holds" if holds else "FAILS", cases))
