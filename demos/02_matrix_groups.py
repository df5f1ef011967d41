#!/usr/bin/env python3
"""Enumerating GL2 and SL2 over truncated rings: orders, conjugacy classes,
reduction maps, and the Borel subgroup."""

from dl2.groups import gl2_order, make_group, sl_embedding

# GL2(Z/4): 96 elements, coded as integers; index 0 is the identity.
G = make_group(2, 1, 2, "mixed", "gl")
print(f"{G!r}")
print("closed formula q^(4(r-1)) (q^2-1)(q^2-q) =", gl2_order(2, 2))

cd = G.conjugacy()
print(f"\nconjugacy: {cd.n_classes} classes, sizes {sorted(set(cd.sizes.tolist()))}")
print("class size x centralizer order = |G| everywhere:",
      bool(((cd.sizes * cd.centralizer_orders) == G.order).all()))

# The reduction to level 1 is a surjective homomorphism with kernel I + 2 M_2.
h = G.reduction(1)
print(f"\nreduction to GL2(F_2): kernel size {len(h.kernel_codes)} (= q^4)")
print("image order:", h.target.order)

# Upper-triangular subgroup and its index (the flag count q + 1 at level 1).
G3 = make_group(3, 1, 1, "mixed", "gl")
B = G3.borel_codes()
print(f"\nGL2(F_3): Borel order {len(B)}, index {G3.order // len(B)} (= q + 1)")

# SL2 sits inside GL2 as the determinant-one kernel.
pos = sl_embedding(make_group(3, 1, 2, "mixed", "gl"))
print(f"\nSL2(Z/9) inside GL2(Z/9): {len(pos)} of {make_group(3,1,2,'mixed','gl').order}")

# a matrix code, its entries, determinant and inverse
m = G.codes[17]
a, b, c, d = (G.ring.coeffs(e) for e in G.space.dec(m))
print(f"\nsample element of GL2(Z/4): [[{a}, {b}], [{c}, {d}]]  det:", G.ring.coeffs(G.space.det[m]))
print("m * m^-1 = identity:", G.space.mul(m, G.space.inv(m)) == G.space.identity)
