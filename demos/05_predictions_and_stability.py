#!/usr/bin/env python3
"""From classification to predictions, and the stability identity.

Every torus character determines a predicted virtual character: a signed
dimension and a constituent list.  The trivial character's prediction is a
difference of a linear character and a degree-q irreducible, and its
inflation from level one must have norm exactly 2 in the level-r group."""

from collections import Counter

from dl2.characters import character_table, inflate, inner_product, steinberg, trivial_character
from dl2.groups import make_group
from dl2.predictor import predict_gl2, predict_sl2
from dl2.torus import classify_all, make_torus

q, r = 3, 2
torus = make_torus(q, 1, r, "mixed")
cl = classify_all(torus)
# a short tuple of predictions, and for each theta the position of its own
gl_values, gl_which = predict_gl2(cl)
sl_values, sl_which = predict_sl2(cl)

print(f"predictions for GL2 at q = {q}, r = {r}:")
hist = Counter((gl_values[k].clause, gl_values[k].total_dim) for k in gl_which.tolist())
for (clause, dim), n in sorted(hist.items()):
    print(f"  {n:3d} characters: clause {clause!r}, total dimension {dim:+d}")

print("\nSL2 splits the odd-q order-2 restriction cases in half:")
for theta, kg, ks in zip(cl.theta.tolist(), gl_which.tolist(), sl_which.tolist()):
    ps = sl_values[ks]
    if ps.constituents != gl_values[kg].constituents:
        print(f"  theta {tuple(theta)}: constituents {ps.constituents} "
              f"(two of dimension (q-1)/2)")

# Stability: inflating 1 - St from level 1 gives a norm-2 virtual character
# whose two constituents are irreducible in the level-r table.
G = make_group(q, 1, r, "mixed", "gl")
hom = G.reduction(1)
v = inflate(trivial_character(hom.target), hom) - inflate(steinberg(hom.target), hom)
print("\n<infl(1 - St), infl(1 - St)> =", inner_product(v, v), "(exact rational)")

tab = character_table(G)
i1 = tab.find(inflate(trivial_character(hom.target), hom))
i2 = tab.find(inflate(steinberg(hom.target), hom))
print("constituent degrees found in the level-r table:",
      sorted([int(tab.degrees[i1]), int(tab.degrees[i2])]))
