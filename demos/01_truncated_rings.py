#!/usr/bin/env python3
"""Tour of the ring layer: truncated local rings in both characteristics,
their unramified quadratic extensions, and the Frobenius/norm/trace package.
"""

import numpy as np

from dl2.rings import make_ext, make_ring

# Two models of a local ring with residue field F_3 and level r = 2:
# mixed characteristic (Z/9) and equal characteristic (F_3[t]/t^2).
for mode in ("mixed", "equal"):
    R = make_ring(3, 1, 2, mode)
    print(f"{R!r}: size {R.size}, units {len(R.units())}, pi = code {R.pi}")

R = make_ring(3, 1, 2, "mixed")
print("\n2 * 5 =", R.mul[2, 5], " (so 1/2 =", R.invert(2), "in Z/9)")

# A genuinely non-prime-field example: GR(4,2) = Z/4[x]/(x^2+x+1).
G = make_ring(2, 2, 2, "mixed")
print(f"\n{G!r}: size {G.size}, unit group size {len(G.units())}")
print("element codes decode to coefficient vectors, e.g. code 7 ->", G.coeffs(7))

# The quadratic extension carries the Frobenius; its fixed ring is the base.
X = make_ext(R)
codes = np.arange(X.size, dtype=np.int64)
fr = X.frobenius(codes)
fixed = codes[fr == codes]
print(f"\nextension {X!r}")
print("sigma has order 2 on all", X.size, "elements:",
      bool((X.frobenius(fr) == codes).all()))
print("sigma-fixed elements = embedded base ring:",
      set(fixed.tolist()) == set(range(R.size)))

# Norm and trace are x * sigma(x) and x + sigma(x), landing in the base.
x = X.xi
print("\nxi =", (R.coeffs(x % R.size), R.coeffs(x // R.size)), " norm:", X.norm(x), " trace:", X.trace(x))
print("norm is multiplicative on units:",
      all(X.norm(X.mul(a, b)) == R.mul[X.norm(a), X.norm(b)]
          for a in X.units()[:20] for b in X.units()[:20]))
