#!/usr/bin/env python3
"""The rank/dimension sign formula, checked two ways.

For every torus character the formula
    sign = (-1)^((rk_T + rk_G)(1 + log_q |dim|_p / #positive roots))
must reproduce the case-derived sign; at level one it must collapse to the
classical (-1)^(rk_G - rk_T) across all type-A torus twists."""

from dl2.predictor import predict_gl2, predict_sl2
from dl2.torus import classify_all, make_torus
from dl2.weyl import (
    RootSystemData,
    conjecture_sign,
    coxeter_element,
    fq_ranks,
    sweep_classical_signs,
)

w = coxeter_element(2)
npos = RootSystemData(2).num_positive_roots

print("per-character agreement at q = 2, r = 3 (both flavors):")
cl = classify_all(make_torus(2, 1, 3, "mixed"))
for flavor, predict in (("gl", predict_gl2), ("sl", predict_sl2)):
    rk_T, rk_G = fq_ranks(flavor, 2, w)
    values, which = predict(cl)
    # one sign per distinct prediction, shared by the thetas predicted it
    for pred in {values[k] for k in which.tolist()}:
        assert conjecture_sign(rk_T, rk_G, 2, 2, pred.total_dim, npos) == pred.sign
    print(f"  {flavor}: ranks (T, G) = ({rk_T}, {rk_G}), {len(which)} characters agree")

print("\nlevel-one classical sweep over type A (n <= 5):")
cases = sweep_classical_signs(5, [2, 3, 4, 5, 7, 8, 9])
bad = [c for c in cases if c.sign != c.classical_sign]
print(f"  {len(cases)} cases, {len(bad)} disagreements, "
      f"non-integer exponents: {sum(c.sign is None for c in cases)}")

print("\nsample rows:")
for c in cases[:6]:
    print(f"  {c.flavor} n={c.n} cycles={c.cycle_type} q={c.q}: "
          f"dim {c.dim}, sign {c.sign:+d}, classical {c.classical_sign:+d}")
