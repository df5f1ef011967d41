#!/usr/bin/env python3
"""Classifying the characters of the nonsplit torus.

Each character theta of T_r^F = (O'_r)^x gets: its top-layer datum tau in
F_{q^2}, the regular flag (tau outside F_q), conductor data (r0, theta0,
alpha), the Weyl stabiliser, and the restriction flags that control the SL2
behaviour.  The classification holds one array per field, row i about the
i-th character of the dual group."""

from collections import Counter

from dl2.torus import classify_all, conductor_by_peeling, make_torus

torus = make_torus(3, 1, 2, "mixed")
print(f"T^F = units of {torus.ext!r}: order {torus.order}")

cl = classify_all(torus)
print("\nclassification summary over all", len(cl), "characters:")
print("  regular:", int(cl.regular.sum()))
print("  r0 histogram:", dict(Counter(cl.r0.tolist())))
print("  stabiliser histogram:", dict(Counter(cl.stab_size.tolist())))
print("  order-2 restriction (odd-q split marker):", int(cl.sl_quadratic.sum()))

# tau is onto F_{q^2} with fibres of size |T|/q^2
fib = Counter(cl.tau.tolist())
print("\ntau fibres (pair code -> count):", dict(sorted(fib.items())))

# two independent conductor algorithms agree character by character, and the
# CLI records spell out theta0 at its own level
from dl2.cli import _classification_records
import json

records = _classification_records(cl)
peeled = conductor_by_peeling(torus, cl.theta)
sample = [i for i in range(len(cl)) if not cl.regular[i]][:6]
print("\nconductor cross-check (twist minimum vs scalar peeling):")
for i in sample:
    rec = records[i]
    print(f"  theta {tuple(rec['theta'])}: r0 = {rec['r0']}, peeling -> {peeled[i]}, "
          f"alpha = {tuple(rec['alpha'])}, theta0 = {tuple(rec['theta0'])}")

# a record as the CLI emits it
print("\nJSON record for the first nontrivial theta:")
print(" ", json.dumps(records[1], sort_keys=True))
