"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance here is exact (rational or integer identities).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from dl2.characters import (
    character_table,
    inflate,
    inner_product,
    steinberg,
    trivial_character,
)
from dl2.groups import gl2_order, make_group, sl2_order
from dl2.predictor import (
    CLAUSE_SL_EVEN,
    dimension_set,
    predict_gl2,
    predict_sl2,
    sign_from_dim,
)
from dl2.torus import (
    classify_all,
    conductor_brute_force,
    conductor_by_peeling,
    make_torus,
)
from dl2.verifier import (
    CaseData,
    check_degree_census,
    check_sl_exceptions,
    _sl_restriction_classes,
)
from dl2.weyl import (
    RootSystemData,
    conjecture_sign,
    coxeter_element,
    fq_ranks,
    sweep_classical_signs,
)

MANIFEST_PKR = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)]
MODES = ("mixed", "equal")
FLAVORS = ("gl", "sl")


def test_criterion_1_group_construction():
    worst = 0.0
    for (p, k, r) in MANIFEST_PKR:
        q = p**k
        for flavor in FLAVORS:
            for mode in MODES:
                t0 = time.perf_counter()
                G = make_group(p, k, r, mode, flavor)
                dt = time.perf_counter() - t0
                worst = max(worst, dt)
                expected = gl2_order(q, r) if flavor == "gl" else sl2_order(q, r)
                assert G.order == expected, (p, k, r, flavor, mode)
                assert dt < 30.0, f"enumeration took {dt:.1f}s"
    print(f"\nACCEPTANCE 1 (group construction): PASS  [24 cases, max {worst:.2f}s]")


def test_criterion_2_table_validity():
    worst = 0.0
    n_tables = 0
    for (p, k, r) in MANIFEST_PKR:
        q = p**k
        for flavor in FLAVORS:
            order = gl2_order(q, r) if flavor == "gl" else sl2_order(q, r)
            if order > 50_000:
                continue
            for mode in MODES:
                t0 = time.perf_counter()
                tab = character_table(make_group(p, k, r, mode, flavor))
                tab.verify()  # exact orthogonality, degree sum, counts
                dt = time.perf_counter() - t0
                worst = max(worst, dt)
                n_tables += 1
                assert dt < 600.0, f"table took {dt:.1f}s"
    # the two named heavyweights really are in the sweep
    assert character_table(make_group(3, 1, 2, "mixed", "gl")).group.order == 3888
    assert character_table(make_group(2, 2, 2, "equal", "gl")).group.order == 46080
    print(f"\nACCEPTANCE 2 (table validity): PASS  [{n_tables} tables, max {worst:.1f}s]")


def test_criterion_3_stability():
    checked = 0
    for (p, k) in [(2, 1), (3, 1), (2, 2)]:
        q = p**k
        for flavor in FLAVORS:
            for mode in MODES:
                G = make_group(p, k, 2, mode, flavor)
                hom = G.reduction(1)
                v = inflate(trivial_character(hom.target), hom) - inflate(
                    steinberg(hom.target), hom
                )
                ip = inner_product(v, v)
                assert ip == Fraction(2), (q, flavor, mode, ip)
                tab = character_table(G)
                i1 = tab.find(inflate(trivial_character(hom.target), hom))
                i2 = tab.find(inflate(steinberg(hom.target), hom))
                assert i1 is not None and i2 is not None
                assert sorted([int(tab.degrees[i1]), int(tab.degrees[i2])]) == [1, q]
                checked += 1
    print(f"\nACCEPTANCE 3 (stability, exact): PASS  [{checked} cases]")


def test_criterion_4_classification_coherence():
    n_theta = 0
    for (p, k) in [(2, 1), (3, 1)]:
        for r in (1, 2, 3):
            for mode in MODES:
                torus = make_torus(p, k, r, mode)
                cl = classify_all(torus)
                assert (cl.r0[cl.regular] == r).all()
                assert (conductor_brute_force(torus, cl.theta) == cl.r0).all()
                assert (conductor_by_peeling(torus, cl.theta) == cl.r0).all()
                for r0 in range(2, r + 1):
                    t0 = torus.level_torus(r0)
                    assert (t0.taus(cl.theta0_rows(r0)) >= t0.q).all()  # theta0 regular
                n_theta += len(cl)
    print(f"\nACCEPTANCE 4 (classification coherence): PASS  [{n_theta} characters]")


def test_criterion_5_dimension_law():
    n_theta = 0
    for (p, k) in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        q = p**k
        for r in (1, 2, 3):
            for mode in MODES:
                cl = classify_all(make_torus(p, k, r, mode))
                dset = dimension_set(q, r)
                for predict in (predict_gl2, predict_sl2):
                    values, which = predict(cl)
                    used = [values[i] for i in set(which.tolist())]
                    for pred in used:
                        assert pred.total_dim in dset
                        assert sign_from_dim(pred.total_dim, q) == pred.sign
                    assert {pred.total_dim for pred in used} == dset  # every value is attained
                    n_theta += len(which)
    print(f"\nACCEPTANCE 5 (dimension and sign law): PASS  [{n_theta} predictions]")


def test_criterion_6_degree_census():
    # the flagship count: exactly 24 flip-orbits of regular characters
    for mode in MODES:
        torus = make_torus(3, 1, 2, mode)
        cl = classify_all(torus)
        regs = np.flatnonzero(cl.regular)
        flipped = torus.group.dual_index(torus.flip(cl.theta[regs]))
        orbits = set(np.minimum(regs, flipped).tolist())
        assert len(regs) == 48 and len(orbits) == 24
        tab = character_table(make_group(3, 1, 2, mode, "gl"))
        assert tab.degree_count(6) >= 24
    # analogous inequalities across the whole manifest
    n_cases = 0
    for (p, k, r) in MANIFEST_PKR:
        q = p**k
        for flavor in FLAVORS:
            order = gl2_order(q, r) if flavor == "gl" else sl2_order(q, r)
            if order > 50_000:
                continue
            for mode in MODES:
                chk = check_degree_census(CaseData(p, k, r, mode, flavor))
                assert chk.verdict == "pass", (p, k, r, flavor, mode, chk.computed)
                n_cases += 1
    print(f"\nACCEPTANCE 6 (degree census): PASS  [24 orbits of degree 6; {n_cases} cases]")


def test_criterion_7_sl_exceptions():
    # SL2(F_3): at least 2 nontrivial linear characters
    t3 = character_table(make_group(3, 1, 1, "mixed", "sl"))
    assert t3.degree_count(1) - 1 >= 2
    # SL2(F_5): at least 2 irreducibles of degree (q-1)/2 = 2
    t5 = character_table(make_group(5, 1, 1, "mixed", "sl"))
    assert t5.degree_count(2) >= 2
    # SL2(F_2[t]/t^2): two degree-(q^r - q^(r-1))/2 = 1 irreducibles per
    # flagged restriction class
    cd = CaseData(2, 1, 2, "equal", "sl")
    _, first = _sl_restriction_classes(cd)
    values, which = cd.predictions
    n_flagged = sum(values[k].clause == CLAUSE_SL_EVEN for k in which[first].tolist())
    assert n_flagged >= 1
    tab = character_table(make_group(2, 1, 2, "equal", "sl"))
    assert tab.degree_count(1) - 1 >= 2 * n_flagged
    chk = check_sl_exceptions(cd)
    assert chk.verdict == "pass"
    print(f"\nACCEPTANCE 7 (SL2 exceptional splittings): PASS  [flagged classes: {n_flagged}]")


def test_criterion_8_sign_formula():
    # per-theta agreement for both flavors, q in {2,3,4,5}, r <= 3, both modes
    npos = RootSystemData(2).num_positive_roots
    w = coxeter_element(2)
    n_theta = 0
    for (p, k) in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        q = p**k
        for r in (1, 2, 3):
            for mode in MODES:
                cl = classify_all(make_torus(p, k, r, mode))
                for flavor, predict in zip(FLAVORS, (predict_gl2, predict_sl2)):
                    rk_T, rk_G = fq_ranks(flavor, 2, w)
                    values, which = predict(cl)
                    for k_value in set(which.tolist()):
                        pred = values[k_value]
                        s = conjecture_sign(rk_T, rk_G, q, p, pred.total_dim, npos)
                        assert s is not None, "non-integer exponent is a finding"
                        assert s == pred.sign
                    n_theta += len(which)
    # classical level-one sweep, zero inapplicable exponents
    cases = sweep_classical_signs(5, [2, 3, 4, 5, 7, 8, 9])
    for c in cases:
        assert c.sign is not None
        assert c.sign == c.classical_sign == (-1 if (c.rk_G - c.rk_T) % 2 else 1)
    print(
        f"\nACCEPTANCE 8 (sign formula): PASS  "
        f"[{n_theta} torus cases; {len(cases)} classical sweep cases]"
    )


def test_criterion_9_adjunction():
    from dl2.characters import adjunction_check

    n_pairs = 0
    for flavor in FLAVORS:
        for mode in MODES:
            G = make_group(2, 1, 2, mode, flavor)
            hom = G.reduction(1)
            low = character_table(hom.target)
            high = character_table(G)
            for chi in low.chars:
                for psi in high.chars:
                    assert adjunction_check(chi, psi, hom)
                    n_pairs += 1
    print(f"\nACCEPTANCE 9 (inflation adjunction): PASS  [{n_pairs} pairs exhaustive]")
