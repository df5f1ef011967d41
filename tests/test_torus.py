import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dl2.groups import make_group
from dl2.torus import (
    classify_all,
    conductor_brute_force,
    conductor_by_peeling,
    make_torus,
)


def test_torus_sizes():
    assert make_torus(2, 1, 1, "equal").order == 3
    assert make_torus(3, 1, 2, "mixed").order == 72
    assert make_torus(2, 2, 2, "equal").order == 240


def test_embedding_into_gl2():
    t = make_torus(3, 1, 2, "mixed")
    G = make_group(3, 1, 2, "mixed", "gl")
    sp = G.space
    R = t.ring
    seen = set()
    for c in t.codes:
        mc = int(t.embed_code(int(c)))
        assert G.pos_of[mc] >= 0
        seen.add(mc)
        assert sp.det[mc] == t.ext.norm(int(c))  # det = norm, all elements
        assert R.add[sp.A[mc], sp.D[mc]] == t.ext.trace(int(c))
    assert len(seen) == t.order  # injective
    rng = random.Random(0)
    for _ in range(300):
        x, y = int(rng.choice(t.codes)), int(rng.choice(t.codes))
        assert t.embed_code(t.ext.mul(x, y)) == sp.mul(
            t.embed_code(x), t.embed_code(y)
        )


def test_flip_is_conjugation_in_gl2():
    t = make_torus(3, 1, 2, "mixed")
    G = make_group(3, 1, 2, "mixed", "gl")
    cd = G.conjugacy()
    for c in t.codes:
        a = cd.class_of[t.embed_code(int(c))]
        b = cd.class_of[t.embed_code(int(t.sigma(int(c))))]
        assert a == b


def test_dual_enumeration():
    t = make_torus(3, 1, 2, "equal")
    chars = t.dual()
    assert len(chars) == t.order
    assert any(th.is_trivial() for th in chars)
    codes = [int(c) for c in t.codes]
    seen = set()
    for th in chars:
        v = tuple(th.root_exp(x) for x in codes)
        assert v not in seen
        seen.add(v)


def test_tau():
    t = make_torus(3, 1, 2, "mixed")
    chars = t.dual()
    triv = [th for th in chars if th.is_trivial()][0]
    assert t.tau_of(triv) == 0
    cnt = Counter(t.tau_of(th) for th in chars)
    assert len(cnt) == 9 and all(v == 8 for v in cnt.values())  # onto, fibers |T|/q^2
    # equivariance: tau(theta o sigma) = sigma(tau(theta))
    for th in chars:
        assert t.tau_of(t.char_sigma(th)) == t.rq.frobenius(t.tau_of(th))
    with pytest.raises(ValueError):
        make_torus(3, 1, 1, "mixed").tau_of(triv)


def test_tau_psi_independence():
    for mode in ("mixed", "equal"):
        t = make_torus(3, 1, 2, mode)
        a = classify_all(t, psi_scale=1)
        b = classify_all(t, psi_scale=2)
        for x, y in zip(a, b):
            assert x.is_regular == y.is_regular
            assert x.r0 == y.r0


def test_regular_counts_and_stabilizers():
    t = make_torus(3, 1, 2, "mixed")
    tcs = classify_all(t)
    regs = [tc for tc in tcs if tc.is_regular]
    assert len(regs) == 48
    for tc in regs:
        assert tc.stab_size == 1  # regular characters are never flip-stable
    triv = [tc for tc in tcs if tc.theta.is_trivial()][0]
    assert triv.stab_size == 2
    assert t.weyl_stabilizer(triv.theta) == 2


def test_conductor_conventions():
    t = make_torus(3, 1, 2, "mixed")
    tcs = {tc.theta.a: tc for tc in classify_all(t)}
    triv = [th for th in t.dual() if th.is_trivial()][0]
    tc = tcs[triv.a]
    assert tc.r0 == 1 and tc.theta0.is_trivial() and tc.alpha.is_trivial()
    # theta = alpha o norm: the canonical twist is exactly the inverse
    for alpha in t.base_units.dual():
        if alpha.is_trivial():
            continue
        tc = tcs[t.norm_pullback(alpha).a]
        assert tc.r0 == 1
        assert tc.theta0.is_trivial()
        assert tc.alpha == alpha.inverse()


def test_conductor_agreement_and_descent_regularity():
    for p, k in [(2, 1), (3, 1)]:
        for r in (1, 2, 3):
            for mode in ("mixed", "equal"):
                t = make_torus(p, k, r, mode)
                for tc in classify_all(t):
                    expected = r if tc.is_regular else tc.r0
                    assert conductor_brute_force(t, tc.theta) == expected
                    if r >= 2:
                        assert conductor_by_peeling(t, tc.theta) == expected
                    if tc.r0 > 1:
                        assert t.level_torus(tc.r0).is_regular(tc.theta0)


def test_conductor_twist_stability():
    t = make_torus(2, 1, 3, "mixed")
    tcs = {tc.theta.a: tc for tc in classify_all(t)}
    for tc in list(tcs.values())[:24]:
        for beta in t.base_units.dual():
            tw = tc.theta * t.norm_pullback(beta)
            assert tcs[tw.a].r0 == tc.r0


def test_inflation_levels():
    """A regular level-r' character inflated to level r has conductor r'."""
    t3 = make_torus(2, 1, 3, "mixed")
    t2 = t3.level_torus(2)
    tcs3 = {tc.theta.a: tc for tc in classify_all(t3)}
    for tc in classify_all(t2):
        if not tc.is_regular:
            continue
        lifted = t3.inflate_from(tc.theta, 2)
        lifted_tc = tcs3[lifted.a]
        assert not lifted_tc.is_regular
        assert lifted_tc.r0 == 2
        # level is preserved by inflation
        assert t3.char_level(lifted) == t2.char_level(tc.theta)


def test_general_position_examples():
    t1 = make_torus(3, 1, 1, "mixed")
    for th in t1.dual():
        gp = t1.char_sigma(th) != th
        # order q+1 characters with theta != theta^q are in general position
        if th.order() == 4 and t1.char_sigma(th) != th:
            assert gp
        if th.is_trivial():
            assert not gp


def test_sl_restriction_data():
    # norm-one subgroup of F_9 has order 4 with exactly one order-2 character
    t = make_torus(3, 1, 1, "mixed")
    assert len(t.norm_one) == 4
    tcs = classify_all(t)
    quad = [tc for tc in tcs if tc.sl_quadratic]
    # 2 characters of T restrict to the order-2 character (fibers of size 8/4)
    assert len(quad) == 2
    # q = 2, r = 2: regular characters with flip-stable restriction exist
    t22 = make_torus(2, 1, 2, "equal")
    flagged = [tc for tc in classify_all(t22) if tc.is_regular and tc.sl_sigma_fixed]
    assert len(flagged) > 0
    # trivial character restricts trivially
    triv = [tc for tc in tcs if tc.theta.is_trivial()][0]
    vals = [triv.theta.root_exp(int(c)) for c in t.norm_one]
    assert all(v == 0 for v in vals) and not triv.sl_quadratic


def test_odd_q_no_flip_stable_restriction_off_level_one():
    for mode in ("mixed", "equal"):
        for (p, k, r) in [(3, 1, 2), (3, 1, 3), (5, 1, 2)]:
            t = make_torus(p, k, r, mode)
            for tc in classify_all(t):
                if tc.is_regular or tc.r0 > 1:
                    assert not tc.sl_sigma_fixed


def test_norm_one_subgroup_size():
    for (p, k, r, mode) in [(2, 1, 2, "mixed"), (3, 1, 2, "equal"), (2, 2, 2, "mixed")]:
        t = make_torus(p, k, r, mode)
        q = t.q
        assert len(t.norm_one) == q ** (r - 1) * (q + 1)


def test_pairing_patterns_memoised_per_torus():
    """Each torus keeps its own pairing patterns: a second pass over twelve
    tori, more than an 8-entry cache shared by all tori holds, computes none."""
    tori = [
        make_torus(p, k, r, mode)
        for (p, k, r) in [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (5, 1, 2), (3, 1, 3)]
        for mode in ("mixed", "equal")
    ]
    first = []
    for t in tori:
        classify_all(t)
        first.append(dict(t._patterns))
    for t, patterns in zip(tori, first):
        classify_all(t)
        assert patterns and t._patterns.keys() == patterns.keys()
        assert all(t._patterns[s] is patterns[s] for s in patterns)


def _literal_level(t, eta):
    """Least r2 with eta trivial on every element of K_{r2}."""
    return min(
        r2 for r2 in range(1, t.r + 1)
        if all(eta.root_exp(x) == 0 for x in t.kernels[r2].codes.tolist())
    )


def _literal_tau(t, theta, psi_scale):
    """The tau with theta(1 + pi^(r-1) x) = psi(Tr(x tau)) for all x, one
    element and one candidate at a time."""
    ext, rq, F = t.ext, t.rq, t.ring.field
    p, L, q2 = t.ring.p, t.group.exponent, t.q**2
    row = []
    for x in range(q2):
        j = theta.root_exp(int(ext.add(ext.one, ext.mul_pi_top_lift(x))))
        assert j * p % L == 0
        row.append(j * p // L)
    return [
        tau for tau in range(q2)
        if row == [int(F.trace_to_fp[F.mul[rq.trace(rq.mul(x, tau)), psi_scale]]) for x in range(q2)]
    ]


@given(
    st.sampled_from([(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3)]),
    st.sampled_from(["mixed", "equal"]),
    st.lists(st.integers(min_value=0), min_size=1, max_size=4),
    st.integers(min_value=1),
)
def test_fast_paths_match_literal_definitions(pkr, mode, picks, psi_pick):
    """conductor_brute_force is the least level of a twist theta * alpha o N,
    and tau_of is the tau of the defining pairing identity."""
    t = make_torus(*pkr, mode)
    thetas = t.dual()
    pulls = [t.norm_pullback(al) for al in t.base_units.dual()]
    psi_scale = 1 + psi_pick % (t.q - 1)
    for i in picks:
        theta = thetas[i % len(thetas)]
        assert conductor_brute_force(t, theta) == min(_literal_level(t, theta * pl) for pl in pulls)
        assert t.char_level(theta) == _literal_level(t, theta)
        if t.r >= 2:
            assert [t.tau_of(theta, psi_scale)] == _literal_tau(t, theta, psi_scale)


def test_top_layer_memoised_per_torus():
    t = make_torus(3, 1, 2, "equal")
    assert t.top_layer_elements() is t.top_layer_elements()
    xs, elts = t.top_layer_elements()
    assert elts.tolist() == [int(t.ext.add(t.ext.one, t.ext.mul_pi_top_lift(x))) for x in xs.tolist()]
