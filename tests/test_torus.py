import dataclasses
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dl2 import torus as torus_mod
from dl2.abelian import DualChar, FiniteAbelianGroup, InvariantError, factorise
from dl2.groups import make_group
from dl2.rings import make_ext, make_ring
from dl2.torus import (
    CoxeterTorus,
    _extend_kernel_character,
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
        a, _b, _c, d = sp.dec(mc)
        assert R.add[a, d] == t.ext.trace(int(c))
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
    assert t.taus(np.array([triv.a])).tolist() == [0]
    cnt = Counter(t.taus(np.array([th.a for th in chars])).tolist())
    assert len(cnt) == 9 and all(v == 8 for v in cnt.values())  # onto, fibers |T|/q^2
    # equivariance: tau(theta o sigma) = sigma(tau(theta))
    A = t.group.dual_rows()
    assert (t.taus(t.flip(A)) == t.rq.frobenius(t.taus(A))).all()
    with pytest.raises(ValueError):
        make_torus(3, 1, 1, "mixed").taus(np.array([triv.a]))


def test_tau_psi_independence():
    for mode in ("mixed", "equal"):
        t = make_torus(3, 1, 2, mode)
        a = classify_all(t, psi_scale=1)
        b = classify_all(t, psi_scale=2)
        assert (a.regular == b.regular).all()
        assert (a.r0 == b.r0).all()


def test_regular_counts_and_stabilizers():
    t = make_torus(3, 1, 2, "mixed")
    cl = classify_all(t)
    assert cl.regular.sum() == 48
    assert (cl.stab_size[cl.regular] == 1).all()  # regular characters are never flip-stable
    assert not cl.theta[0].any() and cl.stab_size[0] == 2  # dual()[0] is trivial
    assert (cl.stab_size == np.where((t.flip(cl.theta) == cl.theta).all(axis=1), 2, 1)).all()


def test_conductor_conventions():
    t = make_torus(3, 1, 2, "mixed")
    cl = classify_all(t)
    assert t.dual()[0].is_trivial()
    assert cl.r0[0] == 1 and cl.theta0[0] == 0 and not cl.alpha[0].any()
    # theta = alpha o norm: the canonical twist is exactly the inverse
    for alpha in t.base_units.dual():
        if alpha.is_trivial():
            continue
        i = t.group.dual_index(t.pullback_rows[t.base_units.dual_index(alpha.a)])
        assert cl.r0[i] == 1
        assert cl.theta0[i] == 0  # the trivial character of the level-1 torus
        assert tuple(cl.alpha[i].tolist()) == alpha.inverse().a


def test_conductor_agreement_and_descent_regularity():
    for p, k in [(2, 1), (3, 1)]:
        for r in (1, 2, 3):
            for mode in ("mixed", "equal"):
                t = make_torus(p, k, r, mode)
                cl = classify_all(t)
                assert (cl.r0[cl.regular] == r).all()
                assert (conductor_brute_force(t, cl.theta) == cl.r0).all()
                assert (conductor_by_peeling(t, cl.theta) == cl.r0).all()
                for r0 in range(2, r + 1):
                    t0 = t.level_torus(r0)
                    assert (t0.taus(cl.theta0_rows(r0)) >= t0.q).all()  # theta0 regular


def test_conductor_twist_stability():
    t = make_torus(2, 1, 3, "mixed")
    cl = classify_all(t)
    n = np.array(t.group.orders)
    for pullback in t.pullback_rows:
        assert (cl.r0[t.group.dual_index((cl.theta + pullback) % n)] == cl.r0).all()


def test_inflation_levels():
    """A regular level-r' character inflated to level r has conductor r'."""
    t3 = make_torus(2, 1, 3, "mixed")
    t2 = t3.level_torus(2)
    cl3, cl2 = classify_all(t3), classify_all(t2)
    regular = cl2.theta[cl2.regular]
    lifted = t3.inflate_from(regular, 2)
    i = t3.group.dual_index(lifted)
    assert not cl3.regular[i].any()
    assert (cl3.r0[i] == 2).all()
    # level is preserved by inflation
    for row, low in zip(lifted.tolist(), regular.tolist()):
        assert _literal_level(t3, DualChar(t3.group, tuple(row))) == _literal_level(t2, DualChar(t2.group, tuple(low)))


def test_general_position_examples():
    t1 = make_torus(3, 1, 1, "mixed")
    cl = classify_all(t1)
    # F_9^x is cyclic of order 8 and the flip is the q-th power
    assert t1.group.orders == (8,)
    A = cl.theta
    assert (t1.flip(A) == 3 * A % 8).all()
    # general position: theta0 != theta0^q, theta0 the least twist of theta
    B = cl.theta0_rows(1)
    assert (cl.general_position == (B % 4 != 0).any(axis=1)).all()
    assert not cl.general_position[0]  # the trivial character
    # characters of order q+1 = 4 have no twist fixed by the flip
    assert cl.general_position[[th.order() == 4 for th in t1.dual()]].all()


def test_sl_restriction_data():
    # norm-one subgroup of F_9 has order 4 with exactly one order-2 character
    t = make_torus(3, 1, 1, "mixed")
    assert len(t.norm_one) == 4
    cl = classify_all(t)
    # 2 characters of T restrict to the order-2 character (fibers of size 8/4)
    assert cl.sl_quadratic.sum() == 2
    # q = 2, r = 2: regular characters with flip-stable restriction exist
    cl22 = classify_all(make_torus(2, 1, 2, "equal"))
    assert (cl22.regular & cl22.sl_sigma_fixed).any()
    # trivial character restricts trivially
    triv = t.dual()[0]
    assert triv.is_trivial()
    vals = [triv.root_exp(int(c)) for c in t.norm_one]
    assert all(v == 0 for v in vals) and not cl.sl_quadratic[0]


def test_odd_q_no_flip_stable_restriction_off_level_one():
    for mode in ("mixed", "equal"):
        for (p, k, r) in [(3, 1, 2), (3, 1, 3), (5, 1, 2)]:
            cl = classify_all(make_torus(p, k, r, mode))
            assert not (cl.sl_sigma_fixed & (cl.regular | (cl.r0 > 1))).any()


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
    patterns = CoxeterTorus._pairing_patterns
    for t in tori:
        classify_all(t)
    computed = patterns.cache_info().misses
    for t in tori:
        classify_all(t)
    assert computed and patterns.cache_info().misses == computed


def test_torus_memos_return_the_identical_object():
    t = make_torus(3, 1, 3, "mixed")
    classify_all(t)
    for r2 in range(1, t.r + 1):
        assert t.kernel_values(r2) is t.kernel_values(r2)
    for r2 in range(1, t.r):
        assert t._descent_rows(r2) is t._descent_rows(r2)
    assert t._pairing_patterns(1) is t._pairing_patterns(1)
    assert _extend_kernel_character(t, 1) is _extend_kernel_character(t, 1)


def test_torus_structure_takes_few_ring_products(monkeypatch):
    """Building the (7,1,2) mixed torus (order 2352), its congruence kernels
    and its norm-one group takes 47 extension products; the former
    construction, with a Sylow image and discrete logs one product per
    generator power for each group, took 126, and a basis search again on
    each Sylow component a subgroup contains whole 54.  No kernel and not
    the norm-one group takes a Sylow power (x^(p^a) or x^(|S|/p^a)) of its
    own codes: their components are the torus's, intersected.  K_1 is the
    torus's whole 7-part and keeps its basis of it."""
    ring = make_ring(7, 1, 2, "mixed")
    ext, mul, pow_ = make_ext(ring), make_ext(ring).mul, FiniteAbelianGroup.pow
    calls, pows = [], []
    monkeypatch.setattr(ext, "mul", lambda x, y: calls.append(1) or mul(x, y))
    monkeypatch.setattr(FiniteAbelianGroup, "pow", lambda A, x, n: pows.append((np.size(x), n)) or pow_(A, x, n))
    t = CoxeterTorus(ring)
    subgroups = [*t.kernels.values(), t.norm_one_group]
    assert len(calls) <= 47
    assert t.kernels[1].basis == [b for b in t.group.basis if b[1] % 7 == 0]
    for S in subgroups:
        sylow = {n for p, a in factorise(S.order).items() for n in (p**a, S.order // p**a)}
        assert not [(size, n) for size, n in pows if size == S.order and n in sylow]
    # the torus's own Sylow powers are the ones recorded on all its codes
    assert sorted(n for size, n in pows if size == t.order) == [3, 16, 49]


_MEMO_TORI = [
    (p, k, r, mode)
    for p in (2, 3, 5, 7)
    for k in (1, 2, 3)
    for r in range(2, 8)
    if (p**k) ** r <= 125
    for mode in ("mixed", "equal")
] + [(7, 1, 3, "mixed"), (7, 1, 3, "equal")]


@pytest.mark.parametrize("pkr_mode", _MEMO_TORI, ids=lambda c: "-".join(map(str, c)))
def test_dual_taus_is_taus_of_the_dual(pkr_mode):
    """The memo is `taus` over dual(), per psi_scale, and read-only."""
    t = make_torus(*pkr_mode)
    A = t.group.dual_rows()
    for s in ([1, 2] if 2 < t.q else [1]):
        tau = t.dual_taus(s)
        assert np.array_equal(tau, t.taus(A, s)) and not tau.flags.writeable


def test_dual_taus_default_and_explicit_scale_share_one_entry():
    t = CoxeterTorus(make_ring(3, 1, 2, "mixed"))
    misses = CoxeterTorus._dual_taus.cache_info().misses
    assert t.dual_taus() is t.dual_taus(1) is t.dual_taus(np.int64(1))
    assert CoxeterTorus._dual_taus.cache_info().misses == misses + 1
    assert t.dual_taus(2) is not t.dual_taus()


@pytest.mark.parametrize("pkr_mode", [(2, 1, 3, "mixed"), (2, 1, 3, "equal"), (3, 1, 3, "mixed"), (5, 1, 3, "equal")])
def test_peeling_matches_brute_force_on_random_rows(pkr_mode):
    """Peeling reads tau through the dual() positions of each level's rows;
    on a seeded random subset of rows at r = 3, in random order and with
    unreduced exponents, it still agrees with the brute-force minimum."""
    t = make_torus(*pkr_mode)
    rng = np.random.default_rng(2026)
    A = t.group.dual_rows(rng.choice(t.order, size=min(t.order, 300), replace=False))
    A = A + np.array(t.group.orders) * rng.integers(0, 3, size=A.shape)
    for s in ([1, 2] if 2 < t.q else [1]):
        assert np.array_equal(conductor_by_peeling(t, A, s), conductor_brute_force(t, A))


def test_trace_pairing_check_is_reachable(monkeypatch):
    """A pairing pattern that no top-layer row matches is caught by `taus`,
    by the memo `dual_taus` and so by `classify_all`: the memo keeps the
    per-row check."""
    t = CoxeterTorus(make_ring(3, 1, 2, "mixed"))
    P, cols, lut = t._pairing_patterns(1)
    bad = P.copy()
    bad[0] = 1  # x = 0 pairs to 0 with every tau; never one of `cols`
    monkeypatch.setattr(t, "_pairing_patterns", lambda s: (bad, cols, lut))
    for run in (lambda: t.taus(t.group.dual_rows()[:1]), t.dual_taus, lambda: classify_all(t)):
        with pytest.raises(InvariantError, match="top-layer values are not a trace pairing"):
            run()


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
    the kernel values give the level, and taus is the tau of the defining
    pairing identity."""
    t = make_torus(*pkr, mode)
    thetas = t.dual()
    pulls = [DualChar(t.group, tuple(row)) for row in t.pullback_rows.tolist()]
    psi_scale = 1 + psi_pick % (t.q - 1)
    for i in picks:
        theta = thetas[i % len(thetas)]
        assert conductor_brute_force(t, [theta.a]).tolist() == [min(_literal_level(t, theta * pl) for pl in pulls)]
        trivial_on = [r2 for r2 in range(1, t.r + 1) if not (t.kernel_values(r2)[0] @ theta.a % t.group.exponent).any()]
        assert min(trivial_on) == _literal_level(t, theta)
        if t.r >= 2:
            assert t.taus(np.array([theta.a]), psi_scale).tolist() == _literal_tau(t, theta, psi_scale)


def test_top_layer_memoised_per_torus():
    t = make_torus(3, 1, 2, "equal")
    assert t.top_layer_elements() is t.top_layer_elements()
    xs, elts = t.top_layer_elements()
    assert elts.tolist() == [int(t.ext.add(t.ext.one, t.ext.mul_pi_top_lift(x))) for x in xs.tolist()]


def _taus_one_shot(t, A, psi_scale=1):
    """The former `CoxeterTorus.taus`: one (thetas, q^2) array."""
    p, L = t.ring.p, t.group.exponent
    V = A @ t._top_rows.T % L
    if (V * p % L).any():
        raise InvariantError("top-layer values are not p-th roots")
    P, cols, lut = t._pairing_patterns(psi_scale)
    V = V * p // L
    tau = lut[V[:, cols] @ p ** np.arange(len(cols) - 1, -1, -1)]
    if (P[:, tau].T != V).any():
        raise InvariantError("top-layer values are not a trace pairing")
    return tau


def _brute_force_one_shot(t, A):
    """The former `conductor_brute_force`: one (thetas, twists, generators)
    array per level."""
    L = t.group.exponent
    out = np.zeros(len(A), dtype=np.int64)
    for r2 in range(t.r, 0, -1):
        W, V = t.kernel_values(r2)
        trivial = ((A @ W.T)[:, None, :] + V[None, :, :]) % L == 0
        out[trivial.all(axis=2).any(axis=1)] = r2
    return out


BLOCKED_TORI = [
    (p, k, r, mode)
    for (p, k, r) in [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)]
    for mode in ("mixed", "equal")
] + [(5, 1, 2, "mixed"), (7, 1, 2, "mixed")]


@pytest.mark.parametrize("pkr_mode", BLOCKED_TORI, ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("block", [1, 3, None])
def test_blocked_torus_passes_match_one_shot(monkeypatch, pkr_mode, block):
    """`taus` in row blocks, `conductor_brute_force` in blocks of thetas
    and chunks of twists, and the conductor pass of `classify_all` in
    blocks of thetas equal their one-shot forms, with `_BLOCK_BYTES` cut to
    blocks of 1 and 3 (rows of `taus`; twists, then thetas, at the level
    with the most kernel generators; stacked (theta, twist) rows, so every
    theta with more minimising twists is a block of its own) and at its
    default."""
    default = torus_mod._BLOCK_BYTES
    t = make_torus(*pkr_mode)
    A = t.group.dual_rows()
    scales = [1, 2] if 2 < t.q else [1]
    want_tau = {s: _taus_one_shot(t, A, s) for s in scales} if t.r >= 2 else {}
    want_bf = _brute_force_one_shot(t, A)
    with monkeypatch.context() as m:
        m.setattr(torus_mod, "_BLOCK_BYTES", 2**62)
        want_cl = classify_all(t)
    cell = 8 * max(max(1, len(t.kernels[r2].gens)) for r2 in range(1, t.r + 1))
    n_twists = len(t.pullback_rows)
    if block is None:
        budgets = ([default],) * 3
    else:
        budgets = ([8 * block * t.q**2], [block * cell, block * cell * n_twists], [8 * block * A.shape[1]])
    for budget in budgets[0]:
        monkeypatch.setattr(torus_mod, "_BLOCK_BYTES", budget)
        for s, want in want_tau.items():
            assert (t.taus(A, s) == want).all()
    for budget in budgets[1]:
        monkeypatch.setattr(torus_mod, "_BLOCK_BYTES", budget)
        assert (conductor_brute_force(t, A) == want_bf).all()
    for budget in budgets[2]:
        monkeypatch.setattr(torus_mod, "_BLOCK_BYTES", budget)
        cl = classify_all(t)
        for f in dataclasses.fields(cl):
            assert np.array_equal(getattr(cl, f.name), getattr(want_cl, f.name)), f.name


@pytest.mark.parametrize("fn", ["taus", "conductor_brute_force"])
def test_torus_pass_memory_is_bounded(fn):
    """On (7,1,2) mixed (2352 thetas) each pass peaks under 1 MB once its
    memos are filled; the one-shot forms peaked at 2.6 (`taus`) and
    3.0 MB (`conductor_brute_force`)."""
    t = make_torus(7, 1, 2, "mixed")
    A = t.group.dual_rows()
    run = (lambda: t.taus(A)) if fn == "taus" else (lambda: conductor_brute_force(t, A))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
