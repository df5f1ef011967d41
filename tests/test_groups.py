import random
import tracemalloc
from math import lcm

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dl2 import groups
from dl2.groups import (
    ConjugacyData,
    GroupTooLargeError,
    MatrixGroup,
    MatrixSpace,
    generated_order,
    gl2_order,
    group_generators,
    make_group,
    matrix_space,
    sl2_order,
    sl_embedding,
)
from dl2.rings import make_ring
from dl2.verifier import DEFAULT_MANIFEST
from test_rings import CASES as RING_CASES

# every (p, k, r) of the ring tests, in both modes
SPACE_CASES = sorted({(p, k, r, mode) for (p, k, r, _) in RING_CASES for mode in ("mixed", "equal")})

ORDER_CASES = [
    (2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3),
]


@pytest.mark.parametrize("p,k,r", ORDER_CASES)
@pytest.mark.parametrize("mode", ["mixed", "equal"])
@pytest.mark.parametrize("flavor", ["gl", "sl"])
def test_group_orders(p, k, r, mode, flavor):
    G = make_group(p, k, r, mode, flavor)
    q = p**k
    expected = gl2_order(q, r) if flavor == "gl" else sl2_order(q, r)
    assert G.order == expected
    assert int(G.codes[0]) == G.space.identity  # index 0 is the identity
    assert len(set(G.codes.tolist())) == G.order


def test_known_small_orders():
    assert make_group(2, 1, 1, "equal", "gl").order == 6
    assert make_group(2, 1, 2, "mixed", "gl").order == 96
    assert make_group(3, 1, 2, "equal", "sl").order == 648
    assert make_group(2, 2, 2, "equal", "gl").order == 46080


def test_size_bound():
    with pytest.raises(GroupTooLargeError):
        MatrixGroup(make_ring(7, 1, 2, "mixed"), "gl", bound=500_000)


def test_conjugacy_class_counts():
    assert make_group(2, 1, 1, "equal", "gl").conjugacy().n_classes == 3
    assert make_group(3, 1, 1, "mixed", "gl").conjugacy().n_classes == 8


@pytest.mark.parametrize("p,k,r,mode,flavor", [
    (3, 1, 1, "mixed", "gl"),
    (2, 1, 2, "mixed", "gl"),
    (3, 1, 2, "equal", "sl"),
    (2, 2, 2, "mixed", "sl"),
])
def test_conjugacy_invariants(p, k, r, mode, flavor):
    G = make_group(p, k, r, mode, flavor)
    cd = G.conjugacy()
    sp = G.space
    assert int(cd.sizes.sum()) == G.order
    assert ((cd.sizes * cd.centralizer_orders) == G.order).all()
    # central elements (the scalars in G) are singleton classes
    scalars = sp.enc(np.arange(G.ring.size), 0, 0, np.arange(G.ring.size))
    for z in scalars[G.pos_of[scalars] >= 0]:
        assert cd.sizes[cd.class_of[z]] == 1
    # representatives carry the least group index of their class
    pos = G.pos_of[cd.reps]
    for k_ in range(cd.n_classes):
        members = cd.class_lists[k_]
        assert pos[k_] == G.pos_of[members].min()
    # classes really are conjugation-closed: spot check
    rng = random.Random(0)
    for _ in range(200):
        x = int(rng.choice(G.codes))
        g = int(rng.choice(G.codes))
        y = int(sp.mul(sp.mul(g, x), sp.inv(np.int64(g))))
        assert cd.class_of[x] == cd.class_of[y]


def test_generators_generate():
    for args in [(2, 1, 2, "mixed", "gl"), (3, 1, 2, "equal", "sl"),
                 (2, 2, 2, "equal", "gl"), (3, 1, 1, "mixed", "gl")]:
        G = make_group(*args)
        assert G.generated_closure() == G.order


@pytest.mark.parametrize(
    "p,k,r,mode", [(2, 1, 3, "mixed"), (3, 1, 2, "equal"), (2, 2, 2, "equal"), (5, 1, 2, "mixed")]
)
def test_generated_closure_counts_proper_subgroup(p, k, r, mode, monkeypatch):
    """The upper elementary generators alone generate the unipotent radical
    {[[1, b], [0, 1]]} = (O_r, +) of order q^r; with two or more of them
    one breadth-first round reaches an element twice."""
    G = make_group(p, k, r, mode, "gl")
    sp = G.space
    upper = [g for g in G.generators() if sp.dec(g)[2] == 0 and sp.dec(g)[1] != 0]
    monkeypatch.setattr(G, "generators", lambda: upper)
    assert G.generated_closure() == (p**k) ** r


def _closure_order(space, gens):
    """Reference: |<gens>| by breadth-first closure over the code space
    from the identity, marking each round's new elements in a bitmap so
    that an element reached twice in one round counts once."""
    gens = np.asarray(gens, dtype=np.int64)
    seen = np.zeros(space.N, dtype=bool)
    seen[space.identity] = True
    frontier = np.array([space.identity], dtype=np.int64)
    while len(frontier):
        fresh = np.zeros(space.N, dtype=bool)
        for g in gens:
            y = space.mul(frontier, g)
            fresh[y[~seen[y]]] = True
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return int(seen.sum())


@pytest.mark.parametrize(
    "p,k,r,mode,flavor",
    sorted({(p, k, r, mode, flavor) for (p, k, r, flavor, mode) in DEFAULT_MANIFEST})
    + [(5, 1, 2, "mixed", "gl"), (5, 1, 2, "mixed", "sl"), (3, 1, 3, "mixed", "gl")],
)
def test_generated_order_matches_closure(p, k, r, mode, flavor):
    R = make_ring(p, k, r, mode)
    sp = matrix_space(R)
    gens = group_generators(R, flavor)
    q = p**k
    order = gl2_order(q, r) if flavor == "gl" else sl2_order(q, r)
    assert generated_order(sp, gens) == _closure_order(sp, gens) == order


@pytest.mark.parametrize("p,k,r,mode", [(2, 1, 3, "mixed"), (3, 1, 2, "equal"), (2, 2, 2, "equal")])
def test_generated_order_of_proper_subgroups_matches_closure(p, k, r, mode):
    """Upper elementaries alone: (O_r, +), order q^r.  All elementaries
    without the units: SL2(O_r).  The diagonal units diag(u, 1) alone:
    O_r^x."""
    R = make_ring(p, k, r, mode)
    sp = matrix_space(R)
    gens = group_generators(R, "gl")
    _, b, c, _ = sp.dec(np.array(gens))
    upper = [g for g, bi, ci in zip(gens, b, c) if ci == 0 and bi != 0]
    elementary = [g for g, bi, ci in zip(gens, b, c) if bi != 0 or ci != 0]
    units = [g for g, bi, ci in zip(gens, b, c) if bi == 0 and ci == 0]
    q = p**k
    for sub, order in [
        (upper, q**r),
        (elementary, sl2_order(q, r)),
        (units, q ** (r - 1) * (q - 1)),
    ]:
        assert generated_order(sp, sub) == _closure_order(sp, sub) == order


def test_generated_order_refuses_singular_generators():
    R = make_ring(3, 1, 1, "mixed")
    sp = matrix_space(R)
    with pytest.raises(ValueError, match="invertible"):
        generated_order(sp, [sp.identity, sp.enc(R.one, 0, 0, 0)])


def test_reduction_homs():
    h = make_group(2, 1, 2, "mixed", "gl").reduction(1)
    assert len(h.kernel_codes) == 16
    # kernel is exactly I + 2 M2(Z/2)
    sp = h.source.space
    for c in h.kernel_codes:
        a, b, cc, d = sp.dec(int(c))
        assert a % 2 == 1 and d % 2 == 1 and b % 2 == 0 and cc % 2 == 0
    h2 = make_group(2, 1, 2, "mixed", "gl").reduction(2)
    assert (h2.image_of == h2.source.codes).all()  # r' = r is the identity
    h3 = make_group(3, 1, 2, "mixed", "sl").reduction(1)
    assert len(h3.kernel_codes) == 27
    with pytest.raises(ValueError):
        make_group(2, 1, 2, "mixed", "gl").reduction(3)


def test_conjugacy_and_reduction_are_memoised_per_group():
    G = make_group(2, 1, 3, "mixed", "sl")
    assert G.conjugacy() is G.conjugacy()
    assert G.reduction(1) is G.reduction(1)


def test_reduction_is_surjective_homomorphism():
    G = make_group(3, 1, 2, "equal", "gl")
    h = G.reduction(1)
    assert len(set(h.image_of.tolist())) == h.target.order
    sp, tsp = G.space, h.target.space
    rng = random.Random(1)
    for _ in range(200):
        x, y = int(rng.choice(G.codes)), int(rng.choice(G.codes))
        assert h(sp.mul(x, y)) == tsp.mul(h(x), h(y))


def _entrywise_product(R, x, y):
    """Codes of x y, entry by entry through the ring's add and mul tables."""
    S = R.size
    a1, b1, c1, d1 = (x // S**i % S for i in range(4))
    a2, b2, c2, d2 = (y // S**i % S for i in range(4))

    def dot(u0, v0, u1, v1):
        return R.add[R.mul[u0, v0], R.mul[u1, v1]]

    return (
        dot(a1, a2, b1, c2)
        + dot(a1, b2, b1, d2) * S
        + dot(c1, a2, d1, c2) * S**2
        + dot(c1, b2, d1, d2) * S**3
    )


@given(st.sampled_from(SPACE_CASES), st.data())
def test_mul_is_the_entrywise_matrix_product(case, data):
    """MatrixSpace.mul on any codes, invertible or not: scalars, 1-D arrays
    and (1, n) x (m, 1) broadcasts, always int64."""
    R = make_ring(*case)
    sp = matrix_space(R)
    code = st.integers(min_value=0, max_value=sp.N - 1)
    x, y = data.draw(code), data.draw(code)
    assert sp.mul(x, y) == _entrywise_product(R, x, y) and sp.mul(x, y).dtype == np.int64
    n = data.draw(st.integers(min_value=1, max_value=6))
    xs = np.array(data.draw(st.lists(code, min_size=n, max_size=n)), dtype=np.int64)
    ys = np.array(data.draw(st.lists(code, min_size=n, max_size=n)), dtype=np.int64)
    for u, v in [(xs, ys), (xs, y), (x, ys), (xs[None, :], ys[:, None]), (xs[:, None], ys[None, :3])]:
        got = sp.mul(u, v)
        assert got.dtype == np.int64 and got.shape == np.broadcast_shapes(np.shape(u), np.shape(v))
        assert (got == _entrywise_product(R, np.asarray(u), np.asarray(v))).all()


@given(
    st.sampled_from([c for c in SPACE_CASES if c[2] >= 2]),
    st.integers(min_value=1),
    st.lists(st.integers(min_value=0), min_size=4, max_size=4),
)
def test_reduction_maps_are_homomorphisms(case, r2_pick, picks):
    """O_r -> O_{r2} preserves add, mul and one on ring elements, and the
    induced map on matrix codes preserves the matrix product."""
    R = make_ring(*case)
    r2 = 1 + r2_pick % R.r
    tgt, m = R.reduction(r2)
    a, b = picks[0] % R.size, picks[1] % R.size
    assert m[R.add[a, b]] == tgt.add[m[a], m[b]]
    assert m[R.mul[a, b]] == tgt.mul[m[a], m[b]]
    assert m[R.one] == tgt.one
    sp = matrix_space(R)
    x, y = picks[2] % sp.N, picks[3] % sp.N
    tsp, (hx, hy, hxy, hid) = sp.reduce_map(r2, np.array([x, y, sp.mul(x, y), sp.identity]))
    assert tsp.ring is tgt
    assert hxy == tsp.mul(hx, hy)
    assert hid == tsp.identity


def test_reduction_commutes_with_det_and_sl():
    G = make_group(3, 1, 2, "mixed", "gl")
    h = G.reduction(1)
    _, rmap = G.ring.reduction(1)
    assert (h.target.space.det[h.image_of] == rmap[G.space.det[G.codes]]).all()
    # SL sits inside GL compatibly with reduction
    S = make_group(3, 1, 2, "mixed", "sl")
    hs = S.reduction(1)
    for c in S.codes[:: max(1, S.order // 100)]:
        assert hs(int(c)) == h(int(c))


def test_reduction_hom_rejects_non_members():
    """h maps group element codes only; a matrix code off the group raises."""
    G = make_group(3, 1, 2, "mixed", "sl")
    h = G.reduction(1)
    assert (h(G.codes) == h.image_of).all()
    outside = int(np.flatnonzero(G.pos_of < 0)[0])
    with pytest.raises(ValueError, match="not an element"):
        h(outside)
    with pytest.raises(ValueError, match="not an element"):
        h(np.append(G.codes[:3], outside))


def test_borel():
    assert len(make_group(2, 1, 1, "equal", "gl").borel_codes()) == 2
    G3 = make_group(3, 1, 1, "mixed", "gl")
    B3 = G3.borel_codes()
    assert len(B3) == 12
    assert G3.order // len(B3) == 4  # index q + 1 at level 1
    # closed under multiplication
    sp = G3.space
    bset = set(B3.tolist())
    for a in B3:
        for b in B3:
            assert int(sp.mul(a, b)) in bset
    # order formula at higher level: q^r (q^(r-1)(q-1))^2
    G = make_group(3, 1, 2, "mixed", "gl")
    assert len(G.borel_codes()) == 9 * 36


def test_sl_embedding():
    G = make_group(3, 1, 2, "mixed", "gl")
    pos = sl_embedding(G)
    assert len(pos) == 648
    assert G.order == 3888
    assert pos[0] == 0  # identity to identity
    S = make_group(3, 1, 2, "mixed", "sl")
    # image = kernel of determinant
    dets = G.space.det[G.codes]
    assert (np.sort(G.codes[dets == G.ring.one]) == np.sort(S.codes)).all()
    with pytest.raises(ValueError, match="needs a GL2 group"):
        sl_embedding(S)


def test_element_wrapper():
    """Elements are plain codes: every code times its inverse is the
    identity, and every GL determinant is a unit."""
    G = make_group(2, 1, 2, "mixed", "gl")
    sp = G.space
    assert (sp.mul(G.codes, sp.inv(G.codes)) == sp.identity).all()
    assert G.ring.is_unit[sp.det[G.codes]].all()


@pytest.mark.parametrize(
    "p,k,r,flavor", [(3, 1, 2, "gl"), (2, 1, 3, "gl"), (5, 1, 2, "sl")]
)
def test_power_map_matches_per_representative_loop(p, k, r, flavor):
    G = make_group(p, k, r, "mixed", flavor)
    cd = G.conjugacy()
    sp = G.space
    orders, rows = [], []
    for rep in cd.reps:
        cur, order = int(rep), 1
        while cur != sp.identity:
            cur, order = int(sp.mul(cur, rep)), order + 1
        orders.append(order)
        cur, row = int(sp.identity), []
        for _a in range(cd.exponent):
            row.append(int(cd.class_of[cur]))
            cur = int(sp.mul(cur, rep))
        rows.append(row)
    assert cd.rep_orders.tolist() == orders
    assert cd.power_map().tolist() == rows


def _powers_one_product_at_a_time(G, cd):
    """The reference: (orders, exponent, power map) of the representatives,
    from rep ** a by one product of all of them per power a."""
    sp = G.space
    orders = np.zeros(cd.n_classes, dtype=np.int64)
    cur, a = cd.reps, 1  # cur = reps ** a
    while not orders.all():
        orders[(cur == sp.identity) & (orders == 0)] = a
        cur, a = sp.mul(cur, cd.reps), a + 1
    e = lcm(*orders.tolist())
    pm = np.empty((cd.n_classes, e), dtype=np.int64)
    cur = np.full(cd.n_classes, sp.identity, dtype=np.int64)
    for a in range(e):
        pm[:, a] = cd.class_of[cur]
        cur = sp.mul(cur, cd.reps)
    return orders, e, pm


@pytest.mark.parametrize("p,k,r,flavor,mode", DEFAULT_MANIFEST + [(5, 1, 2, "gl", "mixed")])
def test_doubled_powers_match_one_product_per_power(p, k, r, flavor, mode):
    G = make_group(p, k, r, mode, flavor)
    cd = G.conjugacy()
    orders, e, pm = _powers_one_product_at_a_time(G, cd)
    assert cd.rep_orders.tolist() == orders.tolist() and cd.exponent == e
    assert cd.power_map().dtype == np.int64 and (cd.power_map() == pm).all()


def _classes_one_at_a_time(G):
    """Reference: close each class by breadth-first conjugation, one class
    at a time, in group-index order.  Returns (reps, sizes, class_of)."""
    sp = G.space
    gens = np.unique(np.asarray(G.generators(), dtype=np.int64))
    ginvs = sp.inv(gens)
    class_of = np.full(sp.N, -1, dtype=np.int32)
    reps, sizes = [], []
    for code in G.codes:
        code = int(code)
        if class_of[code] >= 0:
            continue
        cid = len(reps)
        frontier = np.array([code], dtype=np.int64)
        class_of[code] = cid
        total = 1
        while len(frontier):
            cand = np.unique(np.concatenate(
                [sp.mul(np.int64(g), sp.mul(frontier, np.int64(gi))) for g, gi in zip(gens, ginvs)]
            ))
            fresh = cand[class_of[cand] < 0]
            class_of[fresh] = cid
            total += len(fresh)
            frontier = fresh
        reps.append(code)
        sizes.append(total)
    return np.array(reps, dtype=np.int64), np.array(sizes, dtype=np.int64), class_of


@pytest.mark.parametrize("p,k,r,mode,flavor", [
    (3, 1, 2, "mixed", "sl"),
    (2, 2, 2, "mixed", "sl"),
    (2, 1, 3, "mixed", "sl"),
    (5, 1, 2, "mixed", "sl"),
    (3, 1, 2, "mixed", "gl"),
    (3, 1, 2, "equal", "gl"),
    (2, 1, 3, "mixed", "gl"),
    (2, 1, 3, "equal", "gl"),
])
def test_conjugacy_matches_class_by_class_closure(p, k, r, mode, flavor):
    G = make_group(p, k, r, mode, flavor)
    cd = G.conjugacy()
    reps, sizes, class_of = _classes_one_at_a_time(G)
    assert cd.reps.tolist() == reps.tolist()
    assert cd.sizes.tolist() == sizes.tolist()
    assert np.array_equal(cd.class_of, class_of)  # whole code space, -1 off G
    for k_, members in enumerate(cd.class_lists):
        assert members.tolist() == np.sort(G.codes[class_of[G.codes] == k_]).tolist()
    assert cd.inverse_class.tolist() == class_of[G.space.inv(reps)].tolist()


def test_conjugacy_multiplies_whole_group_arrays(monkeypatch):
    """Two products per generator for the edge lists and one per doubling
    of the representatives' powers; a class-by-class closure made 2936
    here."""
    G = make_group(3, 1, 2, "mixed", "gl")
    calls = []
    mul = MatrixSpace.mul

    def counted(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    monkeypatch.setattr(MatrixSpace, "mul", counted)
    cd = ConjugacyData(G)
    n_gens = len(np.unique(G.generators()))
    assert len(calls) <= 2 * n_gens + int(cd.rep_orders.max()).bit_length()


@pytest.mark.parametrize(
    "p, k, r, mode", [(2, 1, 1, "mixed"), (2, 1, 2, "mixed"), (3, 1, 2, "mixed"), (2, 2, 2, "mixed")]
)
def test_det_table_matches_broadcast_index(p, k, r, mode):
    """`MatrixSpace.det`, uint8 and built one block at a time, equals the
    int32 2-D broadcast index over (d, c, b, a), on F_2, Z/4, Z/9 and
    GR(4, 2)."""
    ring = make_ring(p, k, r, mode)
    sp = MatrixSpace(ring)
    M, A = ring.mul.astype(np.int32), ring.add.astype(np.int32)
    want = A[M.T[:, None, None, :], ring.neg[M.T][None, :, :, None]].ravel()
    assert sp.det.dtype == np.uint8 and (sp.det == want).all()


# every ring of the default manifest, plus Z/25, Z/49, F_5[t]/t^2 and GR(4, 2)
NARROW_RINGS = sorted(
    {(p, k, r, mode) for (p, k, r, _flavor, mode) in DEFAULT_MANIFEST}
    | {(5, 1, 2, "mixed"), (7, 1, 2, "mixed"), (5, 1, 2, "equal"), (2, 2, 2, "mixed")}
)


class _Int32Space:
    """The former int32 tables of `MatrixSpace`, each one broadcast index
    over the code space, with its `mul` and `inv`."""

    def __init__(self, ring):
        S = self.S = ring.size
        self.ring = ring
        M, A = ring.mul.astype(np.int32), ring.add.astype(np.int32)
        # over (u1, u0, v1, v0) and over (d, c, b, a)
        self.dot = A[M[None, :, None, :], M[:, None, :, None]].ravel()
        self.det = A[M.T[:, None, None, :], ring.neg[M.T].astype(np.int32)[None, :, :, None]].ravel()
        x = np.arange(S, dtype=np.int32)
        # the columns a + c S and b + d S over (d, c, b, a), unbroadcast
        self.col1 = x[None, :, None, None] * S + x
        self.col2 = x[:, None, None, None] * S + x[:, None]

    def cols(self, y):
        S = self.S
        idx = (y // S**3, y // S**2 % S, y // S % S, y % S)
        shape = (S, S, S, S)
        return np.broadcast_to(self.col1, shape)[idx], np.broadcast_to(self.col2, shape)[idx]

    def mul(self, x, y):
        S, S2, dot = self.S, self.S**2, self.dot
        lo, hi = x % S2 * S2, x // S2 * S2
        c1, c2 = self.cols(np.asarray(y))
        return (dot[lo + c1] + dot[lo + c2] * S + (dot[hi + c1] + dot[hi + c2] * S) * S2).astype(np.int64)

    def inv(self, x):
        S, R = self.S, self.ring
        idet = R.inv[self.det[x]]
        a, b, c, d = x % S, x // S % S, x // S**2 % S, x // S**3
        mf = R.mul.ravel()
        return mf[d * S + idet] + R.neg[mf[b * S + idet]] * S + R.neg[mf[c * S + idet]] * S**2 + mf[a * S + idet] * S**3


@pytest.mark.parametrize("p, k, r, mode", NARROW_RINGS)
def test_narrow_tables_match_int32_reference(p, k, r, mode):
    """int16 `_dot`, uint8 `det` and uint16 columns, built one S^3 block at a
    time, equal the int32 broadcast-index tables; `mul` (blocked or not,
    broadcast or scalar) and `inv` give the same int64 codes."""
    ring = make_ring(p, k, r, mode)
    sp, ref = matrix_space(ring), _Int32Space(ring)
    S = ring.size
    assert (sp._dot.dtype, sp.det.dtype, sp._col1.dtype, sp._col2.dtype) == (np.int16, np.uint8, np.uint16, np.uint16)
    assert (sp._dot == ref.dot).all() and (sp.det == ref.det).all()
    shape = (S, S, S, S)
    assert (sp._col1.reshape(shape) == ref.col1).all() and (sp._col2.reshape(shape) == ref.col2).all()
    rng = np.random.default_rng(S)
    x = rng.integers(0, sp.N, 3 * groups._MUL_BLOCK_BYTES // 8 + 5)
    y = rng.integers(0, sp.N, len(x))
    for a, b in [
        (x, y),  # blocked
        (x[:50], y[:50]),
        (x[None, :300], y[:200, None]),  # (1, n) x (m, 1), blocked
        (x[None, :7], y[:5, None]),
        (int(x[0]), int(y[0])),
        (x[1], y[:9]),
    ]:
        got, want = sp.mul(a, b), ref.mul(np.asarray(a), b)
        assert got.dtype == np.int64 and got.shape == want.shape and (got == want).all()
    units = x[ring.is_unit[ref.det[x]]]
    assert (sp.inv(units) == ref.inv(units)).all()
    assert (sp.mul(units, sp.inv(units)) == sp.identity).all()


@pytest.mark.parametrize("block", [1, 3])
def test_mul_blocks_match_one_product(monkeypatch, block):
    """`mul` taken `block` codes at a time equals the one-shot product, on
    flat, broadcast and mixed-dtype arguments."""
    sp = matrix_space(make_ring(3, 1, 2, "mixed"))
    rng = np.random.default_rng(block)
    x, y = rng.integers(0, sp.N, 40), rng.integers(0, sp.N, 40).astype(np.int32)
    args = [(x, y), (x[:, None], y[None, :11]), (x[None, :4], y[:, None]), (x[3], y)]
    want = [sp._mul(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)) for a, b in args]
    monkeypatch.setattr(groups, "_MUL_BLOCK_BYTES", 8 * block)
    for (a, b), w in zip(args, want):
        got = sp.mul(a, b)
        assert got.dtype == np.int64 and got.shape == w.shape and (got == w).all()


def test_matrix_space_build_memory():
    """The Z/25 space holds 7 bytes per code (2.6 MiB) and builds in S^3
    blocks; the int32 tables with their N-sized index arrays peaked at
    10.4 MB."""
    ring = make_ring(5, 1, 2, "mixed")
    tracemalloc.start()
    try:
        sp = MatrixSpace(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.N == 25**4
    assert peak < 3 * 2**20


def test_conjugation_pass_memory_is_bounded():
    """One whole-group conjugation pass of `ConjugacyData` on GL2(Z/27)
    (order 314 928) holds its two int64 products, the int32 edge list and
    `mul`'s blocks: under 2.5 int64 arrays of the group's length."""
    G = make_group(3, 1, 3, "mixed", "gl")
    sp = G.space
    g = G.generators()[0]
    gi = sp.inv(np.int64(g))
    tracemalloc.start()
    try:
        nbr = G.pos_of[sp.mul(g, sp.mul(G.codes, gi))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nbr.dtype == np.int32 and (nbr >= 0).all()
    assert peak < 2.5 * 8 * G.order
