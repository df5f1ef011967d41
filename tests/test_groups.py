import random

import numpy as np
import pytest

from dl2.groups import (
    GroupTooLargeError,
    MatrixGroup,
    gl2_order,
    make_group,
    sl2_order,
    sl_embedding,
)
from dl2.rings import make_ring

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
    assert int(cd.sizes.sum()) == G.order
    assert ((cd.sizes * cd.centralizer_orders) == G.order).all()
    # central elements are singleton classes
    for z in G.center_codes():
        assert cd.sizes[cd.class_of[z]] == 1
    # representatives carry the least group index of their class
    pos = G.pos_of[cd.reps]
    for k_ in range(cd.n_classes):
        members = cd.class_lists[k_]
        assert pos[k_] == G.pos_of[members].min()
    # classes really are conjugation-closed: spot check
    sp = G.space
    rng = random.Random(0)
    for _ in range(200):
        x = int(rng.choice(G.codes))
        g = int(rng.choice(G.codes))
        y = sp.mul_scalar(sp.mul_scalar(g, x), int(sp.inv(np.int64(g))))
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
    upper = [g for g in G.generators() if sp.C[g] == 0 and sp.B[g] != 0]
    monkeypatch.setattr(G, "generators", lambda: upper)
    assert G.generated_closure() == (p**k) ** r


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


def test_reduction_is_surjective_homomorphism():
    G = make_group(3, 1, 2, "equal", "gl")
    h = G.reduction(1)
    assert len(set(h.image_of.tolist())) == h.target.order
    sp, tsp = G.space, h.target.space
    rng = random.Random(1)
    for _ in range(200):
        x, y = int(rng.choice(G.codes)), int(rng.choice(G.codes))
        assert h(sp.mul_scalar(x, y)) == tsp.mul_scalar(h(x), h(y))


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
            assert sp.mul_scalar(int(a), int(b)) in bset
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


def test_element_wrapper():
    G = make_group(2, 1, 2, "mixed", "gl")
    e = G.elem(int(G.codes[5]))
    assert (e * e.inverse()).code == G.space.identity
    assert e.det().is_unit()
