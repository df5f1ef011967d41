import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dl2.abelian import factorise
from dl2.rings import (
    PrimePowerField,
    RingSpec,
    _poly_rem_mod_p,
    get_field,
    is_prime,
    least_irreducible,
    make_ext,
    make_ring,
)

CASES = [
    (2, 1, 1, "equal"),
    (2, 1, 2, "mixed"),
    (2, 1, 3, "mixed"),
    (2, 1, 3, "equal"),
    (2, 2, 2, "mixed"),
    (2, 2, 2, "equal"),
    (3, 1, 2, "mixed"),
    (3, 1, 2, "equal"),
    (5, 1, 2, "mixed"),
]


@pytest.mark.parametrize(
    "p, k, f",
    [
        (2, 2, [1, 1, 1]),
        (2, 3, [1, 0, 1, 1]),
        (2, 4, [1, 0, 0, 1, 1]),  # 1 + x^3 + x^4, where (c_3, ..., c_0) order gives 1 + x + x^4
        (2, 5, [1, 0, 0, 1, 0, 1]),
        (3, 3, [1, 0, 2, 1]),
        (5, 2, [1, 1, 1]),  # x^2 + x + 1, where (c_1, c_0) order gives x^2 + 2
    ],
)
def test_least_irreducible_orders_candidates_constant_term_first(p, k, f):
    """The least monic irreducible in (c_0, c_1, ..., c_{k-1}): every field
    code and table digest rests on this choice."""
    assert least_irreducible(p, k) == f


def test_make_ring_examples():
    R = make_ring(3, 1, 2, "mixed")  # Z/9
    assert R.size == 9
    assert len(R.units()) == 6
    assert make_ring(2, 1, 1, "equal").size == 2
    G = make_ring(2, 2, 2, "mixed")  # GR(4,2)
    assert G.size == 16
    assert len(G.units()) == 12


def test_make_ring_rejects_bad_input():
    with pytest.raises(ValueError):
        make_ring(4, 1, 2, "mixed")
    with pytest.raises(ValueError):
        make_ring(3, 1, 2, "adic")
    with pytest.raises(ValueError):
        make_ring(3, 0, 2, "mixed")


def test_invert():
    R = make_ring(3, 1, 2, "mixed")
    assert R.invert(2) == 5  # 2 * 5 = 10 = 1 mod 9
    assert R.invert(R.one) == R.one
    G = make_ring(2, 2, 2, "mixed")
    for u in G.units():
        assert G.mul[u, G.invert(u)] == G.one
    with pytest.raises(ZeroDivisionError):
        G.invert(0)


@pytest.mark.parametrize("p,k,r,mode", CASES)
def test_unit_counts(p, k, r, mode):
    R = make_ring(p, k, r, mode)
    q = R.q
    assert len(R.units()) == q ** (r - 1) * (q - 1)
    X = make_ext(R)
    assert len(X.units()) == q ** (2 * (r - 1)) * (q * q - 1)


@pytest.mark.parametrize("p,k,r,mode", CASES)
def test_ring_axioms(p, k, r, mode):
    R = make_ring(p, k, r, mode)
    S = R.size
    # commutativity exhaustive
    assert (R.mul == R.mul.T).all()
    assert (R.add == R.add.T).all()
    # associativity and distributivity sampled
    rng = random.Random(0)
    for _ in range(300):
        a, b, c = (rng.randrange(S) for _ in range(3))
        assert R.mul[R.mul[a, b], c] == R.mul[a, R.mul[b, c]]
        assert R.add[R.add[a, b], c] == R.add[a, R.add[b, c]]
        assert R.mul[a, R.add[b, c]] == R.add[R.mul[a, b], R.mul[a, c]]
    assert (R.mul[R.one] == np.arange(S)).all()
    assert (R.add[0] == np.arange(S)).all()


@pytest.mark.parametrize("p,k,r,mode", CASES)
def test_reduction_maps(p, k, r, mode):
    R = make_ring(p, k, r, mode)
    rng = random.Random(1)
    for r2 in range(1, r + 1):
        tgt, m = R.reduction(r2)
        assert len(set(m.tolist())) == tgt.size  # surjective
        assert (m == 0).sum() == R.q ** (r - r2)  # additive kernel size
        for _ in range(100):
            a, b = rng.randrange(R.size), rng.randrange(R.size)
            assert m[R.mul[a, b]] == tgt.mul[m[a], m[b]]
            assert m[R.add[a, b]] == tgt.add[m[a], m[b]]


@pytest.mark.parametrize("p,k,r,mode", [c for c in CASES if c[2] >= 2])
def test_top_kernel_isomorphism(p, k, r, mode):
    """x -> (x - 1)/pi^(r-1) maps the last unit-kernel onto (F_q, +),
    turning multiplication into addition."""
    R = make_ring(p, k, r, mode)
    F = R.field
    _, m = R.reduction(r - 1)
    ker = [int(u) for u in R.units() if m[u] == 1]
    assert len(ker) == R.q
    img = {}
    for u in ker:
        img[u] = R.div_pi_top(int(R.add[u, R.neg[R.one]]))
    assert sorted(img.values()) == list(range(R.q))  # bijective onto F_q
    for u in ker:
        for v in ker:
            w = int(R.mul[u, v])
            assert img[w] == int(F.add[img[u], img[v]])


def test_frobenius_properties():
    for p, k, r, mode in CASES:
        R = make_ring(p, k, r, mode)
        X = make_ext(R)
        codes = np.arange(X.size, dtype=np.int64)
        fr = X.frobenius(codes)
        assert (X.frobenius(fr) == codes).all()  # involution
        fixed = codes[fr == codes]
        assert set(fixed.tolist()) == set(range(R.size))  # fixed ring = base
        # ring automorphism, sampled
        rng = random.Random(2)
        for _ in range(100):
            x, y = rng.randrange(X.size), rng.randrange(X.size)
            assert X.frobenius(X.mul(x, y)) == X.mul(fr[x], fr[y])
            assert X.frobenius(X.add(x, y)) == X.add(fr[x], fr[y])
        # congruent to the q-power map modulo pi; F_{q^2} is the level-1 extension
        rq = make_ext(make_ring(p, k, 1, mode))

        def rq_pow(v, n):
            out, cur = 1, int(v)
            while n:
                if n & 1:
                    out = int(rq.mul(out, cur))
                cur = int(rq.mul(cur, cur))
                n >>= 1
            return out

        def residue_pair(x):  # reduction mod pi, as an F_{q^2} pair code
            return R.residue[x % R.size] + R.q * R.residue[x // R.size]

        for x in codes[:: max(1, X.size // 60)]:
            assert residue_pair(X.frobenius(x)) == rq_pow(residue_pair(x), R.q)


@pytest.mark.parametrize("mode", ["mixed", "equal"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_level_one_extension_is_residue_quadratic(p, k, r, mode):
    """In its own codes, the extension of the level-1 ring is F_{q^2} =
    F_q[y]/(y^2 + B y + C) in pair codes a0 + q a1, for the quadratic that
    the level-r extension reduces to."""
    X = make_ext(make_ring(p, k, r, mode))
    X1 = make_ext(make_ring(p, k, 1, mode))
    F = X.base.field
    q, B, C = F.q, X.B_res, X.C_res
    A, M, N = F.add, F.mul, F.neg
    x = np.arange(q * q)[:, None]
    y = np.arange(q * q)[None, :]
    a1, b1, a2, b2 = x % q, x // q, y % q, y // q
    bb = M[b1, b2]
    # (a1 + b1 y)(a2 + b2 y) with y^2 = -B y - C
    prod = A[M[a1, a2], N[M[bb, C]]] + q * A[A[M[a1, b2], M[b1, a2]], N[M[bb, B]]]
    assert (X1.mul(x, y) == prod).all()
    a, b = a1[:, 0], b1[:, 0]
    # y -> -B - y, and the trace x + sigma(x)
    assert (X1.frobenius(x[:, 0]) == A[a, N[M[b, B]]] + q * N[b]).all()
    assert (X1.trace(x[:, 0]) == A[A[a, a], N[M[b, B]]]).all()


def test_frobenius_unique_nontrivial_automorphism():
    """In the quadratic extension of Z/4 the defining polynomial has exactly
    two roots; the root swap is the Frobenius and the only other choice is
    the identity."""
    R = make_ring(2, 1, 2, "mixed")
    X = make_ext(R)
    roots = []
    for z in range(X.size):
        val = X.add(X.add(X.mul(z, z), X.mul(X.B, z)), X.C)
        if val == 0:
            roots.append(z)
    assert len(roots) == 2
    assert X.xi in roots
    other = [z for z in roots if z != X.xi][0]
    assert X.frobenius(X.xi) == other


def test_frobenius_is_squaring_on_teichmueller_root():
    """xi with xi^2 + xi + 1 = 0 over Z/4 satisfies sigma(xi) = xi^2."""
    R = make_ring(2, 1, 2, "mixed")
    X = make_ext(R)
    assert (X.B_res, X.C_res) == (1, 1)
    assert X.frobenius(X.xi) == X.mul(X.xi, X.xi)


def test_norm_trace():
    R = make_ring(2, 1, 2, "mixed")
    X = make_ext(R)
    assert X.norm(X.one) == R.one
    two = R.add[R.one, R.one]
    assert X.trace(X.one) == two
    # xi root of y^2 + y + 1: norm = C = 1, trace = -B = -1
    assert X.norm(X.xi) == R.one
    assert X.trace(X.xi) == R.neg[R.one]
    # norm multiplicative on all unit pairs
    for a in X.units():
        for b in X.units():
            assert X.norm(X.mul(a, b)) == R.mul[X.norm(a), X.norm(b)]
    # norm and trace via the Frobenius, all elements
    for x in range(X.size):
        s = X.frobenius(x)
        assert X.mul(x, s) == X.norm(x)
        assert X.add(x, s) == X.trace(x)


def _ext_inverse(X, x):
    """sigma(x) / norm(x); the norm of a unit is a base unit."""
    R, S = X.base, X.base.size
    s, ninv = X.frobenius(x), R.inv[X.norm(x)]
    return R.mul[s % S, ninv] + R.mul[s // S, ninv] * S


def test_ext_inverse():
    """Each unit has exactly one inverse among the units, sigma(u)/norm(u)."""
    X = make_ext(make_ring(3, 1, 2, "mixed"))
    u = X.units()
    hits = X.mul(u[:, None], u[None, :]) == X.one
    assert (hits.sum(axis=1) == 1).all()
    assert (u[hits.argmax(axis=1)] == _ext_inverse(X, u)).all()


def test_ext_reduction_consistency():
    X = make_ext(make_ring(3, 1, 2, "equal"))
    tgt, m = X.reduction(1)
    assert tgt.base.r == 1
    rng = random.Random(3)
    for _ in range(100):
        x, y = rng.randrange(X.size), rng.randrange(X.size)
        assert m[X.mul(x, y)] == tgt.mul(int(m[x]), int(m[y]))


@given(
    st.sampled_from(sorted({(p, k, r) for p, k, r, _mode in CASES})),
    st.sampled_from(["mixed", "equal"]),
    st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=64),
    st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=64),
)
def test_norm_properties(pkr, mode, xs, ys):
    """The norm is multiplicative, maps units to base units, and is
    x sigma(x); norm pullbacks and the norm-one flip rows rest on these."""
    R = make_ring(*pkr, mode)
    X = make_ext(R)
    x = np.array(xs[: len(ys)], dtype=np.int64) % X.size
    y = np.array(ys[: len(xs)], dtype=np.int64) % X.size
    assert (X.norm(X.mul(x, y)) == R.mul[X.norm(x), X.norm(y)]).all()
    units = X.units()
    assert np.isin(X.norm(units), R.units()).all()
    codes = np.arange(X.size, dtype=np.int64)
    assert (X.mul(codes, X.frobenius(codes)) == X.norm(codes)).all()


_CODES = st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=64)


def _drawn(size, *lists):
    """Equal-length int64 code arrays below `size` from drawn lists."""
    m = min(len(v) for v in lists)
    return [np.array(v[:m], dtype=np.int64) % size for v in lists]


@given(st.sampled_from(CASES), _CODES, _CODES, _CODES)
def test_ring_axioms_drawn(case, xs, ys, zs):
    """Associativity, distributivity and identities of O_r and of O'_r, on
    drawn triples."""
    R = make_ring(*case)
    a, b, c = _drawn(R.size, xs, ys, zs)
    M, A = R.mul, R.add
    assert (M[M[a, b], c] == M[a, M[b, c]]).all()
    assert (A[A[a, b], c] == A[a, A[b, c]]).all()
    assert (M[a, A[b, c]] == A[M[a, b], M[a, c]]).all()
    assert (M[R.one, a] == a).all() and (A[0, a] == a).all()
    assert (A[a, R.neg[a]] == 0).all()
    X = make_ext(R)
    a, b, c = _drawn(X.size, xs, ys, zs)
    assert (X.mul(X.mul(a, b), c) == X.mul(a, X.mul(b, c))).all()
    assert (X.add(X.add(a, b), c) == X.add(a, X.add(b, c))).all()
    assert (X.mul(a, X.add(b, c)) == X.add(X.mul(a, b), X.mul(a, c))).all()
    assert (X.mul(X.one, a) == a).all() and (X.add(0, a) == a).all()
    assert (X.add(a, X.neg(a)) == 0).all()


@given(
    st.sampled_from(CASES),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=2**31),
)
def test_unit_inverses_drawn(case, i, j):
    """invert(u) is the inverse of a unit u, and a non-unit has none."""
    R = make_ring(*case)
    units = R.units()
    u = int(units[i % len(units)])
    assert R.mul[u, R.invert(u)] == R.one
    non_units = np.flatnonzero(~R.is_unit)
    z = int(non_units[j % len(non_units)])
    with pytest.raises(ZeroDivisionError):
        R.invert(z)
    X = make_ext(R)
    ext_units = X.units()
    v = int(ext_units[i % len(ext_units)])
    assert X.mul(v, _ext_inverse(X, v)) == X.one


@given(st.sampled_from(CASES), _CODES, _CODES)
def test_frobenius_is_ring_automorphism_drawn(case, xs, ys):
    """sigma respects sums, products and 1, is an involution, and fixes the
    embedded base ring O_r."""
    R = make_ring(*case)
    X = make_ext(R)
    x, y = _drawn(X.size, xs, ys)
    fr = X.frobenius
    assert (fr(X.mul(x, y)) == X.mul(fr(x), fr(y))).all()
    assert (fr(X.add(x, y)) == X.add(fr(x), fr(y))).all()
    assert fr(X.one) == X.one
    assert (fr(fr(x)) == x).all()
    (b,) = _drawn(R.size, xs)
    assert (fr(b) == b).all()


def _is_prime_by_trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(200_000):
        assert is_prime(n) == _is_prime_by_trial_division(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine
    # prime bases (psi_4 and psi_9)
    assert not is_prime(3_215_031_751)
    assert not is_prime(3_825_123_056_546_413_051)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    # psi_12 is the first input beyond the proven range
    with pytest.raises(ValueError, match="psi_12"):
        is_prime(318_665_857_834_031_151_167_461)


# ---------------------------------------------------------------------------
# the former field build, one polynomial product per pair of codes, kept as
# the oracle of the exp/log build in `PrimePowerField`


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _digits(code, p, k):
    return [code // p**i % p for i in range(k)]


def _undigits(digs, p):
    out = 0
    for d in reversed(digs):
        out = out * p + d % p
    return out


def _poly_product(a, b, F):
    """The F-code of a * b, multiplied as polynomials mod (p, F.poly)."""
    p, k = F.p, F.k
    m = _poly_rem_mod_p(_poly_mul_mod_p(_digits(a, p, k), _digits(b, p, k), p), F.poly, p)
    return _undigits(m, p)


def _loop_field(p, k):
    """add, mul, neg, frob and trace_to_fp of F_{p^k}, filled pair by pair."""
    q = p**k
    poly = get_field(p, k).poly
    digs = [_digits(c, p, k) for c in range(q)]
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(a, q):
            add[a][b] = add[b][a] = _undigits([x + y for x, y in zip(digs[a], digs[b])], p)
            m = _poly_rem_mod_p(_poly_mul_mod_p(digs[a], digs[b], p), poly, p)
            mul[a][b] = mul[b][a] = _undigits(m, p)
    add, mul = np.array(add), np.array(mul)
    neg = np.array([_undigits([-d for d in digs[c]], p) for c in range(q)])
    frob = np.array([_power(mul, c, p) for c in range(q)])
    tr = np.zeros(q, dtype=np.int64)
    for c in range(q):
        cur = c
        for _ in range(k):
            tr[c] = add[tr[c], cur]
            cur = frob[cur]
    return add, mul, neg, frob, tr


def _power(mul, c, n):
    out, cur = 1, int(c)
    while n:
        if n & 1:
            out = int(mul[out, cur])
        cur = int(mul[cur, cur])
        n >>= 1
    return out


SMALL_FIELDS = [(p, k) for p in range(2, 257) if is_prime(p) for k in range(1, 9) if p**k <= 256]


@pytest.mark.parametrize("p,k", SMALL_FIELDS, ids=lambda v: str(v))
def test_field_tables_match_loop_build(p, k):
    F = get_field(p, k)
    add, mul, neg, frob, tr = _loop_field(p, k)
    assert (F.add == add).all() and (F.mul == mul).all()
    assert (F.neg == neg).all() and (F.frob == frob).all() and (F.trace_to_fp == tr).all()


@pytest.mark.parametrize("p,k", [(2, 12), (5, 5), (7, 4), (3, 7)])
def test_largest_fields(p, k):
    """The largest fields under MAX_TABLE_RING, built outside the field
    cache so their tables are freed after the test."""
    F = PrimePowerField(p, k)
    q = F.q
    rng = np.random.default_rng(q)
    a, b = rng.integers(q, size=(2, 300))
    assert [int(F.mul[x, y]) for x, y in zip(a, b)] == [_poly_product(x, y, F) for x, y in zip(a, b)]
    # log is a bijection from the units onto [0, q - 1), and 1 = g^0
    assert (np.sort(F.log[1:]) == np.arange(q - 1)).all() and F.log[1] == 0
    # g, the unit of log 1, has order q - 1, by polynomial square-and-multiply
    g = int(np.flatnonzero(F.log == 1)[0])

    def poly_pow(c, n):
        out = 1
        for bit in bin(n)[2:]:
            out = _poly_product(out, out, F)
            if bit == "1":
                out = _poly_product(out, c, F)
        return out

    assert poly_pow(g, q - 1) == 1
    assert all(poly_pow(g, (q - 1) // ell) != 1 for ell in factorise(q - 1))
    # frob is c -> c^p, a ring automorphism of order k
    assert [int(F.frob[c]) for c in a[:50]] == [poly_pow(int(c), p) for c in a[:50]]
    assert (F.frob[F.mul[a, b]] == F.mul[F.frob[a], F.frob[b]]).all()
    assert (F.frob[F.add[a, b]] == F.add[F.frob[a], F.frob[b]]).all()
    powers = [np.arange(q)]
    for _ in range(k):
        powers.append(F.frob[powers[-1]])
    assert (powers[k] == powers[0]).all()
    assert all((powers[j] != powers[0]).any() for j in range(1, k))
    # the trace is additive and F_p-valued
    tr = F.trace_to_fp
    assert ((0 <= tr) & (tr < p)).all()
    assert (tr[F.add[a, b]] == (tr[a] + tr[b]) % p).all()


def _least_quadratic_by_loop(F):
    """The former search: (B, C) least with y^2 + B y + C rootless over F."""
    q = F.q
    for B in range(q):
        for C in range(q):
            if not any(int(F.add[F.add[F.mul[x, x], F.mul[B, x]], C]) == 0 for x in range(q)):
                return B, C


@pytest.mark.parametrize("p,k,r,mode", [*CASES, (2, 9, 1, "mixed"), (3, 5, 1, "mixed")])
def test_ext_quadratic_matches_loop_search(p, k, r, mode):
    X = make_ext(make_ring(p, k, r, mode))
    assert (X.B_res, X.C_res) == _least_quadratic_by_loop(X.base.field)


@pytest.mark.parametrize("p,k,r,mode", [c for c in CASES if c[2] >= 2])
def test_div_pi_top_array_matches_scalar(p, k, r, mode):
    R = make_ring(p, k, r, mode)
    image = R.mul[R.pi_pows[r - 1], R.lift]
    s = R.div_pi_top(image)
    assert s.tolist() == [R.div_pi_top(int(c)) for c in image] == list(range(R.q))
    outside = int(np.setdiff1d(np.arange(R.size), image)[0])
    with pytest.raises(ValueError, match="not divisible"):
        R.div_pi_top(outside)
    with pytest.raises(ValueError, match="not divisible"):
        R.div_pi_top(np.append(image, outside))
    X = make_ext(R)
    pairs = np.arange(R.q**2)
    top = X.mul_pi_top_lift(pairs)
    assert (R.div_pi_top(top % R.size) + R.q * R.div_pi_top(top // R.size) == pairs).all()


# ---------------------------------------------------------------------------
# the former ring builds, digit convolutions over whole (S, S) planes, and
# the former closed-form extension arithmetic, kept as the oracle of the
# `Quotient` arithmetic


def _convolution_equal(p, k, r):
    """add, mul, neg, residue, lift and the reduction to level r2 of
    F_q[t]/t^r: digits base q, convolved through the field tables."""
    F = get_field(p, k)
    q, S = F.q, F.q**r
    weights = q ** np.arange(r, dtype=np.int64)
    digs = np.arange(S, dtype=np.int64)[:, None] // weights % q
    add = np.zeros((S, S), dtype=np.int64)
    for j in range(r):
        add += F.add[digs[:, None, j], digs[None, :, j]] * weights[j]
    digit_acc = [np.zeros((S, S), dtype=np.int64) for _ in range(r)]
    for i in range(r):
        for j in range(r - i):
            term = F.mul[digs[:, None, i], digs[None, :, j]]
            digit_acc[i + j] = F.add[digit_acc[i + j], term]
    mul = np.zeros((S, S), dtype=np.int64)
    for d in range(r):
        mul += digit_acc[d] * weights[d]
    neg = (F.neg[digs] * weights).sum(axis=1)

    def reduction(r2):
        return (digs[:, :r2] * weights[:r2]).sum(axis=1)

    return add, mul, neg, digs[:, 0].copy(), np.arange(q, dtype=np.int64), reduction


def _convolution_mixed(p, k, r):
    """The same for GR(p^r, k): digits base p^r, convolved mod p^r and
    reduced by the monic lift of the field polynomial."""
    F = get_field(p, k)
    pr, S = p**r, p ** (k * r)
    fhat = [c % pr for c in F.poly]
    weights = pr ** np.arange(k, dtype=np.int64)
    digs = np.arange(S, dtype=np.int64)[:, None] // weights % pr
    add = np.zeros((S, S), dtype=np.int64)
    for i in range(k):
        add += ((digs[:, None, i] + digs[None, :, i]) % pr) * weights[i]
    conv = [
        sum(
            digs[:, None, i] * digs[None, :, d - i]
            for i in range(max(0, d - k + 1), min(k, d + 1))
        )
        % pr
        for d in range(2 * k - 1)
    ]
    for d in range(2 * k - 2, k - 1, -1):
        c = conv[d]
        for j in range(k):
            conv[d - k + j] = (conv[d - k + j] - c * fhat[j]) % pr
    mul = np.zeros((S, S), dtype=np.int64)
    for i in range(k):
        mul += conv[i] * weights[i]
    neg = (((-digs) % pr) * weights).sum(axis=1)
    residue = ((digs % p) * p ** np.arange(k, dtype=np.int64)).sum(axis=1)

    def reduction(r2):
        pr2 = p**r2
        return ((digs % pr2) * pr2 ** np.arange(k, dtype=np.int64)).sum(axis=1)

    return add, mul, neg, residue, F.digits @ weights, reduction


ORACLE_RINGS = [
    (p, k, r, mode)
    for p in range(2, 257)
    if is_prime(p)
    for k in range(1, 9)
    for r in range(1, 9)
    if p ** (k * r) <= 256
    for mode in ("equal", "mixed")
] + [(2, 5, 2, "mixed"), (2, 1, 10, "equal")]


@pytest.mark.parametrize("p,k,r,mode", ORACLE_RINGS, ids=lambda v: str(v))
def test_ring_tables_match_convolution_build(p, k, r, mode):
    """Every table and map of O_r, exhaustively, against the convolution
    builds; built outside the ring cache so the tables are freed after."""
    R = RingSpec(p, k, r, mode)
    build = _convolution_equal if mode == "equal" else _convolution_mixed
    add, mul, neg, residue, lift, reduction = build(p, k, r)
    assert (R.add == add).all() and (R.mul == mul).all() and (R.neg == neg).all()
    assert (R.residue == residue).all() and (R.lift == lift).all()
    inv = np.zeros(R.size, dtype=np.int64)
    rows, cols = np.nonzero(mul == 1)
    inv[rows] = cols
    inv[residue == 0] = 0
    assert (R.inv == inv).all()
    for r2 in range(1, r + 1):
        assert (R.reduction(r2)[1] == reduction(r2)).all()


@pytest.mark.parametrize("p,r", [(2, 2), (3, 3), (5, 2)])
def test_prime_galois_ring_shares_its_quotient_tables(p, r):
    """Z/p^r (mixed, k = 1) keeps one copy of its add and mul tables: the
    ring's are views of the quotient's."""
    R = RingSpec(p, 1, r, "mixed")
    assert np.shares_memory(R.add, R.quot.c_add) and np.shares_memory(R.mul, R.quot.c_mul)
    assert np.shares_memory(R.neg, R.quot.c_neg)
    x = np.arange(p**r, dtype=np.int64)
    assert (R.add == np.add.outer(x, x) % p**r).all()
    assert (R.mul == np.multiply.outer(x, x) % p**r).all()


def _closed_form_ext(X, x, y):
    """add, neg and mul of O'_r in the former closed forms."""
    S = X.base.size
    A, M, N = X.base.add, X.base.mul, X.base.neg
    a1, b1 = x % S, x // S
    a2, b2 = y % S, y // S
    bb = M[b1, b2]
    mul = A[M[a1, a2], N[M[bb, X.C]]] + A[A[M[a1, b2], M[b1, a2]], N[M[bb, X.B]]] * S
    return A[a1, a2] + A[b1, b2] * S, N[a1] + N[b1] * S, mul


@pytest.mark.parametrize("p,k,r,mode", ORACLE_RINGS[:-2], ids=lambda v: str(v))
def test_ext_arithmetic_matches_closed_forms(p, k, r, mode):
    X = make_ext(make_ring(p, k, r, mode))
    x, y = np.random.default_rng(X.size + r).integers(X.size, size=(2, 2000))
    add, neg, mul = _closed_form_ext(X, x, y)
    assert (X.add(x, y) == add).all() and (X.neg(x) == neg).all() and (X.mul(x, y) == mul).all()
    assert [int(X.add(x[0], y[0])), int(X.neg(x[0])), int(X.mul(x[0], y[0]))] == [add[0], neg[0], mul[0]]
