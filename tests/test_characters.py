import ast
import hashlib
import json
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dl2
from dl2.abelian import FiniteAbelianGroup
from dl2.characters import (
    CharacterTable,
    ClassFunction,
    VerificationError,
    adjunction_check,
    adjunction_defect,
    character_table,
    induce,
    inflate,
    inner_product,
    kernel_average,
    linear_character_from_det,
    restrict,
    steinberg,
    tensor_linear,
    trivial_character,
)
from dl2.cyclotomic import (
    _evaluation_matrices,
    matmul,
    phi,
    split_primes,
    substitute,
    zeta_bound,
    zeta_powers,
)
from dl2 import dixon
from dl2.dixon import _split_blocks
from dl2.groups import make_group
from dl2.modlinalg import (
    exact_matmul,
    inv_mod,
    matmul_mod,
    poly_roots,
    primitive_root,
    reduce_mod,
    rref,
)
from dl2.verifier import DEFAULT_MANIFEST
from test_modlinalg import krylov_relation, nullspace


def test_table_gl2_f2():
    tab = character_table(make_group(2, 1, 1, "equal", "gl"))
    assert sorted(int(d) for d in tab.degrees) == [1, 1, 2]
    tab.verify()


def test_table_gl2_f3():
    tab = character_table(make_group(3, 1, 1, "mixed", "gl"))
    assert len(tab) == 8
    assert int((tab.degrees.astype(object) ** 2).sum()) == 48
    tab.verify()


def test_table_sl2_f3_and_f5():
    t3 = character_table(make_group(3, 1, 1, "mixed", "sl"))
    assert sorted(int(d) for d in t3.degrees) == [1, 1, 1, 2, 2, 2, 3]
    t5 = character_table(make_group(5, 1, 1, "mixed", "sl"))
    assert sorted(int(d) for d in t5.degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    t5.verify()


def test_table_canonical_order():
    tab = character_table(make_group(3, 1, 1, "mixed", "gl"))
    degs = [int(d) for d in tab.degrees]
    assert degs == sorted(degs)
    assert all(ch.degree() == d for ch, d in zip(tab.chars, degs))
    # from any row order, the order of Python's sort on (degree, nested tuples)
    rng = np.random.default_rng(5)
    for c in [(3, 1, 2, "mixed", "gl"), (2, 2, 2, "mixed", "sl")]:
        tab = character_table(make_group(*c))
        perm = rng.permutation(len(tab))
        coeffs, degs = tab.coeffs[perm], tab.degrees[perm]
        want = sorted(
            range(len(degs)), key=lambda t: (int(degs[t]), tuple(map(tuple, coeffs[t].tolist())))
        )
        again = CharacterTable(tab.group, parts=(coeffs, tab.exponent, degs))
        assert (again.coeffs == coeffs[want]).all() and (again.degrees == degs[want]).all()
    # equal rows keep their input order, and rows that first differ in the
    # last coefficient are told apart there
    coeffs, degs = coeffs.copy(), degs.copy()
    coeffs[1], degs[1] = coeffs[0], degs[0]
    coeffs[3], degs[3] = coeffs[2], degs[2]
    coeffs[3, -1, -1] += 1
    want = sorted(range(len(degs)), key=lambda t: (int(degs[t]), tuple(coeffs[t].ravel().tolist())))
    again = CharacterTable(tab.group, parts=(coeffs, tab.exponent, degs))
    assert (again.coeffs == coeffs[want]).all() and (again.degrees == degs[want]).all()


def test_table_init_sorts_the_lift_in_place(monkeypatch):
    """Built from the lift, the table reorders the lift's tensor in place:
    its rows come out in the order of Python's sort on (degree, nested
    tuples) and no second tensor is allocated, even when rows first differ
    in their last class and some are equal throughout."""
    n, d = 200, 40
    rng = np.random.default_rng(7)
    coeffs = np.zeros((n, n, d), dtype=np.int64)
    coeffs[:, -1] = rng.integers(0, 2, size=(n, d))
    coeffs[1] = coeffs[0]
    degs = rng.integers(1, 3, size=n)
    degs[1] = degs[0]
    want = sorted(range(n), key=lambda t: (int(degs[t]), tuple(coeffs[t].ravel().tolist())))
    expect = coeffs[want]
    G = make_group(2, 1, 1, "mixed", "gl")
    monkeypatch.setattr(dl2.characters, "lift_table", lambda group: (coeffs, 1, degs, G.conjugacy()))
    tracemalloc.start()
    try:
        tab = CharacterTable(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.coeffs is coeffs
    assert (tab.coeffs == expect).all() and (tab.degrees == degs[want]).all()
    assert peak < coeffs.nbytes // 4


def test_orthonormality_of_irreducibles():
    tab = character_table(make_group(2, 1, 2, "mixed", "gl"))
    for i, chi in enumerate(tab.chars[:6]):
        for j, psi in enumerate(tab.chars[:6]):
            assert inner_product(chi, psi) == (1 if i == j else 0)


def test_inner_product_group_mismatch():
    a = trivial_character(make_group(2, 1, 1, "equal", "gl"))
    b = trivial_character(make_group(3, 1, 1, "equal", "gl"))
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_steinberg():
    for p, k, flavor, deg in [(2, 1, "gl", 2), (3, 1, "gl", 3), (3, 1, "sl", 3),
                              (2, 2, "gl", 4), (5, 1, "sl", 5)]:
        G = make_group(p, k, 1, "mixed", flavor)
        st = steinberg(G)
        assert st.degree() == deg
        assert inner_product(st, st) == 1
        assert character_table(G).find(st) is not None
    with pytest.raises(ValueError):
        steinberg(make_group(2, 1, 2, "mixed", "gl"))


def test_one_minus_steinberg_norm_two():
    G = make_group(3, 1, 1, "mixed", "gl")
    v = trivial_character(G) - steinberg(G)
    assert inner_product(v, v) == 2


def test_induction_from_borel():
    G = make_group(3, 1, 1, "mixed", "gl")
    B = G.borel_codes()
    ind = induce(G, B, np.ones((len(B), 1), dtype=np.int64), 1)
    assert ind.degree() == 4  # q + 1


def test_frobenius_reciprocity_exhaustive():
    G = make_group(2, 1, 1, "equal", "gl")
    tab = character_table(G)
    B = G.borel_codes()
    AB = FiniteAbelianGroup(B, G.space.mul, G.space.identity)
    for phi_ab in AB.dual():
        L = AB.exponent
        vals = zeta_powers(L)[[phi_ab.root_exp(int(c)) for c in B]]
        ind = induce(G, B, vals, L)
        for chi in tab.chars:
            E = lcm(L, chi.e)
            res = substitute(restrict(chi, B), chi.e, E, E // chi.e)
            f = substitute(vals, L, E, E // L)
            acc = matmul(f[None], substitute(res, E, E, -1)[:, None], E)[0, 0]
            assert not acc[1:].any()
            assert inner_product(ind, chi) == Fraction(int(acc[0]), len(B))


def _linear_characters_of_borel(G):
    """B, the positions of its codes, and every linear character of B as
    (L, exponent array aligned with B): the characters of B/[B, B], counted
    against [B, B] found by closing the commutators of B under products."""
    sp = G.space
    B = G.borel_codes()
    x, y = np.repeat(B, len(B)), np.tile(B, len(B))
    comm = set(sp.mul(sp.mul(sp.inv(x), sp.inv(y)), sp.mul(x, y)).tolist())
    while True:
        c = np.array(sorted(comm), dtype=np.int64)
        closed = comm | set(sp.mul(np.repeat(c, len(c)), np.tile(c, len(c))).tolist())
        if closed == comm:
            break
        comm = closed
    in_comm = np.isin(B, c)
    chars = []
    if G.ring.q == 2:  # B has order 2 and is abelian
        AB = FiniteAbelianGroup(B, sp.mul, sp.identity)
        chars = [(AB.exponent, np.array([t.root_exp(int(b)) for b in B])) for t in AB.dual()]
    else:  # B/[B, B] is the diagonal torus: t = alpha(a) beta(d)
        R = G.ring
        U = FiniteAbelianGroup(R.units(), lambda a, b: R.mul[a, b], R.one)
        a, _b, _c, d = sp.dec(B)
        betas = U.dual() if G.flavor == "gl" else [U.dual()[0]]
        for alpha in U.dual():
            for beta in betas:
                exps = [alpha.root_exp(int(u)) + beta.root_exp(int(v)) for u, v in zip(a, d)]
                chars.append((U.exponent, np.array(exps)))
    assert len(chars) == len(B) // len(c)
    pos = np.full(sp.N, -1, dtype=np.int64)
    pos[B] = np.arange(len(B))
    for L, exps in chars:
        # a homomorphism, trivial on [B, B]
        assert ((exps[pos[x]] + exps[pos[y]] - exps[pos[sp.mul(x, y)]]) % L == 0).all()
        assert (exps[in_comm] % L == 0).all()
    assert len({tuple(zeta_powers(L)[exps % L].ravel()) for L, exps in chars}) == len(chars)
    return B, pos, chars


@pytest.mark.parametrize("p,flavor", [(2, "gl"), (3, "gl"), (5, "sl")])
def test_induce_matches_sum_over_group(p, flavor):
    """Ind f(g) = (1/|H|) sum over x in G of f(x^-1 g x), f extended by 0,
    summed over coefficient rows with additions only."""
    G = make_group(p, 1, 1, "mixed", flavor)
    sp, cd = G.space, G.conjugacy()
    B, pos, chars = _linear_characters_of_borel(G)
    inv = sp.inv(G.codes)
    for L, exps in chars:
        vals = zeta_powers(L)[exps % L]
        ind = induce(G, B, vals, L)
        assert ind.e == L
        for k, g in enumerate(cd.reps):
            conjs = sp.mul(sp.mul(inv, np.int64(g)), G.codes)
            hits = pos[conjs][pos[conjs] >= 0]
            acc = vals[hits].sum(axis=0) if len(hits) else np.zeros(vals.shape[1], dtype=np.int64)
            assert (len(B) * ind.coeffs[k] == acc).all()


def test_induce_and_kernel_average_reject_non_integral_values():
    G = make_group(3, 1, 1, "mixed", "gl")
    B = G.borel_codes()
    unipotent = np.zeros((len(B), 1), dtype=np.int64)
    unipotent[np.flatnonzero(B != G.space.identity)[0]] = 1
    with pytest.raises(ValueError, match="not integral"):
        induce(G, B, unipotent, 1)  # delta at one element: not a class function of B
    H = make_group(2, 1, 2, "mixed", "gl")
    h = H.reduction(1)
    delta = np.zeros((H.conjugacy().n_classes, 1), dtype=np.int64)
    delta[0] = 1  # the identity class: its average over the kernel is 1/|N|
    with pytest.raises(ValueError, match="not integral"):
        kernel_average(ClassFunction(H, 1, delta), h)


def test_inflation():
    G = make_group(2, 1, 2, "mixed", "gl")
    h = G.reduction(1)
    tab1 = character_table(h.target)
    # trivial inflates to trivial, degrees preserved
    assert inflate(trivial_character(h.target), h) == trivial_character(G)
    for chi in tab1.chars:
        assert inflate(chi, h).degree() == chi.degree()
    # isometry on all pairs
    for chi in tab1.chars:
        for psi in tab1.chars:
            assert inner_product(inflate(chi, h), inflate(psi, h)) == inner_product(chi, psi)


def test_inflation_composes():
    G = make_group(2, 1, 3, "mixed", "gl")
    h31 = G.reduction(1)
    h32 = G.reduction(2)
    h21 = h32.target.reduction(1)
    tab1 = character_table(h31.target)
    for chi in tab1.chars:
        assert inflate(chi, h31) == inflate(inflate(chi, h21), h32)


def test_adjunction():
    G = make_group(2, 1, 2, "equal", "gl")
    h = G.reduction(1)
    tab1 = character_table(h.target)
    tabr = character_table(G)
    # psi an inflation: both sides reduce to a plain inner product
    for chi in tab1.chars:
        psi = inflate(tab1.chars[-1], h)
        assert adjunction_check(chi, psi, h)
        assert inner_product(chi, kernel_average(psi, h)) == inner_product(
            chi, tab1.chars[-1]
        )
    # random virtual characters
    rng = random.Random(0)
    for _ in range(10):
        coeffs = [rng.randint(-2, 2) for _ in tabr.chars]
        psi = trivial_character(G) - trivial_character(G)  # zero
        for c, ch in zip(coeffs, tabr.chars):
            if c:
                scaled = ch
                for _ in range(abs(c) - 1):
                    scaled = scaled + ch
                psi = psi + scaled if c > 0 else psi - scaled
        for chi in tab1.chars:
            assert adjunction_check(chi, psi, h)


@pytest.mark.parametrize("flavor", ["gl", "sl"])
@pytest.mark.parametrize("p,k,r", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
def test_adjunction_defect_matches_pairwise_check(p, k, r, flavor):
    for mode in ("mixed", "equal"):
        G = make_group(p, k, r, mode, flavor)
        high = character_table(G)
        for r2 in range(1, r):
            hom = G.reduction(r2)
            low = character_table(hom.target)
            D = adjunction_defect(hom)
            assert D.shape == (len(low), len(high))
            assert not D.any()
            for chi in low.chars:
                for psi in high.chars:
                    assert adjunction_check(chi, psi, hom)


def test_verify_rejects_corrupted_table_under_python_O():
    code = (
        "from dl2.characters import VerificationError, character_table\n"
        "from dl2.groups import make_group\n"
        "print(__debug__)\n"
        "tab = character_table(make_group(3, 1, 1, 'mixed', 'gl'))\n"
        "tab.verify()\n"
        "tab.coeffs[2, 1, 0] += 1\n"
        "try:\n"
        "    tab.verify()\n"
        "except VerificationError:\n"
        "    print('rejected')\n"
    )
    env = {"PYTHONPATH": str(Path(dl2.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert out.stdout.split() == ["False", "rejected"]


def test_verify_rejects_wrong_degrees():
    G = make_group(2, 1, 1, "equal", "gl")
    tab = character_table(G)
    degs = tab.degrees.copy()
    degs[-1] += 1
    with pytest.raises(VerificationError, match="degrees"):
        CharacterTable(G, parts=(tab.coeffs, tab.exponent, degs)).verify()


def test_verify_rejects_reversed_degrees():
    """Reversed, the degrees of GL2(F_3) keep their sum of squares, their
    count and their divisibility; only the values at the identity differ."""
    G = make_group(3, 1, 1, "mixed", "gl")
    tab = character_table(G)
    with pytest.raises(VerificationError, match="degrees are not the values at the identity"):
        CharacterTable(G, parts=(tab.coeffs, tab.exponent, tab.degrees[::-1].copy())).verify()


def galois_breaking_swap(tab):
    """The first table with two columns swapped whose classes have one size
    and are self-inverse, whose rows are not a permutation of the genuine
    rows, and which breaks Galois compatibility: (coeffs, (a, b))."""
    cd, n = tab.conjugacy, len(tab)
    rows = {row.tobytes() for row in tab.coeffs}
    pm = cd.power_map()
    for a in range(1, n):
        for b in range(a + 1, n):
            if cd.sizes[a] != cd.sizes[b] or cd.inverse_class[a] != a or cd.inverse_class[b] != b:
                continue
            C = tab.coeffs.copy()
            C[:, [a, b]] = C[:, [b, a]]
            # a column pm[a, m] != a holds a Galois conjugate that the swap
            # does not move along
            if {row.tobytes() for row in C} != rows and (pm[[a, b]] != np.array([[a], [b]])).any():
                return C, (a, b)
    raise AssertionError("no such swap")


def test_verify_rejects_column_swap_that_keeps_orthogonality():
    """SL2(Z/9): two same-size self-inverse classes swapped keep both
    orthogonality relations, which the CRT reference accepts, but break
    chi(g^m) = sigma_m(chi(g))."""
    tab = character_table(make_group(3, 1, 2, "mixed", "sl"))
    C, _ = galois_breaking_swap(tab)
    assert _verdict(_verify_orthogonality_by_matmul, C, tab.conjugacy, tab.group.order) == "accepted"
    with pytest.raises(VerificationError, match="not Galois-compatible"):
        CharacterTable(tab.group, parts=(C, tab.exponent, tab.degrees)).verify()


def _class_matrix_by_columns(group, cd, i):
    """The reference: one product and one count per column k."""
    sp = group.space
    n = cd.n_classes
    Xinv = sp.inv(cd.class_lists[i])
    M = np.zeros((n, n), dtype=np.int64)
    for k in range(n):
        y = sp.mul(Xinv, np.int64(cd.reps[k]))
        M[:, k] = np.bincount(cd.class_of[y], minlength=n)
    return M


@pytest.mark.parametrize("p, k, r, flavor", [(3, 1, 2, "gl"), (2, 1, 3, "gl"), (2, 1, 2, "sl")])
def test_class_matrix_matches_column_loop(p, k, r, flavor):
    G = make_group(p, k, r, "mixed", flavor)
    cd = G.conjugacy()
    for i in range(cd.n_classes):
        M = dixon.class_matrix(G, cd, i)
        assert M.dtype == np.int64
        assert (M == _class_matrix_by_columns(G, cd, i)).all()


def _rational_class_reps(cd):
    """The least class of each orbit of the power maps at the units mod e,
    ascending, the orbits read as sets of rows."""
    pm = cd.power_map()[:, dixon._unit_exponents(cd.exponent)]
    return sorted(min(orbit) for orbit in {frozenset(row) for row in pm.tolist()})


@pytest.mark.parametrize(
    "p, k, r, flavor, mode",
    [(3, 1, 2, "gl", "mixed"), (2, 1, 3, "gl", "equal"), (2, 2, 2, "sl", "mixed"), (3, 1, 1, "gl", "equal")],
)
def test_rational_class_matrices_match_direct_build(monkeypatch, p, k, r, flavor, mode):
    """`_class_algebra_elements` builds the class matrix of the first class
    of each rational class, once, and of no other class; each build is the
    column-by-column one."""
    G = make_group(p, k, r, mode, flavor)
    cd = G.conjugacy()
    built = []
    real = dixon.class_matrix
    monkeypatch.setattr(dixon, "class_matrix", lambda g, c, i: built.append((i, real(g, c, i))) or built[-1][1])
    dixon._class_algebra_elements(G, cd, dixon.dixon_prime(G.order, cd.exponent), random.Random(0), 2)
    assert [i for i, _ in built] == _rational_class_reps(cd)
    for i, M in built:
        assert M.dtype == np.int64 and (M == _class_matrix_by_columns(G, cd, i)).all()


@pytest.mark.parametrize("p, k, r, flavor, mode", DEFAULT_MANIFEST)
def test_class_matrices_are_permuted_by_the_power_maps(p, k, r, flavor, mode):
    """M_(pi_m i)[pi_m a, pi_m b] = M_i[a, b] for every class i and unit m
    mod e: the rationality of the structure constants that lets one class
    per rational class stand for its orbit."""
    G = make_group(p, k, r, mode, flavor)
    cd = G.conjugacy()
    Ms = [dixon.class_matrix(G, cd, i) for i in range(cd.n_classes)]
    pm = cd.power_map()[:, dixon._unit_exponents(cd.exponent)]
    for pi in {tuple(col) for col in pm.T.tolist()}:
        pi = np.array(pi)
        for i, M in enumerate(Ms):
            assert (Ms[pi[i]][np.ix_(pi, pi)] == M).all()


def test_rational_class_matrices_cut_the_builds_on_gl2_z9(monkeypatch):
    G = make_group(3, 1, 2, "mixed", "gl")
    calls = []
    real = dixon.class_matrix
    monkeypatch.setattr(dixon, "class_matrix", lambda g, c, i: calls.append(i) or real(g, c, i))
    dixon.character_table_mod_l(G)
    assert (len(calls), G.conjugacy().n_classes) == (41, 78)


def _krylov_chain(W0, op, l, terms):
    """The reference: op^a w for a < terms, one product per power."""
    W = [W0]
    for _ in range(1, terms):
        W.append(matmul_mod(W[-1], op.T.astype(np.float64), l))
    return np.array(W)


@pytest.mark.parametrize("d, batch", [(1, 1), (2, 3), (5, 2), (8, 8), (13, 4), (16, 1), (17, 5)])
def test_doubled_krylov_powers_and_sequences_match_the_chain(d, batch):
    l = 1201
    rng = np.random.default_rng(d * 100 + batch)
    op = rng.integers(0, l, size=(d, d))
    W = np.empty((d + 1, batch, d))
    W[0] = rng.integers(0, l, size=(batch, d))
    chain = _krylov_chain(W[0], op, l, 2 * d)
    shifts = dixon._krylov_powers(W, op.T.astype(np.float64), l)
    assert (W == chain[: d + 1]).all()
    assert all((d + 1) / 2 < h < 2 * d for h in shifts) and len(shifts) <= 2
    U = rng.integers(0, l, size=(3, batch, d)).astype(np.float64)
    want = np.einsum("awc,uwc->au", chain.astype(object), U.astype(np.int64).astype(object)) % l
    assert (dixon._krylov_sequences(W, U, shifts, l) == want.astype(np.float64)).all()


def test_row_spaces_match_rref_on_stacks_of_every_rank():
    l = 101
    rng = np.random.default_rng(5)
    for trial in range(40):
        k, rows, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 7)
        X = np.zeros((k, rows, d), dtype=np.int64)
        for j in range(k):
            rank = rng.integers(0, min(rows, d) + 1)
            if rank:
                X[j] = rng.integers(0, l, size=(rows, rank)) @ rng.integers(0, l, size=(rank, d)) % l
        # a rank-one slice whose leading row is zero, and an all-zero one
        X[0] = 0
        if rows > 1:
            X[-1] = 0
            X[-1, 1:] = rng.integers(0, l, size=(rows - 1, 1)) * rng.integers(0, l, size=d) % l
        got = dixon._row_spaces(X if trial % 2 else X.astype(np.float64), l)
        assert len(got) == k
        for (R, piv), x in zip(got, X):
            R_ref, piv_ref = rref(x, l)
            assert piv == piv_ref and R.dtype == np.int64 and R.shape == R_ref.shape
            assert (R == R_ref).all()


def test_eigenspaces_refuse_a_hidden_jordan_block():
    """A 2 x 2 Jordan block among simple eigenvalues, conjugated: every
    root is in F_l, but a minimal polynomial with the double root 3 or a
    dimension count that never closes refuses it."""
    l = 101
    rng = np.random.default_rng(11)
    J = np.diag([3, 3, 5, 7, 20, 40, 60]).astype(np.int64)
    J[0, 1] = 1
    while True:
        P = rng.integers(0, l, size=(7, 7))
        if len(rref(P, l)[1]) == 7:
            break
    Pinv = rref(np.hstack([P, np.eye(7, dtype=np.int64)]), l)[0][:, 7:]
    with pytest.raises(VerificationError, match="operator not split"):
        dixon._eigenspaces(P @ J % l @ Pinv % l, l, random.Random(0))


def test_split_blocks_guards_int64_overflow():
    l = 2**31 - 1  # prime; 3 * (l - 1)^2 >= 2^63
    eye = np.eye(3, dtype=np.int64)
    with pytest.raises(OverflowError):
        _split_blocks([(eye, [0, 1, 2])], eye, l)
    assert len(_split_blocks([(eye, [0, 1, 2])], eye, 541)) == 1


def _check_eigenblocks(blocks, M, l):
    """Every block (B, cols) is the identity at cols and an eigenspace of M."""
    for B, cols in blocks:
        assert (B[:, cols] == np.eye(len(cols), dtype=np.int64)).all()
        BM = B @ M.T % l
        lam = int(BM[0, cols[0]])  # B[0, cols[0]] = 1
        assert (BM == lam * B % l).all()


def test_split_blocks_gathers_roots_over_start_vectors():
    # e_0 is an eigenvector of diag(1, 2, 3): its Krylov relation is x - 1
    # alone, so the other eigenvalues come from e_1 and e_2
    l = 541
    M = np.diag([1, 2, 3]).astype(np.int64)
    out = _split_blocks([(np.eye(3, dtype=np.int64), [0, 1, 2])], M, l)
    assert sorted(cols for _B, cols in out) == [[0], [1], [2]]
    _check_eigenblocks(out, M, l)


@pytest.mark.parametrize("p, r, flavor", [(3, 1, "gl"), (2, 2, "sl")])
def test_split_blocks_yields_eigenblocks_of_class_matrices(p, r, flavor):
    G = make_group(p, 1, r, "mixed", flavor)
    cd = G.conjugacy()
    l = dixon.dixon_prime(G.order, cd.exponent)
    n = cd.n_classes
    blocks = [(np.eye(n, dtype=np.int64), list(range(n)))]
    for i in range(1, n):
        M = dixon.class_matrix(G, cd, i) % l
        blocks = _split_blocks(blocks, M, l)
        _check_eigenblocks(blocks, M, l)
    assert len(blocks) == n and all(B.shape[0] == 1 for B, _ in blocks)


def _split_blocks_per_block(blocks, M, l):
    """The former `_split_blocks`: one product and one Krylov pass per block."""
    Mt = M.T.astype(np.float64)
    out = []
    for B, cols in blocks:
        d = B.shape[0]
        if d == 1:
            out.append((B, cols))
            continue
        Y = matmul_mod(B, Mt, l).astype(np.int64)
        R = Y[:, cols]
        if not (matmul_mod(R, B, l) == Y).all():
            raise VerificationError("block not invariant")
        op = R.T
        eye = np.eye(d, dtype=np.int64)
        spaces = {}
        for start in range(d):
            for lam in poly_roots(krylov_relation(op, eye[start], l), l):
                if lam not in spaces:
                    spaces[lam] = nullspace((op - lam * eye) % l, l)
            if sum(len(free) for _, free in spaces.values()) == d:
                break
        else:
            raise VerificationError("operator not split")
        for N, free in spaces.values():
            out.append((matmul_mod(N, B, l), [cols[f] for f in free]))
    return out


def _assert_same_blocks(got, want, l):
    """The same row spaces, in any order: equal reduced row echelon forms,
    and each block the identity at its columns."""
    def spaces(blocks):
        for B, cols in blocks:
            assert B.dtype == np.int64 and (B[:, cols] == np.eye(len(cols), dtype=np.int64)).all()
        return sorted((tuple(piv), R.tobytes()) for R, piv in (rref(B, l) for B, _ in blocks))

    assert len(got) == len(want)
    assert spaces(got) == spaces(want)


@pytest.mark.parametrize(
    "p, r, mode, flavor", [(3, 2, "mixed", "gl"), (2, 3, "equal", "gl"), (5, 2, "mixed", "sl")]
)
def test_split_blocks_matches_per_block_loop(p, r, mode, flavor):
    G = make_group(p, 1, r, mode, flavor)
    cd = G.conjugacy()
    l = dixon.dixon_prime(G.order, cd.exponent)
    n = cd.n_classes
    blocks = [(np.eye(n, dtype=np.int64), list(range(n)))]
    for i in sorted(range(1, n), key=lambda i: (int(cd.sizes[i]), i)):
        if all(B.shape[0] == 1 for B, _ in blocks):
            break
        M = dixon.class_matrix(G, cd, i) % l
        new = _split_blocks(blocks, M, l)
        _assert_same_blocks(new, _split_blocks_per_block(blocks, M, l), l)
        blocks = new
    assert len(blocks) == n


def test_split_blocks_takes_no_product_with_the_identity_block(monkeypatch):
    """Before the first split the only block is S = I: Y = M^T, the
    invariance check and N S = N need no product with it, and the blocks
    are still those of the per-block loop."""
    G = make_group(3, 1, 2, "mixed", "gl")
    cd = G.conjugacy()
    l, n = dixon.dixon_prime(G.order, cd.exponent), cd.n_classes
    M = dixon.class_matrix(G, cd, 1) % l
    eye, with_eye, real = np.eye(n, dtype=np.int64), [], dixon.matmul_mod
    monkeypatch.setattr(
        dixon, "matmul_mod",
        lambda A, B, l: with_eye.append(any(X.shape == eye.shape and (X == eye).all() for X in (A, B))) or real(A, B, l),
    )
    blocks = [(eye, list(range(n)))]
    out = _split_blocks(blocks, M, l)
    assert len(out) > 1 and with_eye and not any(with_eye)
    _assert_same_blocks(out, _split_blocks_per_block(blocks, M, l), l)


def test_split_blocks_rejects_block_that_is_not_invariant():
    # span(e_0 + e_2, e_1) under diag(1, 2, 3): e_0 + e_2 -> e_0 + 3 e_2
    M = np.diag([1, 2, 3]).astype(np.int64)
    B = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int64)
    with pytest.raises(VerificationError, match="block not invariant"):
        _split_blocks([(B, [0, 1])], M, 541)


def test_split_blocks_splits_invariant_block_with_two_eigenvalues():
    # each row is an eigenvector, so each passes its own scalar test, but
    # with eigenvalues 3 and 2: the block is not scalar and must split
    l = 541
    M = np.array([[3, 0, 0], [8, 1, 0], [0, 0, 2]], dtype=np.int64)
    B = np.array([[1, 4, 0], [0, 0, 1]], dtype=np.int64)  # B M^T = diag(3, 2) B
    blocks = [(np.eye(3, dtype=np.int64)[[1]], [1]), (B, [0, 2])]
    out = _split_blocks(blocks, M, l)
    _assert_same_blocks(out, _split_blocks_per_block(blocks, M, l), l)
    assert sorted(cols for _, cols in out) == [[0], [1], [2]]
    _check_eigenblocks(out, M, l)


def _two_moving_blocks():
    """M on F_l^5, block-diagonal on the coordinates {0, 1}, {2, 3} and
    {4}, with eigenvalues 3, 5 on the first and 9, 3 on the second (neither
    a diagonal block), and those three blocks: the first two both move, and
    share the eigenvalue 3."""
    M = np.zeros((5, 5), dtype=np.int64)
    M[:2, :2] = [[3, 1], [0, 5]]
    M[2:4, 2:4] = [[9, 0], [7, 3]]
    M[4, 4] = 4
    eye = np.eye(5, dtype=np.int64)
    return M, [(eye[[0, 1]], [0, 1]), (eye[[2, 3]], [2, 3]), (eye[[4]], [4])]


def test_split_blocks_splits_two_blocks_that_share_an_eigenvalue(monkeypatch):
    """One eigen-solve on diag(R_1, R_2) finds the eigenvalue 3 in both
    blocks, a two-dimensional eigenspace whose rows go back to their own
    blocks by pivot: the blocks the per-block loop gives, in block order."""
    l = 541
    M, blocks = _two_moving_blocks()
    calls = []
    real = dixon._eigenspaces
    monkeypatch.setattr(dixon, "_eigenspaces", lambda op, *a: calls.append(len(op)) or real(op, *a))
    out = _split_blocks(blocks, M, l)
    assert calls == [4]
    _assert_same_blocks(out, _split_blocks_per_block(blocks, M, l), l)
    # each block's pieces in its place, on its own coordinates
    coords = [{0, 1}] * 2 + [{2, 3}] * 2 + [{4}]
    assert len(out) == 5 and all(set(np.flatnonzero(B.any(axis=0))) <= c for (B, _), c in zip(out, coords))
    _check_eigenblocks(out, M, l)


def test_split_blocks_rejects_one_block_that_is_not_invariant():
    # span(e_2, e_4) moves under M but is not invariant (M e_2 has an e_3
    # part), beside the invariant moving block span(e_0, e_1)
    M, blocks = _two_moving_blocks()
    eye = np.eye(5, dtype=np.int64)
    with pytest.raises(VerificationError, match="block not invariant"):
        _split_blocks([blocks[0], (eye[[2, 4]], [2, 4]), (eye[[3]], [3])], M, 541)


def test_split_blocks_rejects_operator_that_does_not_split():
    # a Jordan block: eigenvalue 1 alone, with a one-dimensional eigenspace
    M = np.array([[1, 1], [0, 1]], dtype=np.int64)
    with pytest.raises(VerificationError, match="operator not split"):
        _split_blocks([(np.eye(2, dtype=np.int64), [0, 1])], M, 541)


def test_mod_l_table_rejects_class_matrices_that_are_scalars(monkeypatch):
    # every block passes the scalar test unchanged, so none ever splits
    G = make_group(2, 1, 1, "equal", "gl")
    monkeypatch.setattr(dixon, "class_matrix", lambda g, cd, i: np.eye(cd.n_classes, dtype=np.int64))
    with pytest.raises(VerificationError, match="table did not split"):
        dixon.character_table_mod_l(G)


def test_mod_l_table_calls_krylov_only_on_blocks_that_split(monkeypatch):
    """The Krylov search runs only on blocks that are not scalar, and each
    run splits its block, so there are fewer runs than classes."""
    G = make_group(3, 1, 2, "mixed", "gl")
    calls = []
    real = dixon._eigenspaces
    monkeypatch.setattr(dixon, "_eigenspaces", lambda *a: calls.append(1) or real(*a))
    dixon.character_table_mod_l(G)
    assert 0 < len(calls) < G.conjugacy().n_classes


def test_mod_l_table_is_deterministic():
    """The seeded elements and start vectors give the same blocks, hence
    the same rows in the same order, on every call."""
    G = make_group(2, 1, 3, "equal", "gl")
    first, again = dixon.character_table_mod_l(G), dixon.character_table_mod_l(G)
    assert first[0].tobytes() == again[0].tobytes() and (first[1] == again[1]).all()
    cd = G.conjugacy()
    M = dixon.class_matrix(G, cd, 5) % first[2]
    blocks = [(np.eye(cd.n_classes, dtype=np.int64), list(range(cd.n_classes)))]
    one, two = (_split_blocks(blocks, M, first[2]) for _ in range(2))
    assert [c for _, c in one] == [c for _, c in two]
    assert all(B.tobytes() == B2.tobytes() for (B, _), (B2, _) in zip(one, two))


def test_class_matrices_one_at_a_time_split_what_the_elements_leave(monkeypatch):
    """With no seeded elements every block is left to the class matrices
    one at a time, which still give the same table rows."""
    G = make_group(3, 1, 2, "mixed", "sl")
    Xl, degrees, l, cd = dixon.character_table_mod_l(G)
    monkeypatch.setattr(dixon, "_WEIGHTS", 0)
    Xl0, degrees0, l0, _ = dixon.character_table_mod_l(G)
    assert l0 == l and sorted(map(bytes, Xl0)) == sorted(map(bytes, Xl))


@pytest.mark.parametrize("p, r, mode, flavor", [(3, 2, "mixed", "gl"), (2, 1, "equal", "gl")])
def test_class_algebra_elements_are_weighted_sums_of_class_matrices(p, r, mode, flavor):
    """Each element is sum_i c_i M_i over the first class i of each rational
    class, with the seeded weights in that order, exactly."""
    G = make_group(p, 1, r, mode, flavor)
    cd = G.conjugacy()
    l = dixon.dixon_prime(G.order, cd.exponent)
    got = dixon._class_algebra_elements(G, cd, l, random.Random(7), 3)
    reps = _rational_class_reps(cd)
    weights = dixon._draw(random.Random(7), (3, len(reps)), l).astype(np.int64)
    for A, c in zip(got, weights):
        want = sum(int(ci) * _class_matrix_by_columns(G, cd, i) for i, ci in zip(reps, c)) % l
        assert A.dtype == np.int64 and (A == want).all()


def test_eigenspaces_fill_eigenspaces_of_every_dimension():
    """A diagonalisable operator with an eigenvalue of multiplicity 5, more
    than the first rounds' start vectors, conjugated to hide its basis."""
    l = 101
    rng = np.random.default_rng(3)
    diag = np.array([4] * 5 + [9, 9, 17, 50], dtype=np.int64)
    while True:
        P = rng.integers(0, l, size=(9, 9))
        R, piv = rref(P, l)
        if len(piv) == 9:
            break
    Pinv = rref(np.hstack([P, np.eye(9, dtype=np.int64)]), l)[0][:, 9:]
    op = P @ np.diag(diag) % l @ Pinv % l
    spaces = dixon._eigenspaces(op, l, random.Random(0))
    assert [len(N) for N, _ in spaces] == [5, 2, 1, 1]
    for (N, piv), lam in zip(spaces, [4, 9, 17, 50]):
        assert (N[:, piv] == np.eye(len(piv), dtype=np.int64)).all()
        assert not ((op - lam * np.eye(9, dtype=np.int64)) @ N.T % l).any()


def test_eigenspaces_refuse_an_eigenvalue_outside_the_field():
    # x^2 + 1 has no root mod 103 (103 = 3 mod 4)
    with pytest.raises(VerificationError, match="operator not split"):
        dixon._eigenspaces(np.array([[0, 102], [1, 0]], dtype=np.int64), 103, random.Random(0))


def test_lift_table_guards_int64_overflow(monkeypatch):
    G = make_group(2, 1, 1, "equal", "gl")
    Xl, degrees, _l, cd = dixon.character_table_mod_l(G)
    l = 2**31 - 1  # prime, = 1 (mod 6); phi(6) (l - 1)^2 >= 2^53 for the exponent e = 6
    monkeypatch.setattr(dixon, "character_table_mod_l", lambda group: (Xl, degrees, l, cd))
    with pytest.raises(OverflowError):
        dixon.lift_table(G)


def test_lift_table_by_row_blocks_matches_one_block(monkeypatch):
    G = make_group(3, 1, 2, "mixed", "gl")
    monkeypatch.setattr(dixon, "_BLOCK_BYTES", 2**40)  # all rows t in one block
    whole = dixon.lift_table(G)[0]
    monkeypatch.setattr(dixon, "_BLOCK_BYTES", 1)  # one row t per block
    assert (dixon.lift_table(G)[0] == whole).all()


def test_lift_table_memory_is_not_quadratic_in_the_exponent():
    """SL2(F_13) has e = 1092, phi(e) = 288 and a 0.64 MiB table; once the
    caches are filled by a first call, the lift's peak stays within six
    tables.  The multiplicity lift, with its (n^2, e) sums and e x e
    inverse Fourier blocks, peaked at 17 tables."""
    G = make_group(13, 1, 1, "mixed", "sl")
    cd = G.conjugacy()
    e = cd.exponent
    assert e == 1092
    dixon.lift_table(G)
    tracemalloc.start()
    try:
        dixon.lift_table(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * cd.n_classes**2 * phi(e) * 8


def _lift_table_by_multiplicities(group):
    """The former `lift_table`: the multiplicity of each e-th root w^a as an
    eigenvalue of z_k, by the inverse Fourier sum over its power orbit, then
    the exact product of the multiplicities with `zeta_powers`."""
    Xl, degrees, l, cd = dixon.character_table_mod_l(group)
    n, e = cd.n_classes, cd.exponent
    w = pow(primitive_root(l), (l - 1) // e, l)
    einv = inv_mod(e, l)
    zinv = np.array([pow(w, -m, l) * einv % l for m in range(e)], dtype=np.float64)
    a = np.arange(e)
    # mult[t k, a] = (1/e) sum_i chi_t(z_k^i) w^(-a i)
    W = Xl.astype(np.float64)[:, cd.power_map()].reshape(n * n, e)
    mult = matmul_mod(W, zinv[np.multiply.outer(a, a) % e], l)
    assert (mult.reshape(n, n, e).sum(axis=2) == degrees[:, None]).all()
    coeffs = exact_matmul(mult, zeta_powers(e), int(degrees.max()), zeta_bound(e))
    return coeffs.astype(np.int64).reshape(n, n, phi(e)), e, degrees, cd


@pytest.mark.parametrize(
    "p, r, mode, flavor",
    [
        (3, 2, "mixed", "gl"),  # GL2(Z/9)
        (2, 3, "equal", "gl"),  # GL2(F_2[t]/t^3)
        (5, 2, "mixed", "sl"),
        (13, 1, "mixed", "sl"),  # e = 1092, max|zeta_powers(e)| = 2
        (17, 1, "mixed", "sl"),  # e = 2448
    ],
)
def test_lift_table_matches_multiplicity_lift(monkeypatch, p, r, mode, flavor):
    """Reading the values at the primitive roots off the power map and
    interpolating gives the multiplicity lift's tensor, unsorted."""
    G = make_group(p, 1, r, mode, flavor)
    mod_l = dixon.character_table_mod_l(G)
    monkeypatch.setattr(dixon, "character_table_mod_l", lambda group: mod_l)
    coeffs, e, degrees, cd = dixon.lift_table(G)
    ref, e_ref, degrees_ref, cd_ref = _lift_table_by_multiplicities(G)
    assert coeffs.dtype == ref.dtype and coeffs.shape == ref.shape
    assert (coeffs == ref).all()
    assert e == e_ref and (degrees == degrees_ref).all() and cd is cd_ref


def test_lift_table_refuses_a_prime_too_small_for_the_degrees(monkeypatch):
    """Coefficients up to deg z in absolute value are their symmetric residues
    only when 2 max(deg) z < l; at SL2(F_13), z = 2 and l = 1093."""
    G = make_group(13, 1, 1, "mixed", "sl")
    Xl, degrees, l, cd = dixon.character_table_mod_l(G)
    assert (l, l % cd.exponent, zeta_bound(cd.exponent)) == (1093, 1, 2)
    for top, refused in [(273, False), (274, True)]:  # 4 * 273 < 1093 <= 4 * 274
        claimed = degrees.copy()
        claimed[-1] = top
        monkeypatch.setattr(dixon, "character_table_mod_l", lambda group: (Xl, claimed, l, cd))
        if refused:
            with pytest.raises(VerificationError, match="too small"):
                dixon.lift_table(G)
        else:
            dixon.lift_table(G)


def test_dixon_prime_clears_the_coefficient_bound():
    G = make_group(13, 1, 1, "mixed", "sl")
    e = G.conjugacy().exponent
    assert dixon.dixon_prime(G.order, e) > 2 * isqrt(G.order) * 2
    # e = 105 has z = 2: the bound 2 * 110 * 2 = 440 passes the prime 421 = 4 * 105 + 1
    assert zeta_bound(105) == 2
    assert dixon.dixon_prime(110**2, 105) == 631


def test_verify_rejects_table_beyond_int64_bound():
    tab = character_table(make_group(2, 1, 1, "equal", "gl"))
    coeffs = tab.coeffs.copy()
    coeffs[0, 0, 0] = 2**40
    with pytest.raises(VerificationError, match="overflow"):
        CharacterTable(tab.group, parts=(coeffs, tab.exponent, tab.degrees)).verify()


def _verify_orthogonality_by_matmul(coeffs, cd, order):
    """The reference: both relations as `cyclotomic.matmul` products rebuilt
    by CRT, compared coefficientwise with their targets."""
    n = coeffs.shape[0]
    inv = coeffs[:, cd.inverse_class, :]
    w = cd.sizes.astype(np.int64)
    for X, Y, target in (
        (coeffs * w[None, :, None], inv.transpose(1, 0, 2), order * np.eye(n, dtype=np.int64)),
        (coeffs.transpose(1, 0, 2), inv, np.diag(cd.centralizer_orders.astype(np.int64))),
    ):
        try:
            P = matmul(X, Y, cd.exponent)
        except OverflowError as exc:
            raise VerificationError(str(exc)) from exc
        if not (P[:, :, 0] == target).all():
            raise VerificationError("orthogonality failed (constant term)")
        if P[:, :, 1:].any():
            raise VerificationError("orthogonality failed (irrational part)")


def _verdict(check, coeffs, cd, order):
    try:
        check(coeffs, cd, order)
    except VerificationError as exc:
        return str(exc)
    return "accepted"


def _assert_same_verdict(tab, what, coeffs, cd, want):
    """Accepted or rejected as the reference decided; with the same message
    unless either side refused the table at its int64 guard, whose bounds
    differ (the reference bounds each relation on its own)."""
    got = _verdict(dixon.verify_orthogonality, coeffs, cd, tab.group.order)
    assert (got == "accepted") == (want == "accepted"), what
    if "overflow" not in got + want:
        assert got == want, what


def _mutations(tab):
    """The table, then each corruption: +-1 at coefficient 0, +-1 at an
    irrational coefficient (when there is one), a row copied over another,
    one class size changed, one centralizer order changed (which only the
    second relation sees), and + l at coefficient 0 for the first prime l
    that the check at the roots uses (which only a later prime sees)."""
    cd, coeffs = tab.conjugacy, tab.coeffs
    n, _, d = coeffs.shape
    rng = random.Random(n * 1000 + d)
    yield "table", coeffs, cd
    for a in [0] + ([rng.randrange(1, d)] if d > 1 else []):
        for sign in (1, -1):
            bad = coeffs.copy()
            bad[rng.randrange(n), rng.randrange(n), a] += sign
            yield f"coefficient {a} {sign:+d}", bad, cd
    bad = coeffs.copy()
    src, dst = rng.sample(range(n), 2)
    bad[dst] = bad[src]
    yield "row copied", bad, cd
    for field in ("sizes", "centralizer_orders"):
        fields = {
            f: getattr(cd, f) for f in ("sizes", "inverse_class", "centralizer_orders", "exponent", "power_map")
        }
        fields[field] = fields[field].copy()
        fields[field][rng.randrange(n)] += 1
        yield f"one of {field}", coeffs, SimpleNamespace(**fields)
    bad = coeffs.copy()
    bad[rng.randrange(n), rng.randrange(n), 0] += split_primes(cd.exponent, max(n, d), 1)[0]
    yield "+ l at coefficient 0", bad, cd


ORACLE_CASES = [
    (p, k, r, mode, flavor)
    for (p, k, r) in [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)]
    for mode in ("mixed", "equal")
    for flavor in ("gl", "sl")
]


@pytest.mark.parametrize("p, k, r, mode, flavor", ORACLE_CASES)
def test_verify_at_roots_agrees_with_crt_products(p, k, r, mode, flavor):
    """On each manifest table (GL2(GR(4,2)) mixed is p, k, r = 2, 2, 2) and
    its corruptions, the check at the roots accepts exactly when the two
    CRT-rebuilt products do, with the same message."""
    tab = character_table(make_group(p, k, r, mode, flavor))
    for what, coeffs, cd in _mutations(tab):
        want = _verdict(_verify_orthogonality_by_matmul, coeffs, cd, tab.group.order)
        assert (want == "accepted") == (what == "table"), what
        _assert_same_verdict(tab, what, coeffs, cd, want)


def test_verify_at_roots_rejects_residual_divisible_by_the_first_prime():
    """Adding the first prime l to a coefficient leaves every relation
    unchanged mod l, so only the next prime rejects it, and the product of
    the primes, not the int64 guard, decides."""
    tab = character_table(make_group(2, 1, 1, "mixed", "gl"))
    cd = tab.conjugacy
    n, _, d = tab.coeffs.shape
    bad = tab.coeffs.copy()
    bad[-1, -1, 0] += split_primes(cd.exponent, max(n, d), 1)[0]
    with pytest.raises(VerificationError, match="constant term"):
        dixon.verify_orthogonality(bad, cd, tab.group.order)


@pytest.mark.parametrize("p, k, r, mode, flavor", [(2, 2, 2, "mixed", "gl"), (3, 1, 2, "mixed", "sl")])
def test_verify_at_roots_one_root_per_block(monkeypatch, p, k, r, mode, flavor):
    """With a budget below one root's values, every block is a single root,
    and the verdicts stay those of the CRT-rebuilt products."""
    monkeypatch.setattr(dixon, "_BLOCK_BYTES", 1)
    tab = character_table(make_group(p, k, r, mode, flavor))
    for what, coeffs, cd in _mutations(tab):
        want = _verdict(_verify_orthogonality_by_matmul, coeffs, cd, tab.group.order)
        _assert_same_verdict(tab, what, coeffs, cd, want)


def _verify_orthogonality_at_all_roots(coeffs, cd, order):
    """The former `verify_orthogonality`: both relations at every primitive
    root of every prime, from R, a float64 copy of all the coefficient
    residues."""
    n, _, d = coeffs.shape
    e = cd.exponent
    x = max(int(coeffs.max(initial=0)), -int(coeffs.min(initial=0)))
    bound = (2 * d - 1) * zeta_bound(e) * d * n * x * x * int(cd.sizes.max())
    if bound >= 2**63:
        raise VerificationError(f"int64 overflow risk: Z[zeta_{e}] product bound {bound} >= 2^63")
    try:
        primes = split_primes(e, max(n, d), bound + order)
    except OverflowError as exc:
        raise VerificationError(str(exc)) from exc
    for l in primes:
        V, Vinv = _evaluation_matrices(e, l)
        R = reduce_mod(coeffs.reshape(n * n, d), l)
        vals = matmul_mod(V.T, R.T, l).reshape(d, n, n)
        conj = vals[:, :, cd.inverse_class]
        P1 = matmul_mod(reduce_mod(vals * (cd.sizes % l), l), conj.transpose(0, 2, 1), l)
        P2 = matmul_mod(vals.transpose(0, 2, 1), conj, l)
        for which, (P, t) in enumerate(((P1, order % l), (P2, cd.centralizer_orders % l))):
            P.reshape(d, n * n)[:, :: n + 1] -= t
            if P.any():
                c0 = np.tensordot(Vinv[:, 0], P % l, axes=1)
                part = "constant term" if (c0 % l).any() else "irrational part"
                raise VerificationError(f"orthogonality failed ({part})")


@pytest.mark.parametrize(
    "p, k, r, mode, flavor", [(2, 2, 2, "mixed", "gl"), (3, 1, 2, "mixed", "sl"), (2, 1, 3, "equal", "gl")]
)
def test_verify_agrees_with_the_check_at_all_roots(monkeypatch, p, k, r, mode, flavor):
    """A genuine table is accepted by the two products per prime at r_0
    alone, never reaching the check at every root; each corruption gets
    the verdict and message of the former check at every root."""
    tab = character_table(make_group(p, k, r, mode, flavor))
    for what, coeffs, cd in _mutations(tab):
        want = _verdict(_verify_orthogonality_at_all_roots, coeffs, cd, tab.group.order)
        assert _verdict(dixon.verify_orthogonality, coeffs, cd, tab.group.order) == want, what

    def unreachable(*args):
        raise AssertionError("checked at every root")

    monkeypatch.setattr(dixon, "_relation_residues", unreachable)
    dixon.verify_orthogonality(tab.coeffs, tab.conjugacy, tab.group.order)


def test_tensor_linear_permutes_table():
    G = make_group(2, 1, 2, "mixed", "gl")
    tab = character_table(G)
    R = G.ring
    U = FiniteAbelianGroup(R.units(), lambda a, b: R.mul[a, b], R.one)
    for alpha in U.dual():
        seen = set()
        for chi in tab.chars:
            tw = tensor_linear(chi, alpha)
            assert tw.degree() == chi.degree()
            idx = tab.find(tw)
            assert idx is not None
            seen.add(idx)
        assert len(seen) == len(tab.chars)
    # trivial alpha leaves characters unchanged
    triv = U.dual()[0]  # the trivial character
    for chi in tab.chars[:4]:
        assert tensor_linear(chi, triv) == chi


def test_linear_character_from_det():
    G = make_group(3, 1, 1, "mixed", "gl")
    R = G.ring
    U = FiniteAbelianGroup(R.units(), lambda a, b: R.mul[a, b], R.one)
    tab = character_table(G)
    for alpha in U.dual():
        lin = linear_character_from_det(G, alpha)
        assert lin.degree() == 1
        assert tab.find(lin) is not None


def test_table_dumps():
    tab = character_table(make_group(2, 1, 1, "equal", "gl"))
    tsv = tab.to_tsv()
    assert tsv.startswith("rep_index\tclass_size")
    assert len(tsv.strip().split("\n")) == 1 + 3
    d = tab.to_json_dict()
    assert d["format"] == "dl2-table/1"
    assert len(d["characters"]) == 3


@pytest.mark.parametrize("p,r,flavor", [(3, 1, "gl"), (5, 1, "sl"), (2, 2, "gl")])
def test_table_tsv_matches_golden_dump(p, r, flavor):
    """The TSV dump, irrational values included, is byte for byte the
    recorded one."""
    golden = Path(__file__).parent / "data" / f"table-p{p}k1r{r}-mixed-{flavor}.tsv"
    tab = character_table(make_group(p, 1, r, "mixed", flavor))
    assert tab.to_tsv() == golden.read_text()


def test_tables_match_golden_digests():
    """Each manifest table, plus SL2 (5,1,2), (2,1,4), (13,1,1) and
    (17,1,1) mixed, hashes to the recorded SHA-256 of its compact
    sorted-key JSON dump."""
    golden = json.loads((Path(__file__).parent / "data" / "table-digests.json").read_text())
    assert len(golden) == 28
    for key, digest in golden.items():
        p, k, r, mode, flavor = re.fullmatch(r"p(\d+)k(\d+)r(\d+)-(\w+)-(\w+)", key).groups()
        tab = character_table(make_group(int(p), int(k), int(r), mode, flavor))
        blob = json.dumps(tab.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, key


def test_class_function_checks_survive_python_O():
    code = (
        "import numpy as np\n"
        "from dl2.characters import ClassFunction, inflate, trivial_character\n"
        "from dl2.groups import make_group\n"
        "print(__debug__)\n"
        "G = make_group(2, 1, 3, 'mixed', 'gl')\n"
        "chi = trivial_character(G.reduction(2).target)\n"
        "for attempt in (lambda: inflate(chi, G.reduction(1)),\n"
        "                lambda: ClassFunction(G, 1, np.ones((1, 1))),\n"
        "                lambda: trivial_character(G) + chi):\n"
        "    try:\n"
        "        attempt()\n"
        "    except ValueError:\n"
        "        print('rejected')\n"
    )
    env = {"PYTHONPATH": str(Path(dl2.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert out.stdout.split() == ["False"] + ["rejected"] * 3


# Modules whose `assert`s are not yet explicit raises; every other module
# must not gain one, since `python -O` strips them.
ASSERTS_NOT_YET_CONVERTED = set()


def test_no_assert_outside_unconverted_modules():
    src = Path(dl2.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.stem not in ASSERTS_NOT_YET_CONVERTED
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
