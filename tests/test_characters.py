import ast
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

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
from dl2.cyclotomic import matmul, substitute, zeta_powers
from dl2 import dixon
from dl2.dixon import _split_blocks
from dl2.groups import make_group


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
        betas = U.dual() if G.flavor == "gl" else [U.trivial_char()]
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


def test_split_blocks_guards_int64_overflow():
    l = 2**31 - 1  # prime; 3 * (l - 1)^2 >= 2^63
    eye = np.eye(3, dtype=np.int64)
    with pytest.raises(OverflowError):
        _split_blocks([(eye, [0, 1, 2])], eye, l)
    assert len(_split_blocks([(eye, [0, 1, 2])], eye, 541)) == 1


def test_lift_table_guards_int64_overflow(monkeypatch):
    G = make_group(2, 1, 1, "equal", "gl")
    Xl, degrees, _l, z, cd = dixon.character_table_mod_l(G)
    l = 2**31 - 1  # prime; e * (l - 1)^2 >= 2^63 for the exponent e = 6
    monkeypatch.setattr(dixon, "character_table_mod_l", lambda group: (Xl, degrees, l, z, cd))
    with pytest.raises(OverflowError):
        dixon.lift_table(G)


def test_verify_rejects_table_beyond_int64_bound():
    tab = character_table(make_group(2, 1, 1, "equal", "gl"))
    coeffs = tab.coeffs.copy()
    coeffs[0, 0, 0] = 2**40
    with pytest.raises(VerificationError, match="overflow"):
        CharacterTable(tab.group, parts=(coeffs, tab.exponent, tab.degrees)).verify()


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
    triv = U.trivial_char()
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
ASSERTS_NOT_YET_CONVERTED = {"groups", "predictor", "rings", "weyl"}


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
