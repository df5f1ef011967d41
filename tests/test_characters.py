import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dl2
from dl2.abelian import FiniteAbelianGroup
from dl2.characters import (
    CharacterTable,
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
from dl2.cyclotomic import Cyclo
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
    one = Cyclo.from_rational(1)
    ind = induce(G, B, {int(c): one for c in B})
    assert ind.degree() == 4  # q + 1


def test_frobenius_reciprocity_exhaustive():
    G = make_group(2, 1, 1, "equal", "gl")
    tab = character_table(G)
    B = G.borel_codes()
    AB = FiniteAbelianGroup(B, lambda a, b: G.space.mul_scalar(int(a), int(b)),
                            G.space.identity)
    for phi_ab in AB.dual():
        L = AB.exponent
        vals = {int(c): Cyclo.root_of_unity(L, phi_ab.root_exp(int(c))) for c in B}
        ind = induce(G, B, vals)
        for chi in tab.chars:
            res = restrict(chi, B)
            acc = Cyclo.zero(1)
            for c in B:
                acc = acc + vals[int(c)] * res[int(c)].conj()
            assert inner_product(ind, chi) == acc.rational_value() / len(B)


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
