import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dl2
from dl2.abelian import FiniteAbelianGroup
from dl2.groups import make_group
from dl2.rings import make_ext, make_ring
from dl2.torus import make_torus


def unit_group(R):
    return FiniteAbelianGroup(R.units(), lambda a, b: R.mul[a, b], R.one)


def test_unit_group_structures():
    # (Z/9)^x = Z/2 x Z/3 (primary form of Z/6)
    assert sorted(unit_group(make_ring(3, 1, 2, "mixed")).orders) == [2, 3]
    # (Z/8)^x = Z/2 x Z/2
    assert sorted(unit_group(make_ring(2, 1, 3, "mixed")).orders) == [2, 2]
    # (F_2[t]/t^3)^x is cyclic of order 4: (1+t)^2 = 1+t^2
    assert sorted(unit_group(make_ring(2, 1, 3, "equal")).orders) == [4]
    # (Z/125)^x = Z/4 x Z/25
    assert sorted(unit_group(make_ring(5, 1, 3, "mixed")).orders) == [4, 25]
    # (F_5[t]/t^3)^x = Z/4 x Z/5 x Z/5
    assert sorted(unit_group(make_ring(5, 1, 3, "equal")).orders) == [4, 5, 5]
    # GR(9,2)^x = Z/8 x Z/3 x Z/3
    X = make_ext(make_ring(3, 1, 2, "mixed"))
    B = FiniteAbelianGroup(X.units(), X.mul, X.one)
    assert sorted(B.orders) == [3, 3, 8]


def test_dual_is_complete_and_faithful():
    X = make_ext(make_ring(3, 1, 2, "mixed"))
    B = FiniteAbelianGroup(X.units(), X.mul, X.one)
    chars = B.dual()
    assert len(chars) == B.order == 72
    codes = [int(c) for c in B.codes]
    seen = set()
    for ch in chars:
        v = tuple(ch.root_exp(x) for x in codes)
        assert v not in seen
        seen.add(v)
    rng = random.Random(0)
    for _ in range(80):
        ch = rng.choice(chars)
        x, y = rng.choice(codes), rng.choice(codes)
        assert (ch.root_exp(x) + ch.root_exp(y)) % B.exponent == ch.root_exp(
            X.mul(x, y)
        )


def test_char_group_operations():
    R = make_ring(3, 1, 2, "mixed")
    U = unit_group(R)
    chars = U.dual()
    triv = U.trivial_char()
    assert triv.is_trivial()
    for ch in chars:
        assert (ch * ch.inverse()) == triv
        assert ch.order() == 1 or not ch.is_trivial()
    orders = sorted(ch.order() for ch in chars)
    assert orders == [1, 2, 3, 3, 6, 6]  # dual of Z/6


def test_element_orders():
    R = make_ring(2, 1, 3, "equal")
    U = unit_group(R)
    orders = sorted(U.element_order(int(c)) for c in U.codes)
    assert orders == [1, 2, 4, 4]


def _round_trip_groups():
    for args in [(3, 1, 2, "mixed"), (2, 1, 3, "equal"), (5, 1, 3, "mixed"), (2, 2, 2, "equal")]:
        R = make_ring(*args)
        yield unit_group(R), lambda a, b: R.mul[a, b]
        X = make_ext(R)
        yield FiniteAbelianGroup(X.units(), X.mul, X.one), X.mul
    t = make_torus(2, 1, 3, "mixed")
    yield t.kernels[1], t.ext.mul
    G = make_group(3, 1, 1, "mixed", "gl")
    center = G.center_codes()
    yield FiniteAbelianGroup(center, G.space.mul, G.space.identity), G.space.mul


def test_dlog_round_trip():
    """Every code is the product of the basis powers its dlog names, and
    the dlog rows are the exps array."""
    for A, mul in _round_trip_groups():
        assert (A.exps == [A.dlog[c] for c in A.codes.tolist()]).all()
        for c in A.codes.tolist():
            acc = A.identity
            for (g, _n), e in zip(A.basis, A.dlog[c]):
                for _ in range(e):
                    acc = int(mul(acc, g))
            assert acc == c


def test_array_pow_matches_repeated_product():
    X = make_ext(make_ring(3, 1, 2, "mixed"))
    A = FiniteAbelianGroup(X.units(), X.mul, X.one)
    for n in (0, 1, 2, 5, 7, 24, A.order + 3):
        expected = np.full_like(A.codes, A.identity)
        for _ in range(n % A.order):
            expected = X.mul(expected, A.codes)
        assert (A.pow(A.codes, n) == expected).all()


def test_invariant_error_survives_python_O():
    code = (
        "from dl2.abelian import InvariantError\n"
        "from dl2.torus import make_torus\n"
        "print(__debug__)\n"
        "T = make_torus(3, 1, 1, 'mixed').group\n"
        "try:\n"
        "    T.char_from_values_on_basis([1] * len(T.basis), 2 * T.exponent)\n"
        "except InvariantError:\n"
        "    print('rejected')\n"
    )
    env = {"PYTHONPATH": str(Path(dl2.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert out.stdout.split() == ["False", "rejected"]


def test_invariant_error_is_an_assertion_error():
    T = make_torus(3, 1, 1, "mixed").group
    with pytest.raises(AssertionError, match="n-th root"):
        T.char_from_values_on_basis([1] * len(T.basis), 2 * T.exponent)
