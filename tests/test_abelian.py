import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


def _value_exponents(A: FiniteAbelianGroup) -> np.ndarray:
    """M[j, i]: chi_j(x_i) = zeta_L^M[j, i] for character j, row j of
    `dual_rows()`, at the element x_i = codes[i]."""
    return A.dual_rows() @ A.value_rows(A.codes).T % A.exponent


def test_dual_is_complete_and_faithful():
    """|A| characters with distinct values, each a homomorphism: exhaustive
    over all pairs of elements of GR(9, 2)^x."""
    X = make_ext(make_ring(3, 1, 2, "mixed"))
    B = FiniteAbelianGroup(X.units(), X.mul, X.one)
    M = _value_exponents(B)
    assert M.shape == (B.order, B.order) == (72, 72)
    assert len({row.tobytes() for row in M}) == 72
    x, y = np.repeat(B.codes, B.order), np.tile(B.codes, B.order)
    xy = np.searchsorted(B.codes, X.mul(x, y))
    i, j = np.searchsorted(B.codes, x), np.searchsorted(B.codes, y)
    assert ((M[:, i] + M[:, j] - M[:, xy]) % B.exponent == 0).all()


def test_char_group_operations():
    """On exponent rows mod the orders: row 0 is the trivial character, the
    sum of two rows their product, the negated row the inverse, and the
    orders those of the dual of Z/6."""
    U = unit_group(make_ring(3, 1, 2, "mixed"))
    L, n = U.exponent, np.array(U.orders, dtype=np.int64)
    A, M = U.dual_rows(), _value_exponents(U)
    assert not A[0].any() and not M[0].any() and M[1:].any(axis=1).all()
    prod = U.dual_index((A[:, None, :] + A[None, :, :]) % n)
    assert (M[prod] == (M[:, None, :] + M[None, :, :]) % L).all()
    inv = U.dual_index(-A % n)
    assert not ((M + M[inv]) % L).any() and not U.dual_index((A + -A % n) % n).any()
    orders = [min(o for o in range(1, L + 1) if not (o * m % L).any()) for m in M]
    assert sorted(orders) == [1, 2, 3, 3, 6, 6]


def test_element_orders():
    """The order of x is the least divisor n of the exponent with x^n = 1."""
    R = make_ring(2, 1, 3, "equal")
    U = unit_group(R)
    orders = np.zeros(U.order, dtype=np.int64)
    for n in sorted(d for d in range(1, U.exponent + 1) if U.exponent % d == 0):
        orders[(orders == 0) & (U.pow(U.codes, n) == U.identity)] = n
    assert sorted(orders.tolist()) == [1, 2, 4, 4]


def _round_trip_groups():
    for args in [(3, 1, 2, "mixed"), (2, 1, 3, "equal"), (5, 1, 3, "mixed"), (2, 2, 2, "equal")]:
        R = make_ring(*args)
        yield unit_group(R), lambda a, b: R.mul[a, b]
        X = make_ext(R)
        yield FiniteAbelianGroup(X.units(), X.mul, X.one), X.mul
    t = make_torus(2, 1, 3, "mixed")
    yield t.kernels[1], t.ext.mul
    G = make_group(3, 1, 1, "mixed", "gl")
    units = G.ring.units()
    center = G.space.enc(units, 0, 0, units)  # the scalars diag(u, u)
    yield FiniteAbelianGroup(center, G.space.mul, G.space.identity), G.space.mul


def test_dlog_round_trip():
    """Every code is the product of the basis powers its exps row names, and
    the value rows are the exps rows scaled to the exponent."""
    for A, mul in _round_trip_groups():
        scale = A.exponent // np.array(A.orders, dtype=np.int64)
        assert (A.value_rows(A.codes) == A.exps * scale % A.exponent).all()
        assert ((0 <= A.exps) & (A.exps < np.array(A.orders, dtype=np.int64))).all()
        acc = np.full_like(A.codes, A.identity)
        for (g, n), e in zip(A.basis, A.exps.T):
            for k in range(n - 1):
                acc = np.where(e > k, mul(acc, np.full_like(acc, g)), acc)
        assert (acc == A.codes).all()


def test_one_unit_group_per_ring():
    for args in [(3, 1, 2, "mixed"), (2, 2, 2, "equal")]:
        assert make_group(*args, "gl").ring is make_ring(*args)
        assert make_torus(*args).base_units is make_ring(*args).unit_group


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
        "    T.chars_from_values([1] * len(T.basis), 2 * T.exponent)\n"
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
        T.chars_from_values([1] * len(T.basis), 2 * T.exponent)


def _exact_orthogonality(A: FiniteAbelianGroup):
    """Row j of M = dual_rows @ value_rows(codes)^T mod L holds the root
    exponents of the j-th character at every element.  A character chi of
    order o has image the o-th roots of unity, each taken |A|/o times: the
    exponents are the multiples of L/o, each hit exactly |A|/o times, so
    sum chi = 0 unless chi is trivial (o = 1: exponent 0, |A| times)."""
    L = A.exponent
    rows = A.dual_rows()
    M = rows @ A.value_rows(A.codes).T % L
    n = np.array(A.orders, dtype=np.int64)
    order = np.lcm.reduce(n // np.gcd(rows, n), axis=1) if len(n) else np.ones(len(rows), dtype=np.int64)
    hits = np.bincount((np.arange(len(rows))[:, None] * L + M).ravel(), minlength=len(rows) * L)
    expected = np.where(np.arange(L)[None, :] % (L // order)[:, None] == 0, (A.order // order)[:, None], 0)
    assert (hits.reshape(len(rows), L) == expected).all()
    assert order[0] == 1 and (order[1:] > 1).all()  # row 0 alone is trivial


@given(
    st.sampled_from([(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (5, 1, 2), (3, 1, 3)]),
    st.sampled_from(["mixed", "equal"]),
)
def test_orthogonality_of_duals(pkr, mode):
    """Exact in exponents, for the torus, its congruence kernels and the
    base units."""
    t = make_torus(*pkr, mode)
    for A in (t.group, t.base_units, *t.kernels.values()):
        _exact_orthogonality(A)
