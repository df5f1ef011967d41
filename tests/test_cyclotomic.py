from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dl2.cyclotomic import Cyclo, cyclotomic_poly, matmul, phi, zeta_powers


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert phi(60) == 16
    assert phi(72) == 24


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 8, 12, 60, 72])
def test_root_of_unity_identities(e):
    z = Cyclo.root_of_unity(e, 1)
    acc = Cyclo.from_rational(1, e)
    for _ in range(e):
        acc = acc * z
    assert acc == 1
    s = Cyclo.zero(e)
    for j in range(e):
        s = s + Cyclo.root_of_unity(e, j)
    assert s.is_zero()
    m = next(m for m in range(2, e + 2) if __import__("math").gcd(m, e) == 1)
    for j in range(e):
        zj = Cyclo.root_of_unity(e, j)
        assert zj.conj() == Cyclo.root_of_unity(e, (e - j) % e)
        assert zj * zj.conj() == 1
        assert zj.galois_power(m) == Cyclo.root_of_unity(e, (m * j) % e)


def test_cross_exponent_equality():
    assert Cyclo.root_of_unity(6, 2) == Cyclo.root_of_unity(3, 1)
    assert Cyclo.root_of_unity(4, 2) == Cyclo.from_rational(-1)
    assert Cyclo.root_of_unity(2, 1) == -1
    a = Cyclo.root_of_unity(12, 4) + Cyclo.root_of_unity(3, 2)
    assert a.is_rational() and a.rational_value() == -1  # z3 + z3^2 = -1


def test_rational_arithmetic():
    half = Cyclo.from_rational(Fraction(1, 2), 12)
    assert half + half == 1
    assert (half * 4).rational_value() == 2
    v = Cyclo.root_of_unity(5, 1) * Cyclo.root_of_unity(5, 4)
    assert v == 1


def test_norm_of_one_plus_root():
    a = Cyclo.from_rational(1, 5) + Cyclo.root_of_unity(5, 1)
    n = a * a.conj()
    expected = (
        Cyclo.from_rational(2, 5)
        + Cyclo.root_of_unity(5, 1)
        + Cyclo.root_of_unity(5, 4)
    )
    assert n == expected
    assert not n.is_rational()


def test_promote_and_scale():
    x = Cyclo.root_of_unity(3, 1)
    y = x.promote(12)
    assert y.e == 12 and y == x
    assert x.scale(Fraction(1, 3)) * 3 == x


def test_zeta_powers_rows():
    for e in (1, 2, 12, 60, 105):
        Z = zeta_powers(e)
        assert Z.shape == (e, phi(e)) and Z.dtype == np.int64
        # row j evaluated at exp(2 pi i / e) is exp(2 pi i j / e)
        z = np.exp(2j * np.pi * np.arange(phi(e)) / e)
        assert np.allclose(Z @ z, np.exp(2j * np.pi * np.arange(e) / e))
    assert int(np.abs(zeta_powers(105)).max()) == 2


@st.composite
def _product_case(draw):
    e = draw(st.sampled_from([1, 2, 3, 4, 12, 24, 60, 105]))
    n, m, p = (draw(st.integers(1, 3)) for _ in range(3))
    coeff = st.integers(-3, 3)
    X = np.array(draw(st.lists(coeff, min_size=n * m * phi(e), max_size=n * m * phi(e))))
    Y = np.array(draw(st.lists(coeff, min_size=m * p * phi(e), max_size=m * p * phi(e))))
    return e, X.reshape(n, m, phi(e)), Y.reshape(m, p, phi(e))


@given(_product_case())
def test_matmul_matches_cyclo_loop(case):
    e, X, Y = case
    P = matmul(X, Y, e)
    assert P.shape == (X.shape[0], Y.shape[1], phi(e))
    for i in range(X.shape[0]):
        for j in range(Y.shape[1]):
            acc = Cyclo.zero(e)
            for a in range(X.shape[1]):
                acc = acc + Cyclo(e, X[i, a].tolist()) * Cyclo(e, Y[a, j].tolist())
            assert P[i, j].tolist() == list(acc.c)


def test_matmul_guards_int64_overflow():
    # e = 4: d = 2, max|zeta_powers| = 1, so the bound is 3 * 2 * m * x * y
    X = np.full((1, 1, 2), 2**29, dtype=np.int64)
    assert matmul(X, X, 4).tolist() == [[[0, 2**59]]]  # (1 + i)^2 = 2i
    with pytest.raises(OverflowError):
        matmul(X, np.full((1, 1, 2), 2**33, dtype=np.int64), 4)
