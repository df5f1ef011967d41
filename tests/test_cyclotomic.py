import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dl2.cyclotomic import (
    _poly_divmod_int,
    cyclotomic_poly,
    matmul,
    phi,
    split_primes,
    substitute,
    zeta_powers,
)
from dl2.rings import is_prime


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert phi(60) == 16
    assert phi(72) == 24


def _mul(a, b, e):
    """The product of two Z[zeta_e] coefficient rows."""
    return matmul(np.array(a)[None, None], np.array(b)[None, None], e)[0, 0]


def _root(e, j):
    return zeta_powers(e)[j % e]


def _rational(v, e):
    return [v] + [0] * (phi(e) - 1)


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 8, 12, 60, 72])
def test_root_of_unity_identities(e):
    z = _root(e, 1)
    acc = np.array(_rational(1, e))
    for _ in range(e):
        acc = _mul(acc, z, e)
    assert acc.tolist() == _rational(1, e)
    assert not zeta_powers(e).sum(axis=0).any()  # the e-th roots of unity sum to 0
    m = next(m for m in range(2, e + 2) if math.gcd(m, e) == 1)
    Z = zeta_powers(e)
    for j in range(e):
        zj = Z[j]
        assert substitute(zj, e, e, -1).tolist() == _root(e, -j).tolist()
        assert _mul(zj, substitute(zj, e, e, -1), e).tolist() == _rational(1, e)
        assert substitute(zj, e, e, m).tolist() == _root(e, m * j).tolist()
        assert substitute(zj, e, e, 1, shift=j).tolist() == _root(e, 2 * j).tolist()
    assert (substitute(Z, e, e, -1) == Z[(-np.arange(e)) % e]).all()


def test_cross_exponent_equality():
    assert substitute(_root(3, 1), 3, 6, 2).tolist() == _root(6, 2).tolist()
    assert _root(4, 2).tolist() == _rational(-1, 4)
    assert _root(2, 1).tolist() == [-1]
    # z3 + z3^2 = -1, computed in Z[zeta_12]
    a = _root(12, 4) + substitute(_root(3, 2), 3, 12, 4)
    assert a.tolist() == _rational(-1, 12)
    with pytest.raises(ValueError, match="primitive"):
        substitute(_root(3, 1), 3, 12, 2)  # zeta_12^2 has order 6, not 3


def test_products_of_roots():
    assert _mul(_root(5, 1), _root(5, 4), 5).tolist() == _rational(1, 5)
    assert _mul(_root(12, 5), _root(12, 9), 12).tolist() == _root(12, 2).tolist()


def test_norm_of_one_plus_root():
    a = np.array(_rational(1, 5)) + _root(5, 1)
    n = _mul(a, substitute(a, 5, 5, -1), 5)
    expected = np.array(_rational(2, 5)) + _root(5, 1) + _root(5, 4)
    assert n.tolist() == expected.tolist()
    assert n[1:].any()  # not rational


def test_promote_and_scale():
    x = _root(3, 1)
    y = substitute(x, 3, 12, 4)
    assert y.tolist() == _root(12, 4).tolist()
    # promotion is a ring map: it commutes with products and integer scaling
    assert substitute(_mul(x, x, 3), 3, 12, 4).tolist() == _mul(y, y, 12).tolist()
    assert substitute(3 * x, 3, 12, 4).tolist() == (3 * y).tolist()


def test_substitute_guards_int64_overflow():
    # e = 4: phi(4) = 2, max|zeta_powers(4)| = 1, so the bound is 2 x
    assert substitute(np.array([2**61, 0]), 4, 4, -1).tolist() == [2**61, 0]
    with pytest.raises(OverflowError):
        substitute(np.array([2**62, 0]), 4, 4, -1)


def test_zeta_powers_rows():
    for e in (1, 2, 12, 60, 105):
        Z = zeta_powers(e)
        assert Z.shape == (e, phi(e)) and Z.dtype == np.int64
        # row j evaluated at exp(2 pi i / e) is exp(2 pi i j / e)
        z = np.exp(2j * np.pi * np.arange(phi(e)) / e)
        assert np.allclose(Z @ z, np.exp(2j * np.pi * np.arange(e) / e))
    assert int(np.abs(zeta_powers(105)).max()) == 2


PRODUCT_EXPONENTS = [1, 2, 3, 4, 12, 24, 60, 105, 1176]


def _product_bound(e, X, Y):
    """The coefficient bound (2d - 1) z d m x y that `matmul` guards."""
    d, m = phi(e), X.shape[1]
    x, y = (int(np.abs(A).max(initial=0)) for A in (X, Y))
    return (2 * d - 1) * int(np.abs(zeta_powers(e)).max()) * d * m * x * y


@st.composite
def _product_case(draw, coeff=st.integers(-3, 3)):
    e = draw(st.sampled_from(PRODUCT_EXPONENTS))
    n, m, p = (draw(st.integers(1, 3)) for _ in range(3))
    X = np.array(draw(st.lists(coeff, min_size=n * m * phi(e), max_size=n * m * phi(e))))
    Y = np.array(draw(st.lists(coeff, min_size=m * p * phi(e), max_size=m * p * phi(e))))
    return e, X.reshape(n, m, phi(e)), Y.reshape(m, p, phi(e))


def _poly_product_reference(x, y, e):
    """The product of two coefficient rows as Python-int polynomials,
    reduced modulo Phi_e by long division."""
    conv = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            conv[i + j] += int(a) * int(b)
    _, rem = _poly_divmod_int(conv, list(cyclotomic_poly(e)))
    return rem + [0] * (phi(e) - len(rem))


def _check_product(e, X, Y):
    P = matmul(X, Y, e)
    assert P.shape == (X.shape[0], Y.shape[1], phi(e))
    for i in range(X.shape[0]):
        for j in range(Y.shape[1]):
            acc = [0] * phi(e)
            for a in range(X.shape[1]):
                term = _poly_product_reference(X[i, a], Y[a, j], e)
                acc = [s + t for s, t in zip(acc, term)]
            assert P[i, j].tolist() == acc


@given(_product_case())
def test_matmul_matches_cyclo_loop(case):
    _check_product(*case)


@given(_product_case(coeff=st.integers(-(2**20), 2**20)))
def test_matmul_matches_cyclo_loop_multi_prime(case):
    """Coefficients up to 2^20 need two primes at e = 1 and three at large e,
    so every Garner digit carries weight."""
    e, X, Y = case
    bound = _product_bound(e, X, Y)
    if bound >= 2**63:
        with pytest.raises(OverflowError):
            matmul(X, Y, e)
    else:
        _check_product(e, X, Y)


@pytest.mark.parametrize("e", PRODUCT_EXPONENTS)
@pytest.mark.parametrize("m", [1, 3, 78, 1000])
@pytest.mark.parametrize("x", [1, 2**20, 2**29])
def test_split_primes_cover_the_bound(e, m, x):
    X = np.full((1, m, phi(e)), x, dtype=np.int64)
    bound = _product_bound(e, X, X)
    if bound >= 2**63:
        return
    inner = max(m, phi(e))
    primes = split_primes(e, inner, bound)
    for l in primes:
        assert is_prime(l) and (l - 1) % e == 0
        assert inner * (l - 1) ** 2 < 2**53
    assert math.prod(primes) > 2 * bound
    assert len(primes) == 1 or math.prod(primes[:-1]) <= 2 * bound
    assert list(primes) == sorted(primes, reverse=True)


def test_split_primes_take_the_largest():
    # e = 1, one term: the largest primes l with (l - 1)^2 < 2^53, i.e. l <= 94906266
    assert split_primes(1, 1, 1) == (94906249,)
    assert split_primes(1, 1, 2**60)[:2] == (94906249, 94906247)
    assert [l for l in range(94906249, 94906267) if is_prime(l)] == [94906249]


def test_matmul_guards_int64_overflow():
    # e = 4: d = 2, max|zeta_powers| = 1, so the bound is 3 * 2 * m * x * y
    X = np.full((1, 1, 2), 2**29, dtype=np.int64)
    assert matmul(X, X, 4).tolist() == [[[0, 2**59]]]  # (1 + i)^2 = 2i
    with pytest.raises(OverflowError):
        matmul(X, np.full((1, 1, 2), 2**33, dtype=np.int64), 4)
