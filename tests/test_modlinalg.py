import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dl2.cyclotomic import split_primes
from dl2.modlinalg import (
    exact_matmul,
    krylov_relation,
    matmul_mod,
    nullspace,
    primitive_root,
    reduce_mod,
)
from dl2.rings import is_prime


def test_primitive_root_is_least_generator():
    for l in (n for n in range(2, 200) if is_prime(n)):
        least = next(
            g for g in range(1, l) if len({pow(g, i, l) for i in range(l - 1)}) == l - 1
        )
        assert primitive_root(l) == least


def test_kernels_guard_int64_overflow():
    # Krylov mat-vecs are `matmul_mod` products, exact while d (l - 1)^2 <
    # 2^53; l = 54794197 has 3 (l - 1)^2 >= 2^53 > 2 (l - 1)^2, so a 2x2
    # relation is found and a 3x3 one refused, as is any one for l = 2^31 - 1
    l = 54_794_197
    M = np.full((2, 2), l - 1, dtype=np.int64)
    v = np.array([l - 1, l - 1], dtype=np.int64)
    assert krylov_relation(M, v, l) == [2, 1]  # M v = -2 v
    with pytest.raises(OverflowError):
        krylov_relation(np.eye(3, dtype=np.int64), np.ones(3, dtype=np.int64), l)
    with pytest.raises(OverflowError):
        krylov_relation(M, v, 2**31 - 1)
    # (x - 1)(x - 2)(x - 3) = x^3 - 6x^2 + 11x - 6, read off [K | w]'s nullspace
    D = np.diag([1, 2, 3]).astype(np.int64)
    assert krylov_relation(D, np.ones(3, dtype=np.int64), 541) == [535, 11, 535, 1]
    assert krylov_relation(D, np.array([0, 1, 0]), 541) == [539, 1]


def test_nullspace_is_the_identity_at_its_free_columns():
    l = 541
    A = np.array([[1, 2, 0, 3], [2, 4, 1, 0]], dtype=np.int64)
    N, free = nullspace(A, l)
    assert free == [1, 3]
    assert (N[:, free] == np.eye(2, dtype=np.int64)).all()
    assert not (A @ N.T % l).any()


def test_float64_products_guard_2_to_53():
    # 3^32 < 2^53 < 3^34: the one-term product 3^16 * 3^16 is exact in
    # float64, while 3^17 * 3^17 is not even representable
    a = np.array([[3**16]], dtype=np.int64)
    assert exact_matmul(a, a, 3**16, 3**16).tolist() == [[3**32]]
    assert exact_matmul(-a, a, 3**16, 3**16).tolist() == [[-(3**32)]]
    with pytest.raises(OverflowError):
        exact_matmul(3 * a, 3 * a, 3**17, 3**17)
    l = 54_794_197  # prime, with 3 (l - 1)^2 >= 2^53 > 2 (l - 1)^2
    A = np.full((2, 2), l - 1, dtype=np.int64)
    assert matmul_mod(A, A, l).tolist() == [[2, 2], [2, 2]]
    with pytest.raises(OverflowError):
        matmul_mod(np.full((1, 3), 1, dtype=np.int64), np.ones((3, 1), dtype=np.int64), l)


# the primes of split_primes, from the largest (inner 1, l near 2^26.5) to
# those for many terms, for a few exponents
REDUCTION_PRIMES = sorted({
    l for e in (1, 6, 60, 1176) for inner in (1, 3, 252, 4096)
    for l in split_primes(e, inner, 2**62)
})


@st.composite
def _reductions(draw):
    """A prime of `split_primes` and integers P in reduce_mod's domain
    -2^53 + l < P < 2^53, many next to a multiple of l, where the floor
    step can miss by one."""
    l = draw(st.sampled_from(REDUCTION_PRIMES))
    lo, hi = -(2**53) + l + 1, 2**53 - 1
    k = st.integers(lo // l + 1, hi // l - 1)
    near_multiple = st.builds(lambda k, m: k * l + m, k, st.sampled_from([-1, 0, 1, 2]))
    ends = st.sampled_from([lo, lo + 1, -l - 1, -l, -1, 0, 1, l - 1, l, 2**53 - 4, hi])
    values = st.one_of(st.integers(lo, hi), near_multiple, ends)
    return l, draw(st.lists(values, min_size=1, max_size=6))


@given(_reductions())
# the floor step one too high (P = k l - 1 near 2^53) and one too low (P = l)
@example((1473529, [9007199253193939]))
@example((1482421, [1482421]))
def test_reduce_mod_matches_python_integers(case):
    l, ints = case
    want = [float(v % l) for v in ints]
    for P in (np.array(ints, dtype=np.int64), np.array(ints, dtype=np.float64)):
        assert reduce_mod(P, l).tolist() == want
    out = np.array(ints, dtype=np.float64)
    assert reduce_mod(out, l, out=out) is out
    assert out.tolist() == want
