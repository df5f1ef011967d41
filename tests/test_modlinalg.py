import numpy as np
import pytest

from dl2.modlinalg import krylov_relation, poly_apply_matvec, primitive_root
from dl2.rings import is_prime


def test_primitive_root_is_least_generator():
    for l in (n for n in range(2, 200) if is_prime(n)):
        least = next(
            g for g in range(1, l) if len({pow(g, i, l) for i in range(l - 1)}) == l - 1
        )
        assert primitive_root(l) == least


def test_kernels_guard_int64_overflow():
    # 2 (l - 1)^2 < 2^63 <= 3 (l - 1)^2: M @ v on 2x2 residues is exact in
    # int64, but a Horner step of p(M) v adds the product c * v to it
    l = 2**31 - 1
    M = np.full((2, 2), l - 1, dtype=np.int64)
    v = np.array([l - 1, l - 1], dtype=np.int64)
    assert krylov_relation(M, v, l) == [2, 1]  # M v = -2 v
    with pytest.raises(OverflowError):
        poly_apply_matvec([0, 1], M, v, l)
    with pytest.raises(OverflowError):
        krylov_relation(np.eye(3, dtype=np.int64), np.ones(3, dtype=np.int64), l)
    small = np.full((2, 2), 540, dtype=np.int64)  # -1 mod 541
    assert poly_apply_matvec([0, 1], small, small[0], 541).tolist() == [2, 2]
