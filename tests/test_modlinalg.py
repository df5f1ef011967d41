import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import dl2
from dl2.cyclotomic import split_primes
from dl2.modlinalg import (
    exact_matmul,
    inv_mod,
    matmul_mod,
    min_poly,
    poly_roots,
    primitive_root,
    reduce_mod,
    rref,
)
from dl2.rings import is_prime


def nullspace(A: np.ndarray, l: int):
    """Basis of {v : A v = 0} mod l: (N, free), the rows of N spanning it
    and N[:, free] the identity (free are the non-pivot columns of A).
    The former eigenspace kernel of `dixon`, kept as a reference."""
    R, pivots = rref(A, l)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    N = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    N[:, free] = np.eye(len(free), dtype=np.int64)
    N[:, pivots] = -R[:, free].T % l
    return N, free


def krylov_relation(M: np.ndarray, v: np.ndarray, l: int) -> list[int]:
    """Monic minimal relation of the Krylov sequence v, Mv, M^2 v, ...,
    as ascending coefficients; M and v are residues in [0, l).  The former
    eigenvalue search of `dixon`, kept as a reference.

    The sequence grows while its next vector w is independent of the
    previous ones K (an incremental row reduction); the relation is then
    the one-dimensional nullspace of [K | w], whose free column is w's.
    Each mat-vec is a `matmul_mod` product, so OverflowError is raised
    unless len(v) * (l - 1)^2 < 2^53; that bound also keeps the int64 row
    operations, products of two residues, exact."""
    K, rows, pivots = [], [], []
    w = v % l
    while True:
        red = w
        for row, pc in zip(rows, pivots):
            red = (red - red[pc] * row) % l
        nz = np.flatnonzero(red)
        if not len(nz):
            break
        K.append(w)
        w = matmul_mod(M, w, l)  # before the first product of two residues
        pivots.append(int(nz[0]))
        rows.append(red * inv_mod(int(red[nz[0]]), l) % l)
    N, _ = nullspace(np.column_stack(K + [w]), l)
    return [int(c) for c in N[0]]


def _rref_by_columns(A: np.ndarray, l: int):
    """The former `rref`: one pass over every column in turn."""
    R = A.copy() % l
    rows, cols = R.shape
    pivots = []
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(R[rank:, c])[0]
        if len(nz) == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            R[[rank, pr]] = R[[pr, rank]]
        R[rank] = (R[rank] * inv_mod(int(R[rank, c]), l)) % l
        other = np.nonzero(R[:, c])[0]
        other = other[other != rank]
        if len(other):
            R[other] = (R[other] - np.outer(R[other, c], R[rank])) % l
        pivots.append(c)
        rank += 1
    return R[:rank], pivots


@given(st.integers(1, 6), st.integers(1, 7), st.sampled_from([2, 3, 13]), st.integers(0, 2**32))
def test_rref_matches_column_scan(rows, cols, l, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, l, size=(rows, cols))
    A[:, rng.integers(0, cols)] = 0  # a zero column
    if rows > 1:
        A[-1] = A[0] * 2  # a dependent row
    R, piv = rref(A, l)
    R_ref, piv_ref = _rref_by_columns(A, l)
    assert piv == piv_ref and R.tobytes() == R_ref.tobytes()


def test_min_poly_recovers_known_recurrences():
    l = 541
    # sum of c_lam lam^a over distinct lam with c_lam != 0: prod (x - lam)
    lams, cs = [2, 5, 11], [1, 7, 540]
    seq = [sum(c * pow(x, a, l) for x, c in zip(lams, cs)) % l for a in range(6)]
    f = min_poly(seq, l)
    assert len(f) == 4 and f[-1] == 1 and poly_roots(f, l) == lams
    # Fibonacci: x^2 - x - 1; the zero sequence: 1; a geometric one: x - 3
    fib = [0, 1]
    for _ in range(8):
        fib.append((fib[-1] + fib[-2]) % l)
    assert min_poly(fib, l) == [l - 1, l - 1, 1]
    assert min_poly([0] * 6, l) == [1]
    assert min_poly([pow(3, a, l) for a in range(4)], l) == [l - 3, 1]
    with pytest.raises(OverflowError):
        min_poly([1] * 8, 2**31 - 1)


@given(st.integers(1, 6), st.integers(0, 2**32))
def test_min_poly_is_the_krylov_relation_of_a_unit_functional(d, seed):
    """For the functional e_0 applied to M^a v, the minimal polynomial of
    the scalar sequence divides the Krylov relation of v, and equals it
    when v = e_0 and M is a companion matrix (the sequence then determines
    the relation)."""
    l = 101
    rng = np.random.default_rng(seed)
    f = [int(c) for c in rng.integers(0, l, size=d)] + [1]
    C = np.zeros((d, d), dtype=np.int64)
    C[1:, :-1] = np.eye(d - 1, dtype=np.int64)
    C[:, -1] = [-c % l for c in f[:-1]]
    v = np.eye(d, dtype=np.int64)[0]
    seq, w = [], v
    for _ in range(2 * d):
        seq.append(int(w[-1]))
        w = matmul_mod(C, w, l)
    assert krylov_relation(C, v, l) == f
    assert min_poly(seq, l) == f


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


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_dl2_defaults_openblas_to_one_thread(preset):
    """`import dl2` sets OPENBLAS_NUM_THREADS=1 before numpy loads, unless
    the environment already sets it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(dl2.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import os, sys\n"
        "assert 'numpy' not in sys.modules\n"
        "import dl2\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == (preset or "1")
