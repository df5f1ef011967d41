"""Dense linear algebra and polynomial roots modulo a prime.

Residues are numpy int64, or float64 holding integers.  Matrix products go
through `exact_matmul`, one float64 BLAS product whose exactness it checks,
and `matmul_mod`, the same product on residues reduced mod l.
"""

from __future__ import annotations

import numpy as np

from .abelian import factorise


def exact_matmul(A: np.ndarray, B: np.ndarray, a: int, b: int) -> np.ndarray:
    """The integer product A @ B, as one float64 BLAS product, for integer
    arrays (int64, or float64 holding integers) with |A| <= a and |B| <= b
    entrywise; returns float64 holding the exact integers.

    Exactness.  Every partial sum of an output entry, in whatever order and
    blocking BLAS adds (fused multiply-adds included), sums some of the
    inner = A.shape[-1] products, so it is an integer of absolute value at
    most inner * a * b.  Below 2^53 every such integer is a float64, so no
    step rounds; OverflowError is raised when the bound reaches 2^53.
    """
    bound = A.shape[-1] * a * b
    if bound >= 2**53:
        raise OverflowError(f"float64 exactness: product bound {bound} >= 2^53")
    return A.astype(np.float64, copy=False) @ B.astype(np.float64, copy=False)


def matmul_mod(A: np.ndarray, B: np.ndarray, l: int) -> np.ndarray:
    """A @ B mod l for arrays of residues in [0, l), in their common dtype
    (int64 for int64 residues); exact by `exact_matmul` when A.shape[-1] *
    (l - 1)^2 < 2^53, OverflowError otherwise."""
    P = exact_matmul(A, B, l - 1, l - 1)
    # the remainder is taken in int64, several times faster than float64's,
    # and written back into P when the result is float64
    Q = P.astype(np.int64)
    return np.remainder(Q, l, out=P if np.result_type(A, B) == np.float64 else Q)


def inv_mod(a: int, l: int) -> int:
    return pow(int(a) % l, l - 2, l)


def rref(A: np.ndarray, l: int):
    """Reduced row echelon form mod l: returns (R, pivot column list)."""
    R = A.copy() % l
    rows, cols = R.shape
    pivots = []
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        col = R[rank:, c]
        nz = np.nonzero(col)[0]
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


def nullspace(A: np.ndarray, l: int):
    """Basis of {v : A v = 0} mod l: (N, free), the rows of N spanning it
    and N[:, free] the identity (free are the non-pivot columns of A)."""
    R, pivots = rref(A, l)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    N = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    N[:, free] = np.eye(len(free), dtype=np.int64)
    N[:, pivots] = -R[:, free].T % l
    return N, free


def poly_roots(p, l: int) -> list[int]:
    """All roots in F_l, by vectorised evaluation over the whole field."""
    out = []
    chunk = 1_000_000
    for lo in range(0, l, chunk):
        xs = np.arange(lo, min(l, lo + chunk), dtype=np.int64)
        acc = np.zeros(len(xs), dtype=np.int64)
        for c in reversed(p):
            acc = (acc * xs + c) % l
        out.extend(int(x) for x in xs[acc == 0])
    return out


def krylov_relation(M: np.ndarray, v: np.ndarray, l: int) -> list[int]:
    """Monic minimal relation of the Krylov sequence v, Mv, M^2 v, ...,
    as ascending coefficients; M and v are residues in [0, l).

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


def primitive_root(l: int) -> int:
    """Least primitive root modulo prime l."""
    fac = factorise(l - 1)
    for g in range(1, l):
        if all(pow(g, (l - 1) // f, l) != 1 for f in fac):
            return g
    raise RuntimeError("no primitive root found")
