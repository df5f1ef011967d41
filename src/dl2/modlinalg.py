"""Dense linear algebra, minimal polynomials of sequences and polynomial
roots modulo a prime.

Residues are numpy int64, or float64 holding integers.  Matrix products go
through `exact_matmul`, one float64 BLAS product whose exactness it checks,
and `matmul_mod`, the same product on residues reduced mod l in float64 by
`reduce_mod`.
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


def reduce_mod(P: np.ndarray, l: int, out=None) -> np.ndarray:
    """P mod l in [0, l), as float64, for an integer array P (int64, or
    float64 holding integers) with -2^53 + l < P < 2^53; the result goes
    to `out`, a float64 array of P's shape, when one is given.

    Exactness.  q = floor(P fl(1/l)), r = P - q l, then one fix-up by l in
    each direction.  fl(1/l) = (1 + d1)/l and the product rounds by a
    factor 1 + d2 with |d1|, |d2| <= 2^-53, so for |P| < 2^53 the product
    lies within |P| (2^-52 + 2^-106) / l < 2/l of P/l.  Write P = k l + m
    with 0 <= m < l.  Then q = k + 1 only when m = l - 1, and q l = P + 1
    <= 2^53; q = k - 1 only when m <= 1, and q l = P - l - m >= -2^53;
    otherwise q = k.  So q l is an integer of absolute value at most 2^53,
    hence a float64, and r = P - q l, an integer below 2^53 in absolute
    value, is exact as well.  r is -1, m + l or m in the three cases, so
    the fix-ups leave m.  Products of `exact_matmul` with inner (l - 1)^2 <
    2^53 lie in [0, 2^53 - 4] (4 divides (l - 1)^2 for odd l).
    """
    q = np.multiply(P, 1.0 / l)
    np.floor(q, out=q)
    q *= l
    r = np.subtract(P, q, out=q if out is None else out)
    np.subtract(r, l, out=r, where=r >= l)
    np.add(r, l, out=r, where=r < 0)
    return r


def matmul_mod(A: np.ndarray, B: np.ndarray, l: int) -> np.ndarray:
    """A @ B mod l for arrays of residues in [0, l), in their common dtype
    (int64 for int64 residues); exact by `exact_matmul` and `reduce_mod`
    when A.shape[-1] * (l - 1)^2 < 2^53, OverflowError otherwise."""
    P = exact_matmul(A, B, l - 1, l - 1)
    reduce_mod(P, l, out=P)
    return P if np.result_type(A, B) == np.float64 else P.astype(np.int64)


def inv_mod(a: int, l: int) -> int:
    return pow(int(a) % l, l - 2, l)


def rref(A: np.ndarray, l: int):
    """Reduced row echelon form mod l: returns (R, pivot column list).

    Each pivot is the first column in which a row not yet used has a
    nonzero entry; those rows vanish left of it, so the pivots come out in
    the order of a left-to-right column scan, and the loop runs once per
    pivot."""
    R = A.copy() % l
    pivots = []
    for rank in range(R.shape[0]):
        nz = np.flatnonzero(R[rank:].any(axis=0))
        if not len(nz):
            break
        c = int(nz[0])
        pr = rank + int(np.flatnonzero(R[rank:, c])[0])
        if pr != rank:
            R[[rank, pr]] = R[[pr, rank]]
        R[rank] = (R[rank] * inv_mod(int(R[rank, c]), l)) % l
        other = np.flatnonzero(R[:, c])
        other = other[other != rank]
        if len(other):
            R[other] = (R[other] - np.outer(R[other, c], R[rank])) % l
        pivots.append(c)
    return R[: len(pivots)], pivots


def poly_roots(p, l: int) -> list[int]:
    """All roots in F_l, ascending, by vectorised evaluation over the whole
    field."""
    out = []
    chunk = 1_000_000
    for lo in range(0, l, chunk):
        xs = np.arange(lo, min(l, lo + chunk), dtype=np.int64)
        acc = np.zeros(len(xs), dtype=np.int64)
        for c in reversed(p):
            acc = (acc * xs + c) % l
        out.extend(int(x) for x in xs[acc == 0])
    return out


def min_poly(seq, l: int) -> list[int]:
    """The monic minimal polynomial of a linearly recurrent sequence s_0,
    s_1, ... of residues mod l, as ascending coefficients f with sum_a f_a
    s_(i + a) = 0 for every i; by Berlekamp-Massey, so it is that
    polynomial when the sequence holds at least twice its degree terms.

    Each discrepancy sums at most len(seq) products of two residues in
    int64; OverflowError is raised unless len(seq) (l - 1)^2 < 2^63."""
    s = np.asarray(seq, dtype=np.int64) % l
    N = len(s)
    if N * (l - 1) ** 2 >= 2**63:
        raise OverflowError(f"int64 exactness: {N} terms of (l - 1)^2 for l = {l}")
    # connection polynomial C (C_0 = 1): s_i + C_1 s_(i-1) + ... + C_L s_(i-L) = 0
    C = np.zeros(N + 1, dtype=np.int64)
    C[0] = 1
    B = C.copy()
    L, m, b = 0, 1, 1
    for i in range(N):
        disc = int(C[: L + 1] @ s[i - L : i + 1][::-1]) % l
        if not disc:
            m += 1
            continue
        T = C.copy() if 2 * L <= i else None
        C[m:] = (C[m:] - disc * inv_mod(b, l) % l * B[: N + 1 - m]) % l
        if T is None:
            m += 1
        else:
            L, B, b, m = i + 1 - L, T, disc, 1
    return [int(c) for c in C[L::-1]]


def primitive_root(l: int) -> int:
    """Least primitive root modulo prime l."""
    fac = factorise(l - 1)
    for g in range(1, l):
        if all(pow(g, (l - 1) // f, l) != 1 for f in fac):
            return g
    raise RuntimeError("no primitive root found")
