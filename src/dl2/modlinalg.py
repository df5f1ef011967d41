"""Dense linear algebra and polynomial utilities modulo a prime.

Residues are numpy int64, or float64 holding integers.  Matrix products go
through `exact_matmul`, one float64 BLAS product whose exactness it checks,
and `matmul_mod`, the same product on residues reduced mod l; the int64
Krylov and Horner steps check with `require_int64_exact` that the prime is
small enough for them.
"""

from __future__ import annotations

import numpy as np

from .abelian import factorise


def require_int64_exact(n: int, l: int):
    """Raise OverflowError unless a sum of n products of residues in [0, l)
    stays exact in int64, i.e. unless n * (l - 1)^2 < 2^63."""
    if n * (l - 1) ** 2 >= 2**63:
        raise OverflowError(f"int64 overflow risk: {n} * ({l} - 1)^2 >= 2^63")


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


def nullspace(A: np.ndarray, l: int) -> np.ndarray:
    """Row basis (RREF) of {v : A v = 0} mod l."""
    R, pivots = rref(A, l)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for rr, pc in enumerate(pivots):
            basis[i, pc] = (-int(R[rr, fc])) % l
    return basis


def solve(A: np.ndarray, b: np.ndarray, l: int) -> np.ndarray:
    """One solution of A x = b mod l (must be consistent)."""
    m = A.shape[1]
    aug = np.concatenate([A % l, b.reshape(-1, 1) % l], axis=1)
    R, pivots = rref(aug, l)
    if m in pivots:
        raise ValueError("inconsistent linear system")
    x = np.zeros(m, dtype=np.int64)
    for rr, pc in enumerate(pivots):
        x[pc] = R[rr, m]
    return x


# -- polynomials over F_l (ascending coefficient lists) ----------------------


def poly_mul(a, b, l):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % l
    return out


def poly_divmod(a, b, l):
    a = [x % l for x in a]
    b = [x % l for x in b]
    while len(b) > 1 and b[-1] == 0:
        b.pop()
    db = len(b) - 1
    binv = inv_mod(b[-1], l)
    q = [0] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = (a[i] * binv) % l
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % l
    r = a[:db] or [0]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return q, r


def poly_gcd(a, b, l):
    a = [x % l for x in a]
    b = [x % l for x in b]
    while not (len(b) == 1 and b[0] == 0):
        _, r = poly_divmod(a, b, l)
        a, b = b, r
    c = inv_mod(a[-1], l)
    return [(x * c) % l for x in a]


def poly_lcm(a, b, l):
    g = poly_gcd(a, b, l)
    q, r = poly_divmod(poly_mul(a, b, l), g, l)
    if r != [0]:
        raise ArithmeticError("gcd does not divide the product")
    c = inv_mod(q[-1], l)
    return [(x * c) % l for x in q]


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


def poly_apply_matvec(p, M: np.ndarray, v: np.ndarray, l: int) -> np.ndarray:
    """p(M) v via Horner, deg(p) matrix-vector products; M, v and the
    coefficients of p are residues in [0, l)."""
    # each step sums the n products of M @ acc and one more, c * v
    require_int64_exact(M.shape[1] + 1, l)
    acc = np.zeros_like(v)
    for c in reversed(p):
        acc = ((M @ acc) + c * v) % l
    return acc


def krylov_relation(M: np.ndarray, v: np.ndarray, l: int) -> list[int]:
    """Monic minimal relation of the Krylov sequence v, Mv, M^2 v, ...;
    M is a matrix of residues in [0, l)."""
    n = len(v)
    require_int64_exact(n, l)
    K = [v % l]
    R = (v % l).reshape(1, -1).copy()
    # normalise first row
    pc0 = int(np.nonzero(R[0])[0][0])
    R[0] = (R[0] * inv_mod(int(R[0, pc0]), l)) % l
    piv = [pc0]
    while True:
        w = (M @ K[-1]) % l
        red = w.copy()
        for i, pc in enumerate(piv):
            c = int(red[pc])
            if c:
                red = (red - c * R[i]) % l
        nz = np.nonzero(red)[0]
        if len(nz) == 0:
            A = np.stack(K, axis=1) % l
            sol = solve(A, w, l)
            return [(-int(c)) % l for c in sol] + [1]
        pc = int(nz[0])
        red = (red * inv_mod(int(red[pc]), l)) % l
        K.append(w)
        R = np.vstack([R, red])
        piv.append(pc)
        if len(K) > n + 1:
            raise ArithmeticError("Krylov sequence longer than the dimension")


def sqrt_mod(a: int, l: int) -> int:
    """A square root of a modulo prime l (Tonelli-Shanks), or raises."""
    a %= l
    if a == 0:
        return 0
    if pow(a, (l - 1) // 2, l) != 1:
        raise ValueError(f"{a} is not a square mod {l}")
    if l % 4 == 3:
        return pow(a, (l + 1) // 4, l)
    q, s = l - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (l - 1) // 2, l) != l - 1:
        z += 1
    m, c, t, r = s, pow(z, q, l), pow(a, q, l), pow(a, (q + 1) // 2, l)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = (t2 * t2) % l
            i += 1
        b = pow(c, 1 << (m - i - 1), l)
        m, c = i, (b * b) % l
        t, r = (t * c) % l, (r * b) % l
    return r


def primitive_root(l: int) -> int:
    """Least primitive root modulo prime l."""
    fac = factorise(l - 1)
    for g in range(1, l):
        if all(pow(g, (l - 1) // f, l) != 1 for f in fac):
            return g
    raise RuntimeError("no primitive root found")
