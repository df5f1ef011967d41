"""Exact arithmetic in the cyclotomic integers Z[zeta_e].

An element is stored against a fixed root-of-unity order e as the canonical
remainder modulo the e-th cyclotomic polynomial: an integer coefficient row
(c_0, ..., c_{phi(e)-1}) meaning sum(c_i * zeta_e^i).  The power basis is an
integral basis of Z[zeta_e], so equality is equality of rows and no floating
point or fraction enters anywhere.

Arrays of elements are int64 tensors whose last axis holds the phi(e)
coefficients.  `matmul` is their one product and `substitute` their one
change of root (promotion to a multiple order, conjugation, Galois action,
multiplication by a root of unity); both check their int64 bound.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np


def _poly_divmod_int(num: list, den: list):
    """Division with remainder by a monic integer polynomial."""
    num = list(num)
    d = len(den) - 1
    q = [0] * max(1, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            q[i - d] = c
            for j in range(d + 1):
                num[i - d + j] -= c * den[j]
    return q, num[:d]


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple:
    """Integer coefficients (ascending) of the e-th cyclotomic polynomial."""
    if e == 1:
        return (-1, 1)
    # (x^e - 1) / prod_{d | e, d < e} Phi_d
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1
    for d in range(1, e):
        if e % d == 0:
            q, r = _poly_divmod_int(num, list(cyclotomic_poly(d)))
            if any(r):
                raise ArithmeticError(f"Phi_{d} does not divide x^{e} - 1 exactly")
            num = q
    return tuple(num)


@lru_cache(maxsize=None)
def phi(e: int) -> int:
    return len(cyclotomic_poly(e)) - 1


@lru_cache(maxsize=None)
def zeta_powers(e: int) -> np.ndarray:
    """Read-only int64 array of shape (e, phi(e)) whose row j holds the
    canonical coefficients of zeta_e^j, i.e. of x^j mod Phi_e."""
    f = cyclotomic_poly(e)
    rows = [[1] + [0] * (phi(e) - 1)]
    for _ in range(e - 1):
        # x * row, with x^phi(e) = -(f_0 + ... + f_{phi(e)-1} x^(phi(e)-1))
        lead = rows[-1][-1]
        rows.append([a - lead * b for a, b in zip([0] + rows[-1][:-1], f)])
    out = np.array(rows, dtype=np.int64)
    out.flags.writeable = False
    return out


def matmul(X: np.ndarray, Y: np.ndarray, e: int) -> np.ndarray:
    """The matrix product over Z[zeta_e] of integer coefficient tensors.

    X has shape (n, m, d) and Y shape (m, p, d), d = phi(e): entry [i, j]
    stands for sum_a X[i, j, a] zeta_e^a.  Returns the (n, p, d) int64
    tensor of canonical coefficients of the product.  It is computed as
    sum_s U_s zeta_e^s with U_s = sum_{a+b=s} X_a Y_b for s < 2d - 1
    (X_a = X[:, :, a]), replacing zeta_e^s by row s mod e of `zeta_powers`.

    int64 bound.  Let x = max|X|, y = max|Y| and z = max|zeta_powers(e)|.
    An entry of X_a Y_b sums m products of size at most x y, and U_s sums at
    most d such matrices, so |U_s| <= d m x y.  An output coefficient sums
    the 2d - 1 terms z_s U_s with |z_s| <= z, so it and every partial sum
    on the way are at most (2d - 1) z d m x y in absolute value.  The
    product is computed only when that bound is below 2^63, and raises
    OverflowError otherwise.
    """
    n, m, d = X.shape
    Z = zeta_powers(e)
    x, y = (int(np.abs(A).max(initial=0)) for A in (X, Y))
    bound = (2 * d - 1) * int(np.abs(Z).max()) * d * m * x * y
    if bound >= 2**63:
        raise OverflowError(f"int64 overflow risk: Z[zeta_{e}] product bound {bound} >= 2^63")
    Xs = np.ascontiguousarray(np.moveaxis(X, 2, 0))
    Ys = np.ascontiguousarray(np.moveaxis(Y, 2, 0))
    out = np.zeros((d, n, Y.shape[1]), dtype=np.int64)
    for s in range(2 * d - 1):
        U = sum(Xs[a] @ Ys[s - a] for a in range(max(0, s - d + 1), min(d, s + 1)))
        row = Z[s % e]
        for j in np.flatnonzero(row):
            out[j] += row[j] * U
    return np.moveaxis(out, 0, 2)


def substitute(X: np.ndarray, e: int, E: int, m: int, shift=0) -> np.ndarray:
    """Coefficient rows over Z[zeta_e] under zeta_e^i -> zeta_E^(i m + shift):
    the ring map zeta_e -> zeta_E^m, then multiplication by zeta_E^shift.

    X has shape (..., phi(e)); `shift`, an int or an int array broadcasting
    against X.shape[:-1], gives one root of unity per row.  zeta_E^m must be
    a primitive e-th root (gcd(m, E) = E/e): m = E/e promotes to Z[zeta_E],
    and with E = e, m = -1 conjugates and a unit m is a Galois substitution.

    int64 bound.  An output coefficient sums phi(e) products of an entry of X
    and one of `zeta_powers(E)`, so it and its partial sums are at most
    phi(e) x z for x = max|X|, z = max|zeta_powers(E)|; OverflowError is
    raised when that bound reaches 2^63.
    """
    if E % e or gcd(m, E) != E // e:
        raise ValueError(f"zeta_{E}^{m} is not a primitive {e}-th root of unity")
    X = np.asarray(X, dtype=np.int64)
    Z = zeta_powers(E)
    bound = phi(e) * int(np.abs(X).max(initial=0)) * int(np.abs(Z).max())
    if bound >= 2**63:
        raise OverflowError(f"int64 overflow risk: substitution bound {bound} >= 2^63")
    S = Z[(np.arange(phi(e)) * m + np.asarray(shift)[..., None]) % E]
    return (X[..., None, :] @ S)[..., 0, :]
