"""Exact arithmetic in the cyclotomic integers Z[zeta_e].

An element is stored against a fixed root-of-unity order e as the canonical
remainder modulo the e-th cyclotomic polynomial: an integer coefficient row
(c_0, ..., c_{phi(e)-1}) meaning sum(c_i * zeta_e^i).  The power basis is an
integral basis of Z[zeta_e], so equality is equality of rows, and every
result is an exact integer identity: no fraction enters, and floating point
only as float64 holding integers below 2^53.

Arrays of elements are int64 tensors whose last axis holds the phi(e)
coefficients.  `matmul` is their one product and `substitute` their one
change of root (promotion to a multiple order, conjugation, Galois action,
multiplication by a root of unity); both check their int64 bound.

Exactness of `matmul`.  It multiplies X (n, m, d) by Y (m, p, d), d =
phi(e), whose output coefficients are at most B = (2d - 1) z d m x y in
absolute value (the proof is in its docstring), and runs only when
B < 2^63.  It works modulo primes l = 1 (mod e), the evaluation-domain
method of FFLAS/FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35, 2008):

  * Each prime.  Phi_e splits mod l into the distinct linear factors
    x - r_j over the d primitive e-th roots r_j mod l (distinct because l
    does not divide e), so by the Chinese remainder theorem a -> (a(r_j))_j
    is a ring isomorphism Z[zeta_e]/l -> F_l^d.  The product mod l is then
    three float64 BLAS products of residues (`modlinalg.matmul_mod`):
    evaluation at the r_j, with d terms per entry; the d pointwise (n, m) @
    (m, p) products, with m terms; interpolation, with d terms.  A sum of k
    products of residues is an integer below k (l - 1)^2, and every partial
    sum on the way is too, so it is exact in float64 when k (l - 1)^2 <
    2^53.  `split_primes` takes l with max(m, d) (l - 1)^2 < 2^53, which
    covers all three.
  * The number of primes.  `split_primes` takes the largest such primes
    until their product M exceeds 2 B.  They are odd, so the integers
    c = v_1 + v_2 l_1 + v_3 l_1 l_2 + ... with symmetric digits v_i in
    [-(l_i - 1)/2, (l_i - 1)/2] are exactly those in [-(M - 1)/2,
    (M - 1)/2], which holds [-B, B]: each output coefficient is the one
    such integer with its residues.  For max(m, d) <= 1024 each l is
    above 2^21, so at most three primes reach any B < 2^63.
  * Garner in int64.  Digit v_i is (c - v_1 - ... - v_{i-1} l_1 ... l_{i-2})
    / (l_1 ... l_{i-1}) mod l_i, computed mod l_i by Horner over the
    earlier digits: each step multiplies two numbers below 2^27 (l - 1 <=
    sqrt(2^53)) and adds one, so stays below 2^55.  In the final Horner sum
    c = v_1 + l_1 (v_2 + l_2 (...)), each partial value h_i = (h_{i-1} -
    v_{i-1}) / l_{i-1} is at most max(|c|, 1) <= B in absolute value; and
    numpy's int64 arithmetic is exact modulo 2^64, so even a step passing
    2^63 on the way returns c, the one value in (-2^63, 2^63) with its
    residue mod 2^64.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod

import numpy as np

from .modlinalg import inv_mod, matmul_mod, primitive_root
from .rings import is_prime


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


# -- the evaluation-domain product --------------------------------------------


@lru_cache(maxsize=None)
def _prime_ladder(e: int, limit: int) -> tuple:
    """The largest primes l = 1 (mod e) with l - 1 <= limit, descending,
    until their product exceeds 2^64 (or none are left)."""
    primes, product = [], 1
    l = limit // e * e + 1
    while l > 2 and product <= 2**64:
        if is_prime(l):
            primes.append(l)
            product *= l
        l -= e
    return tuple(primes)


def split_primes(e: int, inner: int, bound: int) -> tuple:
    """The primes `matmul` works modulo, for a product over Z[zeta_e] whose
    float64 products have at most `inner` terms and whose output
    coefficients are at most `bound` in absolute value: the shortest prefix
    of the cached ladder of `_prime_ladder` with product above 2 * bound."""
    # the largest l - 1 with inner (l - 1)^2 < 2^53, so that `matmul_mod` is exact
    limit = isqrt((2**53 - 1) // inner)
    primes, product = [], 1
    for l in _prime_ladder(e, limit):
        primes.append(l)
        product *= l
        if product > 2 * bound:
            return tuple(primes)
    raise OverflowError(
        f"not enough primes = 1 mod {e} below the float64 limit for {inner} terms "
        f"to reach 2 * {bound}"
    )


@lru_cache(maxsize=None)
def _evaluation_matrices(e: int, l: int):
    """(V, Vinv), residues mod l as float64, for l a prime = 1 (mod e).

    The primitive e-th roots mod l are r_j = w^k for w of order e and k
    coprime to e, ascending; V[a, j] = r_j^a (a, j < phi(e)), so a
    coefficient row times V lists its values at the r_j.  Vinv[j, a] is
    coefficient a of the Lagrange basis polynomial Phi_e(x) / ((x - r_j)
    Phi_e'(r_j)) mod l, so values times Vinv is the coefficient row again.
    """
    d = phi(e)
    w = pow(primitive_root(l), (l - 1) // e, l)
    r = np.array([pow(w, k, l) for k in range(1, e + 1) if gcd(k, e) == 1], dtype=np.int64)
    V = np.ones((d, d), dtype=np.int64)
    for a in range(1, d):
        V[a] = V[a - 1] * r % l
    # synthetic division by x - r_j: Q[a, j] is coefficient a of Phi_e / (x - r_j)
    f = cyclotomic_poly(e)
    Q = np.ones((d, d), dtype=np.int64)
    for a in range(d - 1, 0, -1):
        Q[a - 1] = (f[a] + r * Q[a]) % l
    # Phi_e'(r_j) = Q_j(r_j); d (l - 1)^2 < 2^53 bounds the int64 column sums
    deriv = (Q * V).sum(axis=0) % l
    Vinv = Q.T * np.array([inv_mod(int(c), l) for c in deriv], dtype=np.int64)[:, None] % l
    V, Vinv = V.astype(np.float64), Vinv.astype(np.float64)
    V.flags.writeable = Vinv.flags.writeable = False
    return V, Vinv


def _values_at_roots(A: np.ndarray, V: np.ndarray, l: int) -> np.ndarray:
    """The (d, rows, cols) float64 stack of the values mod l of a (rows,
    cols, d) coefficient tensor at the roots of V (`_evaluation_matrices`);
    the residues are taken in int64 and stored straight into float64."""
    rows, cols, d = A.shape
    residues = np.remainder(A, l, out=np.empty(A.shape))
    return matmul_mod(V.T, residues.reshape(rows * cols, d).T, l).reshape(d, rows, cols)


def matmul(X: np.ndarray, Y: np.ndarray, e: int) -> np.ndarray:
    """The matrix product over Z[zeta_e] of integer coefficient tensors.

    X has shape (n, m, d) and Y shape (m, p, d), d = phi(e): entry [i, j]
    stands for sum_a X[i, j, a] zeta_e^a.  Returns the (n, p, d) int64
    tensor of canonical coefficients of the product, computed modulo split
    primes and rebuilt by CRT (see the module docstring).

    Coefficient bound.  Let x = max|X|, y = max|Y| and z = max|zeta_powers(e)|.
    The product is sum_s U_s zeta_e^s with U_s = sum_{a+b=s} X_a Y_b
    (X_a = X[:, :, a]) over s < 2d - 1.  An entry of X_a Y_b sums m products
    of size at most x y, and U_s sums at most d such matrices, so |U_s| <=
    d m x y; replacing zeta_e^s by row s mod e of `zeta_powers`, an output
    coefficient sums 2d - 1 terms z_s U_s with |z_s| <= z, so it is at most
    B = (2d - 1) z d m x y in absolute value.  The product is computed only
    when B < 2^63, so that the result fits int64; OverflowError otherwise.
    """
    n, m, d = X.shape
    p = Y.shape[1]
    x, y = (max(int(A.max(initial=0)), -int(A.min(initial=0))) for A in (X, Y))
    bound = (2 * d - 1) * int(np.abs(zeta_powers(e)).max()) * d * m * x * y
    if bound >= 2**63:
        raise OverflowError(f"int64 overflow risk: Z[zeta_{e}] product bound {bound} >= 2^63")
    primes = split_primes(e, max(m, d), bound)
    digits = []
    for i, l in enumerate(primes):
        V, Vinv = _evaluation_matrices(e, l)
        # pointwise products of the values at the roots, interpolated to the
        # (d, n p) coefficients mod l
        v = matmul_mod(_values_at_roots(X, V, l), _values_at_roots(Y, V, l), l)
        v = matmul_mod(Vinv.T, v.reshape(d, n * p), l).astype(np.int64)
        # Garner digit i, symmetric in [-(l - 1)/2, (l - 1)/2], computed in
        # place to hold few full-size arrays
        if digits:
            t = digits[-1] % l
            for u, lj in zip(reversed(digits[:-1]), reversed(primes[:i - 1])):
                t *= lj
                t += u
                t %= l
            v -= t
            v *= inv_mod(prod(primes[:i]), l)
            v %= l
        v[v > l // 2] -= l
        digits.append(v)
    c = digits[-1]
    for v, l in zip(reversed(digits[:-1]), reversed(primes[:-1])):
        c *= l
        c += v
    return np.moveaxis(c.reshape(d, n, p), 0, 2)


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
