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
`_values`, their one evaluation at the roots mod a prime, also serves
`dixon`'s table check, whose check at one root is its one-column case.

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

from .abelian import factorise
from .modlinalg import inv_mod, matmul_mod, primitive_root, reduce_mod
from .rings import is_prime


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple:
    """Integer coefficients (ascending) of the e-th cyclotomic polynomial.

    Phi_e(x) = Phi_m(x^(e/m)) for m the product of the primes of e, and
    Phi_m = prod_{d | m} (x^d - 1)^mu(m/d).  The factors with mu = 1 are
    multiplied in (p (x^d - 1) is p shifted by d minus p), then those with
    mu = -1 divided out: q = p / (x^d - 1) has q_i = q_(i-d) - p_i, the
    negated running sums of p over blocks of d coefficients, and the rest
    of p must be what q (x^d - 1) puts there.  The arrays hold Python
    integers, so no step can overflow."""
    primes = list(factorise(e))
    m = prod(primes)
    num, dens = np.array([1], dtype=object), []
    for bits in range(1 << len(primes)):
        chosen = [q for i, q in enumerate(primes) if bits >> i & 1]
        d = m // prod(chosen)  # mu(m/d) = (-1)^len(chosen)
        if len(chosen) % 2:
            dens.append(d)
        else:
            pad = np.zeros(d, dtype=object)
            num = np.concatenate([pad, num]) - np.concatenate([num, pad])
    for d in dens:
        top = len(num) - d  # coefficients of q
        blocks = np.concatenate([num[:top], np.zeros(-top % d, dtype=object)]).reshape(-1, d)
        q = -np.cumsum(blocks, axis=0).ravel()[:top]
        if (num[top:] != q[top - d :]).any():
            raise ArithmeticError(f"x^{d} - 1 does not divide the product for Phi_{e}")
        num = q
    out = np.zeros((len(num) - 1) * (e // m) + 1, dtype=object)
    out[:: e // m] = num
    return tuple(int(c) for c in out)


@lru_cache(maxsize=None)
def phi(e: int) -> int:
    return len(cyclotomic_poly(e)) - 1


def _zeta_rows(e: int):
    """The rows of `zeta_powers(e)` in order, each x times the one before
    mod Phi_e (x^phi(e) = -(f_0 + ... + f_(phi(e)-1) x^(phi(e)-1))), in one
    int64 buffer that every step overwrites."""
    f = np.array(cyclotomic_poly(e)[:-1], dtype=np.int64)
    row = np.zeros(len(f), dtype=np.int64)
    row[0] = 1
    yield row
    for _ in range(1, e):
        lead = int(row[-1])
        row[1:] = row[:-1]
        row[0] = 0
        row -= lead * f
        yield row


@lru_cache(maxsize=None)
def zeta_powers(e: int) -> np.ndarray:
    """Read-only int64 array of shape (e, phi(e)) whose row j holds the
    canonical coefficients of zeta_e^j, i.e. of x^j mod Phi_e."""
    out = np.empty((e, phi(e)), dtype=np.int64)
    for j, row in enumerate(_zeta_rows(e)):
        out[j] = row
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def zeta_bound(e: int) -> int:
    """max|zeta_powers(e)|, the largest absolute canonical coefficient of an
    e-th root of unity, taken row by row with nothing kept."""
    return max(int(np.abs(row).max()) for row in _zeta_rows(e))


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
def _root(e: int, l: int) -> int:
    """w = g^((l - 1) / e) mod l, for g the least primitive root mod a prime
    l = 1 (mod e): a root of unity of order e, the first root of
    `_evaluation_matrices`."""
    return pow(primitive_root(l), (l - 1) // e, l)


# (e, l) pairs whose evaluation matrices stay cached, each 2 phi(e)^2
# float64.  A product's primes (`split_primes`, whose product need only
# pass 2^64) and the Dixon prime fit, so a run of products over one e
# derives them once; a longer ladder only recomputes matrices.
_EVALUATION_CACHE = 8


@lru_cache(maxsize=_EVALUATION_CACHE)
def _evaluation_matrices(e: int, l: int):
    """(V, Vinv), residues mod l as float64, for l a prime = 1 (mod e).

    The primitive e-th roots mod l are r_j = w^k for w of order e and k
    coprime to e, ascending; V[a, j] = r_j^a (a, j < phi(e)), so a
    coefficient row times V lists its values at the r_j.  Vinv[j, a] is
    coefficient a of the Lagrange basis polynomial Phi_e(x) / ((x - r_j)
    Phi_e'(r_j)) mod l, so values times Vinv is the coefficient row again.
    """
    d = phi(e)
    w = _root(e, l)
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


def _values(coeffs: np.ndarray, V: np.ndarray, l: int) -> np.ndarray:
    """The values mod l of a (rows, n, d) block of coefficient rows at the
    roots of the columns of V (`_evaluation_matrices`, or some columns), as
    a (rows, n, columns) float64 view of a C-contiguous (columns, rows, n)
    array: one contiguous matrix per root.  Coefficients below 2^53 reduce
    exactly (`reduce_mod`), and each value sums d products of residues:
    exact when d (l - 1)^2 < 2^53."""
    rows, n, d = coeffs.shape
    return matmul_mod(V.T, reduce_mod(coeffs.reshape(rows * n, d), l).T, l).T.reshape(rows, n, -1)


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
    bound = (2 * d - 1) * zeta_bound(e) * d * m * x * y
    if bound >= 2**63:
        raise OverflowError(f"int64 overflow risk: Z[zeta_{e}] product bound {bound} >= 2^63")
    primes = split_primes(e, max(m, d), bound)
    digits = []
    for i, l in enumerate(primes):
        V, Vinv = _evaluation_matrices(e, l)
        # pointwise products of the values at the roots, interpolated to the
        # (d, n p) coefficients mod l; `_values` reduces entries below
        # 2^53 - l exactly, and an operand with larger entries goes mod l first
        ops = ((A if a < 2**53 - l else A % l) for A, a in ((X, x), (Y, y)))
        v = matmul_mod(*(np.moveaxis(_values(A, V, l), 2, 0) for A in ops), l)
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
    bound = phi(e) * int(np.abs(X).max(initial=0)) * zeta_bound(E)
    if bound >= 2**63:
        raise OverflowError(f"int64 overflow risk: substitution bound {bound} >= 2^63")
    S = Z[(np.arange(phi(e)) * m + np.asarray(shift)[..., None]) % E]
    return (X[..., None, :] @ S)[..., 0, :]
