"""Exact irreducible character tables via class-sum eigenvector splitting.

The classical modular method: work modulo a prime l with l = 1 (mod e),
e the group exponent, and l > 2*isqrt(|G|)*max|zeta_powers(e)|, so that F_l
contains the needed roots of unity and integer character data is determined
by its residue (see `dixon_prime`).

Stages:
  1. class matrices M_i with (M_i)[j, k] = #{x in C_i : x^-1 z_k in C_j},
     built lazily, cheapest classes first (cost |C_i| per column);
  2. common eigenvector splitting of the commuting family {M_i} over F_l:
     one product per M_i for the rows of all open blocks together; a block
     on which M_i acts as a scalar passes through, and only the others take
     the Krylov path: the eigenvalues are the roots of Krylov relations, then
     one nullspace per eigenvalue gives its eigenspace;
  3. normalisation of eigenvectors to central characters, then degrees by
     search: the one d <= isqrt(|G|) whose square has the right residue;
  4. lifting by the Galois action: chi(g^m) = sigma_m(chi(g)), so the
     values of every entry at the primitive e-th roots mod l are columns
     of the mod-l table read through the power map, and one interpolation
     (`cyclotomic._evaluation_matrices`) gives its canonical coefficients
     in Z[zeta_e];
  5. verification of both orthogonality relations over Z[zeta_e], checked
     on the values at the primitive e-th roots of unity modulo split primes,
     with no CRT rebuild (`verify_orthogonality`).

No tolerance anywhere; every verification is an integer identity.  The
products mod l are float64 BLAS products of residues (`modlinalg.matmul_mod`),
each guarded so that every partial sum is an integer below 2^53.  The lift
and the verification hold their float64 arrays a block at a time, sized by
`_BLOCK_BYTES`; every bound is per entry, so the blocking changes no proof.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclotomic import _evaluation_matrices, phi, split_primes, zeta_bound
from .groups import ConjugacyData, MatrixGroup
from .modlinalg import inv_mod, krylov_relation, matmul_mod, nullspace, poly_roots, reduce_mod
from .rings import is_prime

MODULUS_SEARCH_BOUND = 30_000_000

# Bytes of the float64 block that `lift_table` (values of a block of rows t
# at all roots) and `verify_orthogonality` (values at a block of roots) hold
# at a time.
_BLOCK_BYTES = 2**21


class ModulusSearchError(RuntimeError):
    pass


class VerificationError(AssertionError):
    """A table identity failed to verify.

    Raised explicitly, so that `python -O` cannot strip the check; it
    derives from AssertionError so that callers which caught the former
    `assert` statements keep working.
    """


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime l = 1 (mod exponent) with l > 2*isqrt(order)*z, for
    z = max|zeta_powers(exponent)| (`cyclotomic.zeta_bound`).

    This is enough, though l may lie below 2*sqrt(order) (SL2(Z/4), of
    order 48, gets l = 13 < 2*sqrt(48)).  Every degree d is an integer in
    [1, isqrt(order)], since d^2 <= order, so two degrees d1 != d2 have
    0 < |d1 - d2| < d1 + d2 < l: d1^2 and d2^2 differ mod l and the degree
    search finds one root.  The lift reads back the canonical coefficients
    c_i of a character value chi(g), the sum of its d eigenvalues zeta_e^a,
    that is sum_a m_a zeta_powers(e)[a] with m_a >= 0 summing to d; so
    |c_i| <= d z <= isqrt(order) z < l/2, and c_i is the symmetric residue
    of c_i mod l.
    """
    lo = 2 * math.isqrt(order) * zeta_bound(exponent) + 1
    # l = 1 + m*exponent
    m = max(1, (lo - 1) // exponent)
    while True:
        l = 1 + m * exponent
        if l > MODULUS_SEARCH_BOUND:
            raise ModulusSearchError(
                f"no prime = 1 mod {exponent} above 2*sqrt({order}) "
                f"found below {MODULUS_SEARCH_BOUND}"
            )
        if l >= lo and l > exponent and is_prime(l):
            return l
        m += 1


def class_matrix(group: MatrixGroup, cd: ConjugacyData, i: int) -> np.ndarray:
    """M_i over the integers; column k counts x in C_i with x^-1 z_k in C_j.

    One product over all (x^-1, z_k) pairs, as an (n, |C_i|) array whose row
    k holds the x^-1 z_k, and one count of (class, column) pairs."""
    sp = group.space
    n = cd.n_classes
    Xinv = sp.inv(cd.class_lists[i])
    y = sp.mul(Xinv[None, :], cd.reps[:, None])
    idx = cd.class_of[y] * n + np.arange(n)[:, None]
    return np.bincount(idx.ravel(), minlength=n * n).reshape(n, n)


def _split_blocks(blocks, M, l):
    """Refine invariant blocks under M.

    A block is (B, cols), a row basis B with B[:, cols] the identity, so the
    operator on it is read off at cols.  The rows of all blocks of more than
    one row are stacked into S, and Y = S M^T (mod l) is one product.  A
    block whose rows all have Y_i = lam S_i (mod l), for one lam, passes
    unchanged: that is exactly "invariant, and M acts on it as the scalar
    lam", since R = Y[:, cols] = lam I gives R B = lam B = Y, and R B = Y
    with R = lam I gives Y = lam B.  On any other block, the eigenvalues
    are the roots of the Krylov relations of the unit vectors e_0, e_1, ...,
    taken until their eigenspaces fill the block; each eigenspace (N, free)
    becomes the block (N B, [cols[f] for f in free]), the identity at its
    columns again.
    """
    open_blocks = [(B, cols) for B, cols in blocks if B.shape[0] > 1]
    if not open_blocks:
        return list(blocks)
    S = np.vstack([B for B, _ in open_blocks])
    Y_all = matmul_mod(S, M.T.astype(np.float64), l).astype(np.int64)
    # lam_i at row i's own identity column.  lam_i S_i is exact in int64:
    # both are residues below l, and matmul_mod checked n (l-1)^2 < 2^53.
    lam_all = Y_all[np.arange(len(S)), np.concatenate([c for _, c in open_blocks])]
    scalar_row = (lam_all[:, None] * S % l == Y_all).all(axis=1)
    out = []
    at = 0
    for B, cols in blocks:
        d = B.shape[0]
        if d == 1:
            out.append((B, cols))
            continue
        Y, lams, scalar = Y_all[at : at + d], lam_all[at : at + d], scalar_row[at : at + d]
        at += d
        if scalar.all() and (lams == lams[0]).all():
            out.append((B, cols))
            continue
        R = Y[:, cols]
        if not (matmul_mod(R, B, l) == Y).all():
            raise VerificationError("block not invariant")
        op = R.T
        eye = np.eye(d, dtype=np.int64)
        spaces = {}
        for start in range(d):
            for lam in poly_roots(krylov_relation(op, eye[start], l), l):
                if lam not in spaces:
                    spaces[lam] = nullspace((op - lam * eye) % l, l)
            if sum(len(free) for _, free in spaces.values()) == d:
                break
        else:
            raise VerificationError("operator not split")
        for N, free in spaces.values():
            out.append((matmul_mod(N, B, l), [cols[f] for f in free]))
    return out


def character_table_mod_l(group: MatrixGroup):
    """Mod-l character values: (Xl, degrees, l, cd) with Xl[t, k] =
    chi_t(z_k) mod l, and l = `dixon_prime(|G|, e)`."""
    cd = group.conjugacy()
    n = cd.n_classes
    l = dixon_prime(group.order, cd.exponent)

    blocks = [(np.eye(n, dtype=np.int64), list(range(n)))]
    order_of_use = sorted(range(1, n), key=lambda i: (int(cd.sizes[i]), i))
    for i in order_of_use:
        if all(B.shape[0] == 1 for B, _ in blocks):
            break
        M = class_matrix(group, cd, i) % l
        blocks = _split_blocks(blocks, M, l)
    if not all(B.shape[0] == 1 for B, _ in blocks):
        raise VerificationError("table did not split")

    V = np.vstack([B for B, _ in blocks]) % l
    if not (V[:, 0] != 0).all():
        raise VerificationError("eigenvector vanishes at the identity class")
    V = (V * np.array([[inv_mod(int(v), l)] for v in V[:, 0]])) % l

    # sum_k V[t, k] V[t, k^-1] / |C_k| = |G| / d_t^2 (mod l)
    csz_inv = np.array([inv_mod(int(s), l) for s in cd.sizes], dtype=np.int64)
    s = (V * V[:, cd.inverse_class] % l * csz_inv % l).sum(axis=1) % l
    d2 = np.array([group.order * inv_mod(int(x), l) % l for x in s], dtype=np.int64)
    ds = np.arange(1, math.isqrt(group.order) + 1, dtype=np.int64)
    hit = (ds * ds % l)[None, :] == d2[:, None]
    if not hit.any(axis=1).all():
        raise VerificationError("degree recovery failed")
    degrees = ds[hit.argmax(axis=1)]
    if int((degrees.astype(object) ** 2).sum()) != group.order:
        raise VerificationError("degree recovery failed")
    Xl = V * degrees[:, None] % l * csz_inv % l
    return Xl, degrees, l, cd


def lift_table(group: MatrixGroup):
    """Exact table: (int coefficient tensor (n, n, phi(e)), e, degrees, cd).

    Entry [t, k] holds the canonical Z[zeta_e] coefficients of chi_t(z_k).
    Read zeta_e as the root w of `_evaluation_matrices` (another primitive
    root only maps each row to a Galois conjugate, also a row).  The value
    of chi_t(z_k) at the root r_j = w^(m_j) is sigma_(m_j)(chi_t(z_k)) =
    chi_t(z_k^(m_j)) = Xl[t, pm[k, m_j]] mod l; those values times Vinv are
    the coefficients mod l, and by `dixon_prime` their symmetric residues
    are the coefficients.
    """
    Xl, degrees, l, cd = character_table_mod_l(group)
    n, e = cd.n_classes, cd.exponent
    d = phi(e)
    if 2 * int(degrees.max()) * zeta_bound(e) >= l:
        raise VerificationError(f"l = {l} is too small to lift degree {int(degrees.max())}")
    _, Vinv = _evaluation_matrices(e, l)
    # the m_j, ascending as in `_evaluation_matrices` (at e = 1, w^0 = w = 1)
    m = [a for a in range(e) if math.gcd(a, e) == 1]
    cols = cd.power_map()[:, m]
    Xf = Xl.astype(np.float64)
    coeffs = np.empty((n, n, d), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (8 * n * d))
    for lo in range(0, n, step):
        # each coefficient sums d products of residues: `matmul_mod` checks
        # d (l - 1)^2 < 2^53
        c = matmul_mod(Xf[lo : lo + step][:, cols], Vinv, l)
        c[c > l // 2] -= l
        coeffs[lo : lo + step] = c
    return coeffs, e, degrees, cd


def _relation_residues(R, sizes, inverse_class, targets, V, l):
    """Per block of the roots of V (`cyclotomic._evaluation_matrices`):
    (lo, (P1 - T1, P2 - T2)), the values mod l of both relations of
    `verify_orthogonality` minus their targets, at roots lo, lo + 1, ...,
    as (roots, n, n) float64 stacks of integers in (-l, l).

    R is the (n n, d) table of coefficient residues mod l, so an entry of R
    times a column of V sums d products of residues; the relation products
    sum n.  Both are exact below 2^53, for the primes of `split_primes(e,
    max(n, d), ...)`."""
    n = len(sizes)
    d = V.shape[0]
    step = max(1, _BLOCK_BYTES // (8 * n * n))
    for lo in range(0, d, step):
        vals = matmul_mod(V[:, lo : lo + step].T, R.T, l).reshape(-1, n, n)
        conj = vals[:, :, inverse_class]  # chi_t(g_k^-1) at each root
        vals_w = vals * sizes  # each below (l - 1)^2
        P1 = matmul_mod(reduce_mod(vals_w, l, out=vals_w), conj.transpose(0, 2, 1), l)
        del vals_w
        P2 = matmul_mod(vals.transpose(0, 2, 1), conj, l)
        del vals, conj
        for P, t in zip((P1, P2), targets):
            P.reshape(len(P), n * n)[:, :: n + 1] -= t
        yield lo, (P1, P2)


def verify_orthogonality(coeffs: np.ndarray, cd: ConjugacyData, order: int):
    """Exact first and second orthogonality over Z[zeta_e].

    For the (characters, classes) table C and chi(g^-1) = conj chi(g), the
    relations are P1 = C diag(|C_k|) C[:, inv]^T = |G| I = T1, that is
    sum_k |C_k| chi_i(g_k) chi_j(g_k^-1) = |G| [i = j], and P2 = C^T C[:,
    inv] = diag(|C_G(g_k)|) = T2, products over Z[zeta_e] whose targets are
    rational.  They are checked on the values at the primitive e-th roots
    modulo split primes: no interpolation and no CRT rebuild.

    Exactness.  By `cyclotomic.matmul`'s bound, with x = max|C| and y = x
    max|C_k|, every canonical coefficient of P1 (factors at most y and x)
    and of P2 (factors at most x) is at most B = (2d - 1) z d n x y, d =
    phi(e); those of the targets are at most |G|, so those of P - T are at
    most B + |G|.
    The primes l are `split_primes(e, max(n, d), B + |G|)`, with product
    M > 2 (B + |G|).  At each l, evaluation a -> (a(r_j))_j at the
    primitive e-th roots r_j mod l is a ring isomorphism Z[zeta_e]/l ->
    F_l^d (see `cyclotomic`), so P(r_j) is the product of the values of C
    at r_j, computed as float64 products of residues that `split_primes`
    keeps exact, and T(r_j) = T mod l.  Agreement at every r_j thus gives
    P = T in Z[zeta_e]/l: every coefficient of P - T is divisible by l.
    Over all the primes it is divisible by M, and at most B + |G| < M/2 in
    absolute value, hence zero: P = T in Z[zeta_e].  A table with B >=
    2^63 is not verified (the ladder of `split_primes` ends at 2^64).

    On a mismatch, coefficient 0 of the residual P - T mod l is sum_j (P -
    T)(r_j) Vinv[j, 0], by interpolation; the failure is reported as in
    the constant term when that is nonzero, else in the irrational part.
    """
    n, _, d = coeffs.shape
    e = cd.exponent
    x = max(int(coeffs.max(initial=0)), -int(coeffs.min(initial=0)))
    bound = (2 * d - 1) * zeta_bound(e) * d * n * x * x * int(cd.sizes.max())
    if bound >= 2**63:
        raise VerificationError(f"int64 overflow risk: Z[zeta_{e}] product bound {bound} >= 2^63")
    try:
        primes = split_primes(e, max(n, d), bound + order)
    except OverflowError as exc:
        raise VerificationError(str(exc)) from exc
    for l in primes:
        V, Vinv = _evaluation_matrices(e, l)
        # |C| <= x < 2^32, as x^2 <= B < 2^63
        R = reduce_mod(coeffs.reshape(n * n, d), l)
        args = (R, cd.sizes % l, cd.inverse_class, (order % l, cd.centralizer_orders % l), V, l)
        for _, (res1, res2) in _relation_residues(*args):
            if res1.any() or res2.any():
                which = 0 if res1.any() else 1
                # each block sums its roots' terms, d (l - 1)^2 < 2^53 in all
                c0 = sum(
                    np.tensordot(Vinv[lo : lo + len(res[which]), 0], res[which] % l, axes=1)
                    for lo, res in _relation_residues(*args)
                )
                part = "constant term" if (c0 % l).any() else "irrational part"
                raise VerificationError(f"orthogonality failed ({part})")
