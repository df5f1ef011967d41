"""Exact irreducible character tables via class-sum eigenvector splitting.

The classical modular method: work modulo a prime l with l = 1 (mod e),
e the group exponent, and l > 2*isqrt(|G|), so that F_l contains the needed
roots of unity and integer character data is determined by its residue
(see `dixon_prime`).

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
  4. lifting to exact root-of-unity multiplicities with the inverse Fourier
     sum over power maps, then canonical reduction into Z[zeta_e];
  5. verification of both orthogonality relations over Z[zeta_e], exact via
     split primes and CRT (`cyclotomic.matmul`).

No tolerance anywhere; every verification is an integer identity.  The
products mod l are float64 BLAS products of residues (`modlinalg.matmul_mod`
and `exact_matmul`), each guarded so that every partial sum is an integer
below 2^53.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclotomic import matmul, phi, zeta_powers
from .groups import ConjugacyData, MatrixGroup
from .modlinalg import (
    exact_matmul,
    inv_mod,
    krylov_relation,
    matmul_mod,
    nullspace,
    poly_roots,
    primitive_root,
)
from .rings import is_prime

MODULUS_SEARCH_BOUND = 30_000_000


class ModulusSearchError(RuntimeError):
    pass


class VerificationError(AssertionError):
    """A table identity failed to verify.

    Raised explicitly, so that `python -O` cannot strip the check; it
    derives from AssertionError so that callers which caught the former
    `assert` statements keep working.
    """


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime l = 1 (mod exponent) with l > 2*isqrt(order).

    This is enough, though l may lie below 2*sqrt(order) (SL2(Z/4), of
    order 48, gets l = 13 < 2*sqrt(48)).  Every degree d and every
    eigenvalue multiplicity the lift reads back is an integer in
    [0, isqrt(order)], since d^2 <= order: such an integer is its own
    least residue, and two degrees d1 != d2 in [1, isqrt(order)] have
    0 < |d1 - d2| < d1 + d2 < l, so d1^2 and d2^2 differ mod l and the
    degree search finds one root.
    """
    lo = int(2 * math.isqrt(order)) + 1
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
    """Mod-l character values: (Xl, l, z, cd) with Xl[t, k] = chi_t(z_k)."""
    cd = group.conjugacy()
    n = cd.n_classes
    e = cd.exponent
    l = dixon_prime(group.order, e)
    z = pow(primitive_root(l), (l - 1) // e, l)

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
    return Xl, degrees, l, z, cd


def lift_table(group: MatrixGroup):
    """Exact table: (int coefficient tensor (n, n, phi(e)), e, degrees, cd).

    Entry [t, k] holds the canonical Z[zeta_e] coefficients of chi_t(z_k).
    """
    Xl, degrees, l, z, cd = character_table_mod_l(group)
    n = cd.n_classes
    e = cd.exponent
    pm = cd.power_map()

    # inverse Fourier transform over each cyclic power orbit
    a_idx, i_idx = np.meshgrid(np.arange(e), np.arange(e), indexing="ij")
    zpow = np.array([pow(z, a, l) for a in range(e)], dtype=np.int64)
    Zmat = zpow[((-a_idx * i_idx) % e)] * inv_mod(e, l) % l  # Zmat[a, i] = z^(-a i) / e

    # W @ Zmat, W[t k, i] = chi_t(z_k^i), sums e products of residues: exact
    # when e (l - 1)^2 < 2^53.  The multiplicities stay float64 integers.
    W = Xl.astype(np.float64)[:, pm.reshape(-1)].reshape(n * n, e)
    mult = matmul_mod(W, Zmat, l)
    del W
    # multiplicities are genuine eigenvalue counts: they must sum to degrees
    if not (mult.reshape(n, n, e).sum(axis=2) == degrees[:, None]).all():
        raise VerificationError("lift produced non-multiplicities")

    # nonnegative multiplicities summing to a degree are at most max(degrees)
    Z = zeta_powers(e)
    coeffs = exact_matmul(mult, Z, int(degrees.max()), int(np.abs(Z).max()))
    coeffs = coeffs.astype(np.int64).reshape(n, n, phi(e))
    return coeffs, e, degrees, cd


def verify_orthogonality(coeffs: np.ndarray, cd: ConjugacyData, order: int):
    """Exact first and second orthogonality over Z[zeta_e].

    Both relations are `cyclotomic.matmul` products, read against chi(g^-1)
    = conj chi(g): sum_k |C_k| chi_i(g_k) chi_j(g_k^-1) must be |G| [i = j],
    and sum_t chi_t(g_k) chi_t(g_l^-1) the centralizer order [k = l], on the
    nose: coefficient 0 equal and every other coefficient zero.  A table
    whose products would overflow int64 is not verified.
    """
    n = coeffs.shape[0]
    inv = coeffs[:, cd.inverse_class, :]
    w = cd.sizes.astype(np.int64)
    for X, Y, target in (
        (coeffs * w[None, :, None], inv.transpose(1, 0, 2), order * np.eye(n, dtype=np.int64)),
        (coeffs.transpose(1, 0, 2), inv, np.diag(cd.centralizer_orders.astype(np.int64))),
    ):
        try:
            P = matmul(X, Y, cd.exponent)
        except OverflowError as exc:
            raise VerificationError(str(exc)) from exc
        if not (P[:, :, 0] == target).all():
            raise VerificationError("orthogonality failed (constant term)")
        if P[:, :, 1:].any():
            raise VerificationError("orthogonality failed (irrational part)")
