"""Exact irreducible character tables via class-sum eigenvector splitting.

The classical modular method: work modulo a prime l with l = 1 (mod e),
e the group exponent, and l > 2*isqrt(|G|)*max|zeta_powers(e)|, so that F_l
contains the needed roots of unity and integer character data is determined
by its residue (see `dixon_prime`).

Stages:
  1. class matrices M_i with (M_i)[j, k] = #{x in C_i : x^-1 z_k in C_j},
     built for the first class of each rational class only (cost |C_i|
     per column), as omega_t(K_(pi_m i)) = sigma_m(omega_t(K_i)), and
     added into a few seeded elements sum_i c_i M_i of the class algebra;
  2. common eigenvector splitting over F_l by those elements: one product
     per element for the rows of all open blocks together; a block on
     which it acts as a scalar passes through, and the others are split
     by one eigen-solve on their block-diagonal operator, the Krylov path:
     the powers op^a w, a <= d, by doubling (op^h by squaring), the
     eigenvalues as the roots of the minimal polynomials of seeded
     sequences u . op^a w, a < 2d (Berlekamp-Massey; the terms past d as
     projections of moved functionals), and one product of the quotients
     f / (x - lam_j) with the powers gives every eigenspace, complete once
     their dimensions sum to d; a rank-one eigenspace is read off its first
     nonzero row, the rest by `rref`; rows still together are split by the
     class matrices one at a time;
  3. normalisation of eigenvectors to central characters, then degrees by
     search: the one d <= isqrt(|G|) whose square has the right residue;
  4. lifting by the Galois action: chi(g^m) = sigma_m(chi(g)), so the
     values of every entry at the primitive e-th roots mod l are columns
     of the mod-l table read through the power map, and one interpolation
     (`cyclotomic._evaluation_matrices`) gives its canonical coefficients
     in Z[zeta_e];
  5. verification over Z[zeta_e] (`verify_orthogonality`): Galois
     compatibility sigma_m(chi(g)) = chi(g^m) with the group's power map,
     once, at one split prime; then both orthogonality relations at one
     primitive e-th root per split prime, which compatibility makes enough,
     with no CRT rebuild, as the one-root case of the check at every root
     (`_relation_residues`, on values from `cyclotomic._values`).

No tolerance anywhere; every verification is an integer identity.  The
products mod l are float64 BLAS products of residues (`modlinalg.matmul_mod`),
each guarded so that every partial sum is an integer below 2^53.  The lift
and the verification hold their float64 arrays a block at a time, sized by
`_BLOCK_BYTES`; every bound is per entry, so the blocking changes no proof.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .cyclotomic import _evaluation_matrices, _values, phi, split_primes, zeta_bound
from .groups import ConjugacyData, MatrixGroup
from .modlinalg import inv_mod, matmul_mod, min_poly, poly_roots, reduce_mod, rref
from .rings import is_prime

MODULUS_SEARCH_BOUND = 30_000_000

# Bytes of the float64 block that `lift_table` and `verify_orthogonality`
# hold at a time: values of a block of rows t at all roots, or of the whole
# table at a block of roots.
_BLOCK_BYTES = 2**21

# Seeded class-algebra elements built in the one pass over the class
# matrices, start vectors in a first round, and rounds (and functionals per
# round) before "operator not split" (see `character_table_mod_l`,
# `_eigenspaces`).
_WEIGHTS = 2
_START = 8
_ROUNDS = 8


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


def _class_algebra_elements(group: MatrixGroup, cd: ConjugacyData, l: int, rng, count: int):
    """`count` seeded elements sum_i c_i M_i of the class algebra, over one
    class i per rational class, with weights c_i drawn from F_l, as (n, n)
    int64 residues mod l; `class_matrix` builds each M_i once.

    Which classes.  The rational class of i is its orbit under the power
    maps pi_m = pm[:, m], m a unit mod e.  The units form a group, so every
    class of an orbit has that orbit, and i is the first class of its orbit
    exactly when min_m pi_m(i) = i.

    Why they separate.  The central character omega_t(K_i) = |C_i|
    chi_t(g_i) / chi_t(1) lies in Q(zeta_e), sigma_m : zeta_e -> zeta_e^m
    sends chi_t(g_i) to chi_t(g_i^m), and x -> x^m maps C_i onto C_(pi_m
    i) bijectively (m is coprime to e), so omega_t(K_(pi_m i)) =
    sigma_m(omega_t(K_i)).  Two characters whose central characters agree
    on every representative agree on every class sum, and are equal; so
    seeded sums over the representatives separate Irr(G) off finitely many
    hyperplanes of weights.  A collision mod l only leaves a block to the
    class matrices one at a time (`character_table_mod_l`); no proof rests
    on the choice, as the elements lie in the commutative class algebra.

    Exactness.  Column k of sum_i M_i counts every x in G once, at the
    class of x^-1 z_k, so sum_i M_i[j, k] = |C_j|.  The terms c_i M_i[j, k]
    are nonnegative, so every partial sum of an entry, over any classes, is
    at most (l - 1) |C_j| <= (l - 1) |G|, below 2^63 by the guard."""
    n = cd.n_classes
    if (l - 1) * group.order >= 2**63:
        raise OverflowError(f"int64 overflow risk: (l - 1) |G| = {(l - 1) * group.order} >= 2^63")
    reps = np.flatnonzero(cd.power_map()[:, _unit_exponents(cd.exponent)].min(axis=1) == np.arange(n))
    weights = _draw(rng, (count, len(reps)), l).astype(np.int64)
    acc = np.zeros((count, n, n), dtype=np.int64)
    term = np.empty((n, n), dtype=np.int64)
    for i, c in zip(reps.tolist(), weights.T):
        M = class_matrix(group, cd, i)
        for A, ci in zip(acc, c):
            A += np.multiply(M, ci, out=term)
    return list(acc % l)


def _draw(rng, shape, l: int) -> np.ndarray:
    """Seeded residues mod l, float64, of the given shape, from
    `rng.randbytes`; no proof uses how they are distributed."""
    raw = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return (raw % np.uint64(l)).astype(np.float64).reshape(shape)


def _eigenspaces(op: np.ndarray, l: int, rng):
    """The eigenspaces of op, a (d, d) array of residues, over F_l: a list
    of (N, piv), ascending in the eigenvalue, with the rows of N a basis
    and N[:, piv] the identity; VerificationError("operator not split")
    when op is not diagonalisable over F_l.

    Each round adds a batch of seeded random start vectors w (min(d,
    `_START`), then as many again as all before), their powers op^a w for
    a <= d (`_krylov_powers`, which squares op again in each round: later
    rounds are rare, and holding every square would cost log2(2d) d^2
    floats), and `_ROUNDS` seeded functionals u of all the batches.  A
    product with op costs about the same for one start vector as for
    eight, as reading op dominates.
      * Roots.  Each functional gives the sequence u . (op^a w)_w, a < 2d
        (`_krylov_sequences`), and Berlekamp-Massey its minimal polynomial
        f_u from its 2d terms, as its degree is at most d.  f_u divides the
        minimal polynomial of op, so when op is diagonalisable over F_l,
        f_u is a product of distinct linear factors; f_u with fewer
        distinct roots in F_l than its degree proves op not split.  The
        roots of every f_u are pooled into f = prod (x - lam), with the
        next functional until f(op) w = 0 for every start vector (one
        product).
      * Eigenvectors.  Then g_j(op) w for the quotient g_j = f / (x -
        lam_j) satisfies (op - lam_j) g_j(op) w = f(op) w = 0: it lies in
        the eigenspace E_j.  For all j and all start vectors this is one
        product of the quotients' coefficients with the powers; each
        E_j's rows are read by `_row_spaces`.
      * Dimension count.  The found spaces F_j, spanned by those vectors,
        lie in the E_j, which are independent; so when their dimensions sum
        to d, so do those of the E_j, op is diagonalisable, and F_j = E_j.
        This ends the search; it is the only way it succeeds.
    A split operator fails to close the count in a round only when an
    eigenspace holds more dimensions than there are start vectors, and
    its roots are missed only when each of `_ROUNDS` functionals misses
    one (probability at most d l^-_ROUNDS); after `_ROUNDS` rounds op is
    refused as not split.

    Every product is a `matmul_mod` or a `min_poly` of residues, exact
    under their guards; the synthetic division multiplies two residues in
    int64, as does `rref`, and `_row_spaces` two residues below 2^53."""
    d = len(op)
    opT = op.T.astype(np.float64)
    lams = set()
    for r in range(_ROUNDS):
        W = np.empty((d + 1, min(d, _START) << max(0, r - 1), d))
        W[0] = _draw(rng, W.shape[1:], l)
        shifts = _krylov_powers(W, opT, l)
        # P[a, w] = op^a w, a <= d, one start vector w per row
        P = W if r == 0 else np.concatenate([P, W], axis=1)
        flat = P.reshape(d + 1, -1)
        seqs = _krylov_sequences(P, _draw(rng, (_ROUNDS,) + P.shape[1:], l), shifts, l)
        for s in seqs.T.astype(np.int64):
            f_u = min_poly(s, l)
            roots = poly_roots(f_u, l)
            if len(roots) < len(f_u) - 1:
                raise VerificationError("operator not split")
            lams.update(roots)
            lam = np.array(sorted(lams), dtype=np.int64)
            k = len(lam)
            f = np.ones(1, dtype=np.int64)
            for x in lam:
                f = (np.concatenate([[0], f]) - x * np.concatenate([f, [0]])) % l
            if not matmul_mod(f[None].astype(np.float64), flat[: k + 1], l).any():
                break
        else:
            raise VerificationError("operator not split")
        # G[a, j]: coefficient a of f / (x - lam_j), by synthetic division
        G = np.ones((k, k), dtype=np.int64)
        for a in range(k - 1, 0, -1):
            G[a - 1] = (f[a] + lam * G[a]) % l
        X = matmul_mod(G.T.astype(np.float64), flat[:k], l).reshape(k, -1, d)
        spaces = [(R, piv) for R, piv in _row_spaces(X, l) if piv]
        if sum(len(piv) for _, piv in spaces) == d:
            return spaces
    raise VerificationError("operator not split")


def _krylov_powers(W: np.ndarray, opT: np.ndarray, l: int) -> dict:
    """Fill W, of d + 1 rows, with W[a] = W[0] opT^a, in place, by
    doubling: W[h : 2h] = W[:h] opT^h for h = 1, 2, 4, ..., with opT^h by
    squaring; about 2 log2(2d) products, each over d terms.  Returns {h:
    opT^h} for the powers of two h in ((d + 1) / 2, 2d), the shifts
    `_krylov_sequences` reads; no other square is held."""
    d = W.shape[-1]
    h, S, keep = 1, opT, {}
    while h < 2 * d:
        if h <= d:
            hi = min(2 * h, d + 1)
            W[h:hi] = matmul_mod(W[: hi - h], S, l)
        if 2 * h > d + 1:
            keep[h] = S
        h *= 2
        if h < 2 * d:
            S = matmul_mod(S, S, l)
    return keep


def _krylov_sequences(P: np.ndarray, U: np.ndarray, shifts: dict, l: int) -> np.ndarray:
    """The (2d, functionals) float64 residues s[a, u] = sum_w U[u, w] .
    op^a w for a < 2d, from P[a, w] = op^a w, a <= d, and the shifts {h:
    (op^T)^h} of `_krylov_powers`, for functionals U[u, w] of the start
    vectors.

    Beyond a = d only projections are needed.  With h the largest power of
    two at most a, h lies in ((d + 1) / 2, 2d), op^a w = op^h op^(a-h) w and
    a - h <= d (a - h < h <= d, or a - h < 2d - h < d), so s[a, u] = sum_w
    (U[u, w] op^h) . op^(a-h) w: the functionals moved by one product with
    (op^T)^h, then one product with the stored powers."""
    d = P.shape[-1]
    flat = P.reshape(d + 1, -1)
    s = np.empty((2 * d, len(U)))
    s[: d + 1] = matmul_mod(flat, U.reshape(len(U), -1).T, l)
    for h, S in shifts.items():
        lo, hi = max(h, d + 1), min(2 * h, 2 * d)
        if lo < hi:
            Uh = matmul_mod(U, S.T, l).reshape(len(U), -1)
            s[lo:hi] = matmul_mod(flat[lo - h : hi - h], Uh.T, l)
    return s


def _row_spaces(X: np.ndarray, l: int) -> list:
    """[rref(x, l) for x in X], int64, for a (k, rows, d) stack of residues
    (int64, or float64 holding integers).

    A slice of rank one is read in one pass over the stack, a row index at
    a time: v, its first nonzero row scaled to 1 at its first nonzero
    column c, is its rref exactly when every row x_i equals x_i[c] v mod l
    (then every nonzero row is a multiple of v and is zero left of c, so c
    is the one pivot and v the one row).  Products of two residues are
    below l^2 < 2^53, exact in either dtype, and `reduce_mod` reduces them
    exactly.  A zero slice gives no rows and no pivots; `rref` reduces the
    others."""
    k, rows, d = X.shape
    at = np.arange(k)
    nonzero = (X != 0).any(axis=2)
    v = X[at, nonzero.argmax(axis=1)]
    c = (v != 0).argmax(axis=1)
    v = reduce_mod(v * np.array([inv_mod(int(x), l) for x in v[at, c]], dtype=v.dtype)[:, None], l).astype(np.int64)
    rank_one = nonzero.any(axis=1)
    for i in range(rows):
        rank_one &= (reduce_mod(X[at, i, c][:, None] * v, l) == X[:, i]).all(axis=1)
    out = []
    for j in range(k):
        if not nonzero[j].any():
            out.append((v[:0], []))
        elif rank_one[j]:
            out.append((v[j : j + 1], [int(c[j])]))
        else:
            out.append(rref(X[j].astype(np.int64), l))
    return out


def _split_blocks(blocks, M, l, rng):
    """Refine invariant blocks under M.

    A block is (B, cols), a row basis B with B[:, cols] the identity, so the
    operator on it is read off at cols.  The rows of all blocks of more than
    one row are stacked into S, and Y = S M^T (mod l) is one product.  A
    block whose rows all have Y_i = lam S_i (mod l), for one lam, passes
    unchanged: that is exactly "invariant, and M acts on it as the scalar
    lam", since R = Y[:, cols] = lam I gives R B = lam B = Y, and R B = Y
    with R = lam I gives Y = lam B.  Every other block must satisfy R B =
    Y; for all of them at once that is one product of D = diag(R_b) with
    their rows.  Their operators are split together, by one `_eigenspaces`
    call on D^T = diag(R_b^T): its eigenspace for lam is the direct sum of
    the blocks' eigenspaces for lam, each in its block's coordinates.  The
    rref of that sum is the union of the blocks' rrefs, since that union
    in pivot order is reduced and echelon (rows of two blocks share no
    nonzero column) and the rref is unique; so each row of an eigenspace
    (N, piv) is zero off the block of its pivot, N S is N_b B_b row by row,
    and the rows of one block give it the block (N_b B_b, [cols[p] for p in
    piv_b]), the identity at its columns again.  `rng` draws the start
    vectors.
    """
    open_blocks = [(B, cols) for B, cols in blocks if B.shape[0] > 1]
    if not open_blocks:
        return list(blocks)
    # every product below (inner dimension <= n) is exact, and lam_i S_i fits int64
    if len(M) * (l - 1) ** 2 >= 2**53:
        raise OverflowError(f"float64 exactness: n (l-1)^2 >= 2^53 at n = {len(M)}, l = {l}")
    # before any split the one block is S = I: Y = M^T, D S = Y and N S = N
    eye = len(blocks) == 1 and list(blocks[0][1]) == list(range(len(M)))
    S = np.vstack([B for B, _ in open_blocks])
    Y = M.T % l if eye else matmul_mod(S, M.T.astype(np.float64), l).astype(np.int64)
    # lam_i at row i's own identity column
    lam = Y[np.arange(len(S)), np.concatenate([c for _, c in open_blocks])]
    scalar = (lam[:, None] * S % l == Y).all(axis=1)
    # (index in blocks, rows in S) of each block that is not scalar
    moving, at = [], 0
    for j, (B, _) in enumerate(blocks):
        d = B.shape[0]
        if d > 1:
            if not (scalar[at : at + d].all() and (lam[at : at + d] == lam[at]).all()):
                moving.append((j, np.arange(at, at + d)))
            at += d
    if not moving:
        return list(blocks)
    rows = np.concatenate([r for _, r in moving])
    S, Y = S[rows], Y[rows]
    starts = np.cumsum([0] + [len(r) for _, r in moving])
    D = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for lo, hi, (j, _) in zip(starts, starts[1:], moving):
        D[lo:hi, lo:hi] = Y[lo:hi, blocks[j][1]]
    if not eye and not (matmul_mod(D, S, l) == Y).all():
        raise VerificationError("block not invariant")
    spaces = _eigenspaces(D.T, l, rng)
    NS = np.vstack([N for N, _ in spaces])
    NS = NS if eye else matmul_mod(NS, S, l)
    # each row's pivot, the moving block that holds it, and its column;
    # a piece is a run of rows of one eigenspace and one block
    piv = np.concatenate([p for _, p in spaces]).astype(np.int64)
    owner = np.searchsorted(starts, piv, side="right") - 1
    colmap = np.concatenate([blocks[j][1] for j, _ in moving])
    new = np.zeros(len(piv) + 1, dtype=bool)
    new[np.cumsum([0] + [len(p) for _, p in spaces])] = True
    new[1:-1] |= owner[1:] != owner[:-1]
    cut = np.flatnonzero(new).tolist()
    pieces = {j: [] for j, _ in moving}
    for lo, hi in zip(cut, cut[1:]):
        pieces[moving[owner[lo]][0]].append((NS[lo:hi], colmap[piv[lo:hi]].tolist()))
    out = []
    for j, block in enumerate(blocks):
        out.extend(pieces.get(j, [block]))
    return out


def character_table_mod_l(group: MatrixGroup):
    """Mod-l character values: (Xl, degrees, l, cd) with Xl[t, k] =
    chi_t(z_k) mod l, and l = `dixon_prime(|G|, e)`.

    The blocks are split by `_WEIGHTS` seeded elements of the class algebra
    (`_class_algebra_elements`, one class matrix per rational class), drawn
    from one `random.Random` seeded with (n, l), so two calls give the same
    blocks.  Each block `_split_blocks` leaves is a whole common
    eigenspace of the elements used, so a one-dimensional block is
    invariant under the commutative class algebra: a common eigenvector of
    every M_i.  Rows whose eigenvalues collide under every element (two
    given rows do with probability 1/l per element) are split by the class
    matrices one at a time; a block that all of them act on as scalars is
    a common eigenspace of dimension above one, and the table did not
    split mod l."""
    cd = group.conjugacy()
    n = cd.n_classes
    l = dixon_prime(group.order, cd.exponent)
    rng = random.Random(f"{n} {l}")

    blocks = [(np.eye(n, dtype=np.int64), list(range(n)))]

    def split():
        return all(B.shape[0] == 1 for B, _ in blocks)

    for M in _class_algebra_elements(group, cd, l, rng, _WEIGHTS):
        if not split():
            blocks = _split_blocks(blocks, M, l, rng)
    # a block that every element acts on as a scalar: each class matrix in
    # turn, cheapest first, until all are split or none is left
    for i in sorted(range(1, n), key=lambda i: (int(cd.sizes[i]), i)):
        if split():
            break
        blocks = _split_blocks(blocks, class_matrix(group, cd, i) % l, l, rng)
    if not split():
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
    cols = cd.power_map()[:, _unit_exponents(e)]
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


def _unit_exponents(e: int) -> list[int]:
    """The m_j coprime to e, ascending, so that r_j = w^(m_j) are the roots
    of `_evaluation_matrices` in its order (at e = 1, w^0 = w = 1)."""
    return [a for a in range(e) if math.gcd(a, e) == 1]


def _galois_refusal(coeffs, cd, pm, l: int, x: int):
    """Why the table C = coeffs cannot be shown to satisfy sigma_m(C) = C o
    pi_m, pi_m = pm[:, m], for every unit m, or None when it can.

    First, each pi_m must permute the classes and keep class sizes,
    centralizer orders and inverses; that is checked on pm directly.  Then,
    at the prime l, the table's values at every primitive root r_j =
    w^(m_j) are compared with vals[t, k, j] == vals[t, pi_(m_j)(k), 0], in
    row blocks of t.

    Why this is exact.  Let D = sigma_m(C[t, k]) - C[t, pi_m(k)].  The
    evaluation a -> a(r) at a root r mod l is a ring map, and sigma_m
    followed by it is the evaluation at r^m, so with r_i^m = r_i' and the
    comparison at k and at pi_m(k),
      D(r_i) = vals[t, k, i'] - vals[t, pi_m(k), i]
             = vals[t, pi_(m_i m)(k), 0] - vals[t, pi_(m_i)(pi_m(k)), 0] = 0,
    since pm[pm[k, a], b] = pm[k, ab]: the class of (g^a)^b is that of
    g^(ab), as pm comes from the group.  Zero at every root makes every
    coefficient of D divisible by l (the evaluation at the roots is an
    isomorphism Z[zeta_e]/l -> F_l^d).  Those of sigma_m(C[t, k]) are at
    most d x z (`cyclotomic.substitute`) and those of C at most x, so with
    2 (d x z + x) < l each coefficient of D is 0: sigma_m(C) = C o pi_m
    holds in Z[zeta_e]."""
    n, _, d = coeffs.shape
    if not (
        (np.sort(pm, axis=0) == np.arange(n)[:, None]).all()
        and (cd.sizes[pm] == cd.sizes[:, None]).all()
        and (cd.centralizer_orders[pm] == cd.centralizer_orders[:, None]).all()
        and (cd.inverse_class[pm] == pm[cd.inverse_class]).all()
    ):
        return "power map does not preserve the classes, their sizes, centralizers and inverses"
    if 2 * (d * x * zeta_bound(cd.exponent) + x) >= l:
        return f"l = {l} is too small to check Galois compatibility"
    V, _ = _evaluation_matrices(cd.exponent, l)
    step = max(1, _BLOCK_BYTES // (8 * n * d))
    for lo in range(0, n, step):
        vals = _values(coeffs[lo : lo + step], V, l)
        if not (vals == vals[:, :, 0][:, pm]).all():
            return "character values are not Galois-compatible with the power map"
    return None


def _relation_residues(coeffs, cd, order: int, V, l: int):
    """Per block of the roots of V (`cyclotomic._evaluation_matrices`, or
    its first column r_0): (lo, (P1 - T1, P2 - T2)), the values mod l of
    both relations of `verify_orthogonality` minus their targets, at roots
    lo, lo + 1, ..., as (roots, n, n) float64 stacks of integers in (-l, l).

    The values at the roots of a block come from row blocks of the table
    (`_values`, d terms each); the relation products sum n.  Both are exact
    below 2^53, for the primes of `split_primes(e, max(n, d), ...)`."""
    n, _, d = coeffs.shape
    sizes, targets = cd.sizes % l, (order % l, cd.centralizer_orders % l)
    step = max(1, _BLOCK_BYTES // (8 * n * n))
    rows = max(1, _BLOCK_BYTES // (8 * n * d))
    for lo in range(0, V.shape[1], step):
        vals = np.concatenate(
            [_values(coeffs[t : t + rows], V[:, lo : lo + step], l) for t in range(0, n, rows)]
        ).transpose(2, 0, 1)
        conj = vals[:, :, cd.inverse_class]  # chi_t(g_k^-1) at each root
        vals_w = vals * sizes  # each below (l - 1)^2
        P1 = matmul_mod(reduce_mod(vals_w, l, out=vals_w), conj.transpose(0, 2, 1), l)
        del vals_w
        P2 = matmul_mod(vals.transpose(0, 2, 1), conj, l)
        del vals, conj
        for P, t in zip((P1, P2), targets):
            P.reshape(len(P), n * n)[:, :: n + 1] -= t
        yield lo, (P1, P2)


def verify_orthogonality(coeffs: np.ndarray, cd: ConjugacyData, order: int):
    """Exact first and second orthogonality over Z[zeta_e], and Galois
    compatibility of the table with the group's power map.

    For the (characters, classes) table C and chi(g^-1) = conj chi(g), the
    relations are P1 = C diag(|C_k|) C[:, inv]^T = |G| I = T1, that is
    sum_k |C_k| chi_i(g_k) chi_j(g_k^-1) = |G| [i = j], and P2 = C^T C[:,
    inv] = diag(|C_G(g_k)|) = T2, products over Z[zeta_e] whose targets are
    rational.  They are checked on the values at the root r_0 = w of
    `_evaluation_matrices` modulo split primes, by `_relation_residues` on
    the first column of V: no interpolation and no CRT rebuild.

    Exactness.  By `cyclotomic.matmul`'s bound, with x = max|C| and y = x
    max|C_k|, every canonical coefficient of P1 (factors at most y and x)
    and of P2 (factors at most x) is at most B = (2d - 1) z d n x y, d =
    phi(e); those of the targets are at most |G|, so those of P - T are at
    most B + |G|.  The primes l are `split_primes(e, max(n, d), B + |G|)`,
    with product M > 2 (B + |G|).  A table with B >= 2^63 is not verified
    (the ladder of `split_primes` ends at 2^64).
      * Galois compatibility.  `_galois_refusal`, once, at the largest
        prime, proves sigma_m(C) = C o pi_m for every unit m, pi_m =
        pm[:, m] a permutation of the classes that keeps sizes, centralizer
        orders and inverses.
      * P1 is an integer matrix.  sigma_m(P1)[i, j] = sum_k |C_k| C[i,
        pi_m k] C[j, inv pi_m k] = P1[i, j], reindexing by pi_m; fixed by
        every sigma_m, P1 is rational, and integral.  So P1(r_0) = P1 mod l
        at each prime, and P1(r_0) = T1 mod l at every prime makes P1 - T1
        divisible by M; at most B + |G| < M/2 in absolute value, it is 0.
      * P2 at one root.  sigma_m(P2) = P2[pi_m][:, pi_m] likewise, and T2
        is kept by pi_m; so (P2 - T2)(r_j) = (P2 - T2)[pi_j][:, pi_j](r_0),
        with pi_j = pi_(m_j), and zero at r_0 is zero at every root.  The
        evaluation at the roots is a ring isomorphism Z[zeta_e]/l -> F_l^d
        (see `cyclotomic`), so every coefficient of P2 - T2 is divisible by
        l, over all the primes by M, and it is 0 as for P1.
    Each relation is then one n x n product of residues per prime, float64
    and exact as `split_primes` keeps n (l - 1)^2 < 2^53.

    On any failure the relations are checked at every primitive root
    (`_relation_residues` on all of V, one pass per prime), where agreement
    at every r_j gives P = T in Z[zeta_e]/l directly, so the verdict and its
    message are those of the CRT-rebuilt products: coefficient 0 of the
    residual P - T mod l is sum_j (P - T)(r_j) Vinv[j, 0], by interpolation,
    and the failure is reported as in the constant term when that is
    nonzero, else in the irrational part.  A table that satisfies both
    relations but not Galois compatibility is refused with the reason.
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
    # |C| <= x < 2^32, as x^2 <= B < 2^63
    refusal = _galois_refusal(coeffs, cd, cd.power_map()[:, _unit_exponents(e)], primes[0], x)
    at_r0 = (_relation_residues(coeffs, cd, order, _evaluation_matrices(e, l)[0][:, :1], l) for l in primes)
    if refusal is None and not any(P.any() for blocks in at_r0 for _, pair in blocks for P in pair):
        return
    for l in primes:
        V, Vinv = _evaluation_matrices(e, l)
        which, c0 = None, (0, 0)
        for lo, pair in _relation_residues(coeffs, cd, order, V, l):
            if which is None:
                which = next((i for i, P in enumerate(pair) if P.any()), None)
            # each block sums its roots' terms, d (l - 1)^2 < 2^53 in all
            c0 = tuple(c + np.tensordot(Vinv[lo : lo + len(P), 0], P % l, axes=1) for c, P in zip(c0, pair))
        if which is not None:
            part = "constant term" if (c0[which] % l).any() else "irrational part"
            raise VerificationError(f"orthogonality failed ({part})")
    # both relations hold at every root of every prime, so the check at r_0
    # passed and the refusal is set
    raise VerificationError(refusal)
