"""The nonsplit (Coxeter) maximal torus of GL2 over a truncated local ring,
and the full classification of its characters.

The torus is realised as the unit group of the unramified quadratic
extension, embedded in GL2(O_r) by the multiplication action on the basis
(1, xi); its congruence kernels and norm-one subgroup are its
`FiniteAbelianGroup.subgroup`s.  A character theta is an exponent row a over
the torus basis, with theta(x) = zeta_L^(a . w(x)) for the value rows w of
`FiniteAbelianGroup.value_rows`.  `classify_all` computes, as one array
over the rows of the dual group each:

  * the top-layer datum tau in F_{q^2} pairing theta against the additive
    character psi on the last congruence kernel (levels r >= 2), computed
    once per torus and psi over the whole dual group (`dual_taus`),
  * the regular flag (tau outside the scalar subfield F_q),
  * the conductor data (r0, theta0, alpha): the least level reachable by
    twisting theta with characters of O_r^x composed with the norm, the
    descended character at that level, and the canonical minimising twist,
  * the Weyl stabiliser (theta fixed by the Frobenius flip or not) and the
    general-position flag of theta0,
  * the restriction data to the norm-one subgroup (the SL2 torus): whether
    the restriction is flip-stable, and the order-2 flag at level 1 that
    governs the odd-q splitting.

Each field is a product of exponent rows with value rows mod L: the flip,
the norm pullback and the descent to a lower level are each one exponent
matrix (`FiniteAbelianGroup.chars_from_values`).

Two independent conductor algorithms are provided, each for all thetas at
once: the brute-force minimum over all twists, and the iterative peeling of
scalar top-layer data, one array pass per level over the thetas whose datum
is still scalar.  Peeling reads only `dual_taus`, the twist extensions,
the kernel values and the descent, never a `Classification` field.  They
must agree; the verification layer checks this exhaustively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .abelian import FiniteAbelianGroup, InvariantError, unique
from .rings import RingSpec, make_ext, make_ring

# Bytes of one int64 temporary of `CoxeterTorus.taus`,
# `conductor_brute_force` and the conductor pass of `classify_all`: they
# take the thetas (and the twists) in blocks of this size, so none holds an
# array over all thetas (or all stacked (theta, twist) rows) at once.
_BLOCK_BYTES = 2**17


class CoxeterTorus:
    """T_r^F realised as units of the unramified quadratic extension."""

    def __init__(self, ring: RingSpec):
        self.ring = ring
        self.ext = make_ext(ring)
        self.q = ring.q
        self.r = ring.r
        ext = self.ext
        self.codes = ext.units()
        self.order = len(self.codes)
        if self.order != torus_order(ring.q, ring.r):
            raise InvariantError(f"{self.order} units, not |T| = {torus_order(ring.q, ring.r)}")
        self.group = FiniteAbelianGroup(self.codes, ext.mul, ext.one)
        # F_{q^2} in pair codes a0 + q a1: the extension of the level-1 ring
        self.rq = make_ext(make_ring(ring.p, ring.k, 1, ring.mode))
        # unit group of the base ring and its dual (the twisting characters)
        self.base_units = ring.unit_group
        # congruence kernels K_{r'} = units congruent 1 mod pi^{r'}, each
        # restricted from the torus's Sylow components
        self.kernels = {
            r2: self.group.subgroup(ext.reduction(r2)[1][self.codes] == 1) for r2 in range(1, ring.r + 1)
        }
        # norm-one subgroup (the SL2 torus)
        self._norm_one_mask = ext.norm(self.codes) == ring.one

    # -- embedding into GL2 ----------------------------------------------------

    def embed_code(self, t) -> np.ndarray:
        """Matrix code of multiplication by t in the basis (1, xi):
        [[a, -C b], [b, a - B b]] for t = a + b xi."""
        ext, R = self.ext, self.ring
        S = R.size
        a, b = t % S, t // S
        m11 = a
        m12 = R.neg[R.mul[self.ext.C, b]]
        m21 = b
        m22 = R.add[a, R.neg[R.mul[ext.B, b]]]
        return m11 + m12 * S + m21 * S * S + m22 * S * S * S

    def sigma(self, t):
        return self.ext.frobenius(t)

    # -- characters -------------------------------------------------------------

    def flip(self, A) -> np.ndarray:
        """Exponent rows of theta o sigma, for the exponent rows A."""
        T = self.group
        W = T.value_rows(self.sigma(self.group.gens))
        return T.chars_from_values(np.asarray(A) @ W.T % T.exponent, T.exponent)

    @functools.cached_property
    def pullback_rows(self) -> np.ndarray:
        """Row j: the exponent row of alpha o norm, alpha = base_units.dual_rows()[j]."""
        U = self.base_units
        W = U.value_rows(self.ext.norm(self.group.gens))
        return self.group.chars_from_values(U.dual_rows() @ W.T % U.exponent, U.exponent)

    @functools.cached_property
    def norm_one_group(self) -> FiniteAbelianGroup:
        return self.group.subgroup(self._norm_one_mask)

    @functools.cache
    def kernel_values(self, r2: int):
        """(W, V): the value rows of the generators of K_{r2}, and V[j] the
        values on them of the norm pullback of base_units.dual_rows()[j]."""
        W = self.group.value_rows(self.kernels[r2].gens)
        return W, self.pullback_rows @ W.T % self.group.exponent

    # -- the additive-character pairing on the top congruence layer -------------

    def top_layer_elements(self):
        """(pair codes x, ext codes of 1 + pi^(r-1) lift(x)) over F_{q^2}."""
        xs = np.arange(self.q**2, dtype=np.int64)
        return xs, self.ext.add(self.ext.one, self.ext.mul_pi_top_lift(xs))

    @functools.cached_property
    def _top_rows(self) -> np.ndarray:
        return self.group.value_rows(self.top_layer_elements()[1])

    @functools.cache
    def _pairing_patterns(self, psi_scale: int):
        """(P, cols, lut): P[x, tau] the psi(Tr(x tau)) exponent, cols some
        x whose exponents determine tau, and lut the tau of each key
        sum_i P[cols[i], tau] p^(len(cols) - 1 - i)."""
        F, rq, p = self.ring.field, self.rq, self.ring.p
        xs = np.arange(self.q**2, dtype=np.int64)
        P = F.trace_to_fp[F.mul[rq.trace(rq.mul(xs[:, None], xs[None, :])), psi_scale]]
        # greedily, the x that separate more tau: an F_p-basis of F_{q^2}
        key, cols = np.zeros_like(xs), []
        for x in xs.tolist():
            if len(unique(key * p + P[x])) > len(unique(key)):
                key, cols = key * p + P[x], cols + [x]
        if len(unique(key)) != len(xs):
            raise InvariantError("trace pairing degenerate")
        lut = np.zeros(p ** len(cols), dtype=np.int64)
        lut[key] = xs
        return P, cols, lut

    def taus(self, A: np.ndarray, psi_scale: int = 1) -> np.ndarray:
        """For each exponent row of A, the unique tau in F_{q^2} (pair code)
        with theta(1 + pi^(r-1) x) = psi(Tr_{F_{q^2}/F_q}(x tau)) for all x
        (levels r >= 2).  The rows are read a block at a time, each block's
        (rows, q^2) values within `_BLOCK_BYTES`."""
        if self.r < 2:
            raise ValueError("tau is defined for levels r >= 2 only")
        p, L = self.ring.p, self.group.exponent
        P, cols, lut = self._pairing_patterns(psi_scale)
        A, top = np.asarray(A), self._top_rows.T
        weights = p ** np.arange(len(cols) - 1, -1, -1)
        tau = np.empty(len(A), dtype=np.int64)
        step = max(1, _BLOCK_BYTES // (8 * top.shape[1]))
        for lo in range(0, len(A), step):
            V = A[lo : lo + step] @ top % L
            if (V * p % L).any():
                raise InvariantError("top-layer values are not p-th roots")
            V = V * p // L
            t = lut[V[:, cols] @ weights]
            # the whole pairing row must be the pattern of the tau it was read as
            if (P[:, t].T != V).any():
                raise InvariantError("top-layer values are not a trace pairing")
            tau[lo : lo + step] = t
        return tau

    def dual_taus(self, psi_scale: int = 1) -> np.ndarray:
        """Read-only `taus(group.dual_rows(), psi_scale)`, once per psi_scale."""
        return self._dual_taus(int(psi_scale))

    @functools.cache
    def _dual_taus(self, psi_scale: int) -> np.ndarray:
        tau = self.taus(self.group.dual_rows(), psi_scale)
        tau.flags.writeable = False
        return tau

    # -- descent ---------------------------------------------------------------

    def level_torus(self, r2: int) -> "CoxeterTorus":
        if r2 == self.r:
            return self
        return make_torus(self.ring.p, self.ring.k, r2, self.ring.mode)

    @functools.cache
    def _descent_rows(self, r2: int) -> np.ndarray:
        """Value rows of one preimage per generator of the level-r2 basis."""
        _, m = self.ext.reduction(r2)
        gens = self.level_torus(r2).group.gens
        pos = np.argmax(m[self.codes][None, :] == gens[:, None], axis=1)
        return self.group.value_rows(self.codes[pos])

    def descend_rows(self, A, r2: int) -> np.ndarray:
        """Exponent rows of the level-r2 characters inflating to the rows A
        (each trivial on K_{r2})."""
        L = self.group.exponent
        return self.level_torus(r2).group.chars_from_values(np.asarray(A) @ self._descent_rows(r2).T % L, L)


def torus_order(q: int, r: int) -> int:
    return q ** (2 * (r - 1)) * (q * q - 1)


@functools.lru_cache(maxsize=None)
def make_torus(p: int, k: int, r: int, mode: str) -> CoxeterTorus:
    return CoxeterTorus(make_ring(p, k, r, mode))


# ---------------------------------------------------------------------------
# the classification, one array per field over the dual group


@dataclass(frozen=True, eq=False)
class Classification:
    """Everything the prediction layer needs to know about every theta: row
    i of each array is about theta = torus.group.dual_rows()[i]."""

    torus: CoxeterTorus
    theta: np.ndarray                # (N, b) exponent rows
    tau: np.ndarray | None           # pair codes in F_{q^2}, None at r = 1
    regular: np.ndarray              # tau outside F_q
    r0: np.ndarray                   # conductor level, r for regular theta
    theta0: np.ndarray               # position in level_torus(r0).group.dual_rows()
    alpha: np.ndarray                # exponent rows of the canonical twist of O_r^x
    n_minimizing_twists: np.ndarray
    general_position: np.ndarray     # theta0 not flip-stable (meaningful at r0 = 1)
    stab_size: np.ndarray            # 1 or 2
    sl_sigma_fixed: np.ndarray       # restriction to norm-one units flip-stable
    sl_quadratic: np.ndarray         # odd q, r0 = 1: restriction of theta0 has order 2

    def __len__(self) -> int:
        return len(self.theta)

    def theta0_rows(self, r0: int) -> np.ndarray:
        """Exponent rows of theta0, at level r0, for the thetas with that r0."""
        return self.torus.level_torus(r0).group.dual_rows(self.theta0[self.r0 == r0])


def classify_all(torus: CoxeterTorus, psi_scale: int = 1) -> Classification:
    """Classification of every theta, in array passes over the dual group."""
    T, U, r = torus.group, torus.base_units, torus.r
    L, nU = T.exponent, U.order
    A = T.dual_rows()
    n_t = len(A)

    # -- tau and regularity (r >= 2) ------------------------------------------
    tau = torus.dual_taus(psi_scale) if r >= 2 else None
    regular = tau >= torus.q if r >= 2 else np.zeros(n_t, dtype=bool)

    # -- conductor data: a regular theta is its own theta0 at level r ----------
    r0 = np.full(n_t, r)
    theta0 = np.arange(n_t)
    alpha = np.zeros(n_t, dtype=np.int64)
    n_min = np.ones(n_t, dtype=np.int64)
    todo = np.flatnonzero(~regular)
    for r2 in range(1, r + 1):
        if not len(todo):
            break
        # theta * alpha_j o N is trivial on K_{r2} iff theta and the inverse
        # of alpha_j o N restrict to the same character of K_{r2}
        K, (W, V) = torus.kernels[r2], torus.kernel_values(r2)
        res_theta = K.dual_index(K.chars_from_values(A[todo] @ W.T, L))
        res_twist = K.dual_index(K.chars_from_values(-V, L))
        order = np.argsort(res_twist, kind="stable")
        lo = np.searchsorted(res_twist[order], res_theta, "left")
        cnt = np.searchsorted(res_twist[order], res_theta, "right") - lo
        hit = cnt > 0
        rows, lo, cnt = todo[hit], lo[hit], cnt[hit]
        t0 = torus.level_torus(r2).group
        # one stacked row per (theta, minimising twist), the twists in order,
        # for a block of thetas at a time: each block's (stacked rows, b)
        # array within `_BLOCK_BYTES`, or a single theta where one is larger.
        # Canonical (theta0, alpha): least descended tuple, then least twist
        # tuple; dual_rows() positions order the tuples lexicographically
        ends, cap, b0 = np.cumsum(cnt), max(1, _BLOCK_BYTES // (8 * A.shape[1])), 0
        while b0 < len(rows):
            b1 = max(b0 + 1, int(np.searchsorted(ends, ends[b0] - cnt[b0] + cap, "right")))
            block, c = rows[b0:b1], cnt[b0:b1]
            starts = np.cumsum(c) - c
            i = np.repeat(block, c)
            j = order[np.repeat(lo[b0:b1] - starts, c) + np.arange(len(i))]
            key = t0.dual_index(torus.descend_rows(A[i] + torus.pullback_rows[j], r2)) * nU + j
            best = np.minimum.reduceat(key, starts)
            r0[block], theta0[block], alpha[block], n_min[block] = r2, best // nU, best % nU, c
            b0 = b1
        todo = todo[~hit]
    if len(todo):
        raise InvariantError("no level makes a twist of theta trivial")

    # -- general position of theta0 at its level, and the odd-q order-2 flag
    # of its restriction to the norm-one units at level 1 ------------------------
    gp = np.zeros(n_t, dtype=bool)
    sl_quadratic = np.zeros(n_t, dtype=bool)
    for level in unique(r0).tolist():
        t0, rows0 = torus.level_torus(level), np.flatnonzero(r0 == level)
        B = t0.group.dual_rows(theta0[rows0])
        gp[rows0] = (t0.flip(B) != B).any(axis=1)
        if torus.q % 2 == 1 and level == 1:
            L1 = t0.group.exponent
            E = B @ t0.group.value_rows(t0.norm_one_group.gens).T % L1
            sl_quadratic[rows0] = E.any(axis=1) & (2 * E % L1 == 0).all(axis=1)
    if (sl_quadratic & ~gp).any():
        raise InvariantError("order-2 restriction forces general position")

    # -- flip stability of theta, and of its restriction to the norm-one units
    n1 = torus.norm_one_group.gens
    Wn1 = (T.value_rows(torus.sigma(n1)) - T.value_rows(n1)) % L
    return Classification(
        torus=torus,
        theta=A,
        tau=tau,
        regular=regular,
        r0=r0,
        theta0=theta0,
        alpha=U.dual_rows(alpha),
        n_minimizing_twists=n_min,
        general_position=gp,
        stab_size=np.where((torus.flip(A) == A).all(axis=1), 2, 1),
        sl_sigma_fixed=(A @ Wn1.T % L == 0).all(axis=1),
        sl_quadratic=sl_quadratic,
    )


# ---------------------------------------------------------------------------
# the two independent conductor computations


def conductor_brute_force(torus: CoxeterTorus, A) -> np.ndarray:
    """For each exponent row of A, the min over alpha in Irr(O_r^x) of the
    level of theta * alpha(norm(-)): the least r2 at which some twist is
    trivial on the generators of K_{r2}.  One (thetas, twists, generators)
    array per block of thetas and chunk of twists, within `_BLOCK_BYTES`."""
    L = torus.group.exponent
    A = np.asarray(A, dtype=np.int64)
    out = np.zeros(len(A), dtype=np.int64)
    for r2 in range(torus.r, 0, -1):
        W, V = torus.kernel_values(r2)
        cell = 8 * max(1, W.shape[0])  # bytes per (theta, twist)
        rows = max(1, _BLOCK_BYTES // (cell * len(V)))
        twists = max(1, _BLOCK_BYTES // (cell * rows))
        for lo in range(0, len(A), rows):
            AW = (A[lo : lo + rows] @ W.T)[:, None, :]
            hit = np.zeros(len(AW), dtype=bool)
            for j in range(0, len(V), twists):
                hit |= ((AW + V[None, j : j + twists]) % L == 0).all(axis=2).any(axis=1)
            out[lo : lo + rows][hit] = r2
    if not out.all():
        raise InvariantError("no twist is trivial on the trivial kernel")
    return out


def conductor_by_peeling(torus: CoxeterTorus, A, psi_scale: int = 1) -> np.ndarray:
    """For each exponent row of A, the level reached by iterative peeling:
    while the top-layer datum tau is scalar, twist by the inverse of an
    extension of psi(s * ((-) - 1)/pi^(rho-1)), s = tau, and descend one
    level.  One array pass per level over the rows still open, reading
    tau from `dual_taus` at the rows' `dual_index` positions (the rows are
    reduced first, so `dual_index` finds them)."""
    A = np.asarray(A, dtype=np.int64) % np.array(torus.group.orders, dtype=np.int64)
    out = np.ones(len(A), dtype=np.int64)
    rows, t = np.arange(len(A)), torus
    while t.r >= 2 and len(rows):
        rho = t.r
        tau = t.dual_taus(psi_scale)[t.group.dual_index(A)]
        scalar = tau < t.q
        out[rows[~scalar]] = rho
        rows, A = rows[scalar], A[scalar]
        # tau = diag(s, s): the pair code of a scalar is s itself
        j = _extend_kernel_character(t, psi_scale)[tau[scalar]]
        # theta * (alpha_j o N)^-1 must be trivial on the last kernel
        W, V = t.kernel_values(rho - 1)
        if ((A @ W.T - V[j]) % t.group.exponent).any():
            raise InvariantError("peeling did not lower the level")
        A, t = t.descend_rows(A - t.pullback_rows[j], rho - 1), t.level_torus(rho - 1)
    return out


@functools.cache
def _extend_kernel_character(torus: CoxeterTorus, psi_scale: int) -> np.ndarray:
    """Entry s, for each s in F_q: the index in base_units.dual_rows() of the
    first character of O_r^x restricting on the last ring kernel to
    u -> psi(s * (u - 1)/pi^(r-1)); one exists since the unit group is
    abelian.  Memoised per (torus, psi_scale)."""
    R, U = torus.ring, torus.base_units
    F, LU, p = R.field, U.exponent, R.p
    tgt, mred = R.reduction(R.r - 1)
    units = R.units()
    kcodes = units[mred[units] == tgt.one]
    x = R.div_pi_top(R.add[kcodes, R.neg[R.one]])
    # want[s, u]: the psi-exponent in F_p required at u; E[j, u] the value
    # exponent (mod LU) of character j at u
    s = np.arange(torus.q)
    want = F.trace_to_fp[F.mul[F.mul[s[:, None], x[None, :]], psi_scale]]
    E = U.dual_rows() @ U.value_rows(kcodes).T % LU
    match = (E[None, :, :] * p == want[:, None, :] * LU).all(axis=2)
    if not match.any(axis=1).all():
        raise InvariantError("no extension found; the unit group is abelian")
    return np.argmax(match, axis=1)
