"""The nonsplit (Coxeter) maximal torus of GL2 over a truncated local ring,
and the full classification of its characters.

The torus is realised as the unit group of the unramified quadratic
extension, embedded in GL2(O_r) by the multiplication action on the basis
(1, xi).  For each character theta we compute:

  * the top-layer datum tau in F_{q^2} pairing theta against the additive
    character psi on the last congruence kernel (levels r >= 2),
  * the regular flag (tau outside the scalar subfield F_q),
  * the conductor data (r0, theta0, alpha): the least level reachable by
    twisting theta with characters of O_r^x composed with the norm, the
    descended character at that level, and the canonical minimising twist,
  * the Weyl stabiliser (theta fixed by the Frobenius flip or not) and the
    general-position flag of theta0,
  * the restriction data to the norm-one subgroup (the SL2 torus): whether
    the restriction is flip-stable, and the order-2 flag at level 1 that
    governs the odd-q splitting.

Two independent conductor algorithms are provided: the brute-force minimum
over all twists, and the iterative peeling of scalar top-layer data one
level at a time.  They must agree; the verification layer checks this
exhaustively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .abelian import DualChar, FiniteAbelianGroup, InvariantError
from .rings import RingSpec, make_ext, make_ring


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
        self.base_units = FiniteAbelianGroup(
            ring.units(), lambda a, b: ring.mul[a, b], ring.one
        )
        # congruence kernels K_{r'} = units congruent 1 mod pi^{r'}
        self.kernels: dict[int, FiniteAbelianGroup] = {}
        for r2 in range(1, ring.r + 1):
            _, m = ext.reduction(r2)
            kcodes = self.codes[m[self.codes] == 1]
            self.kernels[r2] = FiniteAbelianGroup(kcodes, ext.mul, ext.one)
        # norm-one subgroup (the SL2 torus)
        self.norm_one = self.codes[ext.norm(self.codes) == ring.one]
        self._pullbacks: dict = {}
        self._patterns: dict = {}
        self._preimages: dict = {}
        self._kernel_values: dict = {}
        self._extensions: dict = {}
        self._top = None

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

    def dual(self) -> list[DualChar]:
        return self.group.dual()

    def sigma_images_of_basis(self) -> list[int]:
        return [int(self.sigma(g)) for g, _ in self.group.basis]

    def char_sigma(self, theta: DualChar) -> DualChar:
        """theta composed with the Frobenius flip."""
        return theta.compose_with_endo(self.sigma_images_of_basis())

    def norm_pullback(self, alpha: DualChar) -> DualChar:
        """alpha(norm(-)) as a character of the torus."""
        cached = self._pullbacks.get(alpha.a)
        if cached is not None:
            return cached
        L = self.group.exponent
        LU = self.base_units.exponent
        exps = []
        for g, _n in self.group.basis:
            e = alpha.root_exp(int(self.ext.norm(g)))
            if (e * L) % LU:
                raise InvariantError("norm pullback value outside mu_L")
            exps.append(e * L // LU)
        out = self.group.char_from_values_on_basis(exps, L)
        self._pullbacks[alpha.a] = out
        return out

    def weyl_stabilizer(self, theta: DualChar) -> int:
        return 2 if self.char_sigma(theta) == theta else 1

    def value_rows(self, codes) -> np.ndarray:
        """Rows w(x), one per torus code x, with theta(x) = zeta_L^(a . w(x))
        for every theta = DualChar(a), L the group exponent."""
        T = self.group
        codes = np.asarray(codes, dtype=np.int64)
        pos = np.minimum(np.searchsorted(T.codes, codes), T.order - 1)
        if (T.codes[pos] != codes).any():
            raise ValueError("value_rows: a code is not a torus element")
        return T.exps[pos] * (T.exponent // np.array(T.orders, dtype=np.int64)) % T.exponent

    def kernel_values(self, r2: int):
        """(W, V): the value rows of the generators of K_{r2}, and V[j] the
        values on them of the norm pullback of base_units.dual()[j]."""
        if r2 not in self._kernel_values:
            W = self.value_rows([g for g, _ in self.kernels[r2].basis])
            P = np.array([self.norm_pullback(al).a for al in self.base_units.dual()])
            self._kernel_values[r2] = W, P @ W.T % self.group.exponent
        return self._kernel_values[r2]

    # -- the additive-character pairing on the top congruence layer -------------

    def top_layer_elements(self):
        """(pair codes x, ext codes of 1 + pi^(r-1) lift(x)) over F_{q^2}."""
        if self._top is None:
            xs = np.arange(self.q**2, dtype=np.int64)
            self._top = xs, self.ext.add(self.ext.one, self.ext.mul_pi_top_lift(xs))
        return self._top

    @functools.cached_property
    def _top_rows(self) -> np.ndarray:
        return self.value_rows(self.top_layer_elements()[1])

    def _pairing_patterns(self, psi_scale: int):
        """For each candidate tau, the psi(Tr(x tau)) exponents over all x
        (as int64 row bytes)."""
        if psi_scale in self._patterns:
            return self._patterns[psi_scale]
        F, rq = self.ring.field, self.rq
        xs = np.arange(self.q**2, dtype=np.int64)
        rows = F.trace_to_fp[F.mul[rq.trace(rq.mul(xs[:, None], xs[None, :])), psi_scale]]
        pats = {rows[:, tau].tobytes(): tau for tau in range(len(xs))}
        if len(pats) != len(xs):
            raise InvariantError("trace pairing degenerate")
        self._patterns[psi_scale] = pats
        return pats

    def taus(self, A: np.ndarray, psi_scale: int = 1) -> list[int]:
        """tau_of for each row of A, the exponent tuples of some thetas."""
        p, L = self.ring.p, self.group.exponent
        V = A @ self._top_rows.T % L
        if (V * p % L).any():
            raise InvariantError("top-layer values are not p-th roots")
        pats = self._pairing_patterns(psi_scale)
        return [pats[row.tobytes()] for row in np.ascontiguousarray(V * p // L)]

    def tau_of(self, theta: DualChar, psi_scale: int = 1) -> int:
        """The unique tau in F_{q^2} (pair code) with
        theta(1 + pi^(r-1) x) = psi(Tr_{F_{q^2}/F_q}(x tau)) for all x."""
        if self.r < 2:
            raise ValueError("tau is defined for levels r >= 2 only")
        return self.taus(np.array([theta.a]), psi_scale)[0]

    def is_regular(self, theta: DualChar, psi_scale: int = 1) -> bool:
        if self.r < 2:
            return False
        return not self.is_scalar(self.tau_of(theta, psi_scale))

    def is_scalar(self, tau) -> bool:
        """Whether a pair code of F_{q^2} lies in the scalar subfield F_q."""
        return int(tau) < self.q

    # -- levels -----------------------------------------------------------------

    def char_level(self, eta: DualChar) -> int:
        """Least r' in [1, r] with eta trivial on the kernel K_{r'}."""
        for r2 in range(1, self.r + 1):
            if not (self.kernel_values(r2)[0] @ eta.a % self.group.exponent).any():
                return r2
        raise InvariantError("character not trivial on the trivial kernel")

    # -- descent ---------------------------------------------------------------

    def level_torus(self, r2: int) -> "CoxeterTorus":
        if r2 == self.r:
            return self
        return make_torus(self.ring.p, self.ring.k, r2, self.ring.mode)

    def _descent_preimages(self, r2: int):
        """For the level-r2 torus basis, one preimage code per generator."""
        if r2 in self._preimages:
            return self._preimages[r2]
        t0 = self.level_torus(r2)
        _, m = self.ext.reduction(r2)
        images = m[self.codes]
        out = []
        for g, _n in t0.group.basis:
            pos = int(np.nonzero(images == g)[0][0])
            out.append(int(self.codes[pos]))
        self._preimages[r2] = out
        return out

    def descend(self, eta: DualChar, r2: int) -> DualChar:
        """The character of T_{r2}^F inflating to eta (eta trivial on K_{r2})."""
        t0 = self.level_torus(r2)
        L, L0 = self.group.exponent, t0.group.exponent
        exps = []
        for pre in self._descent_preimages(r2):
            e = eta.root_exp(pre)
            if (e * L0) % L:
                raise InvariantError("eta is not trivial on the descent kernel")
            exps.append(e * L0 // L)
        return t0.group.char_from_values_on_basis(exps, L0)

    def inflate_from(self, theta0: DualChar, r2: int) -> DualChar:
        """The inflation of a level-r2 torus character to level r."""
        t0 = self.level_torus(r2)
        _, m = self.ext.reduction(r2)
        L, L0 = self.group.exponent, t0.group.exponent
        exps = []
        for g, _n in self.group.basis:
            e = theta0.root_exp(int(m[g]))
            if (e * L) % L0:
                raise InvariantError("inflated value outside mu_L")
            exps.append(e * L // L0)
        return self.group.char_from_values_on_basis(exps, L)


def torus_order(q: int, r: int) -> int:
    return q ** (2 * (r - 1)) * (q * q - 1)


@functools.lru_cache(maxsize=None)
def make_torus(p: int, k: int, r: int, mode: str) -> CoxeterTorus:
    return CoxeterTorus(make_ring(p, k, r, mode))


# ---------------------------------------------------------------------------
# classification records


@dataclass
class TorusCharClass:
    """Everything the prediction layer needs to know about one theta."""

    theta: DualChar
    level: int                 # the ambient level r
    q: int
    tau: int | None            # pair code in F_{q^2}, None at r = 1
    is_regular: bool
    r0: int
    theta0: DualChar           # character of the level-r0 torus
    alpha: DualChar            # canonical twisting character of O_r^x
    n_minimizing_twists: int
    general_position: bool     # theta0 not flip-stable (meaningful at r0 = 1)
    stab_size: int             # 1 or 2
    sl_sigma_fixed: bool       # restriction to norm-one units flip-stable
    sl_quadratic: bool         # odd q, r0 = 1: restriction of theta0 has order 2


def classify_all(torus: CoxeterTorus, psi_scale: int = 1) -> list[TorusCharClass]:
    """Classification of every theta, batch-vectorised over the dual group."""
    T = torus.group
    U = torus.base_units
    L = T.exponent
    thetas = torus.dual()
    n_t = len(thetas)
    A = np.array([th.a for th in thetas], dtype=np.int64)

    # -- tau and regularity (r >= 2) ------------------------------------------
    taus = torus.taus(A, psi_scale) if torus.r >= 2 else [None] * n_t
    regular = [tau is not None and not torus.is_scalar(tau) for tau in taus]

    # -- twisted levels ---------------------------------------------------------
    pulls = [torus.norm_pullback(al) for al in U.dual()]
    # values of each theta, and lookup of the twists cancelling them, on the
    # generators of each kernel
    levels_theta = {}
    alpha_lookup = {}
    for r2 in range(1, torus.r + 1):
        W, Ca = torus.kernel_values(r2)
        levels_theta[r2] = A @ W.T % L
        d: dict[bytes, list[int]] = {}
        for j, row in enumerate((-Ca) % L):
            d.setdefault(row.tobytes(), []).append(j)
        alpha_lookup[r2] = d

    alphas = U.dual()
    out = []

    # sigma action, batch: exponent tuples of theta o sigma
    Esig = A @ torus.value_rows(torus.sigma_images_of_basis()).T % L
    orders_arr = np.array(T.orders, dtype=np.int64)
    if (Esig * orders_arr % L).any():
        raise InvariantError("theta o sigma is not a character")
    stab2 = (Esig * orders_arr // L % orders_arr == A).all(axis=1)

    # norm-one flip stability, batch
    n1 = torus.norm_one
    Wn1 = (torus.value_rows(torus.sigma(n1)) - torus.value_rows(n1)) % L
    sl_fixed = ((A @ Wn1.T % L) == 0).all(axis=1)

    for i, th in enumerate(thetas):
        if regular[i]:
            r0 = torus.r
            n_min = 1
            theta0 = th
            alpha = U.trivial_char()
        else:
            r0 = None
            for r2 in range(1, torus.r + 1):
                hits = alpha_lookup[r2].get(levels_theta[r2][i].tobytes())
                if hits:
                    r0 = r2
                    n_min = len(hits)
                    # canonical (theta0, alpha): least descended tuple, then
                    # least twist tuple
                    best = None
                    for j in hits:
                        eta = th * pulls[j]
                        t0 = torus.descend(eta, r0)
                        key = (t0.a, alphas[j].a)
                        if best is None or key < best[0]:
                            best = (key, t0, alphas[j])
                    theta0, alpha = best[1], best[2]
                    break
            if r0 is None:
                raise InvariantError("no level makes a twist of theta trivial")

        # general position of theta0 at its level
        t0_torus = torus.level_torus(r0)
        gp = t0_torus.char_sigma(theta0) != theta0

        # odd-q order-2 flag of the restriction at level 1
        sl_quadratic = False
        if torus.q % 2 == 1 and r0 == 1:
            t1 = torus.level_torus(1)
            L1 = t1.group.exponent
            exps = [theta0.root_exp(int(c)) for c in t1.norm_one]
            nontrivial = any(e % L1 for e in exps)
            order_div_2 = all((2 * e) % L1 == 0 for e in exps)
            sl_quadratic = nontrivial and order_div_2
            if sl_quadratic and not gp:
                raise InvariantError("order-2 restriction forces general position")

        out.append(
            TorusCharClass(
                theta=th,
                level=torus.r,
                q=torus.q,
                tau=taus[i],
                is_regular=regular[i],
                r0=r0,
                theta0=theta0,
                alpha=alpha,
                n_minimizing_twists=n_min,
                general_position=bool(gp),
                stab_size=2 if stab2[i] else 1,
                sl_sigma_fixed=bool(sl_fixed[i]),
                sl_quadratic=sl_quadratic,
            )
        )
    return out


# ---------------------------------------------------------------------------
# the two independent conductor computations


def conductor_brute_force(torus: CoxeterTorus, theta: DualChar) -> int:
    """min over alpha in Irr(O_r^x) of the level of theta * alpha(norm(-)):
    the least r2 at which some twist is trivial on the generators of K_{r2}."""
    L = torus.group.exponent
    for r2 in range(1, torus.r + 1):
        W, V = torus.kernel_values(r2)
        if ((W @ theta.a + V) % L == 0).all(axis=1).any():
            return r2
    raise InvariantError("no twist is trivial on the trivial kernel")


def conductor_by_peeling(torus: CoxeterTorus, theta: DualChar, psi_scale: int = 1) -> int:
    """Iterative peeling: while the top-layer datum is scalar, strip one
    level by twisting with an extension of psi(s * ((-) - 1)/pi^(rho-1))."""
    cur_torus, cur = torus, theta
    while True:
        rho = cur_torus.r
        if rho == 1:
            return 1
        tau = cur_torus.tau_of(cur, psi_scale)
        if not cur_torus.is_scalar(tau):
            return rho
        s = int(tau) % cur_torus.q  # tau = diag(s, s)
        alpha2 = _extend_kernel_character(cur_torus, s, psi_scale)
        eta = cur * cur_torus.norm_pullback(alpha2.inverse())
        if cur_torus.char_level(eta) > rho - 1:
            raise InvariantError("peeling did not lower the level")
        cur = cur_torus.descend(eta, rho - 1)
        cur_torus = cur_torus.level_torus(rho - 1)


def _extend_kernel_character(torus: CoxeterTorus, s: int, psi_scale: int) -> DualChar:
    """Some character of O_r^x restricting on the last ring kernel to
    u -> psi(s * (u - 1)/pi^(r-1)); existence by abelianness.  Memoised
    per (s, psi_scale) on the torus."""
    if (s, psi_scale) in torus._extensions:
        return torus._extensions[s, psi_scale]
    R = torus.ring
    F = R.field
    U = torus.base_units
    LU = U.exponent
    p = R.p
    # ring kernel elements and their required psi-exponents
    _, mred = R.reduction(R.r - 1)
    kcodes = [int(u) for u in R.units() if mred[u] == 1]
    want = {}
    for u in kcodes:
        x = R.div_pi_top(int(R.add[u, R.neg[R.one]]))
        c = F.mul[F.mul[s, x], psi_scale]
        want[u] = int(F.trace_to_fp[c])
    for alpha in U.dual():
        ok = True
        for u in kcodes:
            e = alpha.root_exp(u)
            if (e * p) % LU != 0 or (e * p // LU) % p != want[u]:
                ok = False
                break
        if ok:
            torus._extensions[s, psi_scale] = alpha
            return alpha
    raise InvariantError("no extension found; the unit group is abelian")
