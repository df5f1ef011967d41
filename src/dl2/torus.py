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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .abelian import DualChar, FiniteAbelianGroup
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
        assert self.order == ring.q ** (2 * (ring.r - 1)) * (ring.q**2 - 1)
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
            assert (e * L) % LU == 0
            exps.append(e * L // LU)
        out = self.group.char_from_values_on_basis(exps, L)
        self._pullbacks[alpha.a] = out
        return out

    def weyl_stabilizer(self, theta: DualChar) -> int:
        return 2 if self.char_sigma(theta) == theta else 1

    # -- the additive-character pairing on the top congruence layer -------------

    def top_layer_elements(self):
        """(pair codes x, ext codes of 1 + pi^(r-1) lift(x)) over F_{q^2}."""
        ext = self.ext
        q2 = self.q**2
        xs = np.arange(q2, dtype=np.int64)
        elts = np.array(
            [ext.add(ext.one, ext.mul_pi_top_lift(int(x))) for x in xs],
            dtype=np.int64,
        )
        return xs, elts

    def _pairing_patterns(self, psi_scale: int):
        """For each candidate tau, the tuple of psi(Tr(x tau)) exponents."""
        if psi_scale in self._patterns:
            return self._patterns[psi_scale]
        F = self.ring.field
        rq = self.rq
        q2 = self.q**2
        pats = {}
        for tau in range(q2):
            row = []
            for x in range(q2):
                c = rq.trace(rq.mul(x, tau))
                c = F.mul[c, psi_scale]
                row.append(int(F.trace_to_fp[c]))
            pats[tuple(row)] = tau
        assert len(pats) == q2, "trace pairing degenerate"
        self._patterns[psi_scale] = pats
        return pats

    def tau_of(self, theta: DualChar, psi_scale: int = 1) -> int:
        """The unique tau in F_{q^2} (pair code) with
        theta(1 + pi^(r-1) x) = psi(Tr_{F_{q^2}/F_q}(x tau)) for all x."""
        if self.r < 2:
            raise ValueError("tau is defined for levels r >= 2 only")
        p = self.ring.p
        L = self.group.exponent
        xs, elts = self.top_layer_elements()
        row = []
        for el in elts:
            j = theta.root_exp(int(el))
            assert (j * p) % L == 0, "top-layer value is not a p-th root"
            row.append((j * p // L) % p)
        return self._pairing_patterns(psi_scale)[tuple(row)]

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
            gens = [g for g, _ in self.kernels[r2].basis]
            if eta.is_trivial_on(gens):
                return r2
        raise AssertionError("character not trivial on the trivial kernel")

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
            assert (e * L0) % L == 0
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
            assert (e * L) % L0 == 0
            exps.append(e * L // L0)
        return self.group.char_from_values_on_basis(exps, L)


def torus_order(q: int, r: int) -> int:
    return q ** (2 * (r - 1)) * (q * q - 1)


@lru_cache(maxsize=None)
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
    m = max(1, len(T.orders))
    thetas = torus.dual()
    n_t = len(thetas)
    A = np.array([list(th.a) + [0] * (m - len(th.a)) for th in thetas], dtype=np.int64)
    scale = np.array([L // n for n in T.orders], dtype=np.int64) if T.orders else np.zeros(m, dtype=np.int64)

    def wvec(codes):
        """Rows w(x) with theta-value exponent = A . w(x) mod L."""
        W = np.zeros((len(codes), m), dtype=np.int64)
        for i, c in enumerate(codes):
            t = T.dlog[int(c)]
            for j, v in enumerate(t):
                W[i, j] = v * scale[j] % L
        return W

    # -- tau and regularity (r >= 2) ------------------------------------------
    taus = [None] * n_t
    regular = np.zeros(n_t, dtype=bool)
    if torus.r >= 2:
        p = torus.ring.p
        xs, elts = torus.top_layer_elements()
        Wtop = wvec(elts)
        Vtop = A @ Wtop.T % L
        assert ((Vtop * p) % L == 0).all(), "top layer values must be p-th roots"
        Vtop = Vtop * p // L % p
        pats = torus._pairing_patterns(psi_scale)
        for i in range(n_t):
            tau = pats[tuple(int(v) for v in Vtop[i])]
            taus[i] = tau
            regular[i] = not torus.is_scalar(tau)

    # -- twisted levels ---------------------------------------------------------
    pulls = [torus.norm_pullback(al) for al in U.dual()]
    P = np.array([list(pl.a) + [0] * (m - len(pl.a)) for pl in pulls], dtype=np.int64)
    kernel_w = {
        r2: wvec([g for g, _ in torus.kernels[r2].basis])
        for r2 in range(1, torus.r + 1)
    }
    # C[r2] rows: value exponents of each character on kernel generators
    levels_theta = {}
    alpha_lookup = {}
    for r2 in range(1, torus.r + 1):
        W = kernel_w[r2]
        if W.shape[0] == 0:  # trivial kernel
            Ct = np.zeros((n_t, 1), dtype=np.int64)
            Ca = np.zeros((len(pulls), 1), dtype=np.int64)
        else:
            Ct = A @ W.T % L
            Ca = P @ W.T % L
        levels_theta[r2] = Ct
        want = (-Ca) % L
        d: dict[bytes, list[int]] = {}
        for j in range(len(pulls)):
            d.setdefault(want[j].tobytes(), []).append(j)
        alpha_lookup[r2] = d

    alphas = U.dual()
    out = []
    sigma_basis = torus.sigma_images_of_basis()

    # sigma action, batch: exponent tuples of theta o sigma
    Wsig = wvec([int(c) for c in sigma_basis])
    Esig = A @ Wsig.T % L
    orders_arr = np.array(T.orders, dtype=np.int64) if T.orders else np.ones(1, dtype=np.int64)
    assert ((Esig * orders_arr[None, :]) % L == 0).all()
    Asig = Esig * orders_arr[None, :] // L % orders_arr[None, :]
    stab2 = (Asig == A).all(axis=1)

    # norm-one flip stability, batch
    n1 = torus.norm_one
    Wn1 = (wvec([int(torus.sigma(c)) for c in n1]) - wvec([int(c) for c in n1])) % L
    sl_fixed = ((A @ Wn1.T % L) == 0).all(axis=1)

    for i, th in enumerate(thetas):
        if regular[i]:
            r0 = torus.r
            n_min = 1
            theta0 = th
            alpha = U.trivial_char() if U.orders else DualChar(U, tuple())
        else:
            r0 = None
            for r2 in range(1, torus.r + 1):
                hits = alpha_lookup[r2].get((levels_theta[r2][i] % L).tobytes())
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
            assert r0 is not None

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
            if sl_quadratic:
                assert gp, "order-2 restriction forces general position"

        out.append(
            TorusCharClass(
                theta=th,
                level=torus.r,
                q=torus.q,
                tau=taus[i],
                is_regular=bool(regular[i]),
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
    """min over alpha in Irr(O_r^x) of the level of theta * alpha(norm(-))."""
    best = torus.r
    for alpha in torus.base_units.dual():
        lv = torus.char_level(theta * torus.norm_pullback(alpha))
        best = min(best, lv)
    return best


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
        assert cur_torus.char_level(eta) <= rho - 1
        cur = cur_torus.descend(eta, rho - 1)
        cur_torus = cur_torus.level_torus(rho - 1)


def _extend_kernel_character(torus: CoxeterTorus, s: int, psi_scale: int) -> DualChar:
    """Some character of O_r^x restricting on the last ring kernel to
    u -> psi(s * (u - 1)/pi^(r-1)); existence by abelianness."""
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
            return alpha
    raise AssertionError("no extension found; the unit group is abelian")
