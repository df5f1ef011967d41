"""Exact arithmetic in truncated local rings.

Two families of finite local rings O_r with residue field F_q (q = p^k) are
supported, selected by a *mode*:

* ``"equal"``  : O_r = F_q[t]/t^r, equal characteristic p.
* ``"mixed"``  : O_r = GR(p^r, k), the Galois ring Z[x]/(p^r, f(x)) with f a
  monic degree-k lift of an irreducible polynomial over F_p.  For k = 1 this
  is Z/p^r.

Every element is identified with an integer *code* in [0, q^r):

* equal mode : code = sum(d_j * q^j), d_j the F_q-code of the t^j coefficient;
* mixed mode : code = sum(c_i * (p^r)^i), c_i in [0, p^r) the x^i coefficient.

Arithmetic is table driven (dense add/mul tables over the code space), which
keeps everything exact and lets callers operate on whole numpy arrays of
codes at once.  The unramified quadratic extension O'_r is represented on
top of a base ring as pairs (a, b) <-> a + b*xi with xi a root of a fixed
monic quadratic; its arithmetic is closed-form in the base tables, so no
quadratic-size tables are ever materialised for the extension.

Defining polynomials are pinned to the lexicographically least monic
irreducible of the required degree (most significant coefficient first),
lifted coefficientwise, so codes are reproducible across runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Largest base ring for which dense S x S tables are built.
MAX_TABLE_RING = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, ascending degree)


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem_mod_p(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
        a[i] = 0
    return [c % p for c in a[:df]] or [0]


def _poly_is_irreducible_mod_p(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            g = [0] * (d + 1)
            m = idx
            for i in range(d):
                g[i] = m % p
                m //= p
            g[d] = 1
            if not any(_poly_rem_mod_p(f, g, p)):
                return False
    return True


def least_irreducible(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over F_p.

    Candidates are ordered by the coefficient tuple (c_{k-1}, ..., c_0).
    Returns ascending coefficient list of length k+1 (monic).
    """
    if k == 1:
        return [0, 1]  # x itself; quotient F_p[x]/x = F_p
    for idx in range(p**k):
        coeffs = [0] * k
        m = idx
        for i in range(k - 1, -1, -1):  # most significant digit first
            coeffs[i] = m % p
            m //= p
        f = coeffs + [1]
        if _poly_is_irreducible_mod_p(f, p):
            return f
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# residue fields F_q


class PrimePowerField:
    """F_q, q = p^k, elements coded as integers in [0, q).

    The code of sum(d_i * xbar^i) is sum(d_i * p^i); in particular the
    prime subfield is coded 0..p-1 and xbar is coded p.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.poly = least_irreducible(p, k)
        q = self.q
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        digs = [self._digits(c) for c in range(q)]
        for a in range(q):
            for b in range(a, q):
                s = [(x + y) % p for x, y in zip(digs[a], digs[b])]
                add[a, b] = add[b, a] = self._undigits(s)
                m = _poly_rem_mod_p(_poly_mul_mod_p(digs[a], digs[b], p), self.poly, p)
                mul[a, b] = mul[b, a] = self._undigits(m)
        self.add = add
        self.mul = mul
        self.neg = np.array(
            [self._undigits([(-d) % p for d in digs[c]]) for c in range(q)], dtype=np.int64
        )
        inv = np.zeros(q, dtype=np.int64)
        one_positions = np.argwhere(mul == 1)
        for a, b in one_positions:
            inv[a] = b
        self.inv = inv
        # x -> x^p, the arithmetic Frobenius generating Gal(F_q/F_p)
        frob = np.zeros(q, dtype=np.int64)
        for c in range(q):
            frob[c] = self.pow(c, p)
        self.frob = frob
        # absolute trace to F_p
        tr = np.zeros(q, dtype=np.int64)
        for c in range(q):
            acc, cur = 0, c
            for _ in range(k):
                acc = int(add[acc, cur])
                cur = int(frob[cur])
            tr[c] = acc
        self.trace_to_fp = tr

    def _digits(self, code):
        p, k = self.p, self.k
        out = []
        for _ in range(k):
            out.append(code % p)
            code //= p
        return out

    def _undigits(self, digs):
        p = self.p
        out = 0
        for d in reversed(digs[: self.k]):
            out = out * p + (d % p)
        return out

    def pow(self, c, n):
        out, cur = 1, c
        while n:
            if n & 1:
                out = int(self.mul[out, cur])
            cur = int(self.mul[cur, cur])
            n >>= 1
        return out

    def __repr__(self):
        return f"F{self.q}"


@lru_cache(maxsize=None)
def get_field(p: int, k: int) -> PrimePowerField:
    return PrimePowerField(p, k)


# ---------------------------------------------------------------------------
# truncated local rings


class RingSpec:
    """O_r with dense arithmetic tables over integer codes in [0, q^r).

    Attributes of note:
      size       : q^r
      add, mul   : (size, size) int64 tables
      neg, inv   : int64 arrays (inv is 0 at non-units)
      is_unit    : bool array
      residue    : code -> F_q code of the reduction mod pi
      lift       : F_q code -> canonical lift code (section of residue)
      pi         : code of the uniformiser (t resp. p)
    """

    def __init__(self, p: int, k: int, r: int, mode: str):
        if mode not in ("equal", "mixed"):
            raise ValueError(f"mode must be 'equal' or 'mixed', got {mode!r}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1 or r < 1:
            raise ValueError("k and r must be >= 1")
        self.p, self.k, self.r, self.mode = p, k, r, mode
        self.q = p**k
        self.size = self.q**r
        if self.size > MAX_TABLE_RING:
            raise ValueError(
                f"|O_r| = {self.size} exceeds the table limit {MAX_TABLE_RING}"
            )
        self.field = get_field(p, k)
        if mode == "equal":
            self._build_equal()
        else:
            self._build_mixed()
        self._finish()

    # -- equal characteristic: F_q[t]/t^r, digits base q ------------------

    def _build_equal(self):
        q, r, S = self.q, self.r, self.size
        F = self.field
        codes = np.arange(S, dtype=np.int64)
        digs = np.empty((S, r), dtype=np.int64)
        tmp = codes.copy()
        for j in range(r):
            digs[:, j] = tmp % q
            tmp //= q
        self._digs = digs
        weights = q ** np.arange(r, dtype=np.int64)

        add = np.zeros((S, S), dtype=np.int64)
        for j in range(r):
            add += F.add[digs[:, None, j], digs[None, :, j]] * weights[j]
        digit_acc = [np.zeros((S, S), dtype=np.int64) for _ in range(r)]
        for i in range(r):
            for j in range(r - i):
                term = F.mul[digs[:, None, i], digs[None, :, j]]
                digit_acc[i + j] = F.add[digit_acc[i + j], term]
        mul = np.zeros((S, S), dtype=np.int64)
        for d in range(r):
            mul += digit_acc[d] * weights[d]
        self.add, self.mul = add, mul
        self.neg = (F.neg[digs] * weights).sum(axis=1)
        self.residue = digs[:, 0].copy()
        self.lift = np.arange(q, dtype=np.int64)  # constant polynomials
        self.pi = int(q) if r > 1 else 0

    # -- mixed characteristic: GR(p^r, k), digits base p^r -----------------

    def _build_mixed(self):
        p, k, r = self.p, self.k, self.r
        pr = p**r
        S = self.size
        fhat = [c % pr for c in self.field.poly]  # monic lift of f
        codes = np.arange(S, dtype=np.int64)
        digs = np.empty((S, k), dtype=np.int64)
        tmp = codes.copy()
        for i in range(k):
            digs[:, i] = tmp % pr
            tmp //= pr
        self._digs = digs
        weights = (pr) ** np.arange(k, dtype=np.int64)

        add = np.zeros((S, S), dtype=np.int64)
        for i in range(k):
            add += ((digs[:, None, i] + digs[None, :, i]) % pr) * weights[i]
        self.add = add

        # convolution then reduction by the monic fhat, all mod p^r
        conv = [
            sum(
                digs[:, None, i] * digs[None, :, d - i]
                for i in range(max(0, d - k + 1), min(k, d + 1))
            )
            % pr
            for d in range(2 * k - 1)
        ]
        for d in range(2 * k - 2, k - 1, -1):
            c = conv[d]
            for j in range(k):
                conv[d - k + j] = (conv[d - k + j] - c * fhat[j]) % pr
        mul = np.zeros((S, S), dtype=np.int64)
        for i in range(k):
            mul += conv[i] * weights[i]
        self.mul = mul
        self.neg = (((-digs) % pr) * weights).sum(axis=1)
        res = np.zeros(S, dtype=np.int64)
        for i in range(k):
            res += (digs[:, i] % p) * (p**i)
        self.residue = res
        lift = np.zeros(self.q, dtype=np.int64)
        for c in range(self.q):
            ds = self.field._digits(c)
            lift[c] = sum(int(d) * int(w) for d, w in zip(ds, weights))
        self.lift = lift
        self.pi = p if r > 1 else 0

    def _finish(self):
        S = self.size
        self.zero, self.one = 0, 1
        self.is_unit = self.residue != 0
        inv = np.zeros(S, dtype=np.int64)
        rows, cols = np.nonzero(self.mul == self.one)
        inv[rows] = cols
        inv[~self.is_unit] = 0
        self.inv = inv
        # powers of pi, and the section of multiplication by pi^(r-1)
        pows = [self.one]
        for _ in range(self.r):
            pows.append(int(self.mul[pows[-1], self.pi]) if self.r > 1 else 0)
        if self.r == 1:
            pows = [self.one] + [0] * self.r
        self.pi_pows = pows  # pi^0 .. pi^r (last is 0)
        top = pows[self.r - 1]
        sect = {}
        for s in range(self.q):
            sect[int(self.mul[top, self.lift[s]])] = s
        self._pi_top_section = sect

    # -- public operations -------------------------------------------------

    def units(self) -> np.ndarray:
        """All unit codes, ascending."""
        return np.nonzero(self.is_unit)[0].astype(np.int64)

    def invert(self, code: int) -> int:
        if not self.is_unit[code]:
            raise ZeroDivisionError(f"code {code} is not a unit")
        return int(self.inv[code])

    def div_pi_top(self, code: int) -> int:
        """Section of multiplication by pi^(r-1): returns s in F_q with
        pi^(r-1) * lift(s) == code.  Defined exactly on that image."""
        try:
            return self._pi_top_section[int(code)]
        except KeyError:
            raise ValueError(f"code {code} is not divisible by pi^{self.r - 1}")

    @lru_cache(maxsize=None)
    def reduction(self, r2: int):
        """(target RingSpec, code map array) for reduction O_r -> O_{r2}."""
        if not (1 <= r2 <= self.r):
            raise ValueError(f"target level {r2} out of range 1..{self.r}")
        tgt = make_ring(self.p, self.k, r2, self.mode)
        S = self.size
        if self.mode == "equal":
            w = self.q ** np.arange(r2, dtype=np.int64)
            m = (self._digs[:, :r2] * w).sum(axis=1)
        else:
            pr2 = self.p**r2
            w = pr2 ** np.arange(self.k, dtype=np.int64)
            m = ((self._digs % pr2) * w).sum(axis=1)
        assert m.shape == (S,)
        return tgt, m

    def coeffs(self, code: int) -> tuple:
        """Canonical coefficient vector of a code (t-coeffs as F_q codes in
        equal mode, x-coeffs in [0, p^r) in mixed mode)."""
        return tuple(int(v) for v in self._digs[code])

    def elem(self, code: int) -> "RingElem":
        return RingElem(self, int(code) % self.size)

    def __repr__(self):
        base = f"GR({self.p}^{self.r},{self.k})" if self.mode == "mixed" else f"F{self.q}[t]/t^{self.r}"
        return f"RingSpec({base})"


@lru_cache(maxsize=None)
def make_ring(p: int, k: int, r: int, mode: str) -> RingSpec:
    """Interned constructor: one RingSpec per (p, k, r, mode)."""
    return RingSpec(p, k, r, mode)


class RingElem:
    """A value of O_r.  Thin wrapper over (spec, code); equality structural."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: RingSpec, code: int):
        self.spec = spec
        self.code = int(code)

    @property
    def coeffs(self):
        return self.spec.coeffs(self.code)

    def __add__(self, other):
        return RingElem(self.spec, self.spec.add[self.code, other.code])

    def __sub__(self, other):
        return RingElem(self.spec, self.spec.add[self.code, self.spec.neg[other.code]])

    def __mul__(self, other):
        return RingElem(self.spec, self.spec.mul[self.code, other.code])

    def __neg__(self):
        return RingElem(self.spec, self.spec.neg[self.code])

    def inverse(self):
        return RingElem(self.spec, self.spec.invert(self.code))

    def is_unit(self):
        return bool(self.spec.is_unit[self.code])

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.spec is other.spec
            and self.code == other.code
        )

    def __hash__(self):
        return hash((id(self.spec), self.code))

    def __repr__(self):
        return f"RingElem({self.coeffs})"


# ---------------------------------------------------------------------------
# unramified quadratic extension O'_r = O_r[y]/(y^2 + B y + C)


class ExtSpec:
    """Quadratic unramified extension of a RingSpec.

    Elements are coded a + b*S for (a, b) base codes, meaning a + b*xi.
    The defining quadratic y^2 + B y + C is the lexicographically least
    monic irreducible over F_q (key (B, C)), lifted coefficientwise; it is
    fixed per base ring so that reduction between levels is coefficientwise.

    The Frobenius sends xi to the second root -B - xi; it is the unique
    nontrivial ring automorphism fixing the base, of order 2, congruent to
    x -> x^q modulo pi.
    """

    def __init__(self, base: RingSpec):
        self.base = base
        self.degree = 2
        q = base.q
        F = base.field
        found = None
        for Bres in range(q):
            for Cres in range(q):
                # irreducible over F_q <=> no root in F_q
                has_root = any(
                    int(F.add[F.add[F.mul[x, x], F.mul[Bres, x]], Cres]) == 0
                    for x in range(q)
                )
                if not has_root:
                    found = (Bres, Cres)
                    break
            if found:
                break
        assert found is not None
        self.B_res, self.C_res = found
        self.B = int(base.lift[found[0]])
        self.C = int(base.lift[found[1]])
        self.size = base.size**2
        self.q = q

    # -- coding -------------------------------------------------------------

    def enc(self, a, b):
        return a + b * self.base.size

    def dec(self, code):
        S = self.base.size
        return code % S, code // S

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    @property
    def xi(self):
        return self.enc(0, 1)

    # -- arithmetic (scalar or numpy array codes) ----------------------------

    def add(self, x, y):
        S = self.base.size
        A = self.base.add
        a1, b1 = x % S, x // S
        a2, b2 = y % S, y // S
        return A[a1, a2] + A[b1, b2] * S

    def neg(self, x):
        S = self.base.size
        N = self.base.neg
        return N[x % S] + N[x // S] * S

    def mul(self, x, y):
        # (a1 + b1 xi)(a2 + b2 xi), xi^2 = -B xi - C
        S = self.base.size
        A, M, N = self.base.add, self.base.mul, self.base.neg
        a1, b1 = x % S, x // S
        a2, b2 = y % S, y // S
        bb = M[b1, b2]
        a = A[M[a1, a2], N[M[bb, self.C]]]
        b = A[A[M[a1, b2], M[b1, a2]], N[M[bb, self.B]]]
        return a + b * S

    def frobenius(self, x):
        S = self.base.size
        A, M, N = self.base.add, self.base.mul, self.base.neg
        a, b = x % S, x // S
        return A[a, N[M[b, self.B]]] + N[b] * S

    def norm(self, x):
        # x * sigma(x) = a^2 - a b B + b^2 C
        S = self.base.size
        A, M, N = self.base.add, self.base.mul, self.base.neg
        a, b = x % S, x // S
        return A[A[M[a, a], N[M[M[a, b], self.B]]], M[M[b, b], self.C]]

    def trace(self, x):
        # x + sigma(x) = 2a - b B
        S = self.base.size
        A, M, N = self.base.add, self.base.mul, self.base.neg
        a, b = x % S, x // S
        return A[A[a, a], N[M[b, self.B]]]

    def is_unit(self, x):
        S = self.base.size
        R = self.base.residue
        return (R[x % S] != 0) | (R[x // S] != 0)

    def inv(self, x):
        # sigma(x) / norm(x); norm of a unit is a base unit
        n = self.norm(x)
        ninv = self.base.inv[n]
        s = self.frobenius(x)
        S = self.base.size
        M = self.base.mul
        return M[s % S, ninv] + M[s // S, ninv] * S

    def units(self) -> np.ndarray:
        codes = np.arange(self.size, dtype=np.int64)
        return codes[self.is_unit(codes)]

    def pow(self, x, n):
        out, cur = self.one, int(x)
        n = int(n)
        while n:
            if n & 1:
                out = int(self.mul(out, cur))
            cur = int(self.mul(cur, cur))
            n >>= 1
        return out

    def embed_base(self, code):
        """O_r -> O'_r."""
        return code  # (a, 0) coding

    def residue_pair(self, x):
        """Reduction mod pi as an F_{q^2} pair code a0 + q*a1 in [0, q^2)."""
        S = self.base.size
        R = self.base.residue
        return R[x % S] + self.q * R[x // S]

    def lift_residue_pair(self, pair):
        """Canonical lift F_{q^2} -> O'_r (coefficientwise)."""
        a = self.base.lift[pair % self.q]
        b = self.base.lift[pair // self.q]
        return self.enc(a, b)

    @lru_cache(maxsize=None)
    def reduction(self, r2: int):
        """(target ExtSpec, map on codes) for O'_r -> O'_{r2}."""
        tgt_base, m = self.base.reduction(r2)
        tgt = make_ext(tgt_base)
        assert (tgt.B_res, tgt.C_res) == (self.B_res, self.C_res)
        codes = np.arange(self.size, dtype=np.int64)
        S = self.base.size
        return tgt, m[codes % S] + m[codes // S] * tgt_base.size

    def div_pi_top(self, code: int):
        """Section of multiplication by pi^(r-1), landing in F_{q^2} pairs."""
        S = self.base.size
        a, b = code % S, code // S
        return self.base.div_pi_top(a) + self.q * self.base.div_pi_top(b)

    def mul_pi_top_lift(self, pair):
        """pi^(r-1) * lift(pair) for F_{q^2} pair codes (scalar or array)."""
        top = self.base.pi_pows[self.base.r - 1]
        x = self.lift_residue_pair(pair)
        S = self.base.size
        M = self.base.mul
        return M[x % S, top] + M[x // S, top] * S

    def elem(self, code: int) -> "ExtElem":
        return ExtElem(self, int(code))

    def __repr__(self):
        return f"ExtSpec({self.base!r}, y^2+{self.B_res}y+{self.C_res})"


@lru_cache(maxsize=None)
def make_ext(base: RingSpec) -> ExtSpec:
    return ExtSpec(base)


class ExtElem:
    __slots__ = ("spec", "code")

    def __init__(self, spec: ExtSpec, code: int):
        self.spec = spec
        self.code = int(code)

    @property
    def coeffs(self):
        a, b = self.spec.dec(self.code)
        return (self.spec.base.coeffs(a), self.spec.base.coeffs(b))

    def __add__(self, other):
        return ExtElem(self.spec, self.spec.add(self.code, other.code))

    def __mul__(self, other):
        return ExtElem(self.spec, self.spec.mul(self.code, other.code))

    def __neg__(self):
        return ExtElem(self.spec, self.spec.neg(self.code))

    def frobenius(self):
        return ExtElem(self.spec, self.spec.frobenius(self.code))

    def norm(self) -> RingElem:
        return RingElem(self.spec.base, self.spec.norm(self.code))

    def trace(self) -> RingElem:
        return RingElem(self.spec.base, self.spec.trace(self.code))

    def inverse(self):
        if not self.spec.is_unit(self.code):
            raise ZeroDivisionError("not a unit")
        return ExtElem(self.spec, self.spec.inv(self.code))

    def __eq__(self, other):
        return (
            isinstance(other, ExtElem)
            and self.spec is other.spec
            and self.code == other.code
        )

    def __hash__(self):
        return hash((id(self.spec), self.code))

    def __repr__(self):
        return f"ExtElem({self.coeffs})"
