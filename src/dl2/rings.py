"""Exact arithmetic in truncated local rings.

Every ring here is a monic quotient C[y]/(g) over a coefficient ring C coded
in [0, base); sum(c_i y^i) has the code sum(c_i * base^i) (`Quotient`).  The
finite local rings O_r with residue field F_q (q = p^k) come in two *modes*:

* ``"equal"`` : O_r = F_q[t]/(t^r), C = F_q; the code is sum(d_j * q^j), d_j
  the F_q-code of the t^j coefficient.
* ``"mixed"`` : O_r = GR(p^r, k) = (Z/p^r)[x]/(fhat), the Galois ring with
  fhat a monic lift of an irreducible f over F_p (Wan, Lectures on Finite
  Fields and Galois Rings, 2003); for k = 1 this is Z/p^r.  The code is
  sum(c_i * (p^r)^i), c_i in [0, p^r) the x^i coefficient.

At r = 1 both are F_q in the field's own codes.  O_r keeps dense add/mul
tables over its codes, filled from its quotient one row block at a time, so
callers work exactly on whole numpy arrays of codes.  The unramified
quadratic extension O'_r = O_r[xi]/(xi^2 + B xi + C) codes a + b xi as
a + b * |O_r| and has no tables: add, neg and mul are its quotient's over the
base tables, and Frobenius, norm, trace and inverse are closed forms in them.

The residue field F_q = F_p[x]/f is built from the exp/log ("Zech")
representation (Lidl and Niederreiter, Finite Fields, ch. 9): multiplication
by xbar is one array map on digit vectors, the least code g generating F_q^x
gives the power table exp and its inverse log, products are exp[log a +
log b], sums are digitwise, and the Frobenius is exp[p log c].

Defining polynomials are pinned, and lifted coefficientwise, so codes are
reproducible across runs: f is the least monic irreducible of degree k in
its coefficients (c_0, c_1, ..., c_{k-1}), constant term most significant,
and the quadratic y^2 + B y + C of the extension the least in (B, C).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .abelian import FiniteAbelianGroup, InvariantError

# Largest base ring for which dense S x S tables are built.
MAX_TABLE_RING = 4096


# psi_12: the least strong pseudoprime to all of the first 12 prime bases
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin over the first 12 prime
    bases, proven correct for n < psi_12 = 318 665 857 834 031 151 167 461;
    ValueError from psi_12 on."""
    n = int(n)
    if n >= _MR_PROVEN_BELOW:
        raise ValueError(f"{n} is not below psi_12 = {_MR_PROVEN_BELOW}, where is_prime is proven")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    # n - 1 = 2^s t, t odd; n passes base b when b^t = 1 or b^(2^i t) = -1
    # for some i < s
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    t = (n - 1) >> s
    for b in _MR_BASES:
        y = pow(b, t, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, ascending degree)


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

    Candidates are ordered by the coefficient tuple (c_0, c_1, ..., c_{k-1}),
    constant term most significant.
    Returns ascending coefficient list of length k+1 (monic).
    """
    if k == 1:
        return [0, 1]  # x itself; quotient F_p[x]/x = F_p
    for idx in range(p**k):
        coeffs = [0] * k
        m = idx
        for i in range(k - 1, -1, -1):  # c_0 takes the most significant digit
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
    prime subfield is coded 0..p-1 and, for k >= 2, xbar is coded p.

    digits : (q, k) int64, digits[c, i] = d_i of code c
    log    : log[g^n] = n for n in [0, q - 1), g the least code generating
             F_q^x; log[0] = 0 is a placeholder
    add, mul : (q, q) int64 tables; neg, frob, trace_to_fp : int64 arrays
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.p = p
        self.k = k
        self.q = q = p**k
        self.poly = least_irreducible(p, k)
        codes = np.arange(q, dtype=np.int64)
        place = p ** np.arange(k, dtype=np.int64)
        self.digits = digits = codes[:, None] // place % p
        # xbar * c: shift the digits up, folding the top one through xbar^k = -f
        shifted = np.zeros_like(digits)
        shifted[:, 1:] = digits[:, :-1]
        times_x = (shifted - digits[:, -1:] * self.poly[:k]) % p @ place
        # planes[i, c]: the digits of xbar^i * c, so g * c has the digits
        # sum_i g_i planes[i, c] mod p
        planes, xc = [], codes
        for _ in range(k):
            planes.append(digits[xc])
            xc = times_x[xc]
        planes = np.stack(planes)
        for g in range(1, q):
            # powers g^0 .. g^(q-2) by doubling: exp holds g^0 .. g^(m-1) and
            # step is multiplication by g^m
            step = np.tensordot(digits[g], planes, 1) % p @ place
            exp = np.ones(1, dtype=np.int64)
            while exp.size < q - 1:
                exp, step = np.concatenate([exp, step[exp]]), step[step]
            exp = exp[: q - 1]
            if (exp[1:] != 1).all():
                break
        self.log = np.zeros(q, dtype=np.int64)
        self.log[exp] = np.arange(q - 1)
        # g^a g^b = g^(a + b), read from the power table laid out twice;
        # int32 halves the (q, q) index temporary
        log32 = self.log.astype(np.int32)
        self.mul = np.concatenate([exp, exp])[np.add.outer(log32, log32)]
        self.mul[0, :] = self.mul[:, 0] = 0
        # digitwise sum: a + b, less p^(i+1) at each digit i that carries
        self.add = np.add.outer(codes, codes)
        for d, overflow in zip(digits.T.astype(np.int32), p * place):
            np.subtract(self.add, overflow, out=self.add, where=np.add.outer(d, d) >= p)
        self.neg = (-digits) % p @ place
        # x -> x^p, the arithmetic Frobenius generating Gal(F_q/F_p)
        self.frob = exp[p * self.log % (q - 1)]
        self.frob[0] = 0
        # absolute trace to F_p: c + c^p + ... + c^(p^(k-1))
        tr, cur = np.zeros(q, dtype=np.int64), codes
        for _ in range(k):
            tr, cur = self.add[tr, cur], self.frob[cur]
        self.trace_to_fp = tr

    def __repr__(self):
        return f"F{self.q}"


@lru_cache(maxsize=None)
def get_field(p: int, k: int) -> PrimePowerField:
    return PrimePowerField(p, k)


# ---------------------------------------------------------------------------
# monic quotients C[y]/(g)


class Quotient:
    """Arithmetic in C[y]/(g), g monic of degree n over a coefficient ring C
    coded in [0, base).

    C is given by its (base, base) `add` and `mul` tables and `neg` array,
    g by its coefficients g_0 .. g_{n-1} below the leading 1, as C codes.
    sum(c_i y^i), i < n, has the code sum(c_i base^i).  The methods act
    elementwise on broadcasting int64 code arrays or on scalars.
    """

    def __init__(self, add, mul, neg, g):
        self.base, self.n = len(neg), len(g)
        # flat tables: C's a + b and a b at a * base + b
        self.c_add, self.c_mul, self.c_neg = add.ravel(), mul.ravel(), neg
        # y^n = sum(-g_j y^j): multiplication by each -g_j as a map on C
        self.times_minus_g = [mul[:, neg[c]] for c in g]
        # a product has digits up to y^(2n-2); for g = y^n those at y^n and
        # above are 0 in the quotient, so they are never formed
        self.width = 2 * self.n - 1 if any(g) else self.n

    def digits(self, x):
        """The n digits c_0 .. c_{n-1} of codes x below base^n."""
        out = []
        for _ in range(self.n - 1):
            out.append(x % self.base)
            x = x // self.base
        return out + [x]

    def code(self, digits):
        """The code of the digits c_0, c_1, ...; those not given are 0."""
        out = digits[-1]
        for d in digits[-2::-1]:
            out = out * self.base + d
        return out

    def reduce(self, x, tgt):
        """The codes in `tgt` of the first tgt.n digits of x, each modulo
        tgt.base: the reduction map when tgt's coefficient ring is C modulo
        an ideal, coded by remainders, and its g is this g reduced."""
        return tgt.code([d % tgt.base for d in self.digits(x)[: tgt.n]])

    def add(self, x, y):
        A, b = self.c_add, self.base
        return self.code([A[u * b + v] for u, v in zip(self.digits(x), self.digits(y))])

    def neg(self, x):
        return self.code([self.c_neg[a] for a in self.digits(x)])

    def mul(self, x, y):
        """Convolve the digits through C's tables, then fold each y^m,
        m >= n, top-down through y^n = sum(-g_j y^j)."""
        A, M, b, n, width = self.c_add, self.c_mul, self.base, self.n, self.width
        xs = [u * b for u in self.digits(x)]
        ys = self.digits(y)
        conv = [None] * width
        for i in range(n):
            for j in range(min(n, width - i)):
                t = M[xs[i] + ys[j]]
                conv[i + j] = t if conv[i + j] is None else A[conv[i + j] * b + t]
        for m in range(width - 1, n - 1, -1):
            for j, times in enumerate(self.times_minus_g):
                conv[m - n + j] = A[conv[m - n + j] * b + times[conv[m]]]
        return self.code(conv[:n])


def _ring_quotient(field: PrimePowerField, r: int, mode: str) -> Quotient:
    """O_r as a quotient: F_q[t]/(t^r) (base q, n = r), or GR(p^r, k) =
    (Z/p^r)[x]/(fhat) (base p^r, n = k) with fhat the coefficientwise lift
    of field.poly.  At r = 1 both are F_q in the field's codes."""
    if mode == "equal":
        return Quotient(field.add, field.mul, field.neg, [0] * r)
    pr = field.p**r
    if r == 1:  # Z/p is F_p, whose tables exist already
        Fp = get_field(field.p, 1)
        zmod = Fp.add, Fp.mul, Fp.neg
    else:
        x = np.arange(pr, dtype=np.int64)
        zmod = np.add.outer(x, x), np.multiply.outer(x, x), -x
        for table in zmod:
            table %= pr  # in place, with no second (pr, pr) temporary
    return Quotient(*zmod, [c % pr for c in field.poly[:-1]])


# ---------------------------------------------------------------------------
# truncated local rings

# entries of the add and mul tables built per row block
_BLOCK = 1 << 14


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
      quot       : the Quotient whose codes these are (see `_ring_quotient`)
    """

    def __init__(self, p: int, k: int, r: int, mode: str):
        if mode not in ("equal", "mixed"):
            raise ValueError(f"mode must be 'equal' or 'mixed', got {mode!r}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1 or r < 1:
            raise ValueError("k and r must be >= 1")
        self.p, self.k, self.r, self.mode = p, k, r, mode
        self.q = q = p**k
        self.size = S = q**r
        if S > MAX_TABLE_RING:
            raise ValueError(f"|O_r| = {S} exceeds the table limit {MAX_TABLE_RING}")
        self.field = F = get_field(p, k)
        self.quot = quot = _ring_quotient(F, r, mode)
        codes = np.arange(S, dtype=np.int64)
        if r == 1:
            # both modes are F_q in the field's own codes
            self.add, self.mul, self.neg = F.add, F.mul, F.neg
        elif quot.n == 1:
            # Z/p^r (mixed, k = 1) is its own coefficient ring: share its tables
            self.add, self.mul, self.neg = quot.c_add.reshape(S, S), quot.c_mul.reshape(S, S), quot.c_neg
        else:
            # row blocks of _BLOCK entries bound the quotient's temporaries
            self.add = np.empty((S, S), dtype=np.int64)
            self.mul = np.empty((S, S), dtype=np.int64)
            step = max(1, _BLOCK // S)
            for lo in range(0, S, step):
                x = codes[lo : lo + step, None]
                self.add[lo : lo + step] = quot.add(x, codes)
                self.mul[lo : lo + step] = quot.mul(x, codes)
            self.neg = quot.neg(codes)
        level_one = _ring_quotient(F, 1, mode)  # F_q in the field's codes
        self.residue = quot.reduce(codes, level_one)
        self.lift = quot.code(level_one.digits(np.arange(q, dtype=np.int64)))
        self.pi = (q if mode == "equal" else p) if r > 1 else 0
        self.one = 1
        self.is_unit = self.residue != 0
        inv = np.zeros(S, dtype=np.int64)
        rows, cols = np.nonzero(self.mul == self.one)
        inv[rows] = cols
        inv[~self.is_unit] = 0
        self.inv = inv
        # powers of pi, and the section of multiplication by pi^(r-1)
        pows = [self.one]
        for _ in range(r):
            pows.append(int(self.mul[pows[-1], self.pi]))
        self.pi_pows = pows  # pi^0 .. pi^r (last is 0)
        sect = np.full(S, -1, dtype=np.int64)
        sect[self.mul[pows[r - 1], self.lift]] = np.arange(q)
        self._pi_top_section = sect  # -1 off the image of pi^(r-1) * lift

    # -- public operations -------------------------------------------------

    def units(self) -> np.ndarray:
        """All unit codes, ascending."""
        return np.nonzero(self.is_unit)[0].astype(np.int64)

    @cached_property
    def unit_group(self) -> FiniteAbelianGroup:
        """O_r^x with its basis and dual; one per interned ring, so every
        group over it and `CoxeterTorus.base_units` share it."""
        mul = self.mul  # the product closes over the table, so the ring is in no cycle
        return FiniteAbelianGroup(self.units(), lambda a, b: mul[a, b], self.one)

    def invert(self, code: int) -> int:
        if not self.is_unit[code]:
            raise ZeroDivisionError(f"code {code} is not a unit")
        return int(self.inv[code])

    def div_pi_top(self, code):
        """Section of multiplication by pi^(r-1), on scalar or array codes:
        returns s in F_q with pi^(r-1) * lift(s) == code.  Defined exactly
        on that image."""
        s = self._pi_top_section[code]
        if (s < 0).any():
            raise ValueError(f"code {code} is not divisible by pi^{self.r - 1}")
        return s

    @lru_cache(maxsize=None)
    def reduction(self, r2: int):
        """(target RingSpec, code map array) for reduction O_r -> O_{r2}."""
        if not (1 <= r2 <= self.r):
            raise ValueError(f"target level {r2} out of range 1..{self.r}")
        tgt = make_ring(self.p, self.k, r2, self.mode)
        return tgt, self.quot.reduce(np.arange(self.size, dtype=np.int64), tgt.quot)

    def coeffs(self, code: int) -> tuple:
        """Canonical coefficient vector of a code (t-coeffs as F_q codes in
        equal mode, x-coeffs in [0, p^r) in mixed mode)."""
        return tuple(int(v) for v in self.quot.digits(code))

    def __repr__(self):
        base = f"GR({self.p}^{self.r},{self.k})" if self.mode == "mixed" else f"F{self.q}[t]/t^{self.r}"
        return f"RingSpec({base})"


@lru_cache(maxsize=None)
def make_ring(p: int, k: int, r: int, mode: str) -> RingSpec:
    """Interned constructor: one RingSpec per (p, k, r, mode)."""
    return RingSpec(p, k, r, mode)


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
        q = base.q
        F = base.field
        # irreducible over F_q <=> no root in F_q: per B, mark each C =
        # -(x^2 + B x) and take the least C left unmarked
        x = np.arange(q)
        for Bres in range(q):
            has_root = np.zeros(q, dtype=bool)
            has_root[F.neg[F.add[F.mul[x, x], F.mul[Bres, x]]]] = True
            if not has_root.all():
                break
        else:
            raise InvariantError(f"no irreducible monic quadratic over F_{q}")
        self.B_res, self.C_res = Bres, int(np.argmin(has_root))
        self.B = int(base.lift[self.B_res])
        self.C = int(base.lift[self.C_res])
        self.size = base.size**2
        self.q = q
        quot = Quotient(base.add, base.mul, base.neg, [self.C, self.B])
        self.add, self.neg, self.mul = quot.add, quot.neg, quot.mul

    # -- coding -------------------------------------------------------------

    def enc(self, a, b):
        return a + b * self.base.size

    @property
    def one(self):
        return 1

    @property
    def xi(self):
        return self.enc(0, 1)

    # -- arithmetic (scalar or numpy array codes) ----------------------------
    # add, neg and mul are the quotient's, set in __init__

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

    def units(self) -> np.ndarray:
        codes = np.arange(self.size, dtype=np.int64)
        return codes[self.is_unit(codes)]

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
        if (tgt.B_res, tgt.C_res) != (self.B_res, self.C_res):
            raise InvariantError("reduction changes the extension's residue polynomial")
        codes = np.arange(self.size, dtype=np.int64)
        S = self.base.size
        return tgt, m[codes % S] + m[codes // S] * tgt_base.size

    def mul_pi_top_lift(self, pair):
        """pi^(r-1) * lift(pair) for F_{q^2} pair codes (scalar or array)."""
        top = self.base.pi_pows[self.base.r - 1]
        x = self.lift_residue_pair(pair)
        S = self.base.size
        M = self.base.mul
        return M[x % S, top] + M[x // S, top] * S

    def __repr__(self):
        return f"ExtSpec({self.base!r}, y^2+{self.B_res}y+{self.C_res})"


@lru_cache(maxsize=None)
def make_ext(base: RingSpec) -> ExtSpec:
    return ExtSpec(base)
