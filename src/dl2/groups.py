"""Fully enumerated GL2 / SL2 over a truncated local ring.

A 2x2 matrix [[a, b], [c, d]] over a ring with |O_r| = S is coded as the
integer a + b*S + c*S^2 + d*S^3.  The whole code space [0, S^4) is small at
the supported sizes, so we keep dense decode / determinant / class lookup
arrays over it and run every bulk operation (multiplication, inversion,
conjugation orbits, reductions) vectorised over numpy arrays of codes.

Conjugacy classes are computed by orbit closure under conjugation by a
fixed generating set (elementary matrices over additive generators of the
ring, plus diag(u, 1) over a basis of the unit group for GL), which costs
O(|G| * #gens) ring operations instead of O(|G|^2).  Representatives are
the least group index in each class, so everything downstream is
reproducible bit for bit.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .abelian import FiniteAbelianGroup
from .rings import RingSpec, make_ring

GROUP_BOUND = 500_000


class GroupTooLargeError(ValueError):
    pass


def gl2_order(q: int, r: int) -> int:
    return q ** (4 * (r - 1)) * (q * q - 1) * (q * q - q)


def sl2_order(q: int, r: int) -> int:
    return q ** (3 * (r - 1)) * q * (q * q - 1)


class MatrixSpace:
    """Dense coded arithmetic for all 2x2 matrices over a ring."""

    def __init__(self, ring: RingSpec):
        self.ring = ring
        S = ring.size
        self.S = S
        N = S**4
        if N > 40_000_000:
            raise GroupTooLargeError(f"matrix code space {N} too large")
        self.N = N
        codes = np.arange(N, dtype=np.int64)
        self.A = codes % S
        self.B = (codes // S) % S
        self.C = (codes // (S * S)) % S
        self.D = codes // (S * S * S)
        add, mul, neg = ring.add, ring.mul, ring.neg
        self._addf = add.ravel()
        self._mulf = mul.ravel()
        self._neg = neg
        ad = self._mulf[self.A * S + self.D]
        bc = self._mulf[self.B * S + self.C]
        self.det = self._addf[ad * S + neg[bc]]
        self.identity = self.enc(ring.one, 0, 0, ring.one)

    def enc(self, a, b, c, d):
        S = self.S
        return a + b * S + c * S * S + d * S * S * S

    def dec(self, code):
        return self.A[code], self.B[code], self.C[code], self.D[code]

    def mul(self, x, y):
        """Matrix product on (arrays of) codes."""
        S = self.S
        af, mf = self._addf, self._mulf
        a1, b1, c1, d1 = self.A[x], self.B[x], self.C[x], self.D[x]
        a2, b2, c2, d2 = self.A[y], self.B[y], self.C[y], self.D[y]
        a = af[mf[a1 * S + a2] * S + mf[b1 * S + c2]]
        b = af[mf[a1 * S + b2] * S + mf[b1 * S + d2]]
        c = af[mf[c1 * S + a2] * S + mf[d1 * S + c2]]
        d = af[mf[c1 * S + b2] * S + mf[d1 * S + d2]]
        return self.enc(a, b, c, d)

    def mul_scalar(self, x: int, y: int) -> int:
        S = self.S
        af, mf = self._addf, self._mulf
        A, B, C, D = self.A, self.B, self.C, self.D
        a1, b1, c1, d1 = int(A[x]), int(B[x]), int(C[x]), int(D[x])
        a2, b2, c2, d2 = int(A[y]), int(B[y]), int(C[y]), int(D[y])
        a = af[mf[a1 * S + a2] * S + mf[b1 * S + c2]]
        b = af[mf[a1 * S + b2] * S + mf[b1 * S + d2]]
        c = af[mf[c1 * S + a2] * S + mf[d1 * S + c2]]
        d = af[mf[c1 * S + b2] * S + mf[d1 * S + d2]]
        return int(self.enc(a, b, c, d))

    def inv(self, x):
        """Inverse on codes with unit determinant (adjugate over det)."""
        S = self.S
        mf, neg = self._mulf, self._neg
        idet = self.ring.inv[self.det[x]]
        a, b, c, d = self.A[x], self.B[x], self.C[x], self.D[x]
        return self.enc(
            mf[d * S + idet],
            neg[mf[b * S + idet]],
            neg[mf[c * S + idet]],
            mf[a * S + idet],
        )

    def reduce_map(self, r2: int):
        """(target space, code map over the full code space)."""
        tgt_ring, m = self.ring.reduction(r2)
        tgt = matrix_space(tgt_ring)
        return tgt, tgt.enc(m[self.A], m[self.B], m[self.C], m[self.D])


@lru_cache(maxsize=None)
def matrix_space(ring: RingSpec) -> MatrixSpace:
    return MatrixSpace(ring)


class ConjugacyData:
    """Conjugacy classes of an enumerated group.

    reps        : representative codes (least group index per class)
    sizes       : class sizes
    class_of    : full-code-space lookup, -1 off the group
    class_lists : list of element-code arrays per class
    """

    def __init__(self, group: "MatrixGroup"):
        sp = group.space
        gens = group.generators()
        gens = np.unique(np.asarray(gens, dtype=np.int64))
        ginvs = sp.inv(gens)
        class_of = np.full(sp.N, -1, dtype=np.int32)
        reps = []
        sizes = []
        for code in group.codes:
            code = int(code)
            if class_of[code] >= 0:
                continue
            cid = len(reps)
            frontier = np.array([code], dtype=np.int64)
            class_of[code] = cid
            total = 1
            while len(frontier):
                nxt = []
                for g, gi in zip(gens, ginvs):
                    y = sp.mul(np.int64(g), sp.mul(frontier, np.int64(gi)))
                    nxt.append(y)
                cand = np.unique(np.concatenate(nxt))
                fresh = cand[class_of[cand] < 0]
                class_of[fresh] = cid
                total += len(fresh)
                frontier = fresh
            reps.append(code)
            sizes.append(total)
        self.reps = np.array(reps, dtype=np.int64)
        self.sizes = np.array(sizes, dtype=np.int64)
        self.class_of = class_of
        self.n_classes = len(reps)
        assert int(self.sizes.sum()) == group.order
        order = np.argsort(class_of[group.codes], kind="stable")
        sorted_codes = group.codes[order]
        bounds = np.concatenate([[0], np.cumsum(self.sizes)])
        self.class_lists = [
            np.sort(sorted_codes[bounds[i] : bounds[i + 1]])
            for i in range(self.n_classes)
        ]
        self.centralizer_orders = group.order // self.sizes
        inv_reps = sp.inv(self.reps)
        self.inverse_class = class_of[inv_reps].astype(np.int64)
        self._group = group
        self.rep_orders = np.array(
            [group.element_order(int(c)) for c in self.reps], dtype=np.int64
        )
        e = 1
        for o in self.rep_orders:
            e = e // gcd(e, int(o)) * int(o)
        self.exponent = e

    def power_map(self) -> np.ndarray:
        """pm[k, a] = class index of rep_k ** a for a in [0, exponent)."""
        sp = self._group.space
        e = self.exponent
        pm = np.zeros((self.n_classes, e), dtype=np.int64)
        for kk, rep in enumerate(self.reps):
            cur = sp.identity
            for a in range(e):
                pm[kk, a] = self.class_of[cur]
                cur = sp.mul_scalar(cur, int(rep))
        return pm


class MatrixGroup:
    """Enumerated GL2(O_r) or SL2(O_r); index 0 is the identity."""

    def __init__(self, ring: RingSpec, flavor: str, bound: int = GROUP_BOUND):
        if flavor not in ("gl", "sl"):
            raise ValueError(f"flavor must be 'gl' or 'sl', got {flavor!r}")
        q, r = ring.q, ring.r
        expected = gl2_order(q, r) if flavor == "gl" else sl2_order(q, r)
        if expected > bound:
            raise GroupTooLargeError(
                f"|{flavor.upper()}2(O_{r})| = {expected} exceeds bound {bound}"
            )
        self.ring = ring
        self.flavor = flavor
        sp = matrix_space(ring)
        self.space = sp
        if flavor == "gl":
            mask = ring.is_unit[sp.det]
        else:
            mask = sp.det == ring.one
        codes = np.nonzero(mask)[0].astype(np.int64)
        ident = sp.identity
        codes = np.concatenate([[ident], codes[codes != ident]])
        self.codes = codes
        self.order = len(codes)
        assert self.order == expected, (self.order, expected)
        self.pos_of = np.full(sp.N, -1, dtype=np.int64)
        self.pos_of[codes] = np.arange(self.order)
        self._conj = None
        self._unit_group = None

    # -- structure ------------------------------------------------------------

    def unit_group(self) -> FiniteAbelianGroup:
        if self._unit_group is None:
            R = self.ring
            self._unit_group = FiniteAbelianGroup(
                R.units(), lambda a, b: R.mul[a, b], R.one
            )
        return self._unit_group

    def generators(self) -> list[int]:
        """Elementary matrices over ring additive generators, plus diag(u, 1)
        over unit-group basis generators for GL."""
        R = self.ring
        sp = self.space
        gens = []
        if R.mode == "equal":
            addgens = [
                (R.p**i) * (R.q**j) for i in range(R.k) for j in range(R.r)
            ]
        else:
            addgens = [(R.p**R.r) ** i for i in range(R.k)]
        for x in addgens:
            gens.append(int(sp.enc(R.one, x, 0, R.one)))
            gens.append(int(sp.enc(R.one, 0, x, R.one)))
        if self.flavor == "gl":
            for u, _n in self.unit_group().basis:
                gens.append(int(sp.enc(u, 0, 0, R.one)))
        return gens

    def generated_closure(self) -> int:
        """Size of the subgroup generated by generators() (orbit closure).

        Each breadth-first round marks its new elements in a bitmap over the
        code space, so an element reached twice in one round counts once."""
        sp = self.space
        gens = np.asarray(self.generators(), dtype=np.int64)
        seen = np.zeros(sp.N, dtype=bool)
        seen[sp.identity] = True
        frontier = np.array([sp.identity], dtype=np.int64)
        while len(frontier):
            fresh = np.zeros(sp.N, dtype=bool)
            for g in gens:
                y = sp.mul(frontier, g)
                fresh[y[~seen[y]]] = True
            seen |= fresh
            frontier = np.flatnonzero(fresh)
        return int(seen.sum())

    def conjugacy(self) -> ConjugacyData:
        if self._conj is None:
            self._conj = ConjugacyData(self)
        return self._conj

    def element_order(self, code: int) -> int:
        sp = self.space
        cur = code
        n = 1
        while cur != sp.identity:
            cur = sp.mul_scalar(cur, code)
            n += 1
        return n

    def center_codes(self) -> np.ndarray:
        """Scalar matrices diag(z, z) in the group."""
        R = self.ring
        sp = self.space
        out = [int(sp.enc(z, 0, 0, z)) for z in range(R.size)]
        out = np.array(out, dtype=np.int64)
        return out[self.pos_of[out] >= 0]

    def borel_codes(self) -> np.ndarray:
        """Upper-triangular elements of the group (c = 0)."""
        return self.codes[self.space.C[self.codes] == 0]

    def reduction(self, r2: int) -> "ReductionHom":
        return ReductionHom(self, r2)

    def elem(self, code: int) -> "MatrixElem":
        return MatrixElem(self, int(code))

    def __repr__(self):
        return f"MatrixGroup({self.flavor.upper()}2, {self.ring!r}, order={self.order})"


class ReductionHom:
    """Componentwise reduction G_r -> G_{r'}, with kernel enumeration."""

    def __init__(self, source: MatrixGroup, r2: int):
        if not (1 <= r2 <= source.ring.r):
            raise ValueError(f"target level {r2} out of range")
        self.source = source
        tgt_space, cmap = source.space.reduce_map(r2)
        self.target = make_group(
            source.ring.p, source.ring.k, r2, source.ring.mode, source.flavor
        )
        assert self.target.space is tgt_space
        self.code_map = cmap  # full source code space -> target codes
        self.image_of = cmap[source.codes]  # aligned to source element index
        self.kernel_codes = source.codes[self.image_of == tgt_space.identity]
        q = source.ring.q
        d = 4 if source.flavor == "gl" else 3
        assert len(self.kernel_codes) == q ** (d * (source.ring.r - r2))

    def __call__(self, code: int) -> int:
        return int(self.code_map[code])


class MatrixElem:
    """Convenience wrapper: one matrix of an enumerated group."""

    __slots__ = ("group", "code")

    def __init__(self, group: MatrixGroup, code: int):
        self.group = group
        self.code = code

    @property
    def entries(self):
        sp = self.group.space
        a, b, c, d = sp.dec(self.code)
        R = self.group.ring
        return (R.elem(int(a)), R.elem(int(b)), R.elem(int(c)), R.elem(int(d)))

    def __mul__(self, other):
        return MatrixElem(self.group, self.group.space.mul_scalar(self.code, other.code))

    def inverse(self):
        return MatrixElem(self.group, int(self.group.space.inv(np.int64(self.code))))

    def det(self):
        return self.group.ring.elem(int(self.group.space.det[self.code]))

    def __eq__(self, other):
        return (
            isinstance(other, MatrixElem)
            and self.group is other.group
            and self.code == other.code
        )

    def __hash__(self):
        return hash((id(self.group), self.code))

    def __repr__(self):
        a, b, c, d = (e.coeffs for e in self.entries)
        return f"[[{a}, {b}], [{c}, {d}]]"


@lru_cache(maxsize=None)
def make_group(p: int, k: int, r: int, mode: str, flavor: str) -> MatrixGroup:
    """Interned constructor for enumerated groups."""
    return MatrixGroup(make_ring(p, k, r, mode), flavor)


def sl_embedding(gl: MatrixGroup) -> np.ndarray:
    """Positions in the GL enumeration of the SL subgroup, aligned to the SL
    enumeration of the same ring."""
    assert gl.flavor == "gl"
    sl = make_group(gl.ring.p, gl.ring.k, gl.ring.r, gl.ring.mode, "sl")
    pos = gl.pos_of[sl.codes]
    assert (pos >= 0).all()
    return pos
