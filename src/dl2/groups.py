"""Fully enumerated GL2 / SL2 over a truncated local ring.

A 2x2 matrix [[a, b], [c, d]] over a ring with |O_r| = S is coded as the
integer a + b*S + c*S^2 + d*S^3.  The whole code space [0, S^4) is small at
the supported sizes, so we keep dense determinant / class lookup arrays over
it and run every bulk operation (multiplication, inversion, conjugation
orbits, reductions) vectorised over numpy arrays of codes.

Multiplication reads one pair-dot table per space: with pair codes
u = u0 + u1*S and v = v0 + v1*S, dot[u*S^2 + v] = u0*v0 + u1*v1 in the
ring.  A code x holds its rows as the pair codes x mod S^2 = (a, b) and
x div S^2 = (c, d); two column arrays over the code space hold each code's
columns (a, c) and (b, d) as pair codes.  So each entry of a product is one
gather, and a product is four.  The space is refused above N = S^4 =
40 000 000, so S <= 79, and the tables take 7 bytes per code: ring
elements (`det`) are below S <= 79 < 2^8 (uint8), pair codes (the column
arrays) below S^2 <= 6241 < 2^16 (uint16), and a row of a product, like
the entries of `dot`, below S^2 < 2^15 (int16); indices into `dot` are
below S^4 < 2^31.  Each table is built one S^3 block at a time, and `mul`
takes its codes in blocks of `_MUL_BLOCK_BYTES`, so no temporary grows
with the code space or with the number of codes; products come back as
int64 codes.

Conjugacy classes are the connected components of the graph on group
indices joining x to g x g^-1 for each g in a fixed generating set
(elementary matrices over additive generators of the ring, plus diag(u, 1)
over a basis of the unit group for GL).  They are labelled by hooking and
pointer jumping (Shiloach and Vishkin, J. Algorithms 3, 1982) in whole-array
passes, which costs O(|G| * #gens) ring operations instead of O(|G|^2).
Representatives are the least group index in each class, so everything
downstream is reproducible bit for bit.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import lcm

import numpy as np

from .abelian import InvariantError, unique
from .rings import RingSpec, make_ring

GROUP_BOUND = 500_000

# Bytes of one int64 temporary of `MatrixSpace.mul`: it takes its codes
# _MUL_BLOCK_BYTES / 8 at a time.
_MUL_BLOCK_BYTES = 2**17


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
        # N <= 40 000 000 forces S <= 79, which bounds every narrow dtype:
        # ring elements < S < 2^8 (uint8 `det`), pair codes < S^2 <= 6241
        # < 2^15 (uint16 columns; int16 `_dot` and the row sums of `mul`),
        # indices into `_dot` < S^4 < 2^31
        if N > 40_000_000:
            raise GroupTooLargeError(f"matrix code space {N} too large")
        self.N = N
        self._mulf = ring.mul.ravel()
        self._neg = ring.neg
        M, A = ring.mul, ring.add.ravel().astype(np.uint8)
        # every table is C-order over four axes of length S, filled one
        # S^3 block (one value of the leading axis) at a time
        # dot[(u0 + u1 S) S^2 + (v0 + v1 S)] = add[u0 v0, u1 v1], over
        # (u1, u0, v1, v0)
        dot, u0v0 = np.empty((S, S, S, S), dtype=np.int16), M[:, None, :] * S
        for u1 in range(S):
            dot[u1] = A[u0v0 + M[u1][None, :, None]]
        self._dot = dot.ravel()
        # det = a d - b c = add[a d, -(b c)] over the code space (d, c, b, a)
        negbc = ring.neg[M.T]  # [c, b]
        det = np.empty((S, S, S, S), dtype=np.uint8)
        for d in range(S):
            det[d] = A[M[:, d] * S + negbc[:, :, None]]
        self.det = det.ravel()
        # the columns (a, c) and (b, d) of every code as pair codes
        pair = np.arange(S, dtype=np.uint16)[:, None] * S + np.arange(S, dtype=np.uint16)
        col1 = np.empty((S, S, S, S), dtype=np.uint16)
        col1[:] = pair[None, :, None, :]  # a + c S
        col2 = np.empty((S, S, S, S), dtype=np.uint16)
        col2[:] = pair[:, None, :, None]  # b + d S
        self._col1, self._col2 = col1.ravel(), col2.ravel()
        self.identity = self.enc(ring.one, 0, 0, ring.one)

    def enc(self, a, b, c, d):
        S = self.S
        return a + b * S + c * S * S + d * S * S * S

    def dec(self, code):
        S = self.S
        return code % S, code // S % S, code // (S * S) % S, code // (S * S * S)

    def mul(self, x, y):
        """Matrix product on (arrays of) codes, x broadcast against y, as
        int64 codes.  The rows of x are the pair codes x mod S^2 and
        x div S^2, so each entry of the product is one gather from the
        pair-dot table.  A product of more than `_MUL_BLOCK_BYTES` / 8 codes
        is taken into its output a block of leading-axis slices at a time,
        so each block still broadcasts x against y."""
        x, y = np.asarray(x), np.asarray(y)
        b = np.broadcast(x, y)
        if b.size <= _MUL_BLOCK_BYTES // 8:
            return self._mul(x, y)
        out = np.empty(b.shape, dtype=np.int64)
        self._mul_blocks(x.reshape((1,) * (b.ndim - x.ndim) + x.shape), y.reshape((1,) * (b.ndim - y.ndim) + y.shape), out)
        return out

    def _mul_blocks(self, x, y, out):
        """`mul` into out, x and y of its number of axes: blocks of rows of
        at most `_MUL_BLOCK_BYTES` / 8 codes, or each row in turn (by its
        own rows) when one row is larger."""
        rows = _MUL_BLOCK_BYTES // 8 // (out.size // len(out))
        if rows == 0:
            for i, o in enumerate(out):
                self._mul_blocks(x[i if len(x) > 1 else 0], y[i if len(y) > 1 else 0], o)
            return
        for i in range(0, len(out), rows):
            block = slice(i, i + rows)
            self._mul(x[block] if len(x) > 1 else x, y[block] if len(y) > 1 else y, out[block])

    def _mul(self, x, y, out=None):
        S, S2, dot = self.S, self.S * self.S, self._dot
        lo, hi = x % S2 * S2, x // S2 * S2
        c1, c2 = self._col1[y], self._col2[y]
        # each row (two entries as a pair code) is below S^2 < 2^15: int16
        row0 = dot[lo + c1] + dot[lo + c2] * S
        row1 = dot[hi + c1] + dot[hi + c2] * S
        if out is None:
            out = row1.astype(np.int64)
        else:
            out[...] = row1
        out *= S2
        out += row0
        return out

    def inv(self, x):
        """Inverse on codes with unit determinant (adjugate over det)."""
        S = self.S
        mf, neg = self._mulf, self._neg
        idet = self.ring.inv[self.det[x]]
        a, b, c, d = self.dec(x)
        return self.enc(
            mf[d * S + idet],
            neg[mf[b * S + idet]],
            neg[mf[c * S + idet]],
            mf[a * S + idet],
        )

    def reduce_map(self, r2: int, codes):
        """(target space, images of the given codes), entry by entry."""
        tgt_ring, m = self.ring.reduction(r2)
        tgt = matrix_space(tgt_ring)
        a, b, c, d = self.dec(codes)
        return tgt, tgt.enc(m[a], m[b], m[c], m[d])


@lru_cache(maxsize=None)
def matrix_space(ring: RingSpec) -> MatrixSpace:
    return MatrixSpace(ring)


def member_mask(space: MatrixSpace, flavor: str) -> np.ndarray:
    """The group over the whole code space: unit determinant for GL2,
    determinant one for SL2.  `MatrixGroup` enumerates it and `group-order`
    counts it, so the two orders agree by construction."""
    ring = space.ring
    return ring.is_unit[space.det] if flavor == "gl" else space.det == ring.one


def group_generators(ring: RingSpec, flavor: str) -> list[int]:
    """Elementary matrices over ring additive generators, plus diag(u, 1)
    over unit-group basis generators for GL."""
    R = ring
    sp = matrix_space(R)
    if R.mode == "equal":
        addgens = [(R.p**i) * (R.q**j) for i in range(R.k) for j in range(R.r)]
    else:
        addgens = [(R.p**R.r) ** i for i in range(R.k)]
    gens = []
    for x in addgens:
        gens.append(int(sp.enc(R.one, x, 0, R.one)))
        gens.append(int(sp.enc(R.one, 0, x, R.one)))
    if flavor == "gl":
        for u, _n in R.unit_group.basis:
            gens.append(int(sp.enc(u, 0, 0, R.one)))
    return gens


def generated_order(space: MatrixSpace, gens) -> int:
    """|<X>| for invertible codes X, from two orbits on column vectors.

    H = <X> acts on the columns O_r^2, a vector (x, y) coded as the matrix
    [[x, 0], [y, 0]], so g v is `space.mul(g, v)`.  By orbit-stabilizer
    twice, |H| = |H e1| * |H_e1 e2| * |H_(e1,e2)|, and H_(e1,e2) = 1: the
    columns of g are g e1 and g e2, so a g fixing both is the identity.

    - H e1 is the closure of e1 under X (H is finite, so each inverse is a
      power of its generator).  The breadth-first search keeps, for each
      point v it reaches, the product t_v of generators it reached v by, so
      t_v e1 = v and t_e1 = 1.
    - Schreier's lemma (Sims 1970; Seress, Permutation Group Algorithms,
      2003, ch. 4): the stabiliser H_e1 is generated by the
      t_(xv)^-1 x t_v over all x in X and v in H e1.  Each fixes e1, and
      any h in H_e1, written as a word in X, telescopes into a product of
      them.
    - H_e1 e2 is then the closure of e2 under those Schreier generators,
      found through a subset T of them.  H_e1 acts on H_e1 e2 with
      trivial stabiliser H_(e1,e2), so a Schreier generator s with s e2
      in the orbit <T> e2 equals the k in <T> with k e2 = s e2 (k^-1 s
      fixes e1 and e2): s is in <T> already.  T takes the first s that
      fails this, and the orbit of <T> is closed again, until none
      fails; then <T> holds every Schreier generator, so <T> = H_e1 and
      its orbit is H_e1 e2.  Each s taken is outside <T>, so it at least
      doubles |<T>|, and T ends with at most log2 |H_e1| + 1 elements.

    Both orbits lie in the |O_r|^2 vectors.  The orbit sizes of the <T>
    at least double, so the closures sum to under 2 |T| |H_e1 e2|
    products, and the cost is O(|X| |H e1| + log2(|H_e1|) |H_e1 e2|)
    products, against O(|H| |X|) for a closure over H; for GL2(O_r),
    |H e1| and |H_e1| are both about |G|^(1/2)."""
    S, S2 = space.S, space.S**2
    gens = unique(np.asarray(gens, dtype=np.int64))
    if not space.ring.is_unit[space.det[gens]].all():
        raise ValueError("generated_order needs invertible generators")
    e1 = space.enc(space.ring.one, 0, 0, 0)
    e2 = space.enc(0, 0, space.ring.one, 0)

    def slot(v):  # the vector [[x, 0], [y, 0]] as x + y S < S^2
        return v % S + v // S2 * S

    # orbit of e1 with its transversal, breadth first
    trans = np.full(S2, -1, dtype=np.int64)
    trans[slot(e1)] = space.identity
    frontier = np.array([space.identity], dtype=np.int64)
    while len(frontier):
        cand = space.mul(gens[:, None], frontier[None, :]).ravel()
        where = slot(space.mul(cand, e1))
        new = trans[where] < 0
        fresh, first = np.unique(where[new], return_index=True)
        frontier = cand[new][first]
        trans[fresh] = frontier
    reps = trans[trans >= 0]
    # Schreier generators t_(xv)^-1 x t_v of the stabiliser of e1
    moved = space.mul(gens[:, None], reps[None, :]).ravel()
    schreier = unique(space.mul(space.inv(trans[slot(space.mul(moved, e1))]), moved))
    schreier = schreier[schreier != space.identity]
    # orbit of e2 under the stabiliser, closed under a subset T of the
    # Schreier generators that grows until every s in them has s e2 in the
    # orbit of <T>
    ends = slot(space.mul(schreier, e2))
    seen = np.zeros(S2, dtype=bool)
    seen[slot(e2)] = True
    T = schreier[:0]
    while not seen[ends].all():
        T = np.append(T, schreier[np.argmin(seen[ends])])
        seen[:] = False
        seen[slot(e2)] = True
        frontier = np.array([e2], dtype=np.int64)
        while len(frontier):
            cand = space.mul(T[:, None], frontier[None, :]).ravel()
            frontier = unique(cand[~seen[slot(cand)]])
            seen[slot(frontier)] = True
    return len(reps) * int(seen.sum())


class ConjugacyData:
    """Conjugacy classes of an enumerated group.

    reps        : representative codes (least group index per class)
    sizes       : class sizes
    class_of    : full-code-space lookup, -1 off the group
    class_lists : list of element-code arrays per class
    rep_orders  : orders of the representatives, read off their powers,
                  which are found by doubling

    The classes are the connected components of the graph joining group
    index x to the index of g x g^-1, for g in `generators()`; each edge
    list `nbr_g` is one whole-group conjugation.  `parent` starts as the
    identity labelling.  A hooking pass over one edge list takes, wherever
    the labels a = parent[x] and b = parent[nbr_g[x]] differ, parent[max(a,
    b)] = min(a, b) (the least offer wins); pointer jumping then replaces
    parent by parent[parent] until it is stable, so every label is again a
    root (parent[r] = r).  parent[x] <= x and parent[x] in the class of x
    hold throughout, and a round that hooks anything strictly lowers
    sum(parent), which is bounded below, so the passes stop: at the first
    full round over the generators that hooks nothing.  Then every edge
    joins equal labels (checked before the edge lists are freed), so a
    label is constant on each orbit of the generated group; the least index
    m of a class has parent[m] <= m inside its class, so parent[m] = m and m
    labels the whole class.  Hence the roots are the least indices, and
    sorting them orders the classes by least index.  That the generators
    generate the group is checked by `group-order`, which compares
    `generated_order` of `group_generators` with the count of
    `member_mask`, without enumerating the group.
    """

    def __init__(self, group: "MatrixGroup"):
        sp = group.space
        gens = unique(np.asarray(group.generators(), dtype=np.int64))
        # int32 edge lists, like `pos_of`
        nbrs = [group.pos_of[sp.mul(g, sp.mul(group.codes, gi))] for g, gi in zip(gens, sp.inv(gens))]
        parent = np.arange(group.order, dtype=np.int32)
        hooked = True
        while hooked:
            hooked = False
            for nbr in nbrs:
                b = parent[nbr]
                differ = parent != b
                if differ.any():
                    hooked = True
                    a, b = parent[differ], b[differ]
                    np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
                    jumped = parent[parent]
                    while not np.array_equal(jumped, parent):
                        parent, jumped = jumped, jumped[jumped]
        roots, class_idx, sizes = np.unique(parent, return_inverse=True, return_counts=True)
        if not all((class_idx[nbr] == class_idx).all() for nbr in nbrs):
            raise InvariantError("class labels not constant along a conjugation edge")
        del nbrs
        class_of = np.full(sp.N, -1, dtype=np.int32)
        class_of[group.codes] = class_idx
        self.reps = group.codes[roots]
        self.sizes = sizes.astype(np.int64)
        self.class_of = class_of
        self.n_classes = len(roots)
        if int(self.sizes.sum()) != group.order:
            raise InvariantError("class sizes do not sum to |G|")
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
        # P[k, a] = rep_k ** a, a <= h, doubled by rep ** (h + a) = rep ** a
        # rep ** h (1 <= a <= h) until every rep meets the identity at a >= 1
        P = np.column_stack([np.full(self.n_classes, sp.identity), self.reps])
        while not (P[:, 1:] == sp.identity).any(axis=1).all():
            P = np.hstack([P, sp.mul(P[:, 1:], P[:, -1:])])
        self.rep_orders = (P[:, 1:] == sp.identity).argmax(axis=1) + 1
        self.exponent = lcm(*(int(o) for o in self.rep_orders))
        self._powers = class_of[P[:, : int(self.rep_orders.max())]]
        self._power_map = None

    def power_map(self) -> np.ndarray:
        """pm[k, a] = class index of rep_k ** a for a in [0, exponent), as a
        read-only array built on the first call: one gather of the powers
        below each rep's order at a mod rep_orders[k]."""
        if self._power_map is None:
            a = np.arange(self.exponent) % self.rep_orders[:, None]
            pm = np.take_along_axis(self._powers, a, axis=1).astype(np.int64)
            pm.flags.writeable = False
            self._power_map = pm
        return self._power_map


class MatrixGroup:
    """Enumerated GL2(O_r) or SL2(O_r); index 0 is the identity."""

    def __init__(self, ring: RingSpec, flavor: str):
        if flavor not in ("gl", "sl"):
            raise ValueError(f"flavor must be 'gl' or 'sl', got {flavor!r}")
        q, r = ring.q, ring.r
        expected = gl2_order(q, r) if flavor == "gl" else sl2_order(q, r)
        if expected > GROUP_BOUND:
            raise GroupTooLargeError(
                f"|{flavor.upper()}2(O_{r})| = {expected} exceeds bound {GROUP_BOUND}"
            )
        self.ring = ring
        self.flavor = flavor
        sp = matrix_space(ring)
        self.space = sp
        codes = np.flatnonzero(member_mask(sp, flavor)).astype(np.int64)
        ident = sp.identity
        codes = np.concatenate([[ident], codes[codes != ident]])
        self.codes = codes
        self.order = len(codes)
        if self.order != expected:
            raise InvariantError(f"{self.order} elements, not the order {expected}")
        # int32: positions are below the order <= N <= 4·10^7 < 2^31
        self.pos_of = np.full(sp.N, -1, dtype=np.int32)
        self.pos_of[codes] = np.arange(self.order)

    # -- structure ------------------------------------------------------------

    def generators(self) -> list[int]:
        return group_generators(self.ring, self.flavor)

    @cache
    def conjugacy(self) -> ConjugacyData:
        return ConjugacyData(self)

    def borel_codes(self) -> np.ndarray:
        """Upper-triangular elements of the group (c = 0)."""
        return self.codes[self.space.dec(self.codes)[2] == 0]

    @cache
    def reduction(self, r2: int) -> "ReductionHom":
        """The reduction to level r2; one per group and level, shared by
        every caller."""
        return ReductionHom(self, r2)

    def __repr__(self):
        return f"MatrixGroup({self.flavor.upper()}2, {self.ring!r}, order={self.order})"


class ReductionHom:
    """Componentwise reduction G_r -> G_{r'}, with kernel enumeration."""

    def __init__(self, source: MatrixGroup, r2: int):
        if not (1 <= r2 <= source.ring.r):
            raise ValueError(f"target level {r2} out of range")
        self.source = source
        tgt_space, self.image_of = source.space.reduce_map(r2, source.codes)  # by source index
        self.target = make_group(
            source.ring.p, source.ring.k, r2, source.ring.mode, source.flavor
        )
        if self.target.space is not tgt_space:
            raise InvariantError("target group is not over the reduced matrix space")
        self.kernel_codes = source.codes[self.image_of == tgt_space.identity]
        q = source.ring.q
        d = 4 if source.flavor == "gl" else 3
        if len(self.kernel_codes) != q ** (d * (source.ring.r - r2)):
            raise InvariantError("reduction kernel has the wrong order")

    def __call__(self, code):
        """Images of source element codes, scalar or array; ValueError for a
        code off the source group."""
        pos = self.source.pos_of[code]
        if (pos < 0).any():
            raise ValueError(f"code {code} is not an element of {self.source!r}")
        return self.image_of[pos]


@lru_cache(maxsize=None)
def make_group(p: int, k: int, r: int, mode: str, flavor: str) -> MatrixGroup:
    """Interned constructor for enumerated groups."""
    return MatrixGroup(make_ring(p, k, r, mode), flavor)


def sl_embedding(gl: MatrixGroup) -> np.ndarray:
    """Positions in the GL enumeration of the SL subgroup, aligned to the SL
    enumeration of the same ring."""
    if gl.flavor != "gl":
        raise ValueError(f"sl_embedding needs a GL2 group, got {gl!r}")
    sl = make_group(gl.ring.p, gl.ring.k, gl.ring.r, gl.ring.mode, "sl")
    pos = gl.pos_of[sl.codes]
    if (pos < 0).any():
        raise InvariantError("an SL2 element is missing from GL2")
    return pos
