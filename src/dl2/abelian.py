"""Structure and duals of finite abelian groups given by explicit codes.

A group is handed over as an array of integer element codes together with a
multiplication ``mul(x, y)`` that acts elementwise on broadcasting int64
code arrays (so a single code is a 0-d array).  We compute a basis of cyclic
factors (primary decomposition: the Sylow p-component is the kernel of
x -> x^(p^a), p^a || |A|, or for a `subgroup` the parent's intersected; then
one array basis search per component, taking in each round the least code
of greatest order modulo the span so far), discrete logarithms of every
element (one broadcast product per generator), and from there every
character as an exponent row with exact root-of-unity values.

Character values are handled as exponents of a fixed primitive L-th root of
unity, L the group exponent, so the whole module is integer arithmetic.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Callable

import numpy as np


class InvariantError(AssertionError):
    """A structural invariant failed; raised explicitly, so `python -O`
    keeps it.  An `AssertionError`, so existing handlers still catch it."""


def factorise(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def unique(x) -> np.ndarray:
    """The sorted distinct values of x, as `np.unique(x)` gives them.  That
    call asks `np.ma.is_masked`, which imports numpy.ma (some 25 ms) the
    first time; sorting and comparing neighbours does not."""
    x = np.sort(np.asarray(x), axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


class FiniteAbelianGroup:
    """Finite abelian group on integer codes with basis and discrete logs.

    `mul(x, y)` must multiply elementwise on broadcasting int64 code arrays.

    sylow    : dict p -> ascending codes of the Sylow p-component, p | order
    basis    : list of (generator code, order), orders prime powers
    gens     : int64 array of the basis generators
    orders   : the basis orders
    exponent : lcm of the orders
    exps     : int64 array, row i the exponents of codes[i] w.r.t. the basis
    """

    def __init__(self, codes, mul: Callable, identity: int, sylow: dict | None = None, bases: dict | None = None):
        self.codes = np.sort(np.asarray(codes, dtype=np.int64))
        self._mul = mul
        self.identity = int(identity)
        self.order = len(self.codes)
        if sylow is None:
            sylow = {
                p: self.codes[self.pow(self.codes, p**a) == self.identity]
                for p, a in factorise(self.order).items()
            }
        self.sylow = sylow
        basis: list[tuple[int, int]] = []
        for p in sorted(sylow):
            basis.extend(bases[p] if bases and p in bases else self._p_basis(sylow[p], p))
        self.basis = basis
        self.gens = np.array([g for g, _ in basis], dtype=np.int64)
        self.orders = tuple(n for _, n in basis)
        self.exponent = lcm(*self.orders)
        # P[i, j] = g_i^j, by doubling: one product per doubling for all
        # generators, the running power h = g_i^(columns so far) squared in
        # the same call
        P, h = np.full((len(basis), 1), self.identity, dtype=np.int64), self.gens[:, None]
        while P.shape[1] < max(self.orders, default=1):
            step = mul(np.hstack([P, h]), h)
            P, h = np.hstack([P, step[:, :-1]]), step[:, -1:]
        # acc[m] = prod_i g_i^(e_i), m in mixed radix with e_0 fastest: the
        # span so far times the powers of the next generator, one product each
        acc = np.array([self.identity], dtype=np.int64)
        for i, n in enumerate(self.orders):
            acc = P[i, :n] if i == 0 else mul(P[i, :n, None], acc).ravel()
        order = np.argsort(acc, kind="stable")
        if len(acc) != self.order or (acc[order] != self.codes).any():
            raise InvariantError("basis does not span the group")
        orders = np.array(self.orders, dtype=np.int64)
        self.exps = order[:, None] // np.cumprod(np.concatenate([[1], orders]))[:-1] % orders
        self._radix = np.array([prod(self.orders[i + 1:]) for i in range(len(basis))], dtype=np.int64)

    def subgroup(self, mask) -> "FiniteAbelianGroup":
        """The subgroup on self.codes[mask], its Sylow components this
        group's intersected with it (no power of its codes is taken).  A
        component it contains whole keeps this group's basis of it, which
        `_p_basis` would find again: it reads only the component's codes."""
        sylow = {p: c[mask[np.searchsorted(self.codes, c)]] for p, c in self.sylow.items()}
        sylow = {p: c for p, c in sylow.items() if len(c) > 1}
        bases = {p: [b for b in self.basis if b[1] % p == 0] for p in sylow if len(sylow[p]) == len(self.sylow[p])}
        return FiniteAbelianGroup(self.codes[mask], self._mul, self.identity, sylow, bases)

    def _p_basis(self, comp: np.ndarray, p: int) -> list[tuple[int, int]]:
        """Basis of the abelian p-group on the ascending codes `comp`.

        Elements are handled by position in `comp`, and two array products
        give every map needed: `pth` takes x to x^p, and `step` takes x to
        x·g for the generator g of a round.  Round d adds a generator g_d to
        H_d = <g_0, ..., g_{d-1}>.  `lab[i]` is the position of the least
        code in comp[i]·H_d, so the positions with lab[i] == i are the least
        coset representatives.  The round takes the least representative of
        greatest order n_d in G/H_d (the least p^k with x^(p^k) in H_d), and
        relabels by the minimum of `lab` over x·g_d^j, j < n_d, by pointer
        doubling: after t steps `new` is the minimum over j < 2^t, and
        g_d^(n_d) lies in H_d, so any window of n_d powers will do.  The
        same doubling lists the powers of g_d.  Generator d is then lifted
        back through rounds d-1, ..., 0: if y^m lies in g_j^s·H_j, the
        maximality of n_j forces m | s, and y·g_j^(-s/m) has order m modulo
        H_j.
        """
        at = lambda x: np.searchsorted(comp, x)
        one, lab, pth = at(self.identity), np.arange(len(comp)), at(self.pow(comp, p))
        rounds = []  # (n_d, labels of H_d, positions of g_d^0 .. g_d^(n_d - 1))
        while len(reps := np.flatnonzero(lab == np.arange(len(comp)))) > 1:
            x, o = reps, np.ones(len(reps), dtype=np.int64)
            while (live := lab[x] != lab[one]).any():
                x, o = pth[x], np.where(live, o * p, o)
                if o.max() > len(reps):
                    raise InvariantError(f"an element has no {p}-power order")
            i = int(np.argmax(o))
            n, new, powers = int(o[i]), lab, np.array([one])
            step = at(self._mul(comp, np.full_like(comp, comp[reps[i]])))
            for _ in range((n - 1).bit_length()):
                new, powers = np.minimum(new, new[step]), np.concatenate([powers, step[powers]])
                step = step[step]
            rounds.append((n, lab, powers[:n]))
            lab = new
        basis = []
        for d, (m, _, gd) in enumerate(rounds):
            y = gd[1]
            for n, lab, powers in reversed(rounds[:d]):
                ym, k = y, 1
                while k < m:
                    ym, k = pth[ym], k * p
                s = np.flatnonzero(lab[powers] == lab[ym])
                if len(s) != 1 or s[0] % m:
                    raise InvariantError("maximal-order invariant violated")
                y = lab[at(self._mul(comp[y], comp[powers[-(s[0] // m) % n]]))]
            basis.append((int(comp[y]), m))
        return basis

    def pow(self, x, n: int):
        """x ** n elementwise on an int64 code array (or one code), by
        squaring from x at the lowest set bit of n."""
        x, n = np.asarray(x, dtype=np.int64), n % self.order
        out = None if n else np.full_like(x, self.identity)
        while n:
            if n & 1:
                out = x if out is None else self._mul(out, x)
            n >>= 1
            if n:
                x = self._mul(x, x)
        return out

    def dual_rows(self, index=None) -> np.ndarray:
        """Exponent rows of the characters j in `index` (all |A| by
        default), numbered in mixed radix with the last exponent fastest;
        row 0 is the trivial character."""
        j = np.arange(self.order) if index is None else np.asarray(index, dtype=np.int64)
        return j[:, None] // self._radix % np.array(self.orders, dtype=np.int64)

    def dual_index(self, rows) -> np.ndarray:
        """Position in `dual_rows()` of each exponent row."""
        return np.asarray(rows, dtype=np.int64) @ self._radix

    def value_rows(self, codes) -> np.ndarray:
        """Rows w(x), one per code x, with chi(x) = zeta_L^(a . w(x)) for
        every character chi with exponent row a, L the group exponent."""
        codes = np.asarray(codes, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.codes, codes), self.order - 1)
        if (self.codes[pos] != codes).any():
            raise ValueError("value_rows: a code is not a group element")
        return self.exps[pos] * (self.exponent // np.array(self.orders, dtype=np.int64)) % self.exponent

    def chars_from_values(self, E, L: int) -> np.ndarray:
        """Exponent rows of the characters taking the value zeta_L^E[..., i]
        at basis generator i."""
        n = np.array(self.orders, dtype=np.int64)
        E = np.asarray(E, dtype=np.int64) % L * n
        if (E % L).any():
            raise InvariantError("value is not an n-th root of unity")
        return E // L % n

    def __len__(self):
        return self.order
