"""Structure and duals of finite abelian groups given by explicit codes.

A group is handed over as an array of integer element codes together with a
multiplication ``mul(x, y)`` on codes.  We compute a basis of cyclic factors
(primary decomposition, one recursion per Sylow subgroup), discrete
logarithms of every element with respect to that basis, and from there the
full character group with exact root-of-unity values.

Character values are handled as exponents of a fixed primitive L-th root of
unity, L the group exponent, so the whole module is integer arithmetic.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Callable

import numpy as np


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


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


class _Carrier:
    """Element set with multiplication; the unit the basis recursion runs on.

    Quotient carriers are built by mapping products to canonical coset
    representatives, so the same code works at every recursion depth.
    """

    def __init__(self, elems: list[int], mul: Callable[[int, int], int], identity: int):
        self.elems = elems
        self.mul = mul
        self.identity = identity
        self.order = len(elems)

    def pow(self, x: int, n: int) -> int:
        out, cur = self.identity, int(x)
        n %= self.order
        while n:
            if n & 1:
                out = self.mul(out, cur)
            cur = self.mul(cur, cur)
            n >>= 1
        return out

    def p_order(self, x: int, p: int) -> int:
        o, cur = 1, x
        while cur != self.identity:
            cur = self.pow(cur, p)
            o *= p
            assert o <= self.order
        return o

    def p_group_basis(self, p: int) -> list[tuple[int, int]]:
        """Basis of an abelian p-group: list of (generator, order)."""
        if self.order == 1:
            return []
        best, best_ord = None, 0
        for x in self.elems:
            o = self.p_order(x, p)
            if o > best_ord:
                best, best_ord = x, o
        if best_ord == self.order:
            return [(best, best_ord)]
        # discrete logs inside <best>
        cyc = {self.identity: 0}
        cur = self.identity
        for i in range(1, best_ord):
            cur = self.mul(cur, best)
            cyc[cur] = i
        # quotient by <best>, canonical representative = least code in coset
        rep: dict[int, int] = {}
        for x in self.elems:
            if x in rep:
                continue
            coset = sorted(self.mul(x, h) for h in cyc)
            for y in coset:
                rep[y] = coset[0]
        qelems = sorted(set(rep.values()))
        q = _Carrier(qelems, lambda a, b: rep[self.mul(a, b)], rep[self.identity])
        out = [(best, best_ord)]
        for y, m in q.p_group_basis(p):
            # lift y to exact order m: y^m = best^s forces m | s by maximality
            s = cyc[self.pow(y, m)]
            assert s % m == 0, "maximal-order invariant violated"
            adj = self.pow(best, (-(s // m)) % best_ord)
            out.append((self.mul(y, adj), m))
        return out


class FiniteAbelianGroup:
    """Finite abelian group on integer codes with basis and discrete logs.

    basis    : list of (generator code, order), orders prime powers
    orders   : the basis orders
    exponent : lcm of the orders
    dlog     : dict code -> exponent tuple w.r.t. the basis
    """

    def __init__(self, codes, mul: Callable, identity: int):
        self.codes = np.sort(np.asarray(codes, dtype=np.int64))
        self._mul = mul
        self.identity = int(identity)
        self.order = len(self.codes)
        carrier = _Carrier(
            [int(c) for c in self.codes], lambda a, b: int(mul(a, b)), self.identity
        )
        self._carrier = carrier
        basis: list[tuple[int, int]] = []
        for p in sorted(factorise(self.order)):
            m_prime = self.order
            while m_prime % p == 0:
                m_prime //= p
            comp = sorted({carrier.pow(int(c), m_prime) for c in self.codes})
            sub = _Carrier(comp, carrier.mul, self.identity)
            basis.extend(sub.p_group_basis(p))
        self.basis = basis
        self.orders = tuple(n for _, n in basis)
        self.exponent = 1
        for n in self.orders:
            self.exponent = lcm(self.exponent, n)
        # enumerate all basis products -> exponent tuples
        acc: dict[int, tuple] = {self.identity: tuple()}
        for g, n in basis:
            nxt: dict[int, tuple] = {}
            for code, expo in acc.items():
                cur = code
                for j in range(n):
                    nxt[cur] = expo + (j,)
                    if j < n - 1:
                        cur = int(mul(cur, g))
            acc = nxt
        assert len(acc) == self.order, "basis does not span the group"
        self.dlog = acc

    def mul(self, x: int, y: int) -> int:
        return int(self._mul(x, y))

    def pow(self, x: int, n: int) -> int:
        return self._carrier.pow(int(x), n)

    def element_order(self, x: int) -> int:
        n = self.exponent
        for p, a in factorise(self.exponent).items():
            for _ in range(a):
                if self.pow(x, n // p) == self.identity:
                    n //= p
                else:
                    break
        return n

    def dual(self) -> list["DualChar"]:
        """All |A| characters."""
        if not self.orders:
            return [DualChar(self, tuple())]
        return [DualChar(self, a) for a in product(*(range(n) for n in self.orders))]

    def char_from_values_on_basis(self, root_exps, L: int) -> "DualChar":
        """Character taking value zeta_L^root_exps[i] at basis generator i."""
        a = []
        for (g, n), re in zip(self.basis, root_exps):
            re %= L
            assert (re * n) % L == 0, "value is not an n-th root of unity"
            a.append((re * n // L) % n)
        return DualChar(self, tuple(a))

    def trivial_char(self) -> "DualChar":
        return DualChar(self, tuple([0] * len(self.orders)))

    def __len__(self):
        return self.order


class DualChar:
    """A character of a FiniteAbelianGroup, stored by exponent tuple.

    The value at x is zeta_L ** root_exp(x), L = group exponent.
    """

    __slots__ = ("group", "a")

    def __init__(self, group: FiniteAbelianGroup, a: tuple):
        self.group = group
        self.a = a

    def root_exp(self, x: int) -> int:
        L = self.group.exponent
        t = self.group.dlog[int(x)]
        s = 0
        for ai, xi, ni in zip(self.a, t, self.group.orders):
            s += ai * xi * (L // ni)
        return s % L

    def is_trivial_on(self, xs) -> bool:
        return all(self.root_exp(int(x)) == 0 for x in xs)

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.a)

    def order(self) -> int:
        o = 1
        for ai, ni in zip(self.a, self.group.orders):
            o = lcm(o, ni // gcd(ai, ni))
        return o

    def __mul__(self, other: "DualChar") -> "DualChar":
        assert self.group is other.group
        a = tuple((x + y) % n for x, y, n in zip(self.a, other.a, self.group.orders))
        return DualChar(self.group, a)

    def inverse(self) -> "DualChar":
        a = tuple((-x) % n for x, n in zip(self.a, self.group.orders))
        return DualChar(self.group, a)

    def compose_with_endo(self, images_of_basis) -> "DualChar":
        """The character x -> self(f(x)), f the group endomorphism sending
        basis generator i to images_of_basis[i]."""
        L = self.group.exponent
        exps = [self.root_exp(img) for img in images_of_basis]
        return self.group.char_from_values_on_basis(exps, L)

    def __eq__(self, other):
        return (
            isinstance(other, DualChar)
            and self.group is other.group
            and self.a == other.a
        )

    def __hash__(self):
        return hash((id(self.group), self.a))

    def __repr__(self):
        return f"DualChar{self.a}"
