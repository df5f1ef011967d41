"""Structure and duals of finite abelian groups given by explicit codes.

A group is handed over as an array of integer element codes together with a
multiplication ``mul(x, y)`` that acts elementwise on int64 code arrays of
one shape (numpy broadcasting, so a single code is a 0-d array).  We compute
a basis of cyclic factors (primary decomposition: each Sylow component is
one array power of all codes, then one recursion per component), discrete
logarithms of every element with respect to that basis, and from there the
full character group with exact root-of-unity values.

Character values are handled as exponents of a fixed primitive L-th root of
unity, L the group exponent, so the whole module is integer arithmetic.
"""

from __future__ import annotations

from math import gcd, prod
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
            if o > self.order:
                raise InvariantError(f"{x} has no {p}-power order")
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
            if s % m:
                raise InvariantError("maximal-order invariant violated")
            adj = self.pow(best, (-(s // m)) % best_ord)
            out.append((self.mul(y, adj), m))
        return out


class FiniteAbelianGroup:
    """Finite abelian group on integer codes with basis and discrete logs.

    `mul(x, y)` must multiply elementwise on int64 code arrays of one shape.

    basis    : list of (generator code, order), orders prime powers
    gens     : int64 array of the basis generators
    orders   : the basis orders
    exponent : lcm of the orders
    exps     : int64 array, row i the exponents of codes[i] w.r.t. the basis
    dlog     : dict code -> exponent tuple w.r.t. the basis (the rows of exps)
    """

    def __init__(self, codes, mul: Callable, identity: int):
        self.codes = np.sort(np.asarray(codes, dtype=np.int64))
        self._mul = mul
        self.identity = int(identity)
        self.order = len(self.codes)
        scalar_mul = lambda a, b: int(mul(np.int64(a), np.int64(b)))
        basis: list[tuple[int, int]] = []
        for p in sorted(factorise(self.order)):
            m_prime = self.order
            while m_prime % p == 0:
                m_prime //= p
            comp = np.unique(self.pow(self.codes, m_prime)).tolist()
            basis.extend(_Carrier(comp, scalar_mul, self.identity).p_group_basis(p))
        self.basis = basis
        self.gens = np.array([g for g, _ in basis], dtype=np.int64)
        self.orders = tuple(n for _, n in basis)
        self.exponent = 1
        for n in self.orders:
            self.exponent = lcm(self.exponent, n)
        # all basis products, one array multiplication per generator power
        acc = np.array([self.identity], dtype=np.int64)
        exps = np.zeros((1, 0), dtype=np.int64)
        for g, n in basis:
            layers = [acc]
            for _ in range(n - 1):
                layers.append(mul(layers[-1], np.full_like(acc, g)))
            exps = np.hstack([np.tile(exps, (n, 1)), np.repeat(np.arange(n), len(acc))[:, None]])
            acc = np.concatenate(layers)
        order = np.argsort(acc, kind="stable")
        if len(acc) != self.order or (acc[order] != self.codes).any():
            raise InvariantError("basis does not span the group")
        self.exps = exps[order]
        self.dlog = dict(zip(self.codes.tolist(), map(tuple, self.exps.tolist())))
        # dual() is in mixed radix: the last exponent runs fastest
        self._radix = np.array([prod(self.orders[i + 1:]) for i in range(len(basis))], dtype=np.int64)

    def pow(self, x, n: int):
        """x ** n elementwise on an int64 code array (or one code)."""
        x = np.asarray(x, dtype=np.int64)
        out, n = np.full_like(x, self.identity), n % self.order
        while n:
            if n & 1:
                out = self._mul(out, x)
            n >>= 1
            if n:
                x = self._mul(x, x)
        return out

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
        return [DualChar(self, tuple(a)) for a in self.dual_rows().tolist()]

    def dual_rows(self, index=None) -> np.ndarray:
        """Exponent rows of the characters dual()[j], j in `index` (all j
        by default)."""
        j = np.arange(self.order) if index is None else np.asarray(index, dtype=np.int64)
        return j[:, None] // self._radix % np.array(self.orders, dtype=np.int64)

    def dual_index(self, rows) -> np.ndarray:
        """Position in dual() of each exponent row."""
        return np.asarray(rows, dtype=np.int64) @ self._radix

    def value_rows(self, codes) -> np.ndarray:
        """Rows w(x), one per code x, with chi(x) = zeta_L^(a . w(x)) for
        every character chi = DualChar(a), L the group exponent."""
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

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.a)

    def order(self) -> int:
        o = 1
        for ai, ni in zip(self.a, self.group.orders):
            o = lcm(o, ni // gcd(ai, ni))
        return o

    def __mul__(self, other: "DualChar") -> "DualChar":
        if self.group is not other.group:
            raise InvariantError("characters of different groups")
        a = tuple((x + y) % n for x, y, n in zip(self.a, other.a, self.group.orders))
        return DualChar(self.group, a)

    def inverse(self) -> "DualChar":
        a = tuple((-x) % n for x, n in zip(self.a, self.group.orders))
        return DualChar(self.group, a)

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
