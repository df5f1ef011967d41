"""Scalar oracles shared by the tests: one character or one table row at a
time, where `dl2` works on exponent rows and coefficient arrays."""

from __future__ import annotations

from math import gcd, lcm

import numpy as np

from dl2.abelian import FiniteAbelianGroup, InvariantError
from dl2.characters import ClassFunction


class DualChar:
    """A character of a FiniteAbelianGroup, stored by exponent tuple.

    The value at x is zeta_L ** root_exp(x), L = group exponent.
    """

    __slots__ = ("group", "a")

    def __init__(self, group: FiniteAbelianGroup, a: tuple):
        self.group = group
        self.a = a

    def root_exp(self, x: int) -> int:
        w = self.group.value_rows([x])[0]
        return int(np.dot(self.a, w)) % self.group.exponent

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
        return isinstance(other, DualChar) and self.group is other.group and self.a == other.a

    def __hash__(self):
        return hash((id(self.group), self.a))

    def __repr__(self):
        return f"DualChar{self.a}"


def dual(group: FiniteAbelianGroup) -> list[DualChar]:
    """All |A| characters, in `dual_rows()` order."""
    return [DualChar(group, tuple(a)) for a in group.dual_rows().tolist()]


def norm_one(torus) -> np.ndarray:
    """The codes of the norm-one torus elements, N(t) = 1."""
    return torus.codes[torus.ext.norm(torus.codes) == torus.ring.one]


def table_chars(tab) -> list[ClassFunction]:
    """The irreducibles of a character table as class functions."""
    return [ClassFunction(tab.group, tab.exponent, row) for row in tab.coeffs]


def inflate_rows(torus, A0, r2: int) -> np.ndarray:
    """Exponent rows of the inflations to the torus's level of the rows A0
    of the level-r2 torus: their values at the reductions of the basis."""
    T0 = torus.level_torus(r2).group
    _, m = torus.ext.reduction(r2)
    W = T0.value_rows(m[torus.group.gens])
    return torus.group.chars_from_values(np.asarray(A0) @ W.T % T0.exponent, T0.exponent)
