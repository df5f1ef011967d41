"""The scalar basis recursion and the former discrete logs, kept as the
oracles of the array basis search and the broadcast discrete logs in
`dl2.abelian.FiniteAbelianGroup`.

`Carrier.p_group_basis` below is the former basis implementation: a
recursion on quotient carriers, each a sorted list of least coset
representatives with a multiplication that maps every product of two
codes, one scalar call at a time, to the least code of its coset.  Its
Sylow components are the images of x -> x^(|A|/p^a) (through
`FiniteAbelianGroup.pow`); the code under test takes the kernels of
x -> x^(p^a) (or, for a subgroup, the parent's kernels intersected with
it), so the two projections are independent.
`oracle_exps` is the former discrete-log table: every basis product, one
array product per generator power.  The tests check that both pick the
same basis, generator by generator, and the same exponent table, on the
unit group of every ring with q^r <= 1024, and on each Coxeter torus, its
congruence kernels and its norm-one group for q^r <= 125 and at (7,1,3).
"""

from __future__ import annotations

import numpy as np
import pytest

from dl2.abelian import FiniteAbelianGroup, InvariantError, factorise
from dl2.rings import make_ring
from dl2.torus import make_torus


class Carrier:
    """Element set with multiplication; the unit the basis recursion runs on.

    Quotient carriers are built by mapping products to canonical coset
    representatives, so the same code works at every recursion depth.
    """

    def __init__(self, elems: list[int], mul, identity: int):
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
        q = Carrier(qelems, lambda a, b: rep[self.mul(a, b)], rep[self.identity])
        out = [(best, best_ord)]
        for y, m in q.p_group_basis(p):
            # lift y to exact order m: y^m = best^s forces m | s by maximality
            s = cyc[self.pow(y, m)]
            if s % m:
                raise InvariantError("maximal-order invariant violated")
            adj = self.pow(best, (-(s // m)) % best_ord)
            out.append((self.mul(y, adj), m))
        return out


def oracle_basis(A: FiniteAbelianGroup, mul) -> list[tuple[int, int]]:
    """The basis of the scalar recursion, Sylow component by component."""
    scalar_mul = lambda a, b: int(mul(np.int64(a), np.int64(b)))
    basis = []
    for p in sorted(factorise(A.order)):
        m_prime = A.order
        while m_prime % p == 0:
            m_prime //= p
        comp = np.unique(A.pow(A.codes, m_prime)).tolist()
        basis.extend(Carrier(comp, scalar_mul, A.identity).p_group_basis(p))
    return basis


def oracle_exps(A: FiniteAbelianGroup, mul) -> np.ndarray:
    """Exponent rows of A.codes over A.basis: all basis products, one array
    product per generator power, sorted by code."""
    acc = np.array([A.identity], dtype=np.int64)
    exps = np.zeros((1, 0), dtype=np.int64)
    for g, n in A.basis:
        layers = [acc]
        for _ in range(n - 1):
            layers.append(mul(layers[-1], np.full_like(acc, g)))
        exps = np.hstack([np.tile(exps, (n, 1)), np.repeat(np.arange(n), len(acc))[:, None]])
        acc = np.concatenate(layers)
    order = np.argsort(acc, kind="stable")
    assert (acc[order] == A.codes).all()
    return exps[order]


def _rings(bound: int, q_max: int):
    """(p, k, r, mode) for p in {2, 3, 5, 7}, q <= q_max and q^r <= bound."""
    for p in (2, 3, 5, 7):
        for k in range(1, q_max.bit_length()):
            for r in range(1, bound.bit_length()):
                if p**k <= q_max and p ** (k * r) <= bound:
                    yield from ((p, k, r, mode) for mode in ("mixed", "equal"))


@pytest.mark.parametrize("pkrm", list(_rings(1024, 1024)), ids=lambda a: "-".join(map(str, a)))
def test_unit_group_basis_matches_scalar_recursion(pkrm):
    R = make_ring(*pkrm)
    mul = lambda a, b: R.mul[a, b]
    A = FiniteAbelianGroup(R.units(), mul, R.one)
    assert A.basis == oracle_basis(A, mul)
    assert np.array_equal(A.exps, oracle_exps(A, mul))
    assert R.unit_group.basis == A.basis


@pytest.mark.parametrize("pkrm", [*_rings(125, 125), (7, 1, 3, "mixed"), (7, 1, 3, "equal")], ids=lambda a: "-".join(map(str, a)))
def test_torus_bases_match_scalar_recursion(pkrm):
    t = make_torus(*pkrm)
    mul = t.ext.mul
    for A in (t.group, *t.kernels.values(), t.norm_one_group):
        assert A.basis == oracle_basis(A, mul)
        assert np.array_equal(A.exps, oracle_exps(A, mul))
