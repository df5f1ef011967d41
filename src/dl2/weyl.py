"""Type-A root systems, twisted Weyl fixed points, F_q-ranks, and the sign
formula driven by them.

Torus rational forms of GL_n / SL_n over F_q are indexed by conjugacy
classes of the symmetric group, i.e. by cycle types.  For a twisting
element w the F_q-rank of the torus is the dimension of the w-fixed
subspace of the cocharacter lattice: the number of cycles of w (one less
for SL).  The sign formula evaluates an exact rational exponent; a
non-integer exponent is returned as "inapplicable", never rounded.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import permutations

from .abelian import InvariantError, factorise


@dataclass(frozen=True)
class RootSystemData:
    """Type A_{n-1} data: W = S_n on n letters."""

    n: int

    @property
    def num_positive_roots(self) -> int:
        return self.n * (self.n - 1) // 2

    def weyl_group(self) -> list[tuple]:
        return [tuple(p) for p in permutations(range(self.n))]


def compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def coxeter_element(n: int) -> tuple:
    """Product of the simple transpositions s_1 s_2 ... s_{n-1}: an n-cycle."""
    w = identity_perm(n)
    for i in range(n - 1):
        s = list(identity_perm(n))
        s[i], s[i + 1] = s[i + 1], s[i]
        w = compose(w, tuple(s))
    return w


def cycle_type(p: tuple) -> tuple:
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        cycles.append(ln)
    return tuple(sorted(cycles, reverse=True))


def twisted_fixed_subgroup(rs: RootSystemData, w: tuple) -> list[tuple]:
    """{x in W : x w = w x} (split untwisted ambient group, F0 = id)."""
    return [x for x in rs.weyl_group() if compose(x, w) == compose(w, x)]


def fq_ranks(flavor: str, n: int, w: tuple) -> tuple[int, int]:
    """(rk_q of the w-twisted torus, rk_q of the ambient group)."""
    cycles = len(cycle_type(w))
    if flavor == "gl":
        return cycles, n
    if flavor == "sl":
        return cycles - 1, n - 1
    raise ValueError(f"unknown flavor {flavor!r}")


def p_adic_valuation(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_part(n: int, p: int) -> int:
    return p ** p_adic_valuation(n, p)


def conjecture_sign(
    rk_T: int, rk_G: int, q: int, p: int, dim: int, n_positive_roots: int = 1
):
    """Sign from the rank/dimension formula, or None for a non-integer
    exponent (reported by callers, never silently rounded).

    exponent = (rk_T + rk_G) * (1 + log_q(|dim|_p) / #positive roots),
    where |dim|_p is the p-part of |dim| and q = p^k.
    """
    if dim == 0:
        raise ValueError("dimension must be nonzero")
    if q < 2 or p ** (k := p_adic_valuation(q, p)) != q:
        raise ValueError(f"q = {q} is not a power of p = {p}")
    v = p_adic_valuation(dim, p)
    exponent = (rk_T + rk_G) * (1 + Fraction(v, k * n_positive_roots))
    if exponent.denominator != 1:
        return None
    return -1 if exponent.numerator % 2 else 1


def partitions(n: int) -> list[tuple]:
    """All partitions of n, descending parts."""
    if n == 0:
        return [tuple()]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(n, n, [])
    return out


def perm_with_cycle_type(lam: tuple) -> tuple:
    """A canonical permutation with the given cycle type."""
    out = []
    start = 0
    for part in lam:
        out.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(out)


def classical_r1_dim(flavor: str, n: int, w: tuple, q: int) -> int:
    """The level-one general-position degree |G^F|_{p'} / |T_w^F| from the
    order polynomials of GL_n / SL_n and the twisted torus."""
    gl_p_prime = 1
    for i in range(1, n + 1):
        gl_p_prime *= q**i - 1
    t_order = 1
    for c in cycle_type(w):
        t_order *= q**c - 1
    if flavor == "sl":
        gl_p_prime //= q - 1
        t_order //= q - 1
    if gl_p_prime % t_order:
        raise InvariantError("degree must be an integer")
    return gl_p_prime // t_order


@dataclass
class SweepCase:
    flavor: str
    n: int
    cycle_type: tuple
    q: int
    p: int
    dim: int
    dim_p_part: int
    rk_T: int
    rk_G: int
    sign: int | None
    classical_sign: int

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "cycle_type": list(self.cycle_type),
            "verdict": "pass" if self.sign == self.classical_sign else "fail",
        }


def sweep_classical_signs(n_max: int, qs) -> list[SweepCase]:
    """Level-one sweep over type A torus classes: the formula sign must be
    (-1)^(rk_G - rk_T) in every case, with no inapplicable exponents."""
    out = []
    for n in range(2, n_max + 1):
        rs = RootSystemData(n)
        for lam in partitions(n):
            w = perm_with_cycle_type(lam)
            for q in qs:
                p = min(factorise(q))
                for flavor in ("gl", "sl"):
                    dim = classical_r1_dim(flavor, n, w, q)
                    rk_T, rk_G = fq_ranks(flavor, n, w)
                    sign = conjecture_sign(
                        rk_T, rk_G, q, p, dim, rs.num_positive_roots
                    )
                    classical = -1 if (rk_G - rk_T) % 2 else 1
                    out.append(
                        SweepCase(
                            flavor=flavor,
                            n=n,
                            cycle_type=lam,
                            q=q,
                            p=p,
                            dim=dim,
                            dim_p_part=p_part(dim, p),
                            rk_T=rk_T,
                            rk_G=rk_G,
                            sign=sign,
                            classical_sign=classical,
                        )
                    )
    return out
