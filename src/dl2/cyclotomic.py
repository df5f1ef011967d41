"""Exact arithmetic in cyclotomic integers (and their rational spans).

A value is stored against a fixed root-of-unity order e as the canonical
remainder modulo the e-th cyclotomic polynomial: a coefficient tuple
(c_0, ..., c_{phi(e)-1}) meaning sum(c_i * zeta_e^i).  Coefficients are
Python ints or Fractions, so equality is structural and no floating point
enters anywhere.  Values of different orders are combined by promoting both
to the lcm order.

Matrices over Z[zeta_e] are integer coefficient tensors (rows, columns,
phi(e)); `matmul` is their one product, with its int64 bound checked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np


def _poly_divmod_int(num: list, den: list):
    """Division with remainder by a monic integer polynomial."""
    num = list(num)
    d = len(den) - 1
    q = [0] * max(1, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            q[i - d] = c
            for j in range(d + 1):
                num[i - d + j] -= c * den[j]
    return q, num[:d]


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple:
    """Integer coefficients (ascending) of the e-th cyclotomic polynomial."""
    if e == 1:
        return (-1, 1)
    # (x^e - 1) / prod_{d | e, d < e} Phi_d
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1
    for d in range(1, e):
        if e % d == 0:
            q, r = _poly_divmod_int(num, list(cyclotomic_poly(d)))
            assert not any(r), "cyclotomic division must be exact"
            num = q
    return tuple(num)


@lru_cache(maxsize=None)
def phi(e: int) -> int:
    return len(cyclotomic_poly(e)) - 1


@lru_cache(maxsize=None)
def zeta_powers(e: int) -> np.ndarray:
    """Read-only int64 array of shape (e, phi(e)) whose row j holds the
    canonical coefficients of zeta_e^j, i.e. of x^j mod Phi_e."""
    f = cyclotomic_poly(e)
    rows = [[1] + [0] * (phi(e) - 1)]
    for _ in range(e - 1):
        # x * row, with x^phi(e) = -(f_0 + ... + f_{phi(e)-1} x^(phi(e)-1))
        lead = rows[-1][-1]
        rows.append([a - lead * b for a, b in zip([0] + rows[-1][:-1], f)])
    out = np.array(rows, dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def zeta_power_coeffs(e: int, j: int) -> tuple:
    """Canonical coefficients of zeta_e^j, as Python ints."""
    return tuple(int(c) for c in zeta_powers(e)[j % e])


def matmul(X: np.ndarray, Y: np.ndarray, e: int) -> np.ndarray:
    """The matrix product over Z[zeta_e] of integer coefficient tensors.

    X has shape (n, m, d) and Y shape (m, p, d), d = phi(e): entry [i, j]
    stands for sum_a X[i, j, a] zeta_e^a.  Returns the (n, p, d) int64
    tensor of canonical coefficients of the product.  It is computed as
    sum_s U_s zeta_e^s with U_s = sum_{a+b=s} X_a Y_b for s < 2d - 1
    (X_a = X[:, :, a]), replacing zeta_e^s by row s mod e of `zeta_powers`.

    int64 bound.  Let x = max|X|, y = max|Y| and z = max|zeta_powers(e)|.
    An entry of X_a Y_b sums m products of size at most x y, and U_s sums at
    most d such matrices, so |U_s| <= d m x y.  An output coefficient sums
    the 2d - 1 terms z_s U_s with |z_s| <= z, so it and every partial sum
    on the way are at most (2d - 1) z d m x y in absolute value.  The
    product is computed only when that bound is below 2^63, and raises
    OverflowError otherwise.
    """
    n, m, d = X.shape
    Z = zeta_powers(e)
    x, y = (int(np.abs(A).max(initial=0)) for A in (X, Y))
    bound = (2 * d - 1) * int(np.abs(Z).max()) * d * m * x * y
    if bound >= 2**63:
        raise OverflowError(f"int64 overflow risk: Z[zeta_{e}] product bound {bound} >= 2^63")
    Xs = np.ascontiguousarray(np.moveaxis(X, 2, 0))
    Ys = np.ascontiguousarray(np.moveaxis(Y, 2, 0))
    out = np.zeros((d, n, Y.shape[1]), dtype=np.int64)
    for s in range(2 * d - 1):
        U = sum(Xs[a] @ Ys[s - a] for a in range(max(0, s - d + 1), min(d, s + 1)))
        row = Z[s % e]
        for j in np.flatnonzero(row):
            out[j] += row[j] * U
    return np.moveaxis(out, 0, 2)


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Cyclo:
    """An element of Q(zeta_e) in the canonical power basis mod Phi_e."""

    __slots__ = ("e", "c")

    def __init__(self, e: int, coeffs):
        self.e = e
        d = phi(e)
        c = list(coeffs)
        c += [0] * (d - len(c))
        assert len(c) == d
        self.c = tuple(_norm_coeff(x) for x in c[:d])

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(e: int = 1) -> "Cyclo":
        return Cyclo(e, [0] * phi(e))

    @staticmethod
    def from_rational(v, e: int = 1) -> "Cyclo":
        d = phi(e)
        c = [0] * d
        if d:
            c[0] = v
        return Cyclo(e, c)

    @staticmethod
    def root_of_unity(e: int, j: int) -> "Cyclo":
        return Cyclo(e, zeta_power_coeffs(e, j))

    # -- representation changes -------------------------------------------------

    def _substitute(self, E: int, m: int) -> "Cyclo":
        """The image in Q(zeta_E) under zeta_e^i -> zeta_E^(i m)."""
        out = [0] * phi(E)
        for i, ci in enumerate(self.c):
            if ci:
                for j, zj in enumerate(zeta_power_coeffs(E, i * m)):
                    if zj:
                        out[j] += ci * zj
        return Cyclo(E, out)

    def promote(self, E: int) -> "Cyclo":
        """Rewrite in Q(zeta_E); requires e | E."""
        if E == self.e:
            return self
        assert E % self.e == 0
        return self._substitute(E, E // self.e)

    @staticmethod
    def _common(a: "Cyclo", b: "Cyclo"):
        if a.e == b.e:
            return a, b
        E = a.e // gcd(a.e, b.e) * b.e
        return a.promote(E), b.promote(E)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.from_rational(other, 1)
        a, b = Cyclo._common(self, other)
        return Cyclo(a.e, [x + y for x, y in zip(a.c, b.c)])

    def __sub__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.from_rational(other, 1)
        a, b = Cyclo._common(self, other)
        return Cyclo(a.e, [x - y for x, y in zip(a.c, b.c)])

    def __neg__(self):
        return Cyclo(self.e, [-x for x in self.c])

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            return Cyclo(self.e, [x * other for x in self.c])
        a, b = Cyclo._common(self, other)
        d = phi(a.e)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a.c):
            if ai:
                for j, bj in enumerate(b.c):
                    if bj:
                        conv[i + j] += ai * bj
        out = [0] * d
        for s, cs in enumerate(conv):
            if cs:
                rs = zeta_power_coeffs(a.e, s)
                for j in range(d):
                    if rs[j]:
                        out[j] += cs * rs[j]
        return Cyclo(a.e, out)

    __rmul__ = __mul__

    def scale(self, v) -> "Cyclo":
        return Cyclo(self.e, [x * v for x in self.c])

    def conj(self) -> "Cyclo":
        """Complex conjugation zeta -> zeta^-1."""
        return self._substitute(self.e, -1)

    def galois_power(self, m: int) -> "Cyclo":
        """The Galois substitution zeta -> zeta^m; requires gcd(m, e) = 1."""
        assert gcd(m, self.e) == 1, "substitution exponent must be coprime to e"
        return self._substitute(self.e, m)

    # -- predicates ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.c[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.c[0]) if self.c else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self.c[0] if self.c else 0) == other
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = Cyclo._common(self, other)
        return a.c == b.c

    def __hash__(self):
        # The same value can be written against different exponents, so the
        # hash may only depend on the value itself.  Rational values hash by
        # value; hashing all irrational values alike is valid (equality does
        # the real work) and they are rare as dict keys.
        if self.is_rational():
            return hash(Fraction(self.c[0] if self.c else 0))
        return hash("cyclo-irrational")

    def __repr__(self):
        if self.is_rational():
            return str(self.c[0] if self.c else 0)
        terms = []
        for i, ci in enumerate(self.c):
            if ci == 0:
                continue
            if i == 0:
                terms.append(str(ci))
            elif ci == 1:
                terms.append(f"z{self.e}^{i}")
            else:
                terms.append(f"{ci}*z{self.e}^{i}")
        return " + ".join(terms) if terms else "0"
