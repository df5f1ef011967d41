"""Predicted (sign, dimension, decomposition) for every classified torus
character, for GL2 and SL2 over O_r.

`predict_gl2` and `predict_sl2` take a `Classification` and return
(values, which): a short tuple of `Prediction`s, one per clause and level,
and for each theta the position of its prediction in that tuple, chosen
from the classification flags by one `np.where` cascade.

Clause selection:
  * regular theta: irreducible up to the sign (-1)^r, dimension (q-1)q^(r-1)
    (the conductor convention r0 = r makes this the r0 = r instance of the
    descent clause, and the report still says which clause fired);
  * non-regular, r0 > 1: irreducible up to (-1)^(r0), dimension (q-1)q^(r0-1);
  * non-regular, r0 = 1, theta0 in general position: minus an irreducible of
    dimension q - 1;
  * otherwise: a difference of a linear character and an irreducible of
    dimension q.

SL2 predictions agree with GL2 (restriction preserves everything here)
except two parity-dependent splittings, where one constituent is replaced
by two inequivalent halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import InvariantError
from .torus import Classification

CLAUSE_REGULAR = "regular"
CLAUSE_DESCENT = "twist-descends-above-level-one"
CLAUSE_GP = "level-one-general-position"
CLAUSE_SPLIT = "level-one-norm-twist-of-trivial"
CLAUSE_SL_ODD = "sl-split-odd-q-order-two-restriction"
CLAUSE_SL_EVEN = "sl-split-even-q-flip-stable-restriction"


@dataclass(frozen=True)
class Prediction:
    """constituents: (dimension, multiplicity, coefficient) triples."""

    total_dim: int
    constituents: tuple
    irreducible_up_to_sign: bool
    sign: int
    clause: str

    def __post_init__(self):
        if sum(c * m * d for d, m, c in self.constituents) != self.total_dim:
            raise InvariantError("constituents must sum to the total")
        if not all(d > 0 for d, _m, _c in self.constituents):
            raise InvariantError("constituent dimensions must be positive")
        if self.sign != (1 if self.total_dim > 0 else -1):
            raise InvariantError("sign must be the sign of the total")

    def constituent_degrees(self) -> list[int]:
        out = []
        for d, m, _c in self.constituents:
            out.extend([d] * m)
        return out

    def to_dict(self) -> dict:
        return {
            "total_dim": self.total_dim,
            "constituents": [list(t) for t in self.constituents],
            "irreducible_up_to_sign": self.irreducible_up_to_sign,
            "sign": self.sign,
            "paper_clause": self.clause,
        }


def _irreducible(q: int, r0: int, clause: str) -> Prediction:
    sgn, d = (-1) ** r0, (q - 1) * q ** (r0 - 1)
    return Prediction(sgn * d, ((d, 1, sgn),), True, sgn, clause)


def predict_gl2(cl: Classification) -> tuple[tuple[Prediction, ...], np.ndarray]:
    """(values, which): theta i is predicted values[which[i]]."""
    q, r = cl.torus.q, cl.torus.r
    if (cl.regular & (cl.r0 != r)).any():
        raise InvariantError("a regular character has conductor level r")
    values = (
        _irreducible(q, r, CLAUSE_REGULAR),  # 0
        *(_irreducible(q, r0, CLAUSE_DESCENT) for r0 in range(2, r + 1)),  # r0 - 1
        Prediction(-(q - 1), ((q - 1, 1, -1),), True, -1, CLAUSE_GP),  # r
        Prediction(1 - q, ((1, 1, 1), (q, 1, -1)), False, -1, CLAUSE_SPLIT),  # r + 1
    )
    which = np.where(
        cl.regular, 0, np.where(cl.r0 > 1, cl.r0 - 1, np.where(cl.general_position, r, r + 1))
    )
    return values, which


def predict_sl2(cl: Classification) -> tuple[tuple[Prediction, ...], np.ndarray]:
    """(values, which) as `predict_gl2`, with the SL2 splittings."""
    values, which = predict_gl2(cl)
    q, r = cl.torus.q, cl.torus.r
    irreducible = which < r  # the regular and descent clauses
    if q % 2 == 1:
        # only the general-position clause with an order-2 restriction splits
        if (irreducible & cl.sl_sigma_fixed).any():
            raise InvariantError("odd q cannot have a flip-stable restriction off level one")
        half = Prediction(-(q - 1), (((q - 1) // 2, 2, -1),), False, -1, CLAUSE_SL_ODD)
        return values + (half,), np.where((which == r) & cl.sl_quadratic, len(values), which)
    # even q: the regular and descent clauses split when the restriction to
    # the norm-one torus is flip-stable; the halves of level r0 sit at
    # len(values) + r0 - 2
    def halves(r0):
        sgn, d = (-1) ** r0, q**r0 - q ** (r0 - 1)
        return Prediction(sgn * d, ((d // 2, 2, sgn),), False, sgn, CLAUSE_SL_EVEN)

    split = irreducible & cl.sl_sigma_fixed
    return values + tuple(map(halves, range(2, r + 1))), np.where(split, len(values) + cl.r0 - 2, which)


def dimension_set(q: int, r: int) -> set[int]:
    """{(-1)^i (q-1) q^(i-1) : 1 <= i <= r}, exactly r values."""
    out = {(-1) ** i * (q - 1) * q ** (i - 1) for i in range(1, r + 1)}
    if len(out) != r:
        raise InvariantError(f"{len(out)} distinct dimensions, not {r}")
    return out


def sign_from_dim(d: int, q: int) -> int:
    """(-1)^(1 + log_q(|d| / (q-1))); |d| must be (q-1) times a power of q."""
    ad = abs(d)
    if ad % (q - 1) != 0:
        raise ValueError(f"|{d}| is not divisible by q - 1 = {q - 1}")
    m = ad // (q - 1)
    i = 0
    while m > 1:
        if m % q:
            raise ValueError(f"|{d}|/(q-1) = {ad // (q - 1)} is not a power of q")
        m //= q
        i += 1
    return (-1) ** (1 + i)
