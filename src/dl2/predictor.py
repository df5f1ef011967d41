"""Predicted (sign, dimension, decomposition) for each classified torus
character, for GL2 and SL2 over O_r.

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

from .abelian import DualChar, InvariantError
from .torus import TorusCharClass

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
    sigma1_twist: DualChar | None = None

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


def predict_gl2(tc: TorusCharClass, q: int, r: int) -> Prediction:
    if tc.q != q or tc.level != r:
        raise InvariantError("classification record mismatch")
    if tc.is_regular:
        if tc.r0 != r:
            raise InvariantError("a regular character has conductor level r")
        sgn = (-1) ** r
        d = (q - 1) * q ** (r - 1)
        return Prediction(sgn * d, ((d, 1, sgn),), True, sgn, CLAUSE_REGULAR)
    if tc.r0 > 1:
        sgn = (-1) ** tc.r0
        d = (q - 1) * q ** (tc.r0 - 1)
        return Prediction(sgn * d, ((d, 1, sgn),), True, sgn, CLAUSE_DESCENT)
    if tc.general_position:
        return Prediction(-(q - 1), ((q - 1, 1, -1),), True, -1, CLAUSE_GP)
    return Prediction(
        1 - q,
        ((1, 1, 1), (q, 1, -1)),
        False,
        -1,
        CLAUSE_SPLIT,
        sigma1_twist=tc.alpha.inverse(),
    )


def predict_sl2(tc: TorusCharClass, q: int, r: int) -> Prediction:
    base = predict_gl2(tc, q, r)
    if q % 2 == 1:
        # only the general-position clause with an order-2 restriction splits
        if base.clause == CLAUSE_GP and tc.sl_quadratic:
            half = (q - 1) // 2
            return Prediction(
                -(q - 1), ((half, 2, -1),), False, -1, CLAUSE_SL_ODD
            )
        if base.clause in (CLAUSE_REGULAR, CLAUSE_DESCENT) and tc.sl_sigma_fixed:
            raise InvariantError("odd q cannot have a flip-stable restriction off level one")
        return base
    # even q: the regular and descent clauses split when the restriction to
    # the norm-one torus is flip-stable
    if base.clause in (CLAUSE_REGULAR, CLAUSE_DESCENT) and tc.sl_sigma_fixed:
        r0 = tc.r0
        half = (q**r0 - q ** (r0 - 1)) // 2
        sgn = (-1) ** r0
        return Prediction(
            sgn * (q**r0 - q ** (r0 - 1)),
            ((half, 2, sgn),),
            False,
            sgn,
            CLAUSE_SL_EVEN,
        )
    return base


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


def prediction_signature(pred: Prediction) -> tuple:
    """Structure that must be stable under inflation: the total dimension and
    the multiset of (dimension, multiplicity, coefficient) triples."""
    return (pred.total_dim, tuple(sorted(pred.constituents)))


def stability_consistency(
    tc_high: TorusCharClass, pred_high: Prediction, pred_low: Prediction
) -> bool:
    """Whether a prediction at level r matches the prediction of the
    descended character at the lower level, structurally."""
    return prediction_signature(pred_high) == prediction_signature(pred_low)
