"""Exact verification of dimension and sign laws for the virtual characters
of GL2 and SL2 over truncated discrete valuation rings.

The package enumerates the groups, computes their character tables exactly,
as integer coefficient arrays over Z[zeta_e] in the power basis, classifies
the characters of the nonsplit maximal torus, and checks every predicted
dimension, sign, decomposition, and stability statement against the
computed tables.
"""

import os

# One OpenBLAS thread unless the environment says otherwise: the products
# are small, so a second thread spins without saving wall time.  This only
# takes effect while numpy is not yet imported, which `.rings` does first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .rings import RingSpec, ExtSpec, make_ring, make_ext
from .groups import MatrixGroup, make_group, gl2_order, sl2_order
from .characters import character_table, CharacterTable, inner_product
from .torus import CoxeterTorus, make_torus, classify_all, Classification
from .predictor import predict_gl2, predict_sl2, dimension_set, sign_from_dim, Prediction
from .weyl import conjecture_sign, sweep_classical_signs
from .verifier import run_case, run_suite, VerificationReport

__all__ = [
    "RingSpec", "ExtSpec", "make_ring", "make_ext",
    "MatrixGroup", "make_group", "gl2_order", "sl2_order",
    "character_table", "CharacterTable", "inner_product",
    "CoxeterTorus", "make_torus", "classify_all", "Classification",
    "predict_gl2", "predict_sl2", "dimension_set", "sign_from_dim", "Prediction",
    "conjecture_sign", "sweep_classical_signs",
    "run_case", "run_suite", "VerificationReport",
]

__version__ = "0.1.0"
