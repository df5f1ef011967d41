import numpy as np
import pytest

from dl2.predictor import (
    CLAUSE_DESCENT,
    CLAUSE_GP,
    CLAUSE_REGULAR,
    CLAUSE_SL_EVEN,
    CLAUSE_SL_ODD,
    CLAUSE_SPLIT,
    dimension_set,
    predict_gl2,
    predict_sl2,
    sign_from_dim,
)
from dl2.torus import classify_all, make_torus


def _predictions(predict, cl):
    values, which = predict(cl)
    return [values[k] for k in which.tolist()]


def _signature(pred):
    """What inflation and the flip must preserve: the total dimension and
    the multiset of constituents."""
    return pred.total_dim, sorted(pred.constituents)


def test_clause_selection_and_dims():
    cl = classify_all(make_torus(3, 1, 2, "mixed"))
    for i, pred in enumerate(_predictions(predict_gl2, cl)):
        if cl.regular[i]:
            assert pred.clause == CLAUSE_REGULAR
            assert pred.total_dim == 6  # (q-1) q^(r-1), sign (+1)^r with r = 2
            assert pred.irreducible_up_to_sign
        elif cl.r0[i] == 1 and cl.general_position[i]:
            assert pred.clause == CLAUSE_GP
            assert pred.total_dim == -2
        elif cl.r0[i] == 1:
            assert pred.clause == CLAUSE_SPLIT
            assert pred.total_dim == -2
            assert pred.constituent_degrees() == [1, 3]
            assert not pred.irreducible_up_to_sign
        else:
            assert pred.clause == CLAUSE_DESCENT


def test_descent_clause_dims():
    cl = classify_all(make_torus(2, 1, 3, "mixed"))
    descent = ~cl.regular & (cl.r0 == 2)
    assert descent.any()
    for pred in np.array(_predictions(predict_gl2, cl), dtype=object)[descent]:
        assert pred.total_dim == 2  # (-1)^2 (q-1) q with q = 2
        assert pred.sign == 1


def test_trivial_theta_prediction():
    for r, mode in [(1, "mixed"), (2, "mixed"), (3, "equal")]:
        cl = classify_all(make_torus(2, 1, r, mode))
        assert not cl.theta[0].any()  # dual()[0] is the trivial character
        pred = _predictions(predict_gl2, cl)[0]
        assert pred.clause == CLAUSE_SPLIT
        assert pred.total_dim == -1  # 1 - q
        assert pred.constituent_degrees() == [1, 2]
        assert not cl.alpha[0].any()  # the canonical twist is trivial
        ps = _predictions(predict_sl2, cl)[0]
        assert ps.constituent_degrees() == [1, 2]


def test_sl_odd_split():
    cl = classify_all(make_torus(3, 1, 2, "mixed"))
    gl, sl = _predictions(predict_gl2, cl), _predictions(predict_sl2, cl)
    for ps, pg, quadratic in zip(sl, gl, cl.sl_quadratic):
        assert ps.total_dim == pg.total_dim  # restriction preserves dimension
        if quadratic:
            assert ps.clause == CLAUSE_SL_ODD
            assert ps.constituents == ((1, 2, -1),)  # two halves of q - 1 = 2
    assert cl.sl_quadratic.any()


def test_sl_even_split():
    cl = classify_all(make_torus(2, 1, 2, "equal"))
    flagged = cl.regular & cl.sl_sigma_fixed
    for ps, split in zip(_predictions(predict_sl2, cl), flagged):
        if split:
            assert ps.clause == CLAUSE_SL_EVEN
            assert ps.constituents == ((1, 2, 1),)  # halves of (q^2 - q)/2 = 1
        else:
            assert ps.clause != CLAUSE_SL_EVEN
    assert flagged.any()


def test_dimension_set():
    assert dimension_set(3, 3) == {-2, 6, -18}
    assert dimension_set(2, 1) == {-1}
    for q in (2, 3, 4, 5):
        for r in (1, 2, 3):
            assert len(dimension_set(q, r)) == r


def test_sign_from_dim():
    assert sign_from_dim(18, 3) == -1
    assert sign_from_dim(-18, 3) == -1
    assert sign_from_dim(2, 3) == -1  # |d| = q - 1
    assert sign_from_dim(6, 3) == 1  # |d| = (q-1) q
    with pytest.raises(ValueError):
        sign_from_dim(5, 3)
    with pytest.raises(ValueError):
        sign_from_dim(4, 3)


def test_prediction_invariance_under_flip_and_twist():
    t = make_torus(3, 1, 2, "equal")
    cl = classify_all(t)
    sigs = [_signature(pred) for pred in _predictions(predict_gl2, cl)]
    flipped = t.group.dual_index(t.flip(cl.theta))
    assert [sigs[j] for j in flipped.tolist()] == sigs
    n = np.array(t.group.orders)
    for pullback in t.pullback_rows:
        twisted = t.group.dual_index((cl.theta + pullback) % n)
        assert [sigs[j] for j in twisted.tolist()] == sigs


def test_stability_consistency_across_levels():
    """Predictions of inflated characters match the lower-level predictions."""
    t3 = make_torus(2, 1, 3, "mixed")
    high = _predictions(predict_gl2, classify_all(t3))
    for r2 in (1, 2):
        cl_low = classify_all(t3.level_torus(r2))
        lifted = t3.group.dual_index(t3.inflate_from(cl_low.theta, r2))
        low = _predictions(predict_gl2, cl_low)
        assert [_signature(high[i]) for i in lifted.tolist()] == [_signature(p) for p in low]


def test_sigma1_twist_identifies_norm_pullbacks():
    """theta = alpha o norm is the split clause twisted by sigma_1 = alpha:
    its canonical twist is alpha^-1."""
    t = make_torus(3, 1, 2, "mixed")
    cl = classify_all(t)
    preds = _predictions(predict_gl2, cl)
    for alpha in t.base_units.dual():
        i = t.group.dual_index(t.pullback_rows[t.base_units.dual_index(alpha.a)])
        assert preds[i].clause == CLAUSE_SPLIT
        assert tuple(cl.alpha[i].tolist()) == alpha.inverse().a
