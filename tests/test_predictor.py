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
    prediction_signature,
    sign_from_dim,
    stability_consistency,
)
from dl2.torus import classify_all, make_torus


def test_clause_selection_and_dims():
    t = make_torus(3, 1, 2, "mixed")
    for tc in classify_all(t):
        pred = predict_gl2(tc, 3, 2)
        if tc.is_regular:
            assert pred.clause == CLAUSE_REGULAR
            assert pred.total_dim == 6  # (q-1) q^(r-1), sign (+1)^r with r = 2
            assert pred.irreducible_up_to_sign
        elif tc.r0 == 1 and tc.general_position:
            assert pred.clause == CLAUSE_GP
            assert pred.total_dim == -2
        elif tc.r0 == 1:
            assert pred.clause == CLAUSE_SPLIT
            assert pred.total_dim == -2
            assert pred.constituent_degrees() == [1, 3]
            assert not pred.irreducible_up_to_sign
        else:
            assert pred.clause == CLAUSE_DESCENT


def test_descent_clause_dims():
    t = make_torus(2, 1, 3, "mixed")
    found = False
    for tc in classify_all(t):
        if not tc.is_regular and tc.r0 == 2:
            pred = predict_gl2(tc, 2, 3)
            assert pred.total_dim == 2  # (-1)^2 (q-1) q with q = 2
            assert pred.sign == 1
            found = True
    assert found


def test_trivial_theta_prediction():
    for r, mode in [(1, "mixed"), (2, "mixed"), (3, "equal")]:
        t = make_torus(2, 1, r, mode)
        triv = [tc for tc in classify_all(t) if tc.theta.is_trivial()][0]
        pred = predict_gl2(triv, 2, r)
        assert pred.clause == CLAUSE_SPLIT
        assert pred.total_dim == -1  # 1 - q
        assert pred.constituent_degrees() == [1, 2]
        assert pred.sigma1_twist is not None and pred.sigma1_twist.is_trivial()
        ps = predict_sl2(triv, 2, r)
        assert ps.constituent_degrees() == [1, 2]


def test_sl_odd_split():
    t = make_torus(3, 1, 2, "mixed")
    n_split = 0
    for tc in classify_all(t):
        ps = predict_sl2(tc, 3, 2)
        pg = predict_gl2(tc, 3, 2)
        assert ps.total_dim == pg.total_dim  # restriction preserves dimension
        if tc.sl_quadratic:
            assert ps.clause == CLAUSE_SL_ODD
            assert ps.constituents == ((1, 2, -1),)  # two halves of q - 1 = 2
            n_split += 1
    assert n_split > 0


def test_sl_even_split():
    t = make_torus(2, 1, 2, "equal")
    n_split = 0
    for tc in classify_all(t):
        ps = predict_sl2(tc, 2, 2)
        if tc.is_regular and tc.sl_sigma_fixed:
            assert ps.clause == CLAUSE_SL_EVEN
            assert ps.constituents == ((1, 2, 1),)  # halves of (q^2 - q)/2 = 1
            n_split += 1
        else:
            assert ps.clause != CLAUSE_SL_EVEN
    assert n_split > 0


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
    tcs = {tc.theta.a: tc for tc in classify_all(t)}
    for tc in list(tcs.values())[:24]:
        pred = predict_gl2(tc, 3, 2)
        flipped = tcs[t.char_sigma(tc.theta).a]
        assert prediction_signature(predict_gl2(flipped, 3, 2)) == prediction_signature(pred)
        for beta in t.base_units.dual():
            tw = tcs[(tc.theta * t.norm_pullback(beta)).a]
            assert prediction_signature(predict_gl2(tw, 3, 2)) == prediction_signature(pred)


def test_stability_consistency_across_levels():
    """Predictions of inflated characters match the lower-level predictions."""
    t3 = make_torus(2, 1, 3, "mixed")
    tcs3 = {tc.theta.a: tc for tc in classify_all(t3)}
    for r2 in (1, 2):
        t_low = t3.level_torus(r2)
        for tc_low in classify_all(t_low):
            lifted = t3.inflate_from(tc_low.theta, r2)
            tc_high = tcs3[lifted.a]
            pred_high = predict_gl2(tc_high, 2, 3)
            pred_low = predict_gl2(tc_low, 2, r2)
            assert stability_consistency(tc_high, pred_high, pred_low)


def test_sigma1_twist_identifies_norm_pullbacks():
    t = make_torus(3, 1, 2, "mixed")
    tcs = {tc.theta.a: tc for tc in classify_all(t)}
    for alpha in t.base_units.dual():
        tc = tcs[t.norm_pullback(alpha).a]
        pred = predict_gl2(tc, 3, 2)
        assert pred.clause == CLAUSE_SPLIT
        assert pred.sigma1_twist == alpha
