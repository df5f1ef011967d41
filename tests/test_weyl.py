import pytest

from dl2.weyl import (
    RootSystemData,
    classical_r1_dim,
    conjecture_sign,
    coxeter_element,
    cycle_type,
    fq_ranks,
    p_part,
    partitions,
    perm_order,
    perm_with_cycle_type,
    sweep_classical_signs,
    twisted_fixed_subgroup,
)


def test_coxeter_element():
    assert coxeter_element(2) == (1, 0)
    for n in range(2, 6):
        w = coxeter_element(n)
        assert cycle_type(w) == (n,)  # an n-cycle
        assert perm_order(w) == n  # order = Coxeter number in type A


def test_root_counts():
    for n in range(2, 6):
        rs = RootSystemData(n)
        assert rs.num_positive_roots == n * (n - 1) // 2
        assert rs.weyl_order() == len(rs.weyl_group())


def test_twisted_fixed_subgroups():
    for n in range(2, 6):
        rs = RootSystemData(n)
        # centralizer of an n-cycle has order n
        assert len(twisted_fixed_subgroup(rs, coxeter_element(n))) == n
        # identity twist: the whole Weyl group
        ident = tuple(range(n))
        assert len(twisted_fixed_subgroup(rs, ident)) == rs.weyl_order()
        for lam in partitions(n):
            w = perm_with_cycle_type(lam)
            assert rs.weyl_order() % len(twisted_fixed_subgroup(rs, w)) == 0


def test_fq_ranks():
    w = coxeter_element(2)
    assert fq_ranks("gl", 2, w) == (1, 2)
    assert fq_ranks("sl", 2, w) == (0, 1)
    ident = (0, 1)
    assert fq_ranks("gl", 2, ident) == (2, 2)
    assert fq_ranks("sl", 2, ident) == (1, 1)


def test_conjecture_sign_examples():
    # GL2, q = 3, dim 6: exponent (1+2)(1+1) = 6
    assert conjecture_sign(1, 2, 3, 3, 6, 1) == 1
    # GL2, dim 1 - q: p-part 1, exponent 3
    assert conjecture_sign(1, 2, 3, 3, -2, 1) == -1
    # SL2, theta = 1
    assert conjecture_sign(0, 1, 2, 2, -1, 1) == -1
    with pytest.raises(ValueError):
        conjecture_sign(1, 2, 3, 3, 0, 1)
    with pytest.raises(ValueError, match="not a power"):
        conjecture_sign(1, 2, 6, 2, 1, 1)


def test_conjecture_sign_invariances():
    # only the p-part of |dim| enters
    for d in (6, -6, 12, 30):
        assert conjecture_sign(1, 2, 3, 3, d, 1) == conjecture_sign(1, 2, 3, 3, 6, 1)


def test_conjecture_sign_inapplicable():
    # q = 4 = 2^2, dim with odd 2-valuation: exponent 3 * (1 + 1/2) not integral
    assert conjecture_sign(1, 2, 4, 2, 2, 1) is None


def test_p_part():
    assert p_part(48, 2) == 16
    assert p_part(48, 3) == 3
    assert p_part(-18, 3) == 9


def test_classical_dims():
    # GL2 Coxeter: q - 1; split: q + 1
    assert classical_r1_dim("gl", 2, (1, 0), 3) == 2
    assert classical_r1_dim("gl", 2, (0, 1), 3) == 4
    assert classical_r1_dim("sl", 2, (1, 0), 5) == 4
    # always a positive integer across the sweep range
    for n in range(2, 6):
        for lam in partitions(n):
            w = perm_with_cycle_type(lam)
            for q in (2, 3, 4, 5):
                assert classical_r1_dim("gl", n, w, q) > 0


def test_classical_sweep_all_pass():
    cases = sweep_classical_signs(5, [2, 3, 4, 5, 7, 8, 9])
    assert len(cases) > 0
    for c in cases:
        assert c.dim_p_part == 1  # the degree is prime to p
        assert c.sign is not None  # zero inapplicable exponents
        assert c.sign == c.classical_sign


def test_partitions():
    assert sorted(partitions(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )
    for lam in partitions(5):
        assert cycle_type(perm_with_cycle_type(lam)) == tuple(sorted(lam, reverse=True))
