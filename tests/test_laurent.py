import pytest

from homstab.burau import (
    lp, L_ONE, l_add, l_neg, l_sub, l_mul, l_unit_inverse, lm_zero,
    lm_identity, lm_mul, UnitElimination, BurauSystem,
)

L_T = lp((1, 1))


def test_poly_arithmetic():
    a = lp((0, 1), (1, -1))      # 1 - t
    b = lp((0, 1), (1, 1))       # 1 + t
    assert l_mul(a, b) == lp((0, 1), (2, -1))   # 1 - t^2
    assert not l_sub(a, a)
    assert l_add(a, l_neg(a)) == {}
    assert l_mul(L_T, l_unit_inverse(L_T)) == L_ONE


def test_unit_inverse_scope():
    assert l_unit_inverse(lp((3, -1))) == lp((-3, -1))
    assert l_unit_inverse(lp((0, 1), (1, 1))) is None   # 1 + t
    assert l_unit_inverse(lp((0, 2))) is None           # 2


def test_matrix_ops():
    ident = lm_identity(2)
    assert lm_mul(ident, ident) == ident
    z = lm_zero(2, 2)
    assert lm_mul(ident, z) == z


def test_unit_elimination_full_rank():
    M = [[L_ONE, L_T], [lm_zero(1, 1)[0][0], lp((2, 1))]]
    elim = UnitElimination(M)
    assert elim.rank == 2
    assert elim.kernel_trivial()
    assert elim.cokernel_rank() == 0


def test_unit_elimination_transform_identity():
    M = [[L_T, L_ONE], [L_ONE, {}], [{}, {}]]
    elim = UnitElimination(M)
    assert elim.rank == 2 and elim.cokernel_rank() == 1
    # U @ M == R and U @ Uinv == I
    assert lm_mul(elim.U, M) == elim.R
    assert lm_mul(elim.U, elim.Uinv) == lm_identity(3)


def test_unit_elimination_outside_fragment():
    # column with no unit entry: 1+t only
    M = [[lp((0, 1), (1, 1))]]
    with pytest.raises(ValueError):
        UnitElimination(M)


def test_lm_word_signed_indices():
    B = BurauSystem(2)
    assert B.act_word(2, (1, 1, -1)) == B.images(2)[1]
    assert B.act_word(2, ()) == lm_identity(2)
