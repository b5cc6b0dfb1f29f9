"""Character tests: coefficient field choice, evaluation, I(theta), blocks."""

import itertools

import numpy as np
import pytest

from bruhatlab.characters import Characters, make_coeff_field
from bruhatlab.chevalley import Chevalley
from bruhatlab.fieldtower import build_tower
from bruhatlab.rootdata import build_A
from oracles import bruhat_form, eval_B, i_theta_at, iota, level_consistent


def make(p, a, N, r):
    return Characters(Chevalley(build_tower(p, a, N), build_A(r)))


def test_coeff_field_choices():
    assert make_coeff_field(3, 1).ell == 3
    assert make_coeff_field(3, 2).ell == 17
    assert make_coeff_field(2, 2).ell == 7
    assert make_coeff_field(3, 3).ell == 6553
    cf = make_coeff_field(3, 1, p=3)
    assert cf.char_collision
    assert not make_coeff_field(3, 2, p=3).char_collision
    assert make_coeff_field(2, 2).omega == 3  # smallest primitive root mod 7


def test_iota_is_injective_hom():
    ch = make(3, 1, 2, 1)
    tw = ch.tower
    nonzero = tw.level_members(2)[1:]
    values = {iota(ch, x) for x in nonzero}
    assert len(values) == len(nonzero)
    for x in nonzero[:5]:
        for y in nonzero:
            assert iota(ch, tw.mul(x, y)) == iota(ch, x) * iota(ch, y) % ch.coeff.ell
    with pytest.raises(ValueError):
        iota(ch, tw.ZERO)


def test_trivial_character():
    ch = make(3, 1, 2, 2)
    theta = (0, 0)
    for t in ch.chev.enum_T(2):
        assert ch.eval(theta, t) == 1
    assert ch.i_theta(theta) == {1, 2}
    assert level_consistent(ch, theta)
    assert ch.central_key(theta) == (1,) * len(ch.chev.center(2))


def test_eval_is_hom_exhaustive_level1():
    for (p, r) in [(3, 1), (2, 2)]:
        ch = make(p, 1, 2, r)
        T1 = ch.chev.enum_T(1)
        for theta in ch.all_characters()[:6]:
            vals = {t: ch.eval(theta, t) for t in T1}
            for t in T1:
                for t2 in T1:
                    tt = ch.chev.mat_mul(t, t2)
                    assert vals[t] * vals[t2] % ch.coeff.ell == vals[tt]


def test_eval_coroot_minus_one_sl2_q3():
    ch = make(3, 1, 1, 1)
    tw = ch.tower
    t = ch.chev.coroot(1, tw.neg(tw.ONE))
    # iota(-1) = -1 in F_3
    assert ch.eval((1,), t) == ch.coeff.ell - 1


def test_i_theta_spec_cases():
    ch = make(3, 1, 2, 1)
    assert ch.i_theta((4,)) == i_theta_at(ch, (4,), 2) == frozenset()
    assert i_theta_at(ch, (4,), 1) == {1}
    assert not level_consistent(ch, (4,))
    assert ch.i_theta((0,)) == i_theta_at(ch, (0,), 2) == {1}
    assert level_consistent(ch, (0,))
    # ambient triviality always implies lower-level triviality
    for e in range(8):
        assert ch.i_theta((e,)) == i_theta_at(ch, (e,), 2)
        assert i_theta_at(ch, (e,), 2) <= i_theta_at(ch, (e,), 1)


def test_eval_B_matches_diagonal():
    ch = make(3, 1, 1, 1)
    theta = (1,)
    for b in ch.chev.enum_B(1):
        assert eval_B(ch, theta, b) == ch.eval_diag(theta, ch.chev.diag_of(b))
    with pytest.raises(ValueError):
        eval_B(ch, theta, ch.chev.sdot(1))


def test_eval_diags_matches_eval_diag():
    for p, r in [(3, 1), (2, 2)]:
        ch = make(p, 1, 2, r)
        diags = [ch.chev.diag_of(t) for t in ch.chev.enum_T(2)]
        T = np.array(diags, dtype=np.int64)
        for theta in ch.all_characters():
            got = ch.eval_diags(theta, T).tolist()
            assert got == [ch.eval_diag(theta, d) for d in diags]


def test_eval_parabolic():
    ch = make(3, 1, 1, 1)
    cx = ch.chev
    theta = (0,)
    # J' = {1}: P = G for SL_2; trivial character evaluates to 1 everywhere
    assert (ch.eval_parabolic(theta, {1}, np.array(cx.enum_G(1))) == 1).all()
    # unipotents always evaluate to 1
    theta2 = (1,)
    assert (ch.eval_parabolic(theta2, set(), np.array(cx.enum_U(1))) == 1).all()
    # J' = empty: agrees with eval_B on B
    B = cx.enum_B(1)
    got = ch.eval_parabolic(theta2, set(), np.array(B)).tolist()
    assert got == [eval_B(ch, theta2, b) for b in B]
    # errors: J' not inside I(theta); one element of the stack outside P_J'
    with pytest.raises(ValueError):
        ch.eval_parabolic((1,), {1}, np.array([cx.identity]))
    with pytest.raises(ValueError):
        ch.eval_parabolic((0,), set(), np.array([cx.identity, cx.sdot(1)]))


def test_eval_parabolic_matches_per_element():
    # the stack against theta on the torus part of bruhat_form, one element
    # at a time, on P_{2} of SL_3(F_4), where theta is not trivial
    ch = make(2, 1, 2, 2)
    theta = (1, 0)
    assert ch.i_theta(theta) == {2}
    P = ch.chev.enum_P({2}, 2)[::7]
    got = ch.eval_parabolic(theta, {2}, np.array(P)).tolist()
    want = [ch.eval_diag(theta, bruhat_form(ch.chev, p).t) for p in P]
    assert got == want
    assert set(want) != {1}


def test_eval_parabolic_is_hom():
    # nontrivial theta with 1 in I(theta): SL_3(F_2), level 1
    ch = make(2, 1, 1, 2)
    theta = (0, 0)
    P = ch.chev.enum_P({1}, 1)
    vals = dict(zip(P, ch.eval_parabolic(theta, {1}, np.array(P)).tolist()))
    for g in P[:40]:
        for h in P[:40]:
            gh = ch.chev.mat_mul(g, h)
            assert vals[g] * vals[h] % ch.coeff.ell == vals[gh]
    # and a genuinely nontrivial theta on SL_2(F_3) with J' = empty
    ch2 = make(3, 1, 1, 1)
    B = ch2.chev.enum_B(1)
    theta2 = (1,)
    vals2 = dict(zip(B, ch2.eval_parabolic(theta2, set(), np.array(B)).tolist()))
    for g in B:
        for h in B:
            gh = ch2.chev.mat_mul(g, h)
            assert vals2[g] * vals2[h] % ch2.coeff.ell == vals2[gh]


def test_central_keys_sl2_q3():
    ch = make(3, 1, 1, 1)
    keys = {ch.central_key(th) for th in ch.all_characters()}
    assert len(keys) == 2
    minus_id = ch.chev.center(1)[1]
    assert {ch.eval(th, minus_id) for th in ch.all_characters()} == {
        1,
        ch.coeff.ell - 1,
    }


def test_blocks():
    # SL_3, q=2, level 1: trivial center, single block
    ch = make(2, 1, 1, 2)
    params = [(th, frozenset()) for th in ch.all_characters()]
    assert len(ch.blocks(params)) == 1
    # SL_3, q=2, ambient level 2: center mu_3 gives three blocks
    ch = make(2, 1, 2, 2)
    params = [(th, frozenset()) for th in ch.all_characters()]
    blocks = ch.blocks(params)
    assert len(blocks) == 3
    assert sorted(len(b) for b in blocks) == [3, 3, 3]
    # SL_2 q=3: two blocks at either ambient level
    for N in (1, 2):
        ch = make(3, 1, N, 1)
        params = [(th, frozenset()) for th in ch.all_characters()]
        assert len(ch.blocks(params)) == 2
    # SL_2 q=2: single block (center separable by no character in char 2)
    ch = make(2, 1, 2, 1)
    params = [(th, frozenset()) for th in ch.all_characters()]
    assert len(ch.blocks(params)) == 1
    # partition independent of J: same theta, different J, same block
    ch = make(3, 1, 2, 1)
    blocks = ch.blocks([((0,), frozenset()), ((0,), frozenset({1}))])
    assert len(blocks) == 1 and len(blocks[0]) == 2
    # J must sit inside I(theta)
    with pytest.raises(ValueError):
        ch.blocks([((1,), frozenset({1}))])


def test_block_count_formula():
    # number of central keys = |image of center separation|: for SL_2(F_9),
    # center has order gcd(2, 8) = 2 and characters separate it fully
    ch = make(3, 1, 2, 1)
    keys = {ch.central_key(th) for th in ch.all_characters()}
    assert len(keys) == len(ch.chev.center(2))
