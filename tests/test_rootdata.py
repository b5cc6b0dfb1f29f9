"""Root system and Weyl group tests against frozen small-rank oracles."""

import itertools

import pytest

from bruhatlab.rootdata import build_A
from oracles import bruhat_leq, from_word, phi_minus


def test_counts():
    assert (len(build_A(1).elements), build_A(1).n) == (2, 1)
    assert (len(build_A(2).elements), build_A(2).n) == (6, 3)
    assert build_A(2).w0.length == 3
    assert (len(build_A(3).elements), build_A(3).n) == (24, 6)
    with pytest.raises(ValueError):
        build_A(4)
    with pytest.raises(ValueError):
        build_A(0)


def test_positive_root_order_A3():
    rs = build_A(3)
    # height-then-leftmost: simples first, then height 2, then the long root
    assert rs.pos_roots == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1),
        (1, 1, 1),
    ]
    for v in rs.pos_roots:
        support = [i for i, c in enumerate(v) if c]
        assert support == list(range(support[0], support[-1] + 1))


def test_canonical_words_A2():
    rs = build_A(2)
    words = {w.word for w in rs.elements}
    assert words == {(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)}
    # lex-least: the longest element is s1 s2 s1, not s2 s1 s2
    assert rs.w0.word == (1, 2, 1)
    assert from_word(rs, (2, 1, 2)) == rs.w0


def test_word_length_consistency():
    for r in (1, 2, 3):
        rs = build_A(r)
        for w in rs.elements:
            assert len(w.word) == w.length
            assert from_word(rs, w.word) == w
            assert w.length == len(phi_minus(rs, w))


def test_phi_minus():
    rs = build_A(2)
    assert phi_minus(rs, rs.e) == []
    assert phi_minus(rs, rs.w0) == rs.pos_roots
    s1 = rs.s(1)
    assert phi_minus(rs, s1) == [(1, 0)]


def test_descents():
    rs = build_A(2)
    assert rs.descents(rs.e) == frozenset()
    assert rs.descents(from_word(rs, (1, 2))) == {2}
    assert rs.descents(rs.w0) == {1, 2}


def test_length_step():
    for r in (1, 2, 3):
        rs = build_A(r)
        for w in rs.elements:
            for i in rs.I:
                d = rs.mul(w, rs.s(i)).length - w.length
                assert d in (-1, 1)
                assert (d == -1) == (i in rs.descents(w))


def test_poincare_polynomial():
    for r in (1, 2, 3):
        rs = build_A(r)
        # coefficients of prod_{k=1..r} (1 + t + ... + t^k)
        coeffs = [1]
        for k in range(1, r + 1):
            out = [0] * (len(coeffs) + k)
            for i, c in enumerate(coeffs):
                for j in range(k + 1):
                    out[i + j] += c
            coeffs = out
        hist = [0] * (rs.w0.length + 1)
        for w in rs.elements:
            hist[w.length] += 1
        assert hist == coeffs


def test_bruhat():
    rs = build_A(2)
    s1, s2 = rs.s(1), rs.s(2)
    for w in rs.elements:
        assert bruhat_leq(rs, rs.e, w)
        assert bruhat_leq(rs, w, rs.w0)
        assert bruhat_leq(rs, rs.w0, w) == (w == rs.w0)
        assert bruhat_leq(rs, w, w)
    assert not bruhat_leq(rs, s1, s2)
    assert not bruhat_leq(rs, s2, s1)
    assert bruhat_leq(rs, s1, from_word(rs, (1, 2)))
    assert bruhat_leq(rs, s2, from_word(rs, (1, 2)))
    # antisymmetry and transitivity on all of A2 and A3
    for r in (2, 3):
        rs = build_A(r)
        leq = {
            (x.perm, y.perm)
            for x in rs.elements
            for y in rs.elements
            if bruhat_leq(rs, x, y)
        }
        for x, y in leq:
            assert not (x != y and (y, x) in leq)
        for (x, y), (y2, z) in itertools.product(leq, leq):
            if y == y2:
                assert (x, z) in leq


def test_coset_reps():
    rs1 = build_A(1)
    assert rs1.min_coset_reps({1}) == [rs1.e]
    assert rs1.longest({1}) == rs1.s(1)
    rs = build_A(2)
    reps = rs.min_coset_reps({1})
    assert [w.word for w in reps] == [(), (2,), (1, 2)]
    assert rs.min_coset_reps(frozenset()) == rs.elements
    for r in (1, 2, 3):
        rs = build_A(r)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(rs.I, m) for m in range(r + 1)
        )
        for J in subsets:
            reps = rs.min_coset_reps(J)
            sub = rs.subgroup(J)
            assert len(reps) * len(sub) == len(rs.elements)
            # cosets partition W
            seen = {rs.mul(x, w).perm for x in reps for w in sub}
            assert len(seen) == len(rs.elements)
            # each rep is the shortest in its coset
            for x in reps:
                assert all(rs.mul(x, w).length >= x.length for w in sub)
            wJ = rs.longest(J)
            assert set(wJ.word) <= set(J)
            assert all(w.length <= wJ.length for w in sub)


def test_z_set():
    rs1 = build_A(1)
    assert rs1.z_set({1}, {1}) == [rs1.e]
    assert rs1.z_set(set(), {1}) == [rs1.e]
    rs = build_A(2)
    z = rs.z_set({1}, {1, 2})
    assert [w.word for w in z] == [(), (2,)]
    with pytest.raises(ValueError):
        rs.z_set({1, 2}, {1})
    for r in (1, 2, 3):
        rs = build_A(r)
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(rs.I, m) for m in range(r + 1)
            )
        )
        for itheta in subsets:
            for J in subsets:
                if not set(J) <= set(itheta):
                    continue
                z = rs.z_set(J, itheta)
                assert rs.e in z
                assert set(z) <= set(rs.min_coset_reps(J))
        # Itheta = I, J = I pins down {e} and w_J = w_0
        assert rs.z_set(rs.I, rs.I) == [rs.e]
        assert rs.longest(rs.I) == rs.w0


def test_subadditive_length():
    rs = build_A(3)
    for v in rs.elements:
        for w in rs.elements:
            assert rs.mul(v, w).length <= v.length + w.length
