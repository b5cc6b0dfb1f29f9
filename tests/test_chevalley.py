"""Matrix group tests: Bruhat round-trips, rank-1 constants, subgroup counts."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatlab import chevalley
from bruhatlab.chevalley import Chevalley
from bruhatlab.fieldtower import BudgetError, build_tower
from bruhatlab.rootdata import build_A
from oracles import bruhat_form, det, from_word, peel_unipotent, reassemble
from oracles import rank1_constants as rank1_oracle


def ctx(p, a, N, r):
    return Chevalley(build_tower(p, a, N), build_A(r))


# -- generators ---------------------------------------------------------------

def test_sdot_sl2():
    cx = ctx(3, 1, 2, 1)
    tw = cx.tower
    z, o = tw.ZERO, tw.ONE
    assert cx.sdot(1) == (z, o, tw.neg(o), z)
    # sdot(i)^2 = coroot(i, -1)
    assert cx.mat_mul(cx.sdot(1), cx.sdot(1)) == cx.coroot(1, tw.neg(o))


def test_wdot_identity_and_braid():
    for r in (2, 3):
        cx = ctx(2, 1, 2, r)
        rs = cx.rs
        assert cx.wdot(rs.e) == cx.identity
        # wdot is word independent: braid products agree
        for w in rs.elements:
            for word in itertools.permutations(w.word):
                if from_word(rs, word) == w and all(
                    from_word(rs, word[: i + 1]).length == i + 1
                    for i in range(len(word))
                ):
                    assert cx.mat_prod(cx.sdot(i) for i in word) == cx.wdot(w)


def test_wdot_in_parabolic():
    cx = ctx(2, 1, 2, 2)
    rs = cx.rs
    for J in [(1,), (2,), (1, 2)]:
        for w in rs.subgroup(J):
            assert cx.wdot_in(J, w) == cx.wdot(w)
            assert set(w.word) <= set(J)
    with pytest.raises(ValueError):
        cx.wdot_in((1,), rs.s(2))


def test_torus_conjugation_relation():
    # t eps(alpha, c) t^-1 = eps(alpha, alpha(t) c)
    cx = ctx(3, 1, 2, 2)
    tw = cx.tower
    rng = random.Random(11)
    nonzero = tw.level_members(2)[1:]
    for _ in range(200):
        t = cx.torus(
            (lambda a, b: (a, b, tw.inv(tw.mul(a, b))))(
                rng.choice(nonzero), rng.choice(nonzero)
            )
        )
        c = rng.choice(tw.level_members(2))
        diag = cx.diag_of(t)
        for a, b in cx.rs.pos_pairs:
            alpha_t = tw.mul(diag[a], tw.inv(diag[b]))
            lhs = cx.mat_prod([t, cx.eps((a, b), c), cx.mat_inv(t)])
            assert lhs == cx.eps((a, b), tw.mul(alpha_t, c))


def test_mat_prod_folds_from_first_factor():
    cx = ctx(2, 1, 2, 2)
    rng = random.Random(5)
    G = cx.enum_G(1)
    assert cx.mat_prod([]) == cx.identity
    assert cx.mat_prod(iter([])) == cx.identity
    for _ in range(30):
        A, B, C = (rng.choice(G) for _ in range(3))
        assert cx.mat_prod([A]) == A
        seeded = cx.mat_mul(cx.mat_mul(cx.mat_mul(cx.identity, A), B), C)
        assert cx.mat_prod([A, B, C]) == seeded
        assert cx.mat_prod(iter([A, B, C])) == seeded


def test_determinants():
    cx = ctx(3, 1, 2, 2)
    tw = cx.tower
    for w in cx.rs.elements:
        assert det(cx, cx.wdot(w)) == tw.ONE
    for g in cx.enum_G(1)[:500]:
        assert det(cx, g) == tw.ONE


# -- Bruhat normal form ------------------------------------------------------------

def test_bruhat_identity_and_sdot():
    cx = ctx(3, 1, 2, 1)
    bf = cx.bruhat_form(cx.identity)
    assert bf.w == cx.rs.e
    assert bf.u == cx.identity and bf.v == cx.identity
    assert all(d == cx.tower.ONE for d in bf.t)
    bf = cx.bruhat_form(cx.sdot(1))
    assert bf.w == cx.rs.s(1)
    assert bf.u == cx.identity


def test_bruhat_round_trip_exhaustive():
    for (p, r) in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        cx = ctx(p, 1, 2, r)
        G = cx.enum_G(1)
        for g, cell in zip(G, _cells_by_row(cx, G)):
            bf = bruhat_form(cx, g)
            assert reassemble(cx, bf) == g
            # u lies in U_{w^-1}: support inside phi_minus(w^-1)
            allowed = set(cx.rs.phi_minus_pairs(cx.rs.inv(bf.w)))
            for a in range(cx.m):
                for b in range(a + 1, cx.m):
                    if bf.u[a * cx.m + b] != cx.tower.ZERO:
                        assert (a, b) in allowed
            assert cx.is_unitriangular(bf.u)
            assert cx.is_unitriangular(bf.v)
            assert cell == (bf.w, bf.u, bf.t)


def test_bruhat_round_trip_random_level2():
    cx = ctx(3, 1, 2, 2)
    tw = cx.tower
    rng = random.Random(20260818)
    elts = tw.level_members(2)
    count, seen = 0, []
    while count < 10_000:
        mat = [rng.choice(elts) for _ in range(9)]
        g = tuple(mat)
        d = det(cx, g)
        if d == tw.ZERO:
            continue
        # scale first row to make det 1
        g = tuple(
            tw.mul(x, tw.inv(d)) if i < 3 else x for i, x in enumerate(g)
        )
        bf = bruhat_form(cx, g)
        assert reassemble(cx, bf) == g
        seen.append((g, (bf.w, bf.u, bf.t)))
        count += 1
    assert _cells_by_row(cx, [g for g, _ in seen]) == [form for _, form in seen]


def _det_one(cx, entries):
    """The matrix with the given entries, first row scaled to det 1; None
    when singular."""
    tw, m = cx.tower, cx.m
    g = tuple(entries)
    d = det(cx, g)
    if d == tw.ZERO:
        return None
    return tuple(tw.mul(x, tw.inv(d)) if i < m else x for i, x in enumerate(g))


@st.composite
def det_one_matrices(draw):
    p, r = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3)]))
    cx = ctx(p, 1, 2, r)
    codes = st.sampled_from(cx.tower.level_members(2))
    g = draw(
        st.lists(codes, min_size=cx.m**2, max_size=cx.m**2)
        .map(lambda e: _det_one(cx, e))
        .filter(lambda g: g is not None)
    )
    return cx, g


@settings(max_examples=300, deadline=None)
@given(det_one_matrices())
def test_bruhat_cell_matches_form_property(case):
    # one element through bruhat_cells against the bruhat_form oracle
    cx, g = case
    bf = bruhat_form(cx, g)
    [(w, u, t)] = _cells_by_row(cx, [g])
    assert (w, u, t) == (bf.w, bf.u, bf.t)
    assert cx.mat_prod([u, cx.wdot(w), cx.torus(t), bf.v]) == g


def test_bruhat_cell_pivot_pattern_guard():
    cx = ctx(3, 1, 2, 2)
    s1 = cx.rs.s(1)
    g = cx.sdot(1)
    # a second group finds the cell; cx builds its tables after the change below
    assert ctx(3, 1, 2, 2).bruhat_cells(np.array([g]))[0].tolist() == [
        cx.rs.elements.index(s1)
    ]
    # swap the nonzero columns of the first two rows of the cached wdot^-1,
    # which bruhat_cells reads when it builds its tables
    rows = list(cx._wdot_inv_rows(s1))
    rows[0], rows[1] = (rows[1][0], rows[0][1]), (rows[0][0], rows[1][1])
    cx._wdot_inv_cache[s1.perm] = tuple(rows)
    with pytest.raises(AssertionError, match="pivot pattern mismatch"):
        cx.bruhat_cells(np.array([cx.identity, g]))


@pytest.mark.parametrize("p,N,rank,k", [(2, 2, 2, 1), (3, 2, 1, 2)])
def test_bruhat_form_matches_scalar_elimination(p, N, rank, k):
    # Chevalley.bruhat_form is bruhat_cells on the one row plus v read off
    # after it; every field, v included, against the scalar elimination
    cx = ctx(p, 1, N, rank)
    for g in cx.enum_G(k):
        assert cx.bruhat_form(g) == bruhat_form(cx, g)


def _cells_by_row(cx, G) -> list:
    """bruhat_cells of a list of elements, as one (w, u, t) per element."""
    widx, u, t = cx.bruhat_cells(np.array(G, dtype=np.int64))
    return [
        (cx.rs.elements[e], tuple(int(c) for c in ur), tuple(int(c) for c in tr))
        for e, ur, tr in zip(widx, u, t)
    ]


def _forms(cx, G) -> list:
    """(w, u, t) of bruhat_form, the per-element oracle, for each element."""
    return [(bf.w, bf.u, bf.t) for bf in (bruhat_form(cx, g) for g in G)]


def test_bruhat_cells_match_bruhat_cell_on_level_one():
    for (p, r) in [(3, 1), (2, 2)]:
        cx = ctx(p, 1, 2, r)
        G = cx.enum_G(1)
        assert _cells_by_row(cx, G) == _forms(cx, G)


@st.composite
def det_one_batches(draw):
    p, r = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3)]))
    cx = ctx(p, 1, 2, r)
    codes = st.sampled_from(cx.tower.level_members(2))
    one = (
        st.lists(codes, min_size=cx.m**2, max_size=cx.m**2)
        .map(lambda e: _det_one(cx, e))
        .filter(lambda g: g is not None)
    )
    return cx, draw(st.lists(one, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(det_one_batches())
def test_bruhat_cells_match_bruhat_cell_property(case):
    cx, G = case
    assert _cells_by_row(cx, G) == _forms(cx, G)


def test_peel_unipotent_splits_on_phi_minus():
    cx = ctx(3, 1, 2, 3)
    tw, m = cx.tower, cx.m
    zero = tw.ZERO
    for x in cx.rs.elements:
        for g in cx.enum_U(1)[::97]:
            R = [list(g[i * m : (i + 1) * m]) for i in range(m)]
            u = peel_unipotent(cx, R, x)
            rest = tuple(c for row in R for c in row)
            assert cx.mat_mul(u, rest) == g
            allowed = set(cx.rs.phi_minus_pairs(x))
            for a, b in cx.rs.pos_pairs:
                # u lives on Phi_x^-, and R' vanishes there
                held = rest if (a, b) in allowed else u
                assert held[a * m + b] == zero


def test_peel_unipotents_match_peel_unipotent():
    # every Weyl element against the scalar peel, mixed in one batch
    cx = ctx(3, 1, 2, 3)
    m, ws = cx.m, cx.rs.elements
    U = cx.enum_U(1)[::13]
    widx = np.repeat(np.arange(len(ws)), len(U))
    u, R = cx.peel_unipotents(np.array(U * len(ws)), widx)
    for e, g, ur, Rr in zip(widx, U * len(ws), u.tolist(), R.tolist()):
        rows = [list(g[i * m : (i + 1) * m]) for i in range(m)]
        assert tuple(ur) == peel_unipotent(cx, rows, cx.rs.inv(ws[e]))
        assert tuple(Rr) == tuple(c for row in rows for c in row)


def test_codes_are_python_ints():
    cx = ctx(11, 1, 2, 1)
    G = cx.enum_G(1)
    assert len(G) == 1320
    for g in G:
        assert all(type(c) is int for c in g)
        bf = cx.bruhat_form(g)
        assert all(type(c) is int for c in bf.u + bf.t + bf.v)


@pytest.mark.parametrize("p,rank", [(3, 1), (11, 1), (2, 2), (2, 3)])
def test_stacked_enumerations_match_object_level_products(p, rank):
    # enum_B, enum_cell and enum_G against pure-Python mat_mul in the same
    # order: t-major for B, then u-major (u . wdot(w)) . b for a cell
    cx = ctx(p, 1, 1, rank)
    B = [cx.mat_mul(t, u) for t in cx.enum_T(1) for u in cx.enum_U(1)]
    assert cx.enum_B(1) == B
    G = []
    for w in cx.rs.elements:
        wd = cx.wdot(w)
        cell = [
            cx.mat_mul(cx.mat_mul(u, wd), b)
            for u in cx.enum_U_w(cx.rs.inv(w), 1)
            for b in B
        ]
        assert cx.enum_cell(w, 1) == cell
        G.extend(cell)
    assert cx.enum_G(1) == G
    assert all(type(c) is int for g in G[:: max(1, len(G) // 50)] for c in g)


def test_cell_sizes():
    cx = ctx(3, 1, 1, 1)
    counts = {}
    for g in cx.enum_G(1):
        w = cx.bruhat_form(g).w
        counts[w.word] = counts.get(w.word, 0) + 1
    B = len(cx.enum_B(1))
    assert counts == {(): B, (1,): 3 * B}


# -- rank-1 constants ---------------------------------------------------------

def test_rank1_round_trip_all_levels():
    for (p, a, r) in [(3, 1, 1), (2, 1, 2), (3, 1, 2)]:
        cx = ctx(p, a, 2, r)
        tw = cx.tower
        for i in cx.rs.I:
            for k in (1, 2):
                for x in tw.level_members(k)[1:]:
                    f, h, g2 = cx.rank1_constants(i, x)
                    lhs = cx.mat_prod(
                        [cx.sdot(i), cx.eps_simple(i, x), cx.mat_inv(cx.sdot(i))]
                    )
                    rhs = cx.mat_prod(
                        [
                            cx.eps_simple(i, f),
                            cx.sdot(i),
                            cx.coroot(i, h),
                            cx.eps_simple(i, g2),
                        ]
                    )
                    assert lhs == rhs
                    assert f != tw.ZERO and g2 != tw.ZERO
                    # parameters stay in the level of x
                    assert tw.in_level(f, k) and tw.in_level(h, k)
                    assert tw.in_level(g2, k)


def test_rank1_matrix_oracle_sl2_q3_x1():
    # brute-force the 2x2 identity over all candidate triples in F_3
    cx = ctx(3, 1, 1, 1)
    tw = cx.tower
    x = tw.ONE
    lhs = cx.mat_prod([cx.sdot(1), cx.eps_simple(1, x), cx.mat_inv(cx.sdot(1))])
    sols = []
    nonzero = tw.level_members(1)[1:]
    for f in nonzero:
        for h in nonzero:
            for g2 in nonzero:
                rhs = cx.mat_prod(
                    [
                        cx.eps_simple(1, f),
                        cx.sdot(1),
                        cx.coroot(1, h),
                        cx.eps_simple(1, g2),
                    ]
                )
                if rhs == lhs:
                    sols.append((f, h, g2))
    assert sols == [cx.rank1_constants(1, x)]
    minus_one = tw.neg(tw.ONE)
    assert sols[0] == (minus_one, tw.ONE, minus_one)


def test_rank1_rejects_zero():
    cx = ctx(3, 1, 1, 1)
    with pytest.raises(ValueError):
        cx.rank1_constants(1, cx.tower.ZERO)


# (p, N, rank): every nonzero x of the ambient field, so every level
RANK1_GROUPS = [(2, 2, 1), (3, 2, 1), (5, 2, 1), (3, 3, 1), (2, 2, 2), (3, 2, 2), (2, 2, 3)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RANK1_GROUPS), st.data())
def test_rank1_closed_form_matches_scalar_elimination(group, data):
    p, N, rank = group
    cx = ctx(p, 1, N, rank)
    i = data.draw(st.sampled_from(cx.rs.I))
    x = data.draw(st.sampled_from(cx.tower.level_members(N)[1:]))
    assert cx.rank1_constants(i, x) == rank1_oracle(cx, i, x)


# -- enumerations -------------------------------------------------------------

def test_group_orders():
    assert len(ctx(2, 1, 1, 1).enum_G(1)) == 6       # SL_2(F_2)
    assert len(ctx(3, 1, 1, 1).enum_G(1)) == 24      # SL_2(F_3)
    cx = ctx(3, 1, 2, 1)
    assert len(cx.enum_G(2)) == 720                  # SL_2(F_9)
    assert cx.group_order(1) == 24
    cx3 = ctx(2, 1, 2, 2)
    assert cx3.group_order(1) == 168                 # SL_3(F_2)
    assert cx3.group_order(2) == 60480               # SL_3(F_4)
    assert len({g for g in cx3.enum_G(1)}) == 168


def test_subgroup_sizes():
    cx = ctx(2, 1, 2, 2)
    for k in (1, 2):
        qk = cx.tower.level_size(k)
        assert len(cx.enum_U(k)) == qk**cx.rs.n
        assert len(cx.enum_T(k)) == (qk - 1) ** cx.rs.rank
        assert len(cx.enum_B(k)) == (qk - 1) ** cx.rs.rank * qk**cx.rs.n
        assert len(cx.enum_U_w(cx.rs.w0, k)) == len(cx.enum_U(k))
    for w in cx.rs.elements:
        assert len(cx.enum_U_w(w, 1)) == 2 ** w.length
        # Phi_w^+ = Phi_{w0 w}^-
        assert len(cx.enum_U_w(cx.rs.mul(cx.rs.w0, w), 1)) == 2 ** (cx.rs.n - w.length)


def test_parabolic_enumeration():
    cx = ctx(2, 1, 1, 2)
    pj = cx.enum_P({1}, 1)
    assert len(pj) == len(set(pj))
    # |P_J| = |B| * (1 + q)
    assert len(pj) == len(cx.enum_B(1)) * 3
    # closure under multiplication
    sample = pj[:20]
    pjset = set(pj)
    for x in sample:
        for y in sample:
            assert cx.mat_mul(x, y) in pjset
    assert set(cx.enum_P(set(), 1)) == set(cx.enum_B(1))
    assert set(cx.enum_P({1, 2}, 1)) == set(cx.enum_G(1))


def test_center():
    cx = ctx(3, 1, 1, 1)
    cz = cx.center(1)
    assert len(cz) == 2
    tw = cx.tower
    assert cz[0] == cx.identity
    assert cz[1] == cx.torus((tw.neg(tw.ONE), tw.neg(tw.ONE)))
    assert len(ctx(2, 1, 1, 1).center(1)) == 1       # SL_2(F_2): trivial
    assert len(ctx(2, 1, 2, 2).center(2)) == 3       # SL_3(F_4): mu_3
    assert len(ctx(2, 1, 2, 2).center(1)) == 1       # SL_3(F_2)
    # center commutes with everything
    cx = ctx(3, 1, 1, 1)
    for z in cx.center(1):
        for g in cx.enum_G(1):
            assert cx.mat_mul(z, g) == cx.mat_mul(g, z)


def test_budget_guard():
    cx = ctx(3, 1, 3, 1)
    with pytest.raises(BudgetError):
        cx.enum_G(3)  # |SL_2(F_729)| is far beyond 10^6


def test_group_budget_names_limit_and_size(monkeypatch):
    monkeypatch.setattr(chevalley, "GROUP_BUDGET", 23)
    cx = ctx(3, 1, 2, 1)
    with pytest.raises(
        BudgetError, match=r"^G_1 .* GROUP_BUDGET=23, requested 24 elements$"
    ):
        cx.enum_G(1)


def test_parabolic_budget_names_limit_and_size(monkeypatch):
    monkeypatch.setattr(chevalley, "GROUP_BUDGET", 5)
    cx = ctx(3, 1, 2, 1)
    with pytest.raises(
        BudgetError, match=r"^parabolic .* GROUP_BUDGET=5, requested 6 elements$"
    ):
        cx.enum_P(frozenset(), 1)  # the Borel subgroup of SL_2(3)


def test_bruhat_count_identity():
    for (p, r) in [(2, 2), (3, 1)]:
        cx = ctx(p, 1, 2, r)
        for k in (1, 2):
            qk = cx.tower.level_size(k)
            total = sum(qk ** w.length for w in cx.rs.elements)
            expect = len(cx.enum_U(k)) * len(cx.enum_T(k)) * total
            assert cx.group_order(k) == expect
