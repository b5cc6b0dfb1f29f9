"""The numpy kernels: RREF subspaces over F_ell and the batched cell scan.

The echelon tests are properties over small random subspaces, checked
against an independent rank computation.  The scan tests compare the
batched code-matrix product with the object-level `Chevalley` arithmetic
it replaces: products, every hit of a restarted scan, and the club and
gamma memberships of every u in U_{i+1}.
"""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatlab import _backend as kern
from bruhatlab.characters import Characters
from bruhatlab.chevalley import Chevalley
from bruhatlab.extlab import ExtContext
from bruhatlab.fieldtower import build_tower
from bruhatlab.modules import Subspace
from bruhatlab.rootdata import build_A

FS = frozenset()


# -- reduced row echelon form ---------------------------------------------------


def _rank_mod(rows, ell: int) -> int:
    """Rank over F_ell by plain Gaussian elimination on Python ints."""
    mat = [[int(x) % ell for x in row] for row in rows]
    rank, ncols = 0, len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, ell)
        mat[rank] = [x * inv % ell for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % ell for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@st.composite
def subspace_cases(draw):
    """(ell, D, spanning vectors, three probe vectors, two scalars)."""
    ell = draw(st.sampled_from([2, 3, 7]))
    D = draw(st.integers(1, 7))
    vec = st.lists(st.integers(0, ell - 1), min_size=D, max_size=D)
    gens = draw(st.lists(vec, min_size=0, max_size=D + 1))
    x, y, c = draw(vec), draw(vec), draw(vec)
    a, b = draw(st.integers(0, ell - 1)), draw(st.integers(0, ell - 1))
    return ell, D, [np.array(g, dtype=np.int64) for g in gens], (
        np.array(x, dtype=np.int64),
        np.array(y, dtype=np.int64),
        np.array(c, dtype=np.int64),
    ), (a, b)


def _span(ell, D, gens) -> Subspace:
    S = Subspace(D, ell)
    for g in gens:
        S.insert(g)
    return S


def _member(gens, coeffs, ell, D):
    """A vector of span(gens): the combination with the given coefficients."""
    out = np.zeros(D, dtype=np.int64)
    for g, c in zip(gens, coeffs):
        out = (out + int(c) * g) % ell
    return out


@settings(max_examples=300, deadline=None)
@given(subspace_cases())
def test_residue_idempotent_linear_and_constant_on_cosets(case):
    ell, D, gens, (x, y, c), (a, b) = case
    S = _span(ell, D, gens)
    rx, ry = S.residue(x), S.residue(y)
    assert np.array_equal(S.residue(rx), rx)
    assert np.array_equal(S.residue((a * x + b * y) % ell), (a * rx + b * ry) % ell)
    s = _member(gens, c, ell, D)
    assert np.array_equal(S.residue((x + s) % ell), rx)
    assert not S.residue(s).any()


@settings(max_examples=300, deadline=None)
@given(subspace_cases())
def test_rows_are_reduced_row_echelon(case):
    ell, D, gens, _, _ = case
    S = _span(ell, D, gens)
    live = S.pivots()
    assert S.dim == len(live) == _rank_mod(gens, ell)
    for c in range(D):
        row = S.rows[c]
        if c not in live:
            assert not row.any()
            continue
        assert row[c] == 1 and not row[:c].any()
        for other in live:
            if other != c:
                assert row[other] == 0


@settings(max_examples=300, deadline=None)
@given(subspace_cases())
def test_contains_agrees_with_rank(case):
    ell, D, gens, (x, _, c), _ = case
    S = _span(ell, D, gens)
    assert S.contains(x) == (_rank_mod(gens + [x], ell) == _rank_mod(gens, ell))
    assert S.contains(_member(gens, c, ell, D))


@settings(max_examples=300, deadline=None)
@given(subspace_cases())
def test_stacked_residue_equals_row_by_row(case):
    ell, D, gens, (x, y, c), _ = case
    S = _span(ell, D, gens)
    stack = np.array([x, y, c, _member(gens, c, ell, D)])
    expect = np.array([S.residue(row) for row in stack])
    assert np.array_equal(S.residue(stack), expect)
    assert S.contains(stack) == all(S.contains(row) for row in stack)


def test_echelon_py_rank_semantics():
    # rank of a known matrix: rows of identity-like structure
    ell = 7
    D = 5
    rows = np.zeros((D, D), dtype=np.int64)
    have = np.zeros(D, dtype=np.uint8)
    assert kern.echelon_insert(rows, have, np.array([0, 2, 1, 0, 0], dtype=np.int64), ell) == 1
    assert kern.echelon_insert(rows, have, np.array([0, 4, 2, 0, 0], dtype=np.int64), ell) == -1
    assert kern.echelon_insert(rows, have, np.array([3, 0, 0, 0, 1], dtype=np.int64), ell) == 0
    assert int(have.sum()) == 2
    # live rows are normalized with unit pivots and fully reduced
    assert rows[1, 1] == 1 and rows[0, 0] == 1
    assert rows[0, 1] == 0 and rows[1, 0] == 0


def test_int64_bound_is_refused():
    Subspace(4, 2**29)
    with pytest.raises(OverflowError):
        Subspace(4, 2**31)


# -- the batched code-matrix product and the cell scan --------------------------


@lru_cache(maxsize=None)
def chev_for(p, N, rank):
    return Chevalley(build_tower(p, 1, N), build_A(rank))


def _codes(mats) -> np.ndarray:
    return np.array(mats, dtype=np.int64)


@pytest.mark.parametrize("p,N,rank", [(3, 2, 1), (5, 1, 1), (2, 2, 2), (2, 1, 3)])
def test_mat_mul_codes_matches_chevalley(p, N, rank):
    cx = chev_for(p, N, rank)
    tw = cx.tower
    rng = random.Random(p * 100 + rank)
    G = cx.enum_G(1)
    codes = range(tw.Q1 + 1)  # any matrices, zero entries included
    pairs = [(rng.choice(G), rng.choice(G)) for _ in range(100)]
    pairs += [
        (
            tuple(rng.choice(codes) for _ in range(cx.m**2)),
            tuple(rng.choice(codes) for _ in range(cx.m**2)),
        )
        for _ in range(100)
    ]
    A, B = _codes([a for a, _ in pairs]), _codes([b for _, b in pairs])
    got = kern.mat_mul_codes(A, B, cx.m, tw.zech, tw.Q1)
    assert got.shape == A.shape
    for (a, b), row in zip(pairs, got):
        assert tuple(int(c) for c in row) == cx.mat_mul(a, b)
    # a single matrix broadcasts against a batch
    one = kern.mat_mul_codes(A[0], B, cx.m, tw.zech, tw.Q1)
    for b, row in zip(B, one):
        assert tuple(int(c) for c in row) == cx.mat_mul(pairs[0][0], tuple(b))


def _all_hits(cx, P, garr, Q) -> list:
    tw, hits, idx = cx.tower, [], 0
    while True:
        idx = kern.scan_conj_upper(P, garr, Q, cx.m, tw.zech, tw.Q1, idx)
        if idx < 0:
            return hits
        hits.append(idx)
        idx += 1


def _oracle_hits(cx, P, G, Q) -> list:
    return [
        i for i, g in enumerate(G)
        if cx.is_upper_triangular(cx.mat_prod([P, g, Q]))
    ]


@pytest.mark.parametrize("p,N,rank", [(3, 1, 1), (5, 1, 1), (2, 1, 2)])
def test_scan_restarts_find_every_object_level_hit(p, N, rank):
    cx = chev_for(p, N, rank)
    G = cx.enum_G(1)
    garr = _codes(G)
    rng = random.Random(7 + p)
    cases = [(cx.wdot(cx.rs.s(1)), cx.identity)]
    cases += [(rng.choice(G), rng.choice(G)) for _ in range(4)]
    for P, Q in cases:
        assert _all_hits(cx, _codes(P), garr, _codes(Q)) == _oracle_hits(cx, P, G, Q)
    # |w0 cell meets upper| = |B|
    P = cx.wdot(cx.rs.w0)
    assert len(_all_hits(cx, _codes(P), garr, _codes(cx.identity))) == len(
        cx.enum_B(1)
    )


def test_scan_first_hit_past_first_chunk(monkeypatch):
    monkeypatch.setattr(kern, "SCAN_CHUNK", 8)
    cx = chev_for(5, 1, 1)
    G = cx.enum_G(1)
    garr = _codes(G)
    late = None
    for P in G:
        expect = _oracle_hits(cx, P, G, cx.identity)
        if expect and expect[0] >= 2 * kern.SCAN_CHUNK:
            late = (P, expect)
            break
    assert late is not None, "no conjugator puts its first hit past two chunks"
    P, expect = late
    P, Q = _codes(P), _codes(cx.identity)
    assert kern.scan_conj_upper(P, garr, Q, cx.m, cx.tower.zech, cx.tower.Q1) == expect[0]
    assert _all_hits(cx, P, garr, Q) == expect


@pytest.mark.parametrize(
    "p,rank,lam", [(3, 1, (1,)), (5, 1, (1,)), (2, 2, (1, 1))]
)
def test_club_and_gamma_match_object_level_oracle(p, rank, lam):
    cx = chev_for(p, 2, rank)
    ctx = ExtContext(Characters(cx), lam, lam, FS, FS, 1)
    central = set(cx.center(1))
    G = [g for g in cx.enum_G(1) if g not in central]

    def conj_hit(P, Q) -> bool:
        return any(cx.is_upper_triangular(cx.mat_prod([P, g, Q])) for g in G)

    gamma_oracle = []
    for u in ctx.U_list:
        uw0 = cx.mat_mul(u, ctx.w0dot)
        P = cx.mat_inv(uw0)
        club = not any(
            conj_hit(P, cx.mat_mul(u, cx.wdot(w))) for w in ctx.rs.elements
        )
        assert ctx.claim_club(u) == club
        hit = conj_hit(P, uw0)
        assert ctx.gamma_hit(u) == hit
        if hit:
            gamma_oracle.append(u)
    gamma = set(gamma_oracle)
    assert ctx.gamma_set() == [u for u in ctx.omega_set() if u in gamma]
