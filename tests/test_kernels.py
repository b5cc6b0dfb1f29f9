"""The numpy kernels: RREF subspaces over F_ell and the batched cell scan.

The echelon tests are properties over small random subspaces, checked
against an independent rank computation.  The table-driven code arithmetic
is compared with the tower's scalar ops on every pair of codes.  The scan
tests compare the batched code-matrix product with the object-level
`Chevalley` arithmetic it replaces: products, every hit of a restarted
scan, and the club and gamma memberships of every u in U_{i+1}.
"""

import itertools
import math
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatlab import _backend as kern
from bruhatlab import modules
from bruhatlab.characters import Characters
from bruhatlab.chevalley import Chevalley
from bruhatlab.extlab import ExtContext
from bruhatlab.fieldtower import build_tower
from bruhatlab.modules import Subspace
from bruhatlab.rootdata import build_A
from oracles import is_upper_triangular, pivots

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
    live = pivots(S)
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


def _extend_matches_insert(ell, D, base, stack) -> list:
    """extend on a span of base gives the rows, pivot flags and pivots of
    inserting the stack one row at a time; returns those pivots."""
    by_row, stacked = _span(ell, D, base), _span(ell, D, base)
    want = [by_row.insert(row) for row in stack]
    got = stacked.extend(stack)
    assert got.dtype == np.int64 and got.tolist() == want
    assert np.array_equal(stacked.rows, by_row.rows)
    assert np.array_equal(stacked.have, by_row.have)
    return want


@pytest.mark.parametrize("ell, D, seed", [(2, 6, 0), (7, 5, 1), (11, 9, 2)])
def test_extend_equals_row_by_row_insert(ell, D, seed):
    # random rows, then a combination of two of them, a repeated row given
    # unreduced, and the zero row; into an empty and a nonempty subspace
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, ell, size=(D - 2, D))
    stack = np.vstack([
        rows,
        (3 * rows[0] + rows[1]) % ell,
        rows[2] + ell,
        np.zeros((1, D), dtype=np.int64),
    ])
    assert _extend_matches_insert(ell, D, [], stack).count(-1) >= 3
    _extend_matches_insert(ell, D, list(rows[:2]), stack)
    # the empty stack inserts nothing
    S = _span(ell, D, list(rows))
    rows_before, have_before = S.rows.copy(), S.have.copy()
    piv = S.extend(np.zeros((0, D), dtype=np.int64))
    assert piv.shape == (0,) and piv.dtype == np.int64
    assert np.array_equal(S.rows, rows_before)
    assert np.array_equal(S.have, have_before)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_extend_in_chunks_equals_row_by_row_insert(monkeypatch, chunk):
    # stacks longer than one stacked residue: a row made dependent by an
    # insert of its own chunk, or of an earlier one, gets the same -1
    monkeypatch.setattr(modules, "EXTEND_ROWS", chunk)
    for ell, D, seed in [(2, 6, 0), (7, 5, 1), (11, 9, 2)]:
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, ell, size=(D + 3, D))
        stack = np.vstack([rows, (2 * rows[0] + rows[-1]) % ell, rows[:3]])
        _extend_matches_insert(ell, D, [], stack)
        _extend_matches_insert(ell, D, list(rows[:2]), stack)


@settings(max_examples=200, deadline=None)
@given(subspace_cases())
def test_extend_equals_row_by_row_insert_property(case):
    ell, D, gens, (x, y, _), _ = case
    half = len(gens) // 2
    stack = gens[half:] + [x, y, x, (x + y) % ell, np.zeros(D, dtype=np.int64)]
    _extend_matches_insert(ell, D, gens[:half], np.array(stack))


@settings(max_examples=60, deadline=None)
@given(st.integers(2**20, 2**26), st.integers(0, 2**32 - 1))
def test_residue_matmul_is_exact_on_both_sides_of_the_float_bound(ell, seed):
    # k is the largest inner size with k (ell-1)^2 < 2^53, where the float64
    # product of a large enough stack must equal the int64 one; one more
    # term must take the int64 path.  Which path ran shows on a probe entry
    # of 2^53 + 1, outside the residue range: int64 keeps it, float64 rounds
    rng = np.random.default_rng(seed)
    below = (2**53 - 1) // (ell - 1) ** 2
    side = math.isqrt(kern.FLOAT_MATMUL_WORK // below) + 1
    for k, float_path in ((below, True), (below + 1, False)):
        a = rng.integers(0, ell, (side, k))
        b = rng.integers(0, ell, (k, side))
        a[0], b[:, 0] = ell - 1, ell - 1  # the largest sum of all
        got = kern.residue_matmul(a, b, ell)
        assert got.dtype == np.int64
        assert np.array_equal(got, a @ b)
        assert got[0, 0] == k * (ell - 1) ** 2
        probe = np.zeros_like(a)
        probe[0, 0] = 2**53 + 1
        unit = np.zeros_like(b)
        unit[0, 0] = 1
        kept = kern.residue_matmul(probe, unit, ell)[0, 0] == 2**53 + 1
        assert kept != float_path


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


# (p, a, N) of towers with Q1 = 1, 2, 3, 8, 63 and 120
ARITH_TOWERS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 1, 2), (2, 1, 3), (11, 1, 2)]


@pytest.mark.parametrize("p,a,N", ARITH_TOWERS)
def test_code_arithmetic_matches_scalar_ops_on_every_pair(p, a, N):
    tw = build_tower(p, a, N)
    codes = np.arange(tw.Q1 + 1)  # zero (code Q1) included
    A, B = codes[:, None], codes[None, :]
    prod = kern._code_mul(A, B, tw.zech, tw.Q1)
    summ = kern._code_add(A, B, tw.zech, tw.Q1)
    assert prod.shape == summ.shape == (tw.Q, tw.Q)
    for x in range(tw.Q):
        assert prod[x].tolist() == [tw.mul(x, y) for y in range(tw.Q)]
        assert summ[x].tolist() == [tw.add(x, y) for y in range(tw.Q)]
    # the sums that vanish: x + (-x), which in char 2 is 1 + 1 (zech[0]
    # marks it), and zero + zero
    Z = tw.ZERO
    assert summ[Z, Z] == Z
    for x in range(tw.Q1):
        assert summ[x, tw.neg(x)] == Z
    if p == 2:
        assert tw.zech[0] == Z and summ[tw.ONE, tw.ONE] == Z


@pytest.mark.parametrize("p,a,N", ARITH_TOWERS + [(3, 1, 3)])
def test_code_tables_are_linear_in_the_field_size(p, a, N):
    tw = build_tower(p, a, N)
    red, shift, enc = kern._code_tables(tw.zech, tw.Q1)
    assert red.shape == shift.shape == (4 * tw.Q1 + 1,)
    assert enc.shape == (tw.Q,)
    assert red.size + shift.size + enc.size <= 9 * tw.Q
    # memoized on the identity of the (read-only) zech table
    again = kern._code_tables(tw.zech, tw.Q1)
    assert all(t is u for t, u in zip(again, (red, shift, enc)))


@pytest.mark.parametrize(
    "p,N,rank", [(3, 2, 1), (5, 1, 1), (2, 2, 2), (2, 1, 3), (11, 2, 1), (3, 3, 1)]
)
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


def _all_hits(cx, P, garr, Q, permuted=False) -> list:
    """Every hit, each scan restarted past the last on the rest of garr."""
    tw, hits, start = cx.tower, [], 0
    while True:
        idx = kern.scan_conj_upper(
            P, garr[start:], Q, cx.m, tw.zech, tw.Q1, permuted=permuted
        )
        if idx < 0:
            return hits
        hits.append(start + idx)
        start += idx + 1


def _oracle_hits(cx, P, G, Q) -> list:
    return [
        i for i, g in enumerate(G)
        if is_upper_triangular(cx, cx.mat_prod([P, g, Q]))
    ]


def _permuted_oracle(cx, P, g, Q) -> bool:
    """Some w in W makes P.g.Q.wdot(w) upper triangular."""
    return any(
        is_upper_triangular(cx, cx.mat_prod([P, g, Q, cx.wdot(w)]))
        for w in cx.rs.elements
    )


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pattern_tables_match_brute_force(m):
    # every zero pattern z of an m x m matrix, bit a*m + b set when entry
    # (a, b) is zero: in_B asks for every below-diagonal bit, in_BN for some
    # column order leaving an upper triangular pattern with nonzero diagonal
    bit, in_B, in_BN = kern._pattern_tables(m)
    assert bit.tolist() == [2**j for j in range(m * m)]
    z = np.arange(2 ** (m * m))
    zero = [[(z >> (a * m + b)) & 1 == 1 for b in range(m)] for a in range(m)]
    below = np.ones(z.size, dtype=bool)
    for a, b in itertools.combinations(range(m), 2):
        below &= zero[b][a]
    assert np.array_equal(in_B, below)
    some = np.zeros(z.size, dtype=bool)
    for perm in itertools.permutations(range(m)):
        # column j of the reordered pattern is column perm[j]
        ok = np.ones(z.size, dtype=bool)
        for a in range(m):
            for j in range(a + 1):
                ok &= ~zero[a][perm[j]] if a == j else zero[a][perm[j]]
        some |= ok
    assert np.array_equal(in_BN, some)
    # one upper triangular pattern per free entry choice, and per column
    # order for in_BN
    free = 2 ** (m * (m - 1) // 2)
    assert in_B.sum() == 2**m * free
    assert in_BN.sum() == math.factorial(m) * free


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


def test_permuted_scan_first_hit_past_first_chunk(monkeypatch):
    monkeypatch.setattr(kern, "SCAN_CHUNK", 8)
    cx = chev_for(5, 1, 1)
    G = cx.enum_G(1)
    P, Q = G[7], G[-3]
    hits = [g for g in G if _permuted_oracle(cx, P, g, Q)]
    misses = [g for g in G if g not in hits]
    # twenty misses first, so the first hit lies in the third chunk
    garr = _codes(misses[:20] + hits + misses[20:])
    expect = list(range(20, 20 + len(hits)))
    assert hits and len(misses) > 20
    P, Q = _codes(P), _codes(Q)
    tw = cx.tower
    assert kern.scan_conj_upper(P, garr, Q, cx.m, tw.zech, tw.Q1, permuted=True) == 20
    assert _all_hits(cx, P, garr, Q, permuted=True) == expect


@pytest.mark.parametrize("permuted", [False, True])
def test_growing_chunks_find_the_first_hit(monkeypatch, permuted):
    # SCAN_CHUNK = 8 gives chunks of 1, 2, 4, 8, 8, ... rows from the first
    # row scanned; a scan from `start` scans garr[start:], and from 0 the
    # boundaries are 1, 3, 7, 15, 23, 31, 39
    monkeypatch.setattr(kern, "SCAN_CHUNK", 8)
    cx = chev_for(5, 1, 1)
    tw, G = cx.tower, cx.enum_G(1)
    P, Q = G[7], G[-3]

    def hit(g) -> bool:
        if permuted:
            return _permuted_oracle(cx, P, g, Q)
        return is_upper_triangular(cx, cx.mat_prod([P, g, Q]))

    hits = [g for g in G if hit(g)]
    misses = [g for g in G if not hit(g)]
    assert len(hits) > 1 and len(misses) >= 40
    # the first hit at 0, just before a boundary (2, 6), on one (3, 7),
    # past several (30), or nowhere; a second hit later at 36
    for first in (0, 2, 3, 6, 7, 30, None):
        rows = misses[:40]
        for pos, g in ((first, hits[0]), (36, hits[1])):
            if pos is not None:
                rows[pos] = g
        garr = _codes(rows)
        for start in (0, 1, 4, 31, 37):
            expect = next(
                (i for i in range(start, len(rows)) if hit(rows[i])), -1
            )
            got = kern.scan_conj_upper(
                _codes(P), garr[start:], _codes(Q), cx.m, tw.zech, tw.Q1,
                permuted=permuted,
            )
            assert (start + got if got >= 0 else -1) == expect, (first, start)
    only_misses = _codes(misses[:40])
    assert kern.scan_conj_upper(
        _codes(P), only_misses, _codes(Q), cx.m, tw.zech, tw.Q1,
        permuted=permuted,
    ) == -1


# (p, N, rank, level k); each draw is either a hit built as P^-1.b.wdot(w).u^-1
# for b in B_k, or any g = b.wdot(w).b' of G_k (each Bruhat cell reached)
PERMUTED_GROUPS = [(3, 2, 1, 1), (3, 2, 1, 2), (2, 2, 2, 1), (2, 2, 2, 2), (2, 1, 3, 1)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PERMUTED_GROUPS), st.booleans(), st.data())
def test_permuted_scan_is_some_w_upper_triangular(group, built_hit, data):
    p, N, rank, k = group
    cx = chev_for(p, N, rank)
    B, U = cx.enum_B(k), cx.enum_U(k)
    pick = lambda xs: data.draw(st.sampled_from(xs))
    wd = lambda: cx.wdot(pick(cx.rs.elements))
    u = pick(U)
    P = cx.mat_inv(cx.mat_mul(u, cx.wdot(cx.rs.w0)))
    if built_hit:
        g = cx.mat_prod([cx.mat_inv(P), pick(B), wd(), cx.mat_inv(u)])
    else:
        g = cx.mat_prod([pick(B), wd(), pick(B)])
    tw = cx.tower
    got = kern.scan_conj_upper(
        _codes(P), _codes([g]), _codes(u), cx.m, tw.zech, tw.Q1, permuted=True
    )
    assert got in (0, -1)
    assert (got == 0) == _permuted_oracle(cx, P, g, u)
    if built_hit:
        assert got == 0


@pytest.mark.parametrize(
    "p,rank,lam", [(3, 1, (1,)), (5, 1, (1,)), (2, 2, (1, 1))]
)
def test_club_and_gamma_match_object_level_oracle(p, rank, lam):
    cx = chev_for(p, 2, rank)
    ctx = ExtContext(Characters(cx), lam, lam, FS, FS, 1)
    central = set(cx.center(1))
    G = [g for g in cx.enum_G(1) if g not in central]

    def conj_hit(P, Q) -> bool:
        return any(is_upper_triangular(cx, cx.mat_prod([P, g, Q])) for g in G)

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
