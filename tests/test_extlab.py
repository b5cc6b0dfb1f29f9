"""Extension-lab tests: censuses, probes, the two-step gluing map, splitter.

Expected values fall in two classes: hand-derived counts (rank-1 censuses,
where the omega and gamma sets reduce to field arithmetic) and frozen
first-run outputs re-checked for internal identities (bounds, factorizations,
partition flags).  Census dicts are compared whole so a silent format drift
fails loudly.
"""

import json
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatlab import cli, extlab
from bruhatlab.characters import Characters
from bruhatlab.chevalley import Chevalley
from bruhatlab.extlab import (
    ExtContext,
    SynthExtension,
    central_split,
    least_central_witness,
    nullspace_coeffs,
    split_blocks,
    subspace_intersection,
)
from bruhatlab.fieldtower import BudgetError, build_tower
from bruhatlab.modules import (
    DirectSum,
    ModuleContext,
    Subspace,
    level_generators,
    spin_closure,
)
from bruhatlab.rootdata import build_A
from oracles import (
    act_key,
    bruhat_form,
    from_dense,
    pivots,
    tagged_nullspace_coeffs,
    to_dense,
    untwisted_extension,
)

FS = frozenset()


@lru_cache(maxsize=None)
def chars_for(p, a, N, rank):
    return Characters(Chevalley(build_tower(p, a, N), build_A(rank)))


@lru_cache(maxsize=None)
def ext_for(p, a, N, rank, lam, mu, i):
    ch = chars_for(p, a, N, rank)
    return ExtContext(ch, lam, mu, FS, FS, i)


# -- linear-algebra helpers ---------------------------------------------------


def test_augmented_solver_consistency():
    # a subspace whose pivots all lie in the leading columns is the graph of
    # the map v -> w, read off a vector shorter than its rows
    ell = 7
    v1, w1 = np.array([1, 2, 0]), np.array([1, 0])
    v2, w2 = np.array([0, 1, 1]), np.array([0, 1])
    g = Subspace(5, ell)
    g.insert(np.concatenate([v1, w1]))
    g.insert(np.concatenate([v2, w2]))
    assert pivots(g) == [0, 1]
    assert np.array_equal(g.apply((3 * v1 + v2) % ell), (3 * w1 + w2) % ell)
    # a (k, n) stack maps row by row, and is None if any row is outside
    stack = np.array([(3 * v1 + v2) % ell, v2])
    assert np.array_equal(g.apply(stack), np.array([(3 * w1 + w2) % ell, w2]))
    assert g.apply(np.array([0, 0, 1])) is None
    assert g.apply(np.array([v1, [0, 0, 1]])) is None


def test_nullspace_coeffs_kills_rows():
    ell = 7
    rows = [
        np.array([1, 2, 3]),
        np.array([2, 4, 6]),  # 2 * row0
        np.array([0, 1, 1]),
        np.array([1, 3, 4]),  # row0 + row2
    ]
    coeffs = nullspace_coeffs(rows, ell)
    assert len(coeffs) == 2  # 4 rows, rank 2
    span = Subspace(4, ell)
    for c in coeffs:
        combo = sum(int(ci) * rows[j] for j, ci in enumerate(c)) % ell
        assert not combo.any()
        span.insert(c)
    assert span.dim == 2


def _span_of(vectors, n: int, ell: int) -> Subspace:
    span = Subspace(n, ell)
    span.extend(np.array(vectors, dtype=np.int64).reshape(len(vectors), n))
    return span


def _same_kernel(rows, ell):
    """The RREF kernel has the tagged oracle's span, and kills every row."""
    rows = np.array(rows, dtype=np.int64)
    n = len(rows)
    got = nullspace_coeffs(rows, ell)
    want = tagged_nullspace_coeffs(list(rows), ell)
    assert got.shape == (len(want), n)
    assert not (got @ rows % ell).any()
    a, b = _span_of(got, n, ell), _span_of(want, n, ell)
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.have, b.have)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 7, 13]),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 2**32 - 1),
)
def test_nullspace_coeffs_matches_tagged_oracle(ell, n, D, seed):
    # random rows of low rank (products of thin factors), with a zero row,
    # a repeated row and full rank among the cases; n = 0 is no rows and
    # D = 0 zero width, where every coefficient vector is in the kernel
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, min(n, D) + 1))
    rows = rng.integers(0, ell, (n, rank)) @ rng.integers(0, ell, (rank, D)) % ell
    if n >= 2:
        rows[0] = 0
        rows[-1] = rows[1]
    _same_kernel(rows, ell)
    # an identity block has full rank: the kernel is zero
    _same_kernel(np.eye(D, dtype=np.int64), ell)


@pytest.mark.parametrize("config", [
    (3, 1, (1,), (1,), FS, FS),
    (3, 1, (0,), (0,), frozenset({1}), frozenset({1})),
    (2, 2, (0, 0), (0, 0), frozenset({1}), frozenset({1})),
    (2, 2, (0, 0), (0, 0), frozenset({1, 2}), frozenset({1, 2})),
])
def test_probe_fixed_space_matches_tagged_oracle(monkeypatch, config):
    # on the probe digest grid: every kernel of twisted_probe (its fixed
    # vectors and its meet) spans what the tagged oracle spans, so the fixed
    # spaces agree, and the probe with the oracle in place reports the same
    p, rank, lam, mu, J, K = config
    ch = chars_for(p, 1, 2, rank)
    kernels = []
    real = extlab.nullspace_coeffs

    def recorded(rows, ell):
        kernels.append((np.array(rows), ell))
        return real(rows, ell)

    monkeypatch.setattr(extlab, "nullspace_coeffs", recorded)
    ctx = ExtContext(ch, lam, mu, J, K, 1)
    u = ctx.choose_u()[0]
    report = ctx.twisted_probe(u)
    assert len(kernels) == 2
    for rows, ell in kernels:
        _same_kernel(rows, ell)
    monkeypatch.setattr(
        extlab, "nullspace_coeffs",
        lambda rows, ell: np.array(
            tagged_nullspace_coeffs(list(rows), ell), dtype=np.int64
        ).reshape(-1, len(rows)),
    )
    assert ExtContext(ch, lam, mu, J, K, 1).twisted_probe(u) == report


def test_subspace_intersection_planes():
    ell = 7
    A = Subspace(3, ell)
    A.insert(np.array([1, 0, 0]))
    A.insert(np.array([0, 1, 0]))
    B = Subspace(3, ell)
    B.insert(np.array([0, 1, 0]))
    B.insert(np.array([0, 0, 1]))
    meet = subspace_intersection(A, B)
    assert meet.dim == 1
    line = meet.basis_matrix()[0]
    assert A.contains(line) and B.contains(line)


# -- context validation -------------------------------------------------------


def test_context_rejects_bad_inputs():
    ch = chars_for(3, 1, 2, 1)
    with pytest.raises(ValueError):
        ExtContext(ch, (1,), (1,), frozenset({1}), FS, 1)  # J not inside I(lambda)
    with pytest.raises(ValueError):
        ExtContext(ch, (0,), (1,), FS, frozenset({1}), 1)  # K not inside I(mu)
    with pytest.raises(ValueError):
        ExtContext(ch, (1,), (1,), FS, FS, 2)  # level 3 exceeds the tower


def test_unipotent_budget_guard():
    ch = chars_for(3, 1, 3, 2)
    with pytest.raises(BudgetError):
        ExtContext(ch, (1, 1), (1, 1), FS, FS, 2)  # 729^3 cells


def test_unipotent_budget_names_limit_and_size(monkeypatch):
    monkeypatch.setattr(extlab, "UNIPOTENT_BUDGET", 8)
    with pytest.raises(
        BudgetError, match=r"^U_2 .* UNIPOTENT_BUDGET=8, requested 9 elements$"
    ):
        ExtContext(chars_for(3, 1, 2, 1), (1,), (1,), FS, FS, 1)


def test_scan_budgets_fail_before_any_scan(monkeypatch):
    ctx = ExtContext(chars_for(3, 1, 2, 1), (1,), (1,), FS, FS, 1)
    ctx.omega_set()

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned past the budget")

    monkeypatch.setattr(extlab.kern, "scan_conj_upper", no_scan)
    monkeypatch.setattr(extlab, "SCAN_BUDGET", 10)
    # 6 u of omega times the 22 noncentral elements of SL_2(3); the club is
    # one scan of the 22
    with pytest.raises(
        BudgetError, match=r"gamma scan .* SCAN_BUDGET=10, requested 132 "
    ):
        ctx.gamma_set()
    with pytest.raises(
        BudgetError, match=r"club scan .* SCAN_BUDGET=10, requested 22 "
    ):
        ctx.claim_club(ctx.U_list[-1])


# -- frozen censuses ----------------------------------------------------------

CENSUS_A1_I1 = {
    "context": {
        "lambda": [1],
        "mu": [1],
        "J": [],
        "K": [],
        "level": 1,
        "q_tilde": 9,
        "ell": 17,
    },
    "per_w": [
        {
            "word": [],
            "length": 0,
            "omega_w": 9,
            "omega_prime_w": 0,
            "bound": "1/27",
            "bound_ok": True,
            "factorization_ok": True,
        },
        {
            "word": [1],
            "length": 1,
            "omega_w": 8,
            "omega_prime_w": 1,
            "bound": "1",
            "bound_ok": True,
            "factorization_ok": True,
        },
    ],
    "P": "4/3",
    "omega_size": 6,
    "omega_disjoint_from_level_i": True,
    "gamma_size": 6,
    "omega_minus_gamma_size": 0,
    "gamma_cell_e_empty": True,
    "club_true_count": 0,
    "xi_nonzero_count": 6,
    "club_implies_xi_nonzero": True,
    "num_h_classes": 3,
    "h_partition_ok": True,
    "h_class_lower_bound": 1,
    "h_class_lower_bound_ok": True,
    "ok": True,
}


def test_census_rank1_level1_frozen():
    # hand check: omega is the 6 field elements outside the prime field, and
    # every one of them is conjugated into the Borel by some noncentral g
    cen = ext_for(3, 1, 2, 1, (1,), (1,), 1).census()
    assert cen == CENSUS_A1_I1


def test_census_rank1_level2_frozen():
    # level 2 flips the picture: gamma is empty (no element of the middle
    # field gives a quadratic witness over it) and the club holds everywhere
    cen = ext_for(3, 1, 3, 1, (1,), (1,), 2).census()
    assert cen["context"]["q_tilde"] == 729
    assert cen["context"]["ell"] == 6553
    assert [r["omega_w"] for r in cen["per_w"]] == [729, 728]
    assert [r["omega_prime_w"] for r in cen["per_w"]] == [0, 1]
    assert [r["bound"] for r in cen["per_w"]] == ["1/2187", "1"]
    assert cen["P"] == "4/3"
    assert cen["omega_size"] == 720
    assert cen["gamma_size"] == 0
    assert cen["omega_minus_gamma_size"] == 720
    assert cen["club_true_count"] == 720
    assert cen["xi_nonzero_count"] == 720
    assert cen["club_implies_xi_nonzero"] is True
    assert cen["gamma_cell_e_empty"] is True
    assert cen["num_h_classes"] == 21
    assert cen["h_class_lower_bound"] == 10
    assert cen["ok"] is True


CENSUS_A2_PER_W = [
    ([], 0, 64, 0, "1/12"),
    ([1], 1, 48, 1, "1"),
    ([2], 1, 48, 1, "1"),
    ([1, 2], 2, 36, 7, "12"),
    ([2, 1], 2, 36, 7, "12"),
    ([1, 2, 1], 3, 39, 25, "144"),
]


def test_census_rank2_frozen():
    cen = ext_for(2, 1, 2, 2, (1, 1), (1, 1), 1).census()
    got = [
        (r["word"], r["length"], r["omega_w"], r["omega_prime_w"], r["bound"])
        for r in cen["per_w"]
    ]
    assert got == CENSUS_A2_PER_W
    assert all(r["bound_ok"] and r["factorization_ok"] for r in cen["per_w"])
    assert cen["P"] == "52/3"
    assert cen["omega_size"] == 0
    assert cen["gamma_size"] == 0
    assert cen["club_true_count"] == 0
    assert cen["xi_nonzero_count"] == 0
    assert cen["num_h_classes"] == 8
    assert cen["h_class_lower_bound"] == 8
    assert cen["ok"] is True


@pytest.mark.parametrize("jobs", [1, 2])
def test_census_names_first_failing_u(monkeypatch, jobs):
    # no u of this census has the club, so the failure is forced: the club
    # holds from the third u of omega on, and xi is reported zero throughout
    ch = chars_for(3, 1, 2, 1)
    passing = ExtContext(ch, (1,), (1,), FS, FS, 1).census(jobs=jobs)
    assert "first_failing_u" not in passing
    ctx = ExtContext(ch, (1,), (1,), FS, FS, 1)
    later = set(ctx.omega_set()[2:])
    monkeypatch.setattr(ExtContext, "claim_club", lambda self, u: u in later)
    monkeypatch.setattr(
        ExtContext, "xi", lambda self, u, check_eigen=True: {"xi_nonzero": False}
    )
    cen = ctx.census(jobs=jobs)
    assert cen["club_implies_xi_nonzero"] is False and cen["ok"] is False
    assert cen["club_true_count"] == 4 and cen["xi_nonzero_count"] == 0
    assert cen["first_failing_u"] == ctx.u_serial(ctx.omega_set()[2]) == [4]
    del cen["first_failing_u"]
    assert set(cen) == set(passing)


@pytest.mark.parametrize("jobs", [1, 2])
def test_census_that_raises_leaves_no_work_slot(monkeypatch, jobs):
    # the slot a forked map reads holds the mapped function only while its
    # pool runs, so a worker that raises does not keep the context alive
    ctx = ExtContext(chars_for(3, 1, 2, 1), (1,), (1,), FS, FS, 1)

    def failing_xi(self, u, check_eigen=True):
        raise RuntimeError("xi failed")

    monkeypatch.setattr(ExtContext, "xi", failing_xi)
    with pytest.raises(RuntimeError, match="xi failed"):
        ctx.census(jobs=jobs)
    assert extlab._WORK is None


def test_census_jobs_parity():
    ch = chars_for(3, 1, 2, 1)
    serial = ExtContext(ch, (1,), (1,), FS, FS, 1).census(jobs=1)
    forked = ExtContext(ch, (1,), (1,), FS, FS, 1).census(jobs=8)
    assert json.dumps(serial, sort_keys=True) == json.dumps(forked, sort_keys=True)


# -- set machinery details ----------------------------------------------------


def test_identity_cell_absorbed():
    for ctx in (
        ext_for(3, 1, 2, 1, (1,), (1,), 1),
        ext_for(2, 1, 2, 2, (1, 1), (1, 1), 1),
    ):
        e = ctx.rs.elements[0]
        assert e.length == 0
        om, omp = ctx.omega_w(e)
        assert len(om) == len(ctx.U_list) and omp == []


def test_h_sets_contain_their_element():
    ctx = ext_for(3, 1, 2, 1, (1,), (1,), 1)
    for u in ctx.U_list:
        H = ctx.h_set(u)
        assert u in H
        # built once per class: every member shares the object
        assert all(ctx.h_set(v) is H for v in H)


@pytest.mark.parametrize("p,rank,lam", [(3, 1, (1,)), (7, 1, (1,)), (3, 2, (1, 1))])
def test_h_set_matches_object_level_loop(p, rank, lam):
    ctx = ext_for(p, 1, 2, rank, lam, lam, 1)
    cx = ctx.chev
    for u in ctx.U_list[::7]:
        expect = {
            cx.mat_mul(x, cx.mat_prod([t, u, cx.mat_inv(t)]))
            for t in cx.enum_T(1)
            for x in cx.enum_U(1)
        }
        assert ctx.h_set(u) == expect


@pytest.mark.parametrize(
    "p, N, i, classes", [(5, 2, 1, 3), (7, 2, 1, 3), (3, 3, 2, 21)]
)
def test_h_classes_partition_the_unipotents(p, N, i, classes):
    # tori with t != t^-1, where a wrong conjugation t.u.t still gives
    # disjoint sets, but ones that leave U_{i+1}
    ctx = ExtContext(chars_for(p, 1, N, 1), (1,), (1,), FS, FS, i)
    rep = ctx.h_partition_report()
    assert rep["h_partition_ok"]
    assert rep["num_h_classes"] == classes
    U = set(ctx.U_list)
    assert all(ctx.h_set(u) <= U for u in U)


def test_h_partition_flags_overlapping_classes(monkeypatch):
    ctx = ext_for(3, 1, 2, 1, (1,), (1,), 1)
    assert ctx.h_partition_report()["h_partition_ok"]
    # two classes, {first} and the other u plus first, that share first
    first = ctx.U_list[0]
    monkeypatch.setattr(
        ExtContext,
        "h_set",
        lambda self, u: frozenset({u, first}) if u == first
        else frozenset(set(self.U_list[1:]) | {first}),
    )
    rep = ctx.h_partition_report()
    assert rep["num_h_classes"] == 2 and rep["h_partition_ok"] is False


def test_omega_avoids_lower_level():
    ctx = ext_for(3, 1, 2, 1, (1,), (1,), 1)
    low = set(ctx.chev.enum_U(1))
    omega = ctx.omega_set()
    assert omega and not (set(omega) & low)
    # the six survivors are exactly the unipotents with entry outside F_3
    assert sorted(ctx.u_serial(u)[0] for u in omega) == [2, 3, 4, 6, 7, 8]


def test_noncentral_pool_excludes_center():
    ctx = ext_for(3, 1, 2, 1, (1,), (1,), 1)
    rows = ctx._noncentral_level_i()
    central = set(ctx.chev.center(1))
    assert len(rows) == len(ctx.chev.enum_G(1)) - len(central)
    assert not any(tuple(int(c) for c in row) in central for row in rows)


def test_gamma_matches_longest_word_branch_of_club():
    # gamma asks for h = u^-1.g.u in B^-, the w = w0 coset of the club's
    # B^-.N: the unpermuted scan with Q = u.wdot(w0) decides gamma, and
    # every u of gamma fails the club
    for ctx, expect_hit in (
        (ext_for(3, 1, 2, 1, (1,), (1,), 1), True),
        (ext_for(3, 1, 3, 1, (1,), (1,), 2), False),
    ):
        gamma = set(ctx.gamma_set())
        garr = ctx._noncentral_level_i()
        cx, tw = ctx.chev, ctx.tower
        sample = ctx.omega_set()[:4] + ctx.omega_set()[-4:]
        for u in sample:
            uw0 = cx.mat_mul(u, ctx.w0dot)
            P, Q = np.array(cx.mat_inv(uw0)), np.array(uw0)
            hit = extlab.kern.scan_conj_upper(P, garr, Q, cx.m, tw.zech, tw.Q1) >= 0
            assert hit == (u in gamma) == expect_hit
        assert not any(ctx.claim_club(u) for u in gamma)


def test_membership_scans_once_per_h_class(monkeypatch):
    # gamma_hit and claim_club memoize on the shared h-class: over all of
    # U_list, one plain and one permuted scan per class
    ctx = ExtContext(chars_for(3, 1, 3, 1), (1,), (1,), FS, FS, 2)
    classes = {id(ctx.h_set(u)) for u in ctx.U_list}
    calls = []
    scan = extlab.kern.scan_conj_upper

    def counted(*args, **kwargs):
        calls.append(kwargs.get("permuted", False))
        return scan(*args, **kwargs)

    monkeypatch.setattr(extlab.kern, "scan_conj_upper", counted)
    clubs = [ctx.claim_club(u) for u in ctx.U_list]
    hits = [ctx.gamma_hit(u) for u in ctx.U_list]
    assert calls.count(True) == len(classes) and calls.count(False) == len(classes)
    assert len(classes) < len(ctx.U_list)
    assert True in clubs and False in clubs
    assert True in hits and False in hits


@pytest.mark.parametrize(
    "p, N, rank, lam, mu, J, K, i",
    [
        (3, 3, 1, (1,), (1,), (), (), 2),
        (2, 2, 2, (0, 0), (0, 0), (1,), (2,), 1),
    ],
)
def test_memoized_verdicts_match_direct_scans(p, N, rank, lam, mu, J, K, i):
    # the per-class memo against a direct scan of every u; the direct
    # verdicts are constant on each h-class
    ctx = ExtContext(chars_for(p, 1, N, rank), lam, mu, frozenset(J), frozenset(K), i)
    garr = ctx._noncentral_level_i()
    by_class: dict = {}
    for u in ctx.U_list:
        gamma = ctx._scan_hit(u, garr) >= 0
        club = ctx._scan_hit(u, garr, permuted=True) < 0
        assert (ctx.gamma_hit(u), ctx.claim_club(u)) == (gamma, club)
        by_class.setdefault(ctx.h_set(u), set()).add((gamma, club))
    assert all(len(v) == 1 for v in by_class.values())
    assert len(by_class) > 1
    omega = ctx.omega_set()
    assert omega
    if rank == 2:
        # the first A2 grid with a nonempty omega: 24 u in 3 classes
        assert len(omega) == 24 and len({id(ctx.h_set(u)) for u in omega}) == 3


# -- the alternating-average vector -------------------------------------------


def test_xi_eigen_property_exhaustive():
    ctx = ext_for(3, 1, 2, 1, (1,), (1,), 1)
    for u in ctx.omega_set():
        rep = ctx.xi(u, check_eigen=True)
        assert rep["eigen_ok"] and rep["xi_nonzero"]
        assert rep["xi_in_top_cell_span"]


def _xi_oracle(ctx, u) -> tuple:
    """(xi vector, eigen_ok) by the per-p sum and the per-key module action
    (act_key, through bruhat_form), one group element at a time."""
    cx, ell, mc = ctx.chev, ctx.ell, ctx.mu_ctx

    def act_class(g, dense):
        out = np.zeros(mc.D, dtype=np.int64)
        for i in np.nonzero(dense)[0]:
            key2, mult = act_key(mc, g, mc.keys[i])
            out[mc.key_index[key2]] = dense[i] * mult % ell
        return ctx.mu_E.project(out)

    eta = np.zeros(mc.D, dtype=np.int64)
    terms = []
    for p in cx.enum_P(ctx.Jp, ctx.i):
        value = ctx.chars.eval_diag(ctx.lam, bruhat_form(cx, p).t)
        terms.append((p, value))
        vec = act_class(cx.mat_prod([p, u, ctx.w0dot]), ctx.mu_E.C)
        eta = (eta + pow(value, -1, ell) * vec) % ell
    eigen_ok = all(
        np.array_equal(act_class(p, eta), value * eta % ell) for p, value in terms
    )
    xi = np.zeros(mc.D, dtype=np.int64)
    for w in ctx.rs.subgroup(ctx.J):
        sign = ell - 1 if w.length % 2 else 1
        xi = (xi + sign * act_class(cx.wdot_in(ctx.J, w), eta)) % ell
    return xi, eigen_ok


@pytest.mark.parametrize(
    "p, rank, lam, mu, J, reaches",
    [
        (3, 1, (1,), (1,), FS, set()),
        (3, 1, (0,), (0,), frozenset({1}), {"J", "N"}),
        (3, 1, (0,), (0,), FS, {"J'", "N"}),  # P_{J'} is all of G_1
        (2, 2, (0, 0), (0, 1), frozenset({1}), {"J", "J'", "N"}),
    ],
)
def test_xi_matches_per_element_oracle(p, rank, lam, mu, J, reaches):
    ctx = ExtContext(chars_for(p, 1, 2, rank), lam, mu, J, FS, 1)
    got = {
        name
        for name, hit in (("J", ctx.J), ("J'", ctx.Jp), ("N", ctx.mu_E.N.dim))
        if hit
    }
    assert got == reaches
    for u in ctx.U_list:
        rep = ctx.xi(u, check_eigen=True)
        xi, eigen_ok = _xi_oracle(ctx, u)
        assert np.array_equal(rep["vector"], xi)
        assert rep["eigen_ok"] == eigen_ok
        assert rep["xi_nonzero"] == bool(xi.any())


@pytest.mark.parametrize(
    "p,rank,lam,mu",
    [(3, 1, (1,), (1,)), (3, 1, (1,), (2,)), (3, 1, (3,), (5,)), (2, 2, (1, 1), (1, 1))],
)
def test_xi_nonzero_iff_outside_the_relations(p, rank, lam, mu):
    # residues are canonical, so the class xi vanishes iff its vector does
    ctx = ext_for(p, 1, 2, rank, lam, mu, 1)
    seen = set()
    for u in ctx.U_list:
        rep = ctx.xi(u, check_eigen=False)
        assert rep["xi_nonzero"] == (not ctx.mu_E.N.contains(rep["vector"]))
        seen.add(rep["xi_nonzero"])
    if lam == (1,) and mu == (2,):
        assert seen == {False}  # the pair whose xi always vanishes


def test_xi_deterministic_and_defined_at_identity():
    ctx = ext_for(3, 1, 2, 1, (1,), (1,), 1)
    u = ctx.omega_set()[0]
    a = ctx.xi(u)["vector"]
    b = ctx.xi(u)["vector"]
    assert np.array_equal(a, b)
    ident = ctx.chev.identity
    rep = ctx.xi(ident)  # value reported, nothing promised for u inside U_i
    assert isinstance(rep["xi_nonzero"], bool) and rep["eigen_ok"]


def test_xi_vanishes_across_blocks():
    # lambda nontrivial, mu trivial: the average over the Borel kills the
    # class outright, so xi = 0, the induced map is zero, verdict negative
    ch = chars_for(3, 1, 2, 1)
    ctx = ExtContext(ch, (1,), (0,), FS, FS, 1)
    u, basis = ctx.choose_u()
    assert ctx.u_serial(u) == [0] and basis == "omega"
    rep = ctx.xi(u)
    assert not rep["xi_nonzero"] and rep["eigen_ok"]
    phi = ctx.phi_map(u)
    assert phi["well_defined"] and phi["equivariant"]
    assert phi["kernel_dim"] == phi["domain_dim"] == 4
    assert not phi["injective"]
    probe = ctx.twisted_probe(u)
    assert probe["verdict_nonsplit_signal"] is False


def test_graph_spin_separates_central_characters():
    # a linear map is equivariant exactly when its graph is a submodule of
    # the direct sum.  -I lies in G_1 and lambda = (1,), mu = (0,) differ on
    # it, so the G_1-spin of (C_lambda, C_mu) meets 0 + M_mu: no equivariant
    # map sends C_lambda to C_mu
    ch = chars_for(3, 1, 2, 1)
    gens = level_generators(ch.chev, 1)
    lam_E = ModuleContext(ch, (1,), 2).e_module(FS)
    mu_E = ModuleContext(ch, (0,), 2).e_module(FS)
    # the witness acts on each summand by that summand's character
    z = least_central_witness(ch, (1,), (0,))
    assert z in ch.chev.center(1)
    pair = DirectSum(lam_E, mu_E)
    (table,) = pair.action_tables([z])
    a, b = ch.eval((1,), z), ch.eval((0,), z)
    assert a != b
    stack = np.array([np.concatenate([lam_E.C, mu_E.C])])
    assert np.array_equal(
        pair.apply_table(table, stack),
        np.array([np.concatenate([a * lam_E.C, b * mu_E.C]) % lam_E.ell]),
    )

    def graph_spin(first, second, v, w):
        graph = spin_closure(
            DirectSum(first, second), [np.concatenate([v, w])], gens=gens
        )
        in_first = np.flatnonzero(graph.have) < first.D
        domain = graph.basis_matrix()[in_first, :first.D]
        return graph, domain, int((~in_first).sum())

    graph, domain, second_pivots = graph_spin(lam_E, mu_E, lam_E.C, mu_E.C)
    assert (graph.dim, len(domain), second_pivots) == (5, 4, 1)
    # (C_lambda, 0) is the graph of the zero map on the whole level-1 span
    zero = np.zeros(mu_E.D, dtype=np.int64)
    graph, domain, second_pivots = graph_spin(lam_E, mu_E, lam_E.C, zero)
    assert (len(domain), second_pivots) == (4, 0)
    assert not graph.apply(domain).any()
    # (C, C) spins the graph of the identity, whose kernel is 0
    graph, domain, second_pivots = graph_spin(lam_E, lam_E, lam_E.C, lam_E.C)
    assert (len(domain), second_pivots) == (4, 0)
    assert np.array_equal(graph.apply(domain), domain)


# -- probes -------------------------------------------------------------------

PROBE_A1 = {
    "u": [2],
    "u_basis": "omega",
    "xi_nonzero": True,
    "eigen_ok": True,
    "phi_well_defined": True,
    "phi_equivariant": True,
    "phi_kernel_dim": 0,
    "m_i_dim": 8,
    "fix_dim": 4,
    "meet_dim": 1,
    "verdict_nonsplit_signal": True,
    "fixed_meet_inside_mu_block": True,
    "census_ref": {"omega_size": 6, "gamma_size": 6},
}

PROBE_A2 = {
    "u": [0, 0, 2],
    "u_basis": "complement_of_level_i",
    "xi_nonzero": True,
    "eigen_ok": True,
    "phi_well_defined": True,
    "phi_equivariant": True,
    "phi_kernel_dim": 1,
    "m_i_dim": 42,
    "fix_dim": 12,
    "meet_dim": 1,
    "verdict_nonsplit_signal": True,
    "fixed_meet_inside_mu_block": True,
    "census_ref": {"omega_size": 0, "gamma_size": 0},
}


def test_probe_rank1_frozen():
    assert ext_for(3, 1, 2, 1, (1,), (1,), 1).probe_report() == PROBE_A1


def test_probe_rank2_frozen():
    assert ext_for(2, 1, 2, 2, (1, 1), (1, 1), 1).probe_report() == PROBE_A2


def test_probe_without_a_map_reports_every_key(monkeypatch):
    # xi replaced by C_mu, which -I keeps out of reach of any equivariant
    # map from the lambda quotient: phi is not well defined, and the probe
    # still reports every column of the CLI row, with a negative verdict.
    # The graph spin then holds (v, 0) for every class v, so the kernel
    # count is the whole domain; fix_dim and meet_dim count the fixed
    # vectors and their meet with the span of (v, f(v)), f(v) the graph's
    # mu part reduced modulo its meet with 0 + M_mu
    ctx = ExtContext(chars_for(3, 1, 2, 1), (1,), (0,), FS, FS, 1)
    real = ctx.xi
    monkeypatch.setattr(
        ctx, "xi",
        lambda u, check_eigen=True: {
            **real(u, check_eigen), "xi_nonzero": True, "vector": ctx.mu_E.C,
        },
    )
    probe = ctx.twisted_probe(ctx.choose_u()[0])
    assert set(cli.PROBE_CSV) <= set(probe)
    assert probe["phi_well_defined"] is False
    assert probe["phi_equivariant"] is False
    assert probe["verdict_nonsplit_signal"] is False
    assert (probe["phi_kernel_dim"], probe["fix_dim"], probe["meet_dim"]) == (4, 3, 2)


def test_probe_deterministic_and_jobs_invariant():
    ch = chars_for(3, 1, 2, 1)
    runs = [
        ExtContext(ch, (1,), (1,), FS, FS, 1).probe_report(jobs=j)
        for j in (1, 1, 8)
    ]
    blobs = {json.dumps(r, sort_keys=True) for r in runs}
    assert len(blobs) == 1


def test_choose_u_precedence():
    assert ext_for(3, 1, 2, 1, (1,), (1,), 1).choose_u()[1] == "omega"
    assert (
        ext_for(2, 1, 2, 2, (1, 1), (1, 1), 1).choose_u()[1]
        == "complement_of_level_i"
    )
    ctx = ext_for(3, 1, 3, 1, (1,), (1,), 2)
    u, basis = ctx.choose_u()
    assert basis == "omega_minus_gamma"
    assert (u, basis) == ctx.choose_u()


@pytest.mark.parametrize(
    "p, rank, lam, dim",
    [
        (3, 1, (1,), 4),
        (2, 2, (1, 1), 21),
        # N != 0 here, so the projection matters: unprojected spans of 6, 14
        (3, 1, (0,), 1),
        (2, 2, (1, 0), 7),
    ],
)
def test_projected_spin_spans_level_i_classes(p, rank, lam, dim):
    # the level-i spin of the generator inside the level-(i+1) quotient is
    # the span of its translates g . C, g running over all of G_i
    ctx = ext_for(p, 1, 2, rank, lam, lam, 1)
    em = ctx.mu_E
    spun = spin_closure(em, [em.C], gens=level_generators(ctx.chev, 1))
    classes = Subspace(ctx.mu_ctx.D, ctx.ell)
    for row in ctx.class_of(np.array(ctx.chev.enum_G(1))):
        classes.insert(row)
    assert spun.dim == classes.dim == dim
    assert spun.leq(classes) and classes.leq(spun)


# -- two-step gluing (needs a three-level tower) -------------------------------


def test_two_step_gluing_composes():
    ch = chars_for(3, 1, 3, 1)
    ctx1 = ExtContext(ch, (1,), (1,), FS, FS, 1)
    ctx2 = ext_for(3, 1, 3, 1, (1,), (1,), 2)
    phi1 = ctx1.phi_map(ctx1.choose_u()[0])
    phi2 = ctx2.phi_map(ctx2.choose_u()[0])
    assert phi1["well_defined"] and phi2["well_defined"]
    ell = ctx1.ell
    lam1, lE1 = phi1["lam_ctx"], phi1["lam_E"]
    lam2, lE2 = phi2["lam_ctx"], phi2["lam_E"]
    s1, s2 = phi1["solver"], phi2["solver"]
    gens = level_generators(ch.chev, 1)
    sub_l1 = spin_closure(lE1, [lE1.C], gens=gens)
    sub_m1 = spin_closure(ctx1.mu_E, [ctx1.mu_E.C], gens=gens)

    def tau(small, big, em_big, dense):
        # reinterpret the residue over the larger level, then reduce again;
        # legal because the smaller relation span sits inside the larger one
        return em_big.project(to_dense(big, from_dense(small, dense)))

    def step1(vl, vm):
        img = s1.apply(vl)
        assert img is not None
        return vl, (img + vm) % ell

    def step2(vl, vm):
        img = s2.apply(vl)
        assert img is not None, "lift left the second solver's domain"
        return vl, (img + vm) % ell

    def composite(vl, vm):
        vl, vm = step1(vl, vm)
        return step2(
            tau(lam1, lam2, lE2, vl),
            tau(ctx1.mu_ctx, ctx2.mu_ctx, ctx2.mu_E, vm),
        )

    Dl1, Dm1 = lam1.D, ctx1.mu_ctx.D
    basis = [(b.copy(), np.zeros(Dm1, dtype=np.int64)) for b in sub_l1.basis_matrix()]
    basis += [(np.zeros(Dl1, dtype=np.int64), b.copy()) for b in sub_m1.basis_matrix()]
    assert len(basis) == 8
    images = [composite(*b) for b in basis]

    tl1 = {g: lam1.action_table(g) for g in gens}
    tm1 = {g: ctx1.mu_ctx.action_table(g) for g in gens}
    tl2 = {g: lam2.action_table(g) for g in gens}
    tm2 = {g: ctx2.mu_ctx.action_table(g) for g in gens}

    def act1(g, pair):
        return (
            lE1.project(lam1.apply_table(tl1[g], pair[0])),
            ctx1.mu_E.project(ctx1.mu_ctx.apply_table(tm1[g], pair[1])),
        )

    def act2(g, pair):
        return (
            lE2.project(lam2.apply_table(tl2[g], pair[0])),
            ctx2.mu_E.project(ctx2.mu_ctx.apply_table(tm2[g], pair[1])),
        )

    for g in gens:
        for b in basis:
            lhs = np.concatenate(composite(*act1(g, b)))
            rhs = np.concatenate(act2(g, composite(*b)))
            assert np.array_equal(lhs, rhs)

    # the matrix on the basis reproduces the two-step map on any combination
    A = np.stack([np.concatenate(img) for img in images], axis=1)
    rng = random.Random(99)
    for _ in range(20):
        cs = [rng.randrange(ell) for _ in basis]
        vl = sum(c * b[0] for c, b in zip(cs, basis)) % ell
        vm = sum(c * b[1] for c, b in zip(cs, basis)) % ell
        direct = np.concatenate(composite(vl, vm))
        viaA = A.dot(np.array(cs, dtype=np.int64)) % ell
        assert np.array_equal(direct, viaA)


# -- synthesized extensions and the central splitter ---------------------------


def test_central_witness_is_canonical():
    ch = chars_for(3, 1, 2, 1)
    assert least_central_witness(ch, (1,), (0,)) == (4, 8, 8, 4)  # -identity
    assert least_central_witness(ch, (1,), (1,)) is None


def test_untwisted_synthesis_is_block_diagonal():
    ch = chars_for(3, 1, 2, 1)
    ext = untwisted_extension(ch, (1,), (0,), FS, FS, 1)
    ell, dl, n = ext.ell, ext.dl, ext.n
    M = ext.c0_mat
    assert np.array_equal(M[:dl, :dl], ext.a * np.eye(dl, dtype=np.int64) % ell)
    assert np.array_equal(
        M[dl:, dl:], ext.b * np.eye(n - dl, dtype=np.int64) % ell
    )
    assert not M[dl:, :dl].any() and not M[:dl, dl:].any()
    rep = central_split(ext)
    assert rep == {
        "a": 16,
        "b": 1,
        "eigenspace_dim": 4,
        "g_stable": True,
        "complementary": True,
    }


def test_central_split_many_seeds():
    ch = chars_for(3, 1, 2, 1)
    for seed in range(10):
        ext = SynthExtension(ch, (1,), (0,), FS, FS, 1, seed=seed)
        rep = central_split(ext)
        assert rep["a"] == 16 and rep["b"] == 1
        assert rep["g_stable"] and rep["complementary"]
        assert rep["eigenspace_dim"] == ext.dl


def test_split_requires_separating_characters():
    ch = chars_for(3, 1, 2, 1)
    with pytest.raises(ValueError):
        SynthExtension(ch, (1,), (1,), FS, FS, 1, seed=0)
    ext = SynthExtension(ch, (1,), (0,), FS, FS, 1, seed=0)
    ext.b = ext.a  # force the degenerate hypothesis
    with pytest.raises(ValueError):
        central_split(ext)


def test_split_fails_fast_when_characters_agree(monkeypatch):
    def no_quotients(self, J):
        raise RuntimeError("e_module built before the center check")

    monkeypatch.setattr(ModuleContext, "e_module", no_quotients)
    ch = chars_for(3, 1, 2, 1)
    with pytest.raises(ValueError, match="agree on the center"):
        SynthExtension(ch, (1,), (1,), FS, FS, 1, seed=0)


def _split_fields(ext):
    return (
        [g.tolist() for g in ext.gens],
        ext.c0_mat.tolist(),
        ext.a,
        ext.b,
        ext.dl,
        ext.dm,
    )


def test_split_blocks_memo_matches_fresh_build():
    # one shared Characters serves interleaved configurations, in both
    # orders and sharing lambda or mu; each result must equal a build on a
    # fresh Characters (not the cached chars_for), whose memo starts empty
    shared = chars_for(3, 1, 2, 1)
    pairs = (((1,), (0,)), ((0,), (1,)), ((1,), (2,)), ((2,), (1,)))
    for seed in range(10):
        for lam, mu in pairs:
            got = SynthExtension(shared, lam, mu, FS, FS, 1, seed=seed)
            fresh_chars = Characters(Chevalley(build_tower(3, 1, 2), build_A(1)))
            fresh = SynthExtension(fresh_chars, lam, mu, FS, FS, 1, seed=seed)
            assert _split_fields(got) == _split_fields(fresh), (seed, lam, mu)
    # equivalent spellings of a configuration share one memo entry
    m = shared.coeff.modulus
    assert split_blocks(shared, (1,), (0,), FS, FS, 1) is split_blocks(
        shared, [1 + m], (m,), set(), [], 1
    )
    # the untwisted extension off the shared memo is still block-diagonal
    ext = untwisted_extension(shared, (1,), (0,), FS, FS, 1)
    dl, n = ext.dl, ext.n
    assert np.array_equal(
        ext.c0_mat[:dl, :dl], 16 * np.eye(dl, dtype=np.int64)
    )
    assert np.array_equal(ext.c0_mat[dl:, dl:], np.eye(n - dl, dtype=np.int64))
    assert not ext.c0_mat[dl:, :dl].any() and not ext.c0_mat[:dl, dl:].any()


def test_split_blocks_are_read_only():
    ch = chars_for(3, 1, 2, 1)
    blocks = split_blocks(ch, (1,), (0,), FS, FS, 1)
    for Mb in (*blocks.gens, blocks.c0_block):
        assert not Mb.flags.writeable
        with pytest.raises(ValueError):
            Mb[0, 0] = 1


def test_split_instances_do_not_share_state():
    ch = chars_for(3, 1, 2, 1)
    first = SynthExtension(ch, (1,), (0,), FS, FS, 1, seed=0)
    first.b = first.a
    first.c0_mat[:] = 0
    first.gens[0][:] = 0
    second = SynthExtension(ch, (1,), (0,), FS, FS, 1, seed=0)
    assert (second.a, second.b) == (16, 1)
    dl, n = second.dl, second.n
    assert np.array_equal(
        second.c0_mat[:dl, :dl], 16 * np.eye(dl, dtype=np.int64)
    )
    assert np.array_equal(
        second.c0_mat[dl:, dl:], np.eye(n - dl, dtype=np.int64)
    )
    assert second.gens[0].any()
    assert central_split(second)["complementary"]
    # the same twist over a fresh memo: the shared blocks are untouched
    fresh_chars = Characters(Chevalley(build_tower(3, 1, 2), build_A(1)))
    fresh = SynthExtension(fresh_chars, (1,), (0,), FS, FS, 1, seed=0)
    assert _split_fields(second) == _split_fields(fresh)


def test_central_split_failure_names_its_witness():
    ch = chars_for(3, 1, 2, 1)
    ext = SynthExtension(ch, (1,), (0,), FS, FS, 1, seed=0)
    # a scalar central element: its a-eigenspace is the whole module
    ext.c0_mat = ext.a * np.eye(ext.n, dtype=np.int64) % ext.ell
    with pytest.raises(AssertionError) as err:
        central_split(ext)
    msg = str(err.value)
    assert msg.startswith("central eigenspace failed to split the module: ")
    for field in (
        f"eigenspace_dim={ext.n}",
        f"sum_dim={ext.n}",
        f"meet_dim={ext.dm}",
        f"dl={ext.dl}",
        f"n={ext.n}",
    ):
        assert field in msg.split(), (field, msg)
