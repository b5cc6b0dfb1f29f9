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

from bruhatlab import extlab
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
    ModuleContext,
    Subspace,
    level_generators,
    spin_closure,
)
from bruhatlab.rootdata import build_A

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
    # a Subspace carrying a trailing block records the map v -> w
    ell = 7
    s = Subspace(3, ell, carry=2)
    v1, w1 = np.array([1, 2, 0]), np.array([1, 0])
    v2, w2 = np.array([0, 1, 1]), np.array([0, 1])
    assert s.insert(np.concatenate([v1, w1])) >= 0
    assert s.insert(np.concatenate([v2, w2])) >= 0
    # implied pair: v1 + 2*v2 -> w1 + 2*w2 reduces to zero obstruction
    pair = np.concatenate([v1 + 2 * v2, w1 + 2 * w2])
    assert s.insert(pair) == -1 and not s.residue(pair).any()
    # contradictory pair: same v-part, different w-part
    pair = np.concatenate([v1 + 2 * v2, w1 + 3 * w2])
    res = s.residue(pair)
    assert s.insert(pair) == -1 and not res[:3].any() and res[3:].any()
    img = s.apply((3 * v1 + v2) % ell)
    assert np.array_equal(img, (3 * w1 + w2) % ell)
    assert s.apply(np.array([0, 0, 1])) is None  # outside the span
    assert s.dim == 2


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
    line = meet.basis()[0]
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


def test_scan_budgets_fail_before_any_scan(monkeypatch):
    ctx = ExtContext(chars_for(3, 1, 2, 1), (1,), (1,), FS, FS, 1)
    ctx.omega_set()

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned past the budget")

    monkeypatch.setattr(extlab.kern, "scan_conj_upper", no_scan)
    monkeypatch.setattr(extlab, "SCAN_BUDGET", 10)
    # 6 u of omega times the 22 noncentral elements of SL_2(3); 22 times |W|
    with pytest.raises(
        BudgetError, match=r"gamma scan .* SCAN_BUDGET=10, requested 132 "
    ):
        ctx.gamma_set()
    with pytest.raises(
        BudgetError, match=r"club scan .* SCAN_BUDGET=10, requested 44 "
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
        assert u in ctx.h_set(u)


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
    # membership in gamma is exactly a hit on the w0 branch of the club scan
    for ctx, expect_hit in (
        (ext_for(3, 1, 2, 1, (1,), (1,), 1), True),
        (ext_for(3, 1, 3, 1, (1,), (1,), 2), False),
    ):
        gamma = set(ctx.gamma_set())
        garr = ctx._noncentral_level_i()
        cx = ctx.chev
        sample = ctx.omega_set()[:4] + ctx.omega_set()[-4:]
        for u in sample:
            uw0 = cx.mat_mul(u, ctx.w0dot)
            hit = ctx._scan_hit(cx.mat_inv(uw0), garr, uw0) >= 0
            assert hit == (u in gamma) == expect_hit


# -- the alternating-average vector -------------------------------------------


def test_xi_eigen_property_exhaustive():
    ctx = ext_for(3, 1, 2, 1, (1,), (1,), 1)
    for u in ctx.omega_set():
        rep = ctx.xi(u, check_eigen=True)
        assert rep["eigen_ok"] and rep["xi_nonzero"]
        assert rep["xi_in_top_cell_span"]


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
    spun = spin_closure(
        ctx.mu_ctx, [em.C], gens=level_generators(ctx.chev, 1),
        project=em.project, verify=False,
    )
    classes = Subspace(ctx.mu_ctx.D, ctx.ell)
    for g in ctx.chev.enum_G(1):
        classes.insert(ctx.class_of(g))
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
    sub_l1 = spin_closure(
        lam1, [lE1.C], gens=gens, project=lE1.project, verify=False
    )
    sub_m1 = spin_closure(
        ctx1.mu_ctx, [ctx1.mu_E.C], gens=gens, project=ctx1.mu_E.project,
        verify=False,
    )

    def tau(small, big, em_big, dense):
        # reinterpret the residue over the larger level, then reduce again;
        # legal because the smaller relation span sits inside the larger one
        return em_big.project(big.to_dense(small.from_dense(dense)))

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
    basis = [(b.copy(), np.zeros(Dm1, dtype=np.int64)) for b in sub_l1.basis()]
    basis += [(np.zeros(Dl1, dtype=np.int64), b.copy()) for b in sub_m1.basis()]
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
    ext = SynthExtension(ch, (1,), (0,), FS, FS, 1, seed=3, twist=False)
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
    ext = SynthExtension(shared, (1,), (0,), FS, FS, 1, seed=3, twist=False)
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
    first = SynthExtension(ch, (1,), (0,), FS, FS, 1, seed=0, twist=False)
    first.b = first.a
    first.c0_mat[:] = 0
    first.gens[0][:] = 0
    second = SynthExtension(ch, (1,), (0,), FS, FS, 1, seed=0, twist=False)
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
