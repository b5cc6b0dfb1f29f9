"""Acceptance gate: ten go/no-go criteria over the mandated grids.

One test per criterion, numbered, so `pytest -v` prints exactly one
pass/fail line for each.  Criteria with a wall-clock budget assert the
elapsed time against it; everything else is exact arithmetic with zero
tolerance.  Failure messages carry the offending grid point so a red run
is immediately actionable.
"""

import itertools
import json
import time
from functools import lru_cache

from bruhatlab.characters import Characters
from bruhatlab.chevalley import Chevalley
from bruhatlab.extlab import ExtContext, SynthExtension, central_split
from bruhatlab.fieldtower import build_tower
from bruhatlab.modules import ModuleContext, check_socle
from bruhatlab.rootdata import build_A
from oracles import calibrate_scalar_convention

FS = frozenset()


@lru_cache(maxsize=None)
def chars_for(p, a, N, rank):
    return Characters(Chevalley(build_tower(p, a, N), build_A(rank)))


@lru_cache(maxsize=None)
def census_for(p, rank, i):
    lam = (1,) * rank
    ctx = ExtContext(chars_for(p, 1, 2, rank), lam, lam, FS, FS, i)
    return ctx, ctx.census()


def char_grid(chars, k):
    m = chars.tower.level_size(k) - 1
    return list(itertools.product(range(m), repeat=chars.chev.rs.rank))


def subsets(s):
    s = sorted(s)
    return [
        frozenset(c)
        for m in range(len(s) + 1)
        for c in itertools.combinations(s, m)
    ]


# criterion-2/10 grid: full character ladder for the rank-1 group at q = 3,
# trivial character for the rank-2 group at q = 2, both at level 1
def basis_grid():
    out = []
    ch = chars_for(3, 1, 2, 1)
    out += [(ch, theta) for theta in char_grid(ch, 1)]
    out.append((chars_for(2, 1, 2, 2), (0, 0)))
    return out


def test_criterion_01_cell_dimension_formula():
    t0 = time.perf_counter()
    cases = [
        (chars_for(3, 1, 2, 1), (1,)),
        (chars_for(3, 1, 2, 1), (2,)),
        (chars_for(2, 1, 2, 2), (1,)),
        (chars_for(3, 1, 2, 2), (1,)),
    ]
    for chars, levels in cases:
        for k in levels:
            qk = chars.tower.level_size(k)
            predicted = sum(qk**w.length for w in chars.chev.rs.elements)
            for theta in char_grid(chars, k):
                ctx = ModuleContext(chars, theta, k)
                assert ctx.D == predicted, (theta, k, ctx.D, predicted)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 over budget: {elapsed:.1f}s"
    print(f"[criterion 1] PASS: cell dimension formula exact ({elapsed:.2f}s)")


def test_criterion_02_translate_basis_and_composition_sum():
    t0 = time.perf_counter()
    for chars, theta in basis_grid():
        ctx = ModuleContext(chars, theta, 1)
        sum_E = 0
        for J in subsets(ctx.i_theta()):
            rep = ctx.check_translate_basis(J)
            assert rep["independent"], (theta, sorted(J))
            assert rep["spanning"], (theta, sorted(J))
            assert rep["count_identity"], (theta, sorted(J), rep)
            sum_E += rep["dim_E"]
        assert sum_E == ctx.D, (theta, sum_E, ctx.D)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 2 over budget: {elapsed:.1f}s"
    print(f"[criterion 2] PASS: translate bases and composition sums ({elapsed:.2f}s)")


def test_criterion_03_straightening_and_calibration():
    t0 = time.perf_counter()
    checked = 0
    for chars in (chars_for(3, 1, 2, 1), chars_for(2, 1, 2, 2)):
        for theta in char_grid(chars, 1):
            ctx = ModuleContext(chars, theta, 1)
            for J in subsets(ctx.i_theta()):
                wJ = ctx.rs.longest(J)
                for w in ctx.rs.min_coset_reps(J):
                    v = ctx.rs.mul(wJ, ctx.rs.inv(w))
                    neg = set(ctx.rs.phi_minus_pairs(v))
                    for i in ctx.rs.I:
                        if (i - 1, i) not in neg:
                            continue
                        for x in ctx.tower.level_members(1)[1:]:
                            rep = ctx.verify_straightening(J, i, w, x)
                            assert rep["ok"], (theta, sorted(J), i, x, rep)
                            checked += 1
    assert checked > 0
    # level-1 grids cannot separate the two torus-twist readings; the
    # level-2 rank-2 character ladder does, and must pick exactly one
    ch = chars_for(2, 1, 2, 2)
    contexts = [ModuleContext(ch, th, 2) for th in char_grid(ch, 2)]
    calib = calibrate_scalar_convention(contexts)
    assert calib["ok"] and not calib["ambiguous"], calib
    assert calib["convention"] == "w^-1 t w", calib
    assert calib["case_i_instances"] == 198
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 over budget: {elapsed:.1f}s"
    print(
        f"[criterion 3] PASS: {checked} straightening instances, "
        f"unique convention ({elapsed:.2f}s)"
    )


def test_criterion_04_rank1_roundtrip_all_levels():
    t0 = time.perf_counter()
    checked = 0
    for p, rank in ((3, 1), (2, 2)):
        cx = Chevalley(build_tower(p, 1, 3), build_A(rank))
        tw = cx.tower
        for i in cx.rs.I:
            for level in (1, 2, 3):
                for x in tw.level_members(level)[1:]:
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
                    assert lhs == rhs, (p, rank, i, level, x)
                    assert tw.in_level(f, level), (p, rank, i, level, x)
                    assert tw.in_level(h, level), (p, rank, i, level, x)
                    assert tw.in_level(g2, level), (p, rank, i, level, x)
                    checked += 1
    elapsed = time.perf_counter() - t0
    print(f"[criterion 4] PASS: {checked} rank-1 round-trips exact ({elapsed:.2f}s)")


def test_criterion_05_omega_cardinalities_and_bounds():
    t0 = time.perf_counter()
    expect = {
        (3, 1): [(9, 0), (8, 1)],
        (2, 2): [(64, 0), (48, 1), (48, 1), (36, 7), (36, 7), (39, 25)],
    }
    for (p, rank), cards in expect.items():
        _, cen = census_for(p, rank, 1)
        for row in cen["per_w"]:
            assert row["bound_ok"], (p, rank, row)
            assert row["factorization_ok"], (p, rank, row)
            if row["length"] == 1:
                assert row["omega_prime_w"] == 1, (p, rank, row)
        got = [(r["omega_w"], r["omega_prime_w"]) for r in cen["per_w"]]
        assert got == cards, (p, rank, got)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 5 over budget: {elapsed:.1f}s"
    print(f"[criterion 5] PASS: cell census bounds and counts exact ({elapsed:.2f}s)")


def test_criterion_06_h_partition_and_disjointness():
    t0 = time.perf_counter()
    for p, rank in ((3, 1), (2, 2)):
        _, cen = census_for(p, rank, 1)
        assert cen["h_partition_ok"], (p, rank)
        assert cen["omega_disjoint_from_level_i"], (p, rank)
        assert cen["gamma_cell_e_empty"], (p, rank)
        assert cen["h_class_lower_bound_ok"], (p, rank)
    elapsed = time.perf_counter() - t0
    print(f"[criterion 6] PASS: class partition and disjointness exact ({elapsed:.2f}s)")


def test_criterion_07_club_implies_nonzero_twist():
    t0 = time.perf_counter()
    for p, rank in ((3, 1), (2, 2)):
        ctx, cen = census_for(p, rank, 1)
        if not cen["club_implies_xi_nonzero"]:
            witnesses = [
                ctx.u_serial(u)
                for u in ctx.omega_set()
                if ctx.claim_club(u) and not ctx.xi(u)["xi_nonzero"]
            ]
            raise AssertionError(f"counterexamples at ({p},{rank}): {witnesses}")
        # both mandated grids are vacuous here (no club member in omega);
        # the non-vacuous level-2 check lives in the extension-lab suite
        assert cen["club_true_count"] == 0, (p, rank, cen["club_true_count"])
    elapsed = time.perf_counter() - t0
    print(f"[criterion 7] PASS: no club counterexample in either census ({elapsed:.2f}s)")


def test_criterion_08_probe_equivariance_and_determinism():
    t0 = time.perf_counter()
    for p, rank in ((3, 1), (2, 2)):
        lam = (1,) * rank
        blobs = []
        for jobs in (1, 1, 8):
            ctx = ExtContext(chars_for(p, 1, 2, rank), lam, lam, FS, FS, 1)
            rep = ctx.probe_report(jobs=jobs)
            blobs.append(json.dumps(rep, sort_keys=True).encode())
        assert blobs[0] == blobs[1] == blobs[2], (p, rank)
        rep = json.loads(blobs[0])
        assert rep["phi_well_defined"], (p, rank)
        assert rep["phi_equivariant"], (p, rank)
    elapsed = time.perf_counter() - t0
    print(
        f"[criterion 8] PASS: probe equivariant, byte-stable across "
        f"runs and schedules ({elapsed:.2f}s)"
    )


def test_criterion_09_central_splitter_hundred_twists():
    t0 = time.perf_counter()
    ch = chars_for(3, 1, 2, 1)
    runs = 0
    for lam, mu in (((1,), (0,)), ((0,), (1,))):
        for offset in range(100):
            ext = SynthExtension(ch, lam, mu, FS, FS, 1, 46000 + offset)
            rep = central_split(ext)
            assert rep["g_stable"], (lam, mu, offset)
            assert rep["complementary"], (lam, mu, offset)
            assert rep["a"] != rep["b"]
            runs += 1
    elapsed = time.perf_counter() - t0
    print(f"[criterion 9] PASS: {runs}/{runs} twisted extensions split ({elapsed:.2f}s)")


def test_criterion_10_socle_dimensions():
    t0 = time.perf_counter()
    for chars, theta in basis_grid():
        ctx = ModuleContext(chars, theta, 1)
        for J in subsets(ctx.i_theta()):
            rep = check_socle(ctx, J)
            assert rep["ok"], rep
            assert rep["socle_generator_spin_dim"] == rep["dim_E"], rep
    elapsed = time.perf_counter() - t0
    print(f"[criterion 10] PASS: socle dimensions match quotients ({elapsed:.2f}s)")
