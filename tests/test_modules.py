"""Module layer: Bruhat bases, monomial action, spin closures, quotients."""

import functools
import json
import random

import numpy as np
import pytest

from bruhatlab import modules as mod
from bruhatlab.characters import Characters
from bruhatlab.chevalley import Chevalley
from bruhatlab.fieldtower import BudgetError, build_tower
from bruhatlab.rootdata import build_A


@functools.lru_cache(maxsize=None)
def chars_for(p, a, N, r) -> Characters:
    return Characters(Chevalley(build_tower(p, a, N), build_A(r)))


@functools.lru_cache(maxsize=None)
def ctx_for(p, a, N, r, theta, k) -> mod.ModuleContext:
    return mod.ModuleContext(chars_for(p, a, N, r), theta, k)


def one_vec(ctx):
    return {ctx.one_key: 1}


# -- dimensions and budget ----------------------------------------------------


def test_dimension_oracles():
    assert ctx_for(3, 1, 2, 1, (0,), 1).D == 4
    assert ctx_for(3, 1, 2, 1, (0,), 2).D == 10
    assert ctx_for(2, 1, 2, 2, (0, 0), 1).D == 21
    assert ctx_for(2, 1, 2, 2, (0, 0), 2).D == 105
    assert ctx_for(2, 1, 2, 3, (0, 0, 0), 1).D == 315


def test_key_budget_enforced():
    ch = chars_for(3, 1, 2, 3)
    with pytest.raises(BudgetError):
        mod.ModuleContext(ch, (0, 0, 0), 2)


def test_key_budget_names_limit_and_size(monkeypatch):
    ch = chars_for(2, 1, 2, 2)
    monkeypatch.setattr(mod, "KEY_BUDGET", 6)
    with pytest.raises(BudgetError, match=r"KEY_BUDGET=6, requested 21 keys"):
        mod.ModuleContext(ch, (0, 0), 1)
    # the induced basis over the parabolic of {2} has 7 keys
    with pytest.raises(BudgetError, match=r"KEY_BUDGET=6, requested 7 keys"):
        mod.InducedContext(ch, (0, 0), {1}, 1)


def test_key_order_and_level_embedding():
    small = ctx_for(3, 1, 2, 1, (0,), 1)
    big = ctx_for(3, 1, 2, 1, (0,), 2)
    assert small.keys[0] == small.one_key
    # length-then-word on w, entry enumeration order on u
    lengths = [w.length for w, _ in small.keys]
    assert lengths == sorted(lengths)
    assert set(small.keys) <= set(big.keys)
    # action agrees on the embedded level
    rng = random.Random(5)
    for _ in range(25):
        g = small.random_group_elt(rng)
        vec = {rng.choice(small.keys): rng.randrange(1, small.ell)}
        assert small.act(g, vec) == big.act(g, vec)


# -- action ----------------------------------------------------------------


def test_borel_action_on_highest_vector_exhaustive():
    for theta in [(0,), (1,)]:
        ctx = ctx_for(3, 1, 2, 1, theta, 1)
        v = one_vec(ctx)
        for b in ctx.chev.enum_B(1):
            expected = ctx.chars.eval_B(ctx.theta, b)
            assert ctx.act(b, v) == {ctx.one_key: expected}


def test_action_associativity_random_triples():
    grids = [
        (ctx_for(3, 1, 2, 1, (0,), 1), 350),
        (ctx_for(3, 1, 2, 1, (3,), 1), 350),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), 300),
    ]
    rng = random.Random(11)
    for ctx, trials in grids:
        for _ in range(trials):
            g1 = ctx.random_group_elt(rng)
            g2 = ctx.random_group_elt(rng)
            vec = {
                rng.choice(ctx.keys): rng.randrange(1, ctx.ell),
                rng.choice(ctx.keys): rng.randrange(1, ctx.ell),
            }
            lhs = ctx.act(ctx.chev.mat_mul(g1, g2), vec)
            rhs = ctx.act(g1, ctx.act(g2, vec))
            assert lhs == rhs


def test_action_rejects_wrong_level():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    tw = ctx.tower
    outside = next(
        c for c in tw.level_members(2) if not tw.in_level(c, 1)
    )
    g = ctx.chev.eps_simple(1, outside)
    with pytest.raises(ValueError):
        ctx.act(g, one_vec(ctx))


def test_action_is_monomial_bijection():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    rng = random.Random(3)
    for _ in range(10):
        perm, scale = ctx.action_table(ctx.random_group_elt(rng))
        assert sorted(perm.tolist()) == list(range(ctx.D))
        assert all(0 < s < ctx.ell for s in scale.tolist())


def test_center_acts_by_scalar():
    ctx = ctx_for(3, 1, 2, 1, (1,), 2)  # SL_2(F_9), theta nontrivial on -1
    rng = random.Random(7)
    vec = {rng.choice(ctx.keys): 1, rng.choice(ctx.keys): 5}
    for z in ctx.chev.center(2):
        expected = mod.vscale(ctx.chars.eval(ctx.theta, z), vec, ctx.ell)
        assert ctx.act(z, vec) == expected


# -- alternating generators ---------------------------------------------------


def test_eta_requires_J_inside_compatible_set():
    ch = chars_for(2, 1, 2, 2)
    ctx = mod.ModuleContext(ch, (1, 0), 2)
    assert sorted(ctx.i_theta()) == [2]
    ctx.eta({2})
    with pytest.raises(ValueError):
        ctx.eta({1})
    with pytest.raises(ValueError):
        ctx.e_module({1, 2})


def test_eta_alternate_reduced_words_agree():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    cx = ctx.chev
    J = frozenset({1, 2})
    eta = ctx.eta(J)
    # rebuild from explicit reduced words, both braid-equivalent choices
    for words in [
        {(): 1, (1,): -1, (2,): -1, (1, 2): 1, (2, 1): 1, (1, 2, 1): -1},
        {(): 1, (1,): -1, (2,): -1, (1, 2): 1, (2, 1): 1, (2, 1, 2): -1},
    ]:
        acc: dict = {}
        for word, sign in words.items():
            g = cx.mat_prod([cx.sdot(i) for i in word]) if word else cx.identity
            term = ctx.act(g, one_vec(ctx))
            acc = mod.vadd(acc, mod.vscale(sign % ctx.ell, term, ctx.ell), ctx.ell)
        assert acc == eta


def test_simple_reflections_negate_eta():
    cases = [
        (ctx_for(3, 1, 2, 1, (0,), 1), frozenset({1})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({1, 2})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({2})),
    ]
    for ctx, J in cases:
        eta = ctx.eta(J)
        for j in sorted(J):
            flipped = ctx.act(ctx.chev.sdot(j), eta)
            assert flipped == mod.vscale(ctx.ell - 1, eta, ctx.ell)


# -- spin closures -----------------------------------------------------------


def test_spin_oracles_rank1():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    assert ctx.spin([one_vec(ctx)]).dim == 4
    assert ctx.spin([ctx.eta({1})]).dim == 3
    assert ctx.spin([{}]).dim == 0


def test_spin_matches_translate_span():
    # the generated submodule equals the span of the coset translates
    for ctx, J in [
        (ctx_for(3, 1, 2, 1, (0,), 1), frozenset({1})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({1})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({2})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({1, 2})),
    ]:
        spun = ctx.spin([ctx.eta(J)])
        eta = ctx.eta(J)
        wJ = ctx.rs.longest(J)
        direct = mod.Subspace(ctx.D, ctx.ell)
        for w in ctx.rs.min_coset_reps(J):
            v = ctx.rs.mul(wJ, ctx.rs.inv(w))
            for u in ctx.chev.enum_U_w(v, ctx.k):
                g = ctx.chev.mat_mul(u, ctx.chev.wdot(w))
                direct.insert(ctx.to_dense(ctx.act(g, eta)))
        assert direct.dim == spun.dim
        assert direct.leq(spun) and spun.leq(direct)


# -- quotients ---------------------------------------------------------------


def test_quotient_dims_rank1():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    dims = {J: ctx.e_module(J).dim for J in [frozenset(), frozenset({1})]}
    assert dims[frozenset()] == 1
    assert dims[frozenset({1})] == 3
    assert sum(dims.values()) == ctx.D


def test_quotient_dims_rank2():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    Js = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    dims = [ctx.e_module(J).dim for J in Js]
    assert dims == [1, 6, 6, 8]
    assert sum(dims) == ctx.D


def test_quotient_structure_invariants():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    for J in [frozenset(), frozenset({1}), frozenset({1, 2})]:
        em = ctx.e_module(J)
        assert em.N.leq(em.M)
        assert em.dim == em.M.dim - em.N.dim
        assert len(em.class_basis()) == em.dim
        # the image of the generator is nonzero in the quotient here
        assert em.C.any()
        if J == ctx.i_theta():
            assert em.N.dim == 0
    # regular character: no proper compatible superset, quotient is everything
    reg = mod.ModuleContext(chars_for(2, 1, 2, 2), (1, 1), 1)
    em = reg.e_module(frozenset())
    assert em.N.dim == 0 and em.dim == em.M.dim


def test_quotients_probe_simple():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    for J in [frozenset(), frozenset({1})]:
        assert ctx.e_module(J).simplicity_probe()


def test_translate_basis_reports():
    for ctx in [ctx_for(3, 1, 2, 1, (0,), 1), ctx_for(2, 1, 2, 2, (0, 0), 1)]:
        itheta = ctx.i_theta()
        Js = [frozenset(), *[frozenset({i}) for i in sorted(itheta)], itheta]
        for J in dict.fromkeys(Js):
            rep = ctx.check_translate_basis(J)
            assert rep["ok"], rep


def test_translate_basis_count_rank2():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    rep = ctx.check_translate_basis({1})
    # two admissible w, contributing 2 and 4 translates
    assert rep["num_vectors"] == 6 == rep["dim_E"]


# -- the two-case straightening identity ------------------------------------


def test_straightening_rank1_exhaustive():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    seen = set()
    for J in [frozenset(), frozenset({1})]:
        wJ = ctx.rs.longest(J)
        for w in ctx.rs.min_coset_reps(J):
            v = ctx.rs.mul(wJ, ctx.rs.inv(w))
            if (0, 1) not in set(ctx.rs.phi_minus_pairs(v)):
                continue
            for x in ctx.tower.level_members(1)[1:]:
                rep = ctx.verify_straightening(J, 1, w, x)
                seen.add(rep["case"])
                assert rep["ok"], rep
    assert seen == {"i", "ii"}


def test_straightening_rank2_all_characters():
    ch = chars_for(2, 1, 2, 2)
    for theta in [(0, 0), (1, 0), (0, 1)]:
        ctx = mod.ModuleContext(ch, theta, 2)
        itheta = ctx.i_theta()
        Js = sorted(
            {frozenset(), itheta, *[frozenset({i}) for i in sorted(itheta)]},
            key=sorted,
        )
        count = 0
        for J in Js:
            wJ = ctx.rs.longest(J)
            for w in ctx.rs.min_coset_reps(J):
                v = ctx.rs.mul(wJ, ctx.rs.inv(w))
                neg = set(ctx.rs.phi_minus_pairs(v))
                for i in ctx.rs.I:
                    if (i - 1, i) not in neg:
                        continue
                    for x in ctx.tower.level_members(2)[1:]:
                        rep = ctx.verify_straightening(J, i, w, x)
                        assert rep["ok"], rep
                        count += 1
        assert count > 0


def test_straightening_preconditions():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    s1 = ctx.rs.s(1)
    with pytest.raises(ValueError):
        ctx.verify_straightening(frozenset(), 1, s1, ctx.tower.ZERO)
    with pytest.raises(ValueError):
        # w = s1 is not a minimal coset representative for J = {1}
        ctx.verify_straightening(frozenset({1}), 1, s1, ctx.tower.ONE)
    with pytest.raises(ValueError):
        # alpha_1 not in the negative set when w = e, J = empty
        ctx.verify_straightening(frozenset(), 1, ctx.rs.e, ctx.tower.ONE)


def test_scalar_convention_is_unique():
    ch = chars_for(2, 1, 2, 2)
    contexts = [
        ctx_for(3, 1, 2, 1, (0,), 1),
        ctx_for(2, 1, 2, 2, (0, 0), 1),
        mod.ModuleContext(ch, (1, 0), 2),
        mod.ModuleContext(ch, (0, 1), 2),
    ]
    rep = mod.calibrate_scalar_convention(contexts)
    assert rep["ok"] and not rep["ambiguous"]
    assert rep["convention"] == "w^-1 t w"
    assert rep["case_i_instances"] >= 48


# -- induced realization and the socle comparison ----------------------------


def test_induced_coset_keys_are_canonical():
    ch = chars_for(2, 1, 2, 2)
    nb = mod.InducedContext(ch, (0, 0), {1}, 1)
    assert nb.D == 7  # index of the parabolic over {2}
    for key in nb.keys:
        assert nb.coset_key(nb.key_mat(key)) == key
    # right-translating by the parabolic fixes the coset key
    rng = random.Random(13)
    reps = [w for w in nb.rs.subgroup(nb.Jp)]
    for _ in range(50):
        key = rng.choice(nb.keys)
        p = nb.chev.mat_prod(
            [
                nb.chev.wdot(rng.choice(reps)),
                rng.choice(nb.chev.enum_B(1)),
            ]
        )
        assert nb.coset_key(nb.chev.mat_mul(nb.key_mat(key), p)) == key


def test_induced_action_cocycle():
    ch = chars_for(2, 1, 2, 2)
    nb = mod.InducedContext(ch, (0, 0), {1}, 1)
    rng = random.Random(17)
    for _ in range(100):
        g1 = nb.random_group_elt(rng)
        g2 = nb.random_group_elt(rng)
        key = rng.choice(nb.keys)
        k2, c2 = nb.act_key(g2, key)
        k12, c12 = nb.act_key(g1, k2)
        k_direct, c_direct = nb.act_key(nb.chev.mat_mul(g1, g2), key)
        assert k12 == k_direct
        assert (c2 * c12) % nb.ell == c_direct


def test_induced_full_flag_matches_module_basis():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    nb = mod.InducedContext(ctx.chars, (0, 0), {1, 2}, 1)
    assert nb.D == ctx.D
    assert set(nb.keys) == set(ctx.keys)


@pytest.mark.parametrize(
    "p, r, theta, k, trivial",
    [
        (3, 1, (0,), 1, True),
        (3, 1, (4,), 1, True),  # I(theta) is empty, theta is 1 on F_3^*
        (2, 2, (0, 0), 1, True),
        (3, 1, (1,), 1, False),
        (3, 1, (1,), 2, False),
        (2, 2, (1, 0), 2, False),  # J = I(theta) = {2}
    ],
)
def test_induced_full_flag_action_matches_module(p, r, theta, k, trivial):
    # with J = I(theta) the parabolic is the Borel, so the induced module is
    # the principal series itself, on the same keys in the same order
    ctx = ctx_for(p, 1, 2, r, theta, k)
    J = ctx.i_theta()
    nb = mod.InducedContext(ctx.chars, theta, J, k)
    assert nb.Jp == frozenset()
    assert nb.keys == ctx.keys
    rng = random.Random(29)
    elts = ctx.generators() + [ctx.random_group_elt(rng) for _ in range(10)]
    scales = set()
    for g in elts:
        perm, scale = nb.action_table(g)
        perm_m, scale_m = ctx.action_table(g)
        assert np.array_equal(perm, perm_m)
        assert np.array_equal(scale, scale_m)
        scales.update(scale.tolist())
    # a character trivial on the level-k torus only tests the permutations
    assert (scales == {1}) == trivial
    assert nb.eta(J) == ctx.eta(J)


def test_socle_comparison_grid():
    cases = [
        (chars_for(3, 1, 2, 1), (0,), 1, [frozenset(), frozenset({1})]),
        (
            chars_for(2, 1, 2, 2),
            (0, 0),
            1,
            [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})],
        ),
    ]
    for ch, theta, k, Js in cases:
        for J in Js:
            rep = mod.check_socle(ch, theta, J, k)
            assert rep["ok"], rep


def test_socle_generator_sign_pattern():
    ch = chars_for(2, 1, 2, 2)
    nb = mod.InducedContext(ch, (0, 0), {1}, 1)
    d = nb.eta(nb.J)
    assert len(d) == 2
    signs = sorted(d.values())
    assert signs == [1, nb.ell - 1]


# -- serialization ------------------------------------------------------------


def test_canonical_serialization():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    eta = ctx.eta({1})
    payload = ctx.vec_json(eta)
    assert payload == [[[[], []], 1], [[[1], [0]], 16]]
    # stable under a JSON round trip
    assert json.loads(json.dumps(payload)) == payload
    blob1 = json.dumps(ctx.vec_json(ctx.eta({1})), sort_keys=True)
    blob2 = json.dumps(ctx.vec_json(ctx.eta(frozenset({1}))), sort_keys=True)
    assert blob1 == blob2


def test_dense_sparse_round_trip():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    rng = random.Random(23)
    for _ in range(20):
        vec = {
            rng.choice(ctx.keys): rng.randrange(1, ctx.ell) for _ in range(4)
        }
        assert ctx.from_dense(ctx.to_dense(vec)) == vec
