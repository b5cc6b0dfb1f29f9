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
from bruhatlab.rootdata import RootSystem, build_A
from oracles import (
    act,
    act_key,
    calibrate_scalar_convention,
    coset_key,
    eval_B,
    from_dense,
    induced_act_key,
    induced_module,
    simplicity_probe,
    to_dense,
    vec_json,
)


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
        induced_module(ch, (0, 0), {1}, 1)


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
        assert act(small, g, vec) == act(big, g, vec)


# -- action ----------------------------------------------------------------


def test_borel_action_on_highest_vector_exhaustive():
    for theta in [(0,), (1,)]:
        ctx = ctx_for(3, 1, 2, 1, theta, 1)
        v = one_vec(ctx)
        for b in ctx.chev.enum_B(1):
            expected = eval_B(ctx.chars, ctx.theta, b)
            assert act(ctx, b, v) == {ctx.one_key: expected}


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
            lhs = act(ctx, ctx.chev.mat_mul(g1, g2), vec)
            rhs = act(ctx, g1, act(ctx, g2, vec))
            assert lhs == rhs


def test_action_rejects_wrong_level():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    tw = ctx.tower
    outside = next(
        c for c in tw.level_members(2) if not tw.in_level(c, 1)
    )
    g = ctx.chev.eps_simple(1, outside)
    with pytest.raises(ValueError):
        act(ctx, g, one_vec(ctx))
    with pytest.raises(ValueError):
        ctx.act_stack(np.array([ctx.chev.identity, g]), to_dense(ctx, one_vec(ctx)))


def test_action_is_monomial_bijection():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    rng = random.Random(3)
    for _ in range(10):
        perm, scale = ctx.action_table(ctx.random_group_elt(rng))
        assert sorted(perm.tolist()) == list(range(ctx.D))
        assert all(0 < s < ctx.ell for s in scale.tolist())


def test_src_act_key_matches_oracle():
    # ModuleContext.act_key goes through Chevalley.bruhat_form, so through
    # bruhat_cells; the oracle through the scalar elimination
    ctx = mod.ModuleContext(chars_for(2, 1, 2, 2), (1, 0), 2)
    rng = random.Random(5)
    G = ctx.generators() + [ctx.random_group_elt(rng) for _ in range(3)]
    for g in G:
        for key in ctx.keys[::7]:
            assert ctx.act_key(g, key) == act_key(ctx, g, key)


@pytest.mark.parametrize(
    "p, r, theta, k", [(3, 1, (1,), 1), (3, 1, (1,), 2), (2, 2, (1, 0), 2)]
)
def test_act_stack_matches_per_key_action(p, r, theta, k, monkeypatch):
    # act_key, one key at a time through bruhat_form, is the oracle of the
    # stacked action and tables; the characters are not 1 on the level-k
    # torus, so scales are tested too
    ctx = mod.ModuleContext(chars_for(p, 1, 2, r), theta, k)
    rng = random.Random(31)
    G = ctx.generators() + [ctx.random_group_elt(rng) for _ in range(10)]
    dense = np.array([rng.randrange(ctx.ell) for _ in range(ctx.D)])
    dense[rng.randrange(ctx.D)] = 0
    want = np.zeros((len(G), ctx.D), dtype=np.int64)
    scales = set()
    for row, (g, (perm, scale)) in enumerate(zip(G, ctx.action_tables(G))):
        oracle = [act_key(ctx, g, key) for key in ctx.keys]
        assert perm.tolist() == [ctx.key_index[key2] for key2, _ in oracle]
        assert scale.tolist() == [mult for _, mult in oracle]
        for i, (key2, mult) in enumerate(oracle):
            want[row, ctx.key_index[key2]] = dense[i] * mult % ctx.ell
            scales.add(mult)
    assert scales != {1}
    assert np.array_equal(ctx.act_stack(np.array(G), dense), want)
    # chunk boundaries inside the (g, key) pairs change nothing
    monkeypatch.setattr(mod.kern, "SCAN_CHUNK", 7)
    assert np.array_equal(ctx.act_stack(np.array(G), dense), want)
    assert ctx.act_stack(np.zeros((0, ctx.chev.m**2)), dense).shape == (0, ctx.D)


@pytest.mark.parametrize(
    "p, r, theta, k", [(3, 1, (1,), 1), (3, 1, (1,), 2), (2, 2, (1, 0), 2)]
)
def test_act_sum_matches_weighted_act_stack(p, r, theta, k, monkeypatch):
    # act_sum against the explicit sum of the act_stack rows, with weights
    # 0 and ell - 1 among them; the characters are not 1 on the level-k
    # torus, so the scales are nontrivial
    ctx = ctx_for(p, 1, 2, r, theta, k)
    rng = random.Random(43)
    gs = ctx.generators() + [ctx.random_group_elt(rng) for _ in range(10)]
    assert any((scale != 1).any() for _, scale in ctx.action_tables(gs))
    G = np.array(gs)
    weights = [0, ctx.ell - 1] + [rng.randrange(ctx.ell) for _ in gs[2:]]
    dense = np.array([rng.randrange(ctx.ell) for _ in range(ctx.D)])
    dense[rng.randrange(ctx.D)] = 0
    stack = ctx.act_stack(G, dense)
    want = sum(int(c) * row for c, row in zip(weights, stack)) % ctx.ell
    assert np.array_equal(ctx.act_sum(G, weights, dense), want)
    # chunk boundaries inside the (g, key) pairs change nothing
    monkeypatch.setattr(mod.kern, "SCAN_CHUNK", 7)
    assert np.array_equal(ctx.act_sum(G, weights, dense), want)
    empty = ctx.act_sum(np.zeros((0, ctx.chev.m**2)), [], dense)
    assert empty.dtype == np.int64
    assert np.array_equal(empty, np.zeros(ctx.D, dtype=np.int64))


def test_tables_of_a_higher_level_central_element():
    # the splitter acts with its central witness c0, a level-2 element, on
    # level-1 modules: a table checks the level of its image keys, not of
    # the element, while act and act_stack keep refusing it
    ch = chars_for(2, 1, 2, 2)
    c0 = next(z for z in ch.chev.center(2) if not ch.chev.in_level(z, 1))
    ctx = mod.ModuleContext(ch, (1, 0), 1)
    perm, scale = ctx.action_table(c0)
    assert perm.tolist() == list(range(ctx.D))
    assert set(scale.tolist()) == {ch.eval(ctx.theta, c0)} != {1}
    with pytest.raises(ValueError):
        act(ctx, c0, one_vec(ctx))
    with pytest.raises(ValueError):
        ctx.act_stack(np.array([c0]), to_dense(ctx, one_vec(ctx)))
    # a noncentral element outside level 1 moves some key outside it
    outside = next(c for c in ch.tower.level_members(2) if not ch.tower.in_level(c, 1))
    with pytest.raises(ValueError, match="image key"):
        ctx.action_tables([ctx.chev.identity, ctx.chev.eps_simple(1, outside)])


def test_center_acts_by_scalar():
    ctx = ctx_for(3, 1, 2, 1, (1,), 2)  # SL_2(F_9), theta nontrivial on -1
    rng = random.Random(7)
    vec = {rng.choice(ctx.keys): 1, rng.choice(ctx.keys): 5}
    for z in ctx.chev.center(2):
        value = ctx.chars.eval(ctx.theta, z)
        assert act(ctx, z, vec) == {key: c * value % ctx.ell for key, c in vec.items()}


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


def test_eta_is_one_cached_read_only_vector():
    ctx = mod.ModuleContext(chars_for(2, 1, 2, 2), (0, 0), 1)
    eta = ctx.eta({1, 2})
    assert eta is ctx.eta(frozenset({1, 2}))
    assert eta.shape == (ctx.D,) and eta.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        eta[0] = 0


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
        acc = np.zeros(ctx.D, dtype=np.int64)
        for word, sign in words.items():
            g = cx.mat_prod([cx.sdot(i) for i in word]) if word else cx.identity
            acc = (acc + sign * to_dense(ctx, act(ctx, g, one_vec(ctx)))) % ctx.ell
        assert np.array_equal(acc, eta)


def test_simple_reflections_negate_eta():
    cases = [
        (ctx_for(3, 1, 2, 1, (0,), 1), frozenset({1})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({1, 2})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({2})),
    ]
    for ctx, J in cases:
        eta = from_dense(ctx, ctx.eta(J))
        for j in sorted(J):
            flipped = act(ctx, ctx.chev.sdot(j), eta)
            assert flipped == {key: ctx.ell - c for key, c in eta.items()}


# -- spin closures -----------------------------------------------------------


def test_spin_oracles_rank1():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    assert ctx.spin([to_dense(ctx, one_vec(ctx))]).dim == 4
    assert ctx.spin([ctx.eta({1})]).dim == 3
    assert ctx.spin([np.zeros(ctx.D, dtype=np.int64)]).dim == 0


def test_spin_matches_translate_span():
    # the generated submodule equals the span of the coset translates
    for ctx, J in [
        (ctx_for(3, 1, 2, 1, (0,), 1), frozenset({1})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({1})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({2})),
        (ctx_for(2, 1, 2, 2, (0, 0), 1), frozenset({1, 2})),
    ]:
        spun = ctx.spin([ctx.eta(J)])
        eta = from_dense(ctx, ctx.eta(J))
        wJ = ctx.rs.longest(J)
        direct = mod.Subspace(ctx.D, ctx.ell)
        for w in ctx.rs.min_coset_reps(J):
            v = ctx.rs.mul(wJ, ctx.rs.inv(w))
            for u in ctx.chev.enum_U_w(v, ctx.k):
                g = ctx.chev.mat_mul(u, ctx.chev.wdot(w))
                direct.insert(to_dense(ctx, act(ctx, g, eta)))
        assert direct.dim == spun.dim
        assert direct.leq(spun) and spun.leq(direct)


def test_spin_stops_inserting_at_the_full_span(monkeypatch):
    # the unit vector spins up the whole module; once the span is everything
    # no image is inserted, and no stability sample is drawn or checked: the
    # whole module contains every vector, so that check cannot fail.  On a
    # proper span every sample is still drawn and checked on the whole basis
    dims, checks, draws = [], [], []
    insert, contains = mod.Subspace.insert, mod.Subspace.contains
    draw = mod.KeyedModule.random_group_elt

    def counted_insert(self, vec):
        dims.append(self.dim)
        return insert(self, vec)

    def counted_contains(self, vec):
        checks.append(len(vec))
        return contains(self, vec)

    def counted_draw(self, rng):
        draws.append(rng)
        return draw(self, rng)

    monkeypatch.setattr(mod.Subspace, "insert", counted_insert)
    monkeypatch.setattr(mod.Subspace, "contains", counted_contains)
    monkeypatch.setattr(mod.KeyedModule, "random_group_elt", counted_draw)
    ctx = mod.ModuleContext(chars_for(3, 1, 2, 1), (0,), 1)
    spun = ctx.spin([to_dense(ctx, one_vec(ctx))])
    assert spun.dim == ctx.D == dims[-1] + 1
    assert all(d < ctx.D for d in dims)
    assert draws == [] and checks == []
    proper = ctx.spin([ctx.eta({1})])
    assert proper.dim < ctx.D
    assert len(draws) == mod.STABILITY_SAMPLES
    assert sum(checks) == mod.STABILITY_SAMPLES * proper.dim


def test_spin_chunks_do_not_change_the_span(monkeypatch):
    # every spin of the socle grid (the quotients' spins in the Bruhat
    # module and the generator's spin in the induced one), rerun with the
    # image stacks cut to one frontier row each, gives the same echelon basis
    def grid_spins():
        spins = []
        real = mod.spin_closure

        def recorded(*args, **kwargs):
            S = real(*args, **kwargs)
            spins.append((S.rows.copy(), S.have.copy()))
            return S

        with monkeypatch.context() as patch:
            patch.setattr(mod, "spin_closure", recorded)
            for ch, theta, k, Js in SOCLE_GRID:
                ctx = mod.ModuleContext(ch, theta, k)
                for J in Js:
                    mod.check_socle(ctx, J)
        return spins

    whole = grid_spins()
    monkeypatch.setattr(mod, "SPIN_CHUNK_BYTES", 1)
    chunked = grid_spins()
    assert len(whole) == len(chunked) > 0
    for (rows, have), (rows_c, have_c) in zip(whole, chunked):
        assert np.array_equal(rows, rows_c) and np.array_equal(have, have_c)


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


def test_e_module_spins_each_K_once(monkeypatch):
    # the J walk of one context spins eta(K) once per K, and the quotients
    # cannot change the cached spins they read
    ctx = mod.ModuleContext(chars_for(2, 1, 2, 2), (0, 0), 1)
    spun, real_spin = [], mod.spin_closure

    def counting(m, seeds, **kwargs):
        spun.append(1)
        return real_spin(m, seeds, **kwargs)

    monkeypatch.setattr(mod, "spin_closure", counting)
    Js = mod.subsets(ctx.i_theta())
    assert [ctx.e_module(J).dim for J in Js] == [1, 6, 6, 8]
    assert len(spun) == len(Js)
    em = ctx.e_module(ctx.i_theta())
    with pytest.raises(ValueError, match="read-only"):
        em.M.insert(to_dense(ctx, one_vec(ctx)))
    assert [ctx.e_module(J).dim for J in Js] == [1, 6, 6, 8]
    assert len(spun) == len(Js)


def test_quotients_probe_simple():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    for J in [frozenset(), frozenset({1})]:
        assert simplicity_probe(ctx.e_module(J))


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
    rep = calibrate_scalar_convention(contexts)
    assert rep["ok"] and not rep["ambiguous"]
    assert rep["convention"] == "w^-1 t w"
    assert rep["case_i_instances"] >= 48


# -- induced realization and the socle comparison ----------------------------


def test_induced_coset_keys_are_canonical():
    ch = chars_for(2, 1, 2, 2)
    nb = induced_module(ch, (0, 0), {1}, 1)
    assert nb.D == 7  # index of the parabolic over {2}
    for key in nb.keys:
        assert coset_key(nb, nb.key_mat(key)) == key
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
        assert coset_key(nb, nb.chev.mat_mul(nb.key_mat(key), p)) == key


def test_induced_action_cocycle():
    ch = chars_for(2, 1, 2, 2)
    nb = induced_module(ch, (0, 0), {1}, 1)
    rng = random.Random(17)
    for _ in range(100):
        g1 = nb.random_group_elt(rng)
        g2 = nb.random_group_elt(rng)
        key = rng.choice(nb.keys)
        k2, c2 = induced_act_key(nb, g2, key)
        k12, c12 = induced_act_key(nb, g1, k2)
        k_direct, c_direct = induced_act_key(nb, nb.chev.mat_mul(g1, g2), key)
        assert k12 == k_direct
        assert (c2 * c12) % nb.ell == c_direct


@pytest.mark.parametrize(
    "p, r, theta, J, k, trivial",
    [
        (2, 2, (0, 0), {1}, 1, True),
        (2, 2, (1, 0), set(), 2, False),
        (2, 3, (1, 0, 0), set(), 2, False),  # J' = {2, 3}, D = 85
        # J' = {1}: the coset peel changes keys only when J' holds a simple
        # root other than the last
        (2, 2, (0, 0), {2}, 1, True),
    ],
)
def test_induced_tables_match_per_key_action(p, r, theta, J, k, trivial):
    # act_key, through coset_key and bruhat_form, is the oracle of the
    # stacked induced action; J' = I(theta) - J is not empty here
    nb = induced_module(chars_for(p, 1, 2, r), theta, J, k)
    assert nb.Jp
    rng = random.Random(37)
    elts = nb.generators() + [nb.random_group_elt(rng) for _ in range(6)]
    scales = set()
    for g, (perm, scale) in zip(elts, nb.action_tables(elts)):
        oracle = [induced_act_key(nb, g, key) for key in nb.keys]
        assert perm.tolist() == [nb.key_index[key2] for key2, _ in oracle]
        assert scale.tolist() == [c for _, c in oracle]
        scales.update(scale.tolist())
    assert (scales == {1}) == trivial


def test_induced_construction_checks_the_coset_table(monkeypatch):
    # a coset table built from W_{J'} = {e} alone names representatives
    # with a descent in J'; construction refuses it instead of building a
    # wrong action
    monkeypatch.setattr(RootSystem, "subgroup", lambda self, J: [self.e])
    with pytest.raises(AssertionError, match="not minimal"):
        induced_module(chars_for(2, 1, 2, 2), (0, 0), {1}, 1)


def test_induced_full_flag_matches_module_basis():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    nb = induced_module(ctx.chars, (0, 0), {1, 2}, 1)
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
    nb = induced_module(ctx.chars, theta, J, k)
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
    assert np.array_equal(nb.eta(J), ctx.eta(J))


SOCLE_GRID = [
    (chars_for(3, 1, 2, 1), (0,), 1, [frozenset(), frozenset({1})]),
    (
        chars_for(2, 1, 2, 2),
        (0, 0),
        1,
        [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})],
    ),
]


def test_socle_comparison_grid():
    for ch, theta, k, Js in SOCLE_GRID:
        ctx = mod.ModuleContext(ch, theta, k)
        for J in Js:
            rep = mod.check_socle(ctx, J)
            assert rep["ok"], rep


def test_socle_generator_sign_pattern():
    ch = chars_for(2, 1, 2, 2)
    nb = induced_module(ch, (0, 0), {1}, 1)
    d = from_dense(nb, nb.eta({1}))
    assert len(d) == 2
    signs = sorted(d.values())
    assert signs == [1, nb.ell - 1]


# -- serialization ------------------------------------------------------------


def test_canonical_serialization():
    ctx = ctx_for(3, 1, 2, 1, (0,), 1)
    eta = ctx.eta({1})
    payload = vec_json(ctx, eta)
    assert payload == [[[[], []], 1], [[[1], [0]], 16]]
    # stable under a JSON round trip
    assert json.loads(json.dumps(payload)) == payload
    blob1 = json.dumps(vec_json(ctx, ctx.eta({1})), sort_keys=True)
    blob2 = json.dumps(vec_json(ctx, ctx.eta(frozenset({1}))), sort_keys=True)
    assert blob1 == blob2


def test_dense_sparse_round_trip():
    ctx = ctx_for(2, 1, 2, 2, (0, 0), 1)
    rng = random.Random(23)
    for _ in range(20):
        vec = {
            rng.choice(ctx.keys): rng.randrange(1, ctx.ell) for _ in range(4)
        }
        assert from_dense(ctx, to_dense(ctx, vec)) == vec
