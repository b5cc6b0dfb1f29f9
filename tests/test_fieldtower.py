"""Field tower tests: frozen oracle values first, then random-sample axioms."""

import math
import random

import pytest

from bruhatlab import fieldtower
from bruhatlab.fieldtower import BudgetError, FieldTower, build_tower


# -- frozen oracles ----------------------------------------------------------

def test_sizes_p2_a2_N2():
    # ambient = q^{N!} = (2^2)^{2!} = 16; level 1 = F_4
    tw = build_tower(2, 2, 2)
    assert tw.Q == 16
    assert tw.level_size(1) == 4
    assert tw.level_size(2) == 16
    assert len(tw.level_members(1)) == 4
    fixed = [x for x in tw.level_members(2) if tw.frobenius(x, 1) == x]
    assert len(fixed) == 4


def test_frobenius_fixed_points_q3_N2():
    tw = build_tower(3, 1, 2)
    assert tw.Q == 9
    fixed = [x for x in tw.level_members(2) if tw.frobenius(x, 1) == x]
    assert len(fixed) == 3
    assert sorted(fixed) == sorted(tw.level_members(1))


def test_generator_level1_q3_is_minus_one():
    tw = build_tower(3, 1, 2)
    g1 = tw.generator(1)
    assert g1 == tw.neg(tw.ONE)
    assert tw.mul(g1, g1) == tw.ONE


def test_modulus_f9_is_lex_least():
    # least monic irreducible of degree 2 over F_3 is X^2 + 1
    tw = build_tower(3, 1, 2)
    assert tw._fdigs == [1, 0]


def test_dlog_basics():
    tw = build_tower(3, 1, 2)
    for k in (1, 2):
        assert tw.dlog(tw.ONE, k) == 0
        assert tw.dlog(tw.generator(k), k) == 1
        g = tw.generator(k)
        m = tw.level_size(k) - 1
        acc = tw.ONE
        for e in range(m):
            assert tw.dlog(acc, k) == e
            acc = tw.mul(acc, g)
        assert acc == tw.ONE
    with pytest.raises(ValueError):
        tw.dlog(tw.ZERO, 1)


def test_budget_rejected():
    with pytest.raises(BudgetError):
        FieldTower(5, 2, 3)  # 5^12 > 2^24


def test_budget_names_limit_and_size(monkeypatch):
    monkeypatch.setattr(fieldtower, "ENUM_BUDGET", 80)
    with pytest.raises(
        BudgetError, match=r"^field tower .* ENUM_BUDGET=80, requested 81 elements$"
    ):
        FieldTower(3, 2, 2)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        FieldTower(4, 1, 2)
    with pytest.raises(ValueError):
        FieldTower(3, 1, 4)
    with pytest.raises(ValueError):
        FieldTower(3, 0, 2)


# -- structural invariants ----------------------------------------------------

TOWERS = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 1)]


@pytest.mark.parametrize("p,a,N", TOWERS)
def test_field_axioms_random(p, a, N):
    tw = build_tower(p, a, N)
    rng = random.Random(20260818)
    elems = tw.level_members(N)
    for _ in range(10_000 // len(TOWERS) + 1):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert tw.add(x, y) == tw.add(y, x)
        assert tw.mul(x, y) == tw.mul(y, x)
        assert tw.add(tw.add(x, y), z) == tw.add(x, tw.add(y, z))
        assert tw.mul(tw.mul(x, y), z) == tw.mul(x, tw.mul(y, z))
        assert tw.mul(x, tw.add(y, z)) == tw.add(tw.mul(x, y), tw.mul(x, z))
        assert tw.add(x, tw.ZERO) == x
        assert tw.mul(x, tw.ONE) == x
        assert tw.add(x, tw.neg(x)) == tw.ZERO
        if x != tw.ZERO:
            assert tw.mul(x, tw.inv(x)) == tw.ONE


@pytest.mark.parametrize("p,a,N", TOWERS)
def test_tower_nesting(p, a, N):
    tw = build_tower(p, a, N)
    for k in range(1, N):
        lo = set(tw.level_members(k))
        hi = set(tw.level_members(k + 1))
        assert lo < hi
    for k in range(1, N + 1):
        assert len(tw.level_members(k)) == tw.q ** math.factorial(k)
        members = tw.level_members(k)
        assert len(set(members)) == len(members)
        # closure under field ops
        sub = set(members)
        sample = members[: min(len(members), 20)]
        for x in sample:
            for y in sample:
                assert tw.add(x, y) in sub
                assert tw.mul(x, y) in sub


@pytest.mark.parametrize("p,a,N", TOWERS)
def test_frobenius_fixes_levels(p, a, N):
    tw = build_tower(p, a, N)
    for k in range(1, N + 1):
        for x in tw.level_members(k):
            assert tw.frobenius(x, math.factorial(k)) == x
        # level k is exactly the fixed set, not merely contained in it
        fixed = [
            x
            for x in tw.level_members(N)
            if tw.frobenius(x, math.factorial(k)) == x
        ]
        assert sorted(fixed) == sorted(tw.level_members(k))


@pytest.mark.parametrize("p,a,N", TOWERS)
def test_frobenius_is_additive_hom(p, a, N):
    tw = build_tower(p, a, N)
    rng = random.Random(7)
    elems = tw.level_members(N)
    for _ in range(500):
        x, y = rng.choice(elems), rng.choice(elems)
        assert tw.frobenius(tw.add(x, y), 1) == tw.add(
            tw.frobenius(x, 1), tw.frobenius(y, 1)
        )
        assert tw.frobenius(tw.mul(x, y), 1) == tw.mul(
            tw.frobenius(x, 1), tw.frobenius(y, 1)
        )


@pytest.mark.parametrize("p,a,N", TOWERS)
def test_generator_orders_exact(p, a, N):
    tw = build_tower(p, a, N)
    for k in range(1, N + 1):
        g = tw.generator(k)
        m = tw.level_size(k) - 1
        acc = tw.ONE
        seen = set()
        for _ in range(m):
            acc = tw.mul(acc, g)
            seen.add(acc)
        assert acc == tw.ONE
        assert len(seen) == m  # order exactly m, no smaller
        assert tw.level_of(g) == k or m == 1


@pytest.mark.parametrize("p,a,N", TOWERS)
def test_level_of(p, a, N):
    tw = build_tower(p, a, N)
    assert tw.level_of(tw.ZERO) == 1
    assert tw.level_of(tw.ONE) == 1
    counts = {k: 0 for k in range(1, N + 1)}
    for x in tw.level_members(N):
        counts[tw.level_of(x)] += 1
    # level_of returns the least level, so counts are strict-new-element counts
    total = 0
    for k in range(1, N + 1):
        total += counts[k]
    assert total == tw.Q


def test_coeff_round_trip():
    tw = build_tower(2, 2, 2)
    for x in tw.level_members(2):
        assert tw.from_coeffs(tw.coeffs(x)) == x
    assert tw.coeffs(tw.ZERO) == (0,) * tw.d


def test_scalar_index_total_order():
    tw = build_tower(3, 1, 2)
    idx = [tw.scalar_index(x) for x in [tw.ZERO] + list(range(tw.Q1))]
    assert idx == sorted(idx)
    assert len(set(idx)) == tw.Q


@pytest.mark.parametrize("name", ["zech", "exp_table", "log_table"])
def test_tower_tables_are_read_only(name):
    # the kernels memoize their arithmetic tables on the identity of zech,
    # so no table of a built tower may change after the build
    table = getattr(build_tower(3, 1, 2), name)
    with pytest.raises(ValueError, match="read-only"):
        table[0] = table[0]
    with pytest.raises(ValueError, match="read-only"):
        table += 0
