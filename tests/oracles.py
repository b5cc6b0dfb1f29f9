"""Reference computations that only the tests call.

Every fast path of bruhatlab is checked against a slow computation: one
element, one key or one scalar at a time, straight from the definition.
Those references live here, as functions over the package's public objects,
so that `src/bruhatlab` holds only what the program runs.
`tests/test_layout.py` checks that no callable in `src/` is left without a
caller there.

The one exception is `ModuleContext.act_key`, the per-key oracle of the
Bruhat module's stacked action: the benchmark's tracer wraps it, so it stays
in `src/` until the tracer is retargeted.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce

import numpy as np

from bruhatlab import modules
from bruhatlab.chevalley import BruhatForm

# -- field tower ---------------------------------------------------------------


def frobenius(tw, x: int, j: int) -> int:
    """x -> x^{q^j}; frobenius(., N!) is the identity."""
    if x == tw.ZERO or tw.Q1 == 1:
        return x
    return (x * pow(tw.q, j, tw.Q1)) % tw.Q1


def level_of(tw, x: int) -> int:
    """The least level that contains x."""
    for k in range(1, tw.N + 1):
        if tw.in_level(x, k):
            return k
    raise AssertionError("element outside every level (impossible)")


def coeffs(tw, x: int) -> tuple:
    """Canonical polynomial coefficients (c_0, .., c_{d-1}) of the element."""
    packed = 0 if x == tw.ZERO else int(tw.exp_table[x])
    return tuple(packed // tw.p**i % tw.p for i in range(tw.d))


def from_coeffs(tw, coeffs) -> int:
    """The code of the element with canonical polynomial coefficients
    (c_0, .., c_{d-1}): the inverse of coeffs."""
    packed = sum(c * tw.p**i for i, c in enumerate(coeffs))
    return int(tw.log_table[packed]) if packed else tw.ZERO


def dlog(tw, x: int, k: int) -> int:
    """The exponent e with x = generator(k)^e, 0 <= e < q^{k!} - 1, read off
    the canonical level order (zero, then the powers of the generator)."""
    if x == tw.ZERO:
        raise ValueError("dlog of zero")
    members = tw.level_members(k)
    if x not in members:
        raise ValueError(f"element not in level {k}")
    return members.index(x) - 1


# -- root data -------------------------------------------------------------------


def from_word(rs, word):
    """The Weyl element s_{i_1} .. s_{i_n} of a word, reduced or not."""
    return reduce(lambda w, i: rs.mul(w, rs.s(i)), word, rs.e)


def phi_minus(rs, w) -> list:
    """Positive roots sent negative by w, as coefficient vectors, in
    canonical order."""
    neg = set(rs.phi_minus_pairs(w))
    return [v for ab, v in zip(rs.pos_pairs, rs.pos_roots) if ab in neg]


def bruhat_leq(rs, x, y) -> bool:
    """x <= y in the Bruhat order: x is a subword of the reduced word of y."""
    if x.length > y.length:
        return False
    return any(
        from_word(rs, (y.word[k] for k in idxs)) == x
        for idxs in itertools.combinations(range(y.length), x.length)
    )


# -- the matrix group --------------------------------------------------------------


def det(cx, A):
    """Determinant by Gaussian elimination over the tower."""
    tw, m = cx.tower, cx.m
    M = [list(A[i * m : (i + 1) * m]) for i in range(m)]
    acc = tw.ONE
    for col in range(m):
        piv = next((r for r in range(col, m) if M[r][col] != tw.ZERO), None)
        if piv is None:
            return tw.ZERO
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            acc = tw.neg(acc)
        acc = tw.mul(acc, M[col][col])
        inv = tw.inv(M[col][col])
        for r in range(col + 1, m):
            if M[r][col] != tw.ZERO:
                f = tw.mul(M[r][col], inv)
                M[r] = [tw.sub(x, tw.mul(f, y)) for x, y in zip(M[r], M[col])]
    return acc


def is_upper_triangular(cx, A) -> bool:
    tw, m = cx.tower, cx.m
    return all(A[i * m + j] == tw.ZERO for i in range(m) for j in range(i))


def reassemble(cx, bf: BruhatForm):
    """The product u * wdot(w) * t * v of a Bruhat form."""
    return cx.mat_prod([bf.u, cx.wdot(bf.w), cx.torus(bf.t), bf.v])


def peel_unipotent(cx, R: list, x):
    """Split unitriangular rows R in place as u * R' with u supported on
    Phi_x^- positions only; return u and leave R' in R.  The one-element
    oracle of Chevalley.peel_unipotents.

    Peeling in ascending height lets disturbances flow upward only, so R'
    ends up zero at every Phi_x^- position; phi_minus_pairs keeps the order
    of rs.pos_pairs, ascending height and then by row.
    """
    tw, m = cx.tower, cx.m
    u = list(cx.identity)
    for a, b in cx.rs.phi_minus_pairs(x):
        c = R[a][b]
        if c == tw.ZERO:
            continue
        Ra, Rb = R[a], R[b]
        for j2 in range(b, m):
            Ra[j2] = tw.sub(Ra[j2], tw.mul(c, Rb[j2]))
        # u <- u * eps((a, b), c): add c times column a to column b
        for i in range(a + 1):
            u[i * m + b] = tw.add(u[i * m + b], tw.mul(c, u[i * m + a]))
    return tuple(u)


# -- characters ------------------------------------------------------------------


def iota(chars, x: int) -> int:
    """The embedding of the ambient multiplicative group into F_ell^*, read
    off eval_diag: the character with exponents (1, 0, .., 0) sends a
    diagonal with first entry x to iota(x)."""
    if x == chars.tower.ZERO:
        raise ValueError("iota of zero")
    rank = chars.rs.rank
    return chars.eval_diag((1,) + (0,) * (rank - 1), (x,) * (rank + 1))


def eval_B(chars, theta, b) -> int:
    """theta on an element of the Borel subgroup: theta of its diagonal."""
    if not is_upper_triangular(chars.chev, b):
        raise ValueError("element not in the Borel subgroup")
    return chars.eval_diag(theta, chars.chev.diag_of(b))


def level_consistent(chars, theta) -> bool:
    """I(theta) is the same at every level."""
    top = chars.i_theta(theta, chars.tower.N)
    return all(
        chars.i_theta(theta, k) == top for k in range(1, chars.tower.N + 1)
    )


# -- modules ---------------------------------------------------------------------


def pivots(S) -> list[int]:
    """The pivot columns of a Subspace, ascending."""
    return [int(c) for c in np.nonzero(S.have)[0]]


def act(mod, g, vec: dict) -> dict:
    """g . vec on sparse vectors, through the stacked action."""
    return mod.from_dense(mod.act_stack([g], mod.to_dense(vec))[0])


def key_json(ctx, key) -> list:
    """A key as [reduced word of w, scalar indices of u on Phi_{w^-1}^-]."""
    w, u = key
    pairs = ctx.rs.phi_minus_pairs(ctx.rs.inv(w))
    entries = [ctx.tower.scalar_index(u[a * ctx.chev.m + b]) for a, b in pairs]
    return [list(w.word), entries]


def vec_json(ctx, vec: dict) -> list:
    """A sparse vector as [key_json, coefficient] pairs in key order."""
    items = sorted(vec.items(), key=lambda kv: ctx.key_index[kv[0]])
    return [[key_json(ctx, key), int(c)] for key, c in items]


def simplicity_probe(em, samples: int = 5) -> bool:
    """Spin random nonzero classes of a quotient; True if each regenerates
    all of M_J mod N."""
    rng = random.Random(modules._STABILITY_SEED + 1)
    reps = [row for row in em.M.basis_matrix() if not em.N.contains(row)]
    if not reps:
        return em.dim == 0
    for _ in range(samples):
        vec = rng.choice(reps).copy()
        vec = (vec + rng.randrange(1, em.ell) * rng.choice(reps)) % em.ell
        if em.N.contains(vec):
            continue
        S = em.ctx.spin([em.ctx.from_dense(vec)])
        if S.union(em.N).dim != em.M.dim:
            return False
    return True


def calibrate_scalar_convention(contexts, Js=None) -> dict:
    """Decide the torus-twist convention in the shorter-case formula by
    scanning every applicable (J, i, w, x) across the given module contexts."""
    fwd_ok, bwd_ok, case_i = True, True, 0
    for ctx in contexts:
        for J, i, w, x in modules.straightening_instances(ctx, Js):
            # s_i w and w differ in length by one: the shorter case is case (i)
            if ctx.rs.mul(ctx.rs.s(i), w).length > w.length:
                continue
            rep = ctx.verify_straightening(J, i, w, x)
            case_i += 1
            fwd_ok = fwd_ok and rep["matches_fwd"]
            bwd_ok = bwd_ok and rep["matches_bwd"]
    return modules.scalar_convention(fwd_ok, bwd_ok, case_i)


# -- the induced module of the socle check -----------------------------------------


def induced_module(chars, theta, J, k: int) -> modules.KeyedModule:
    """The level-k module induced from the parabolic of J' = I(theta) - J,
    as check_socle builds it; J must lie in I(theta)."""
    J = frozenset(J)
    itheta = chars.i_theta(chars.normalize(theta))
    if not J <= itheta:
        raise ValueError("J must be contained in I(theta)")
    return modules.KeyedModule(chars, theta, k, itheta - J)


def coset_key(nb, g):
    """Canonical basis key of the coset g P_{J'} of an induced module,
    through bruhat_form and peel_unipotent: the one-element oracle of
    KeyedModule._locate."""
    cx, rs, m = nb.chev, nb.rs, nb.chev.m
    bf = cx.bruhat_form(g)
    x = rs.elements[nb._min_reps[rs.elements.index(bf.w)]]
    R = [list(bf.u[i * m : (i + 1) * m]) for i in range(m)]
    return (x, peel_unipotent(cx, R, rs.inv(x)))


def induced_act_key(nb, g, key) -> tuple:
    """g . key in an induced module one key at a time: the image key and
    the scale theta(key'^-1 g key), the oracle of KeyedModule._locate."""
    cx = nb.chev
    gk = cx.mat_mul(g, nb.key_mat(key))
    key2 = coset_key(nb, gk)
    bf = cx.bruhat_form(cx.mat_mul(cx.mat_inv(nb.key_mat(key2)), gk))
    assert set(bf.w.word) <= nb.Jp, "key^-1 g key outside P_J'"
    return key2, nb.chars.eval_diag(nb.theta, bf.t)
