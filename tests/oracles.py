"""Reference computations that only the tests call.

Every fast path of bruhatlab is checked against a slow computation: one
element, one key or one scalar at a time, straight from the definition.
Those references live here, as functions over the package's public objects,
so that `src/bruhatlab` holds only what the program runs.
`tests/test_layout.py` checks that no callable in `src/` is left without a
caller there, and no defaulted parameter without a caller there that sets it.

The scalar Bruhat elimination `bruhat_form` is the reference for
`Chevalley.bruhat_cells`, the one elimination in `src/`, and through it for
`Chevalley.bruhat_form`, `rank1_constants` and the module actions (`act_key`,
`coset_key`, `induced_act_key`), so that `bruhat_cells` is never checked
against itself.  `ModuleContext.act_key` and `Chevalley.bruhat_form` stay in
`src/` because the benchmark's tracer wraps them; there they run through
`bruhat_cells`.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce

import numpy as np

from bruhatlab import extlab, modules
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


def bruhat_form(cx, g) -> BruhatForm:
    """The Bruhat form g = u * wdot(w) * t * v of one element by scalar pivot
    elimination: column by column the pivot is the last unused row with a
    nonzero entry; column operations clear the pivot row to its right and
    build v, row operations clear the pivot column above it and build u.
    The reference of Chevalley.bruhat_cells."""
    tw, m, rs = cx.tower, cx.m, cx.rs
    M = [list(g[i * m : (i + 1) * m]) for i in range(m)]
    u_acc = [list(cx.identity[i * m : (i + 1) * m]) for i in range(m)]
    v_acc = [list(cx.identity[i * m : (i + 1) * m]) for i in range(m)]
    used = [False] * m
    perm_col = [0] * m
    for j in range(m):
        piv = max(r for r in range(m) if not used[r] and M[r][j] != tw.ZERO)
        used[piv] = True
        perm_col[j] = piv
        inv = tw.inv(M[piv][j])
        # clear pivot row to the right (column ops; right factor)
        for j2 in range(j + 1, m):
            c = tw.mul(M[piv][j2], inv)
            if c != tw.ZERO:
                for r in range(m):
                    M[r][j2] = tw.sub(M[r][j2], tw.mul(c, M[r][j]))
                # v_acc <- (I + c E_{j,j2}) v_acc
                for col in range(m):
                    v_acc[j][col] = tw.add(v_acc[j][col], tw.mul(c, v_acc[j2][col]))
        # clear pivot column upward (row ops; left factor)
        for r in range(piv):
            c = tw.mul(M[r][j], inv)
            if c != tw.ZERO:
                for j2 in range(m):
                    M[r][j2] = tw.sub(M[r][j2], tw.mul(c, M[piv][j2]))
                # u_acc <- u_acc (I + c E_{r,piv})
                for row in range(m):
                    u_acc[row][piv] = tw.add(u_acc[row][piv], tw.mul(c, u_acc[row][r]))
    w = {x.perm: x for x in rs.elements}[tuple(perm_col)]
    monomial = tuple(x for row in M for x in row)
    t_mat = cx.mat_mul(cx.mat_inv(cx.wdot(w)), monomial)
    t = cx.diag_of(t_mat)
    assert t_mat == cx.torus(t), "pivot pattern mismatch"
    # a row operation adds E_{r,piv} only where r pivots a later column, an
    # inversion of the pivot pattern, so u_acc lies in U_{w^-1} already
    u = tuple(x for row in u_acc for x in row)
    inside = set(rs.phi_minus_pairs(rs.inv(w)))
    off = [a * m + b for a, b in rs.pos_pairs if (a, b) not in inside]
    assert all(u[i] == tw.ZERO for i in off), "left factor outside U_{w^-1}"
    return BruhatForm(u=u, w=w, t=t, v=tuple(x for row in v_acc for x in row))


def rank1_constants(cx, i: int, x):
    """(f, h, g2) with sdot_i eps_i(x) sdot_i^{-1} = eps_i(f) sdot_i
    coroot_i(h) eps_i(g2), read off the scalar Bruhat form of the left side:
    the oracle of Chevalley.rank1_constants's closed form."""
    s = cx.sdot(i)
    bf = bruhat_form(cx, cx.mat_prod([s, cx.eps_simple(i, x), cx.mat_inv(s)]))
    assert bf.w == cx.rs.s(i), "rank-1 element fell outside the s_i cell"
    pos = (i - 1) * cx.m + i
    f, h, g2 = bf.u[pos], bf.t[i - 1], bf.v[pos]
    # the torus part is exactly coroot(i, h), and v a pure root element
    assert bf.t == cx.diag_of(cx.coroot(i, h))
    assert bf.v == cx.eps_simple(i, g2)
    return f, h, g2


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


def i_theta_at(chars, theta, k: int) -> frozenset:
    """{i : theta trivial on the level-k piece of the i-th coroot torus};
    Characters.i_theta is the top level, k = N."""
    theta = chars.normalize(theta)
    mk = chars.tower.level_size(k) - 1
    return frozenset(i for i in chars.rs.I if theta[i - 1] % mk == 0)


def level_consistent(chars, theta) -> bool:
    """I(theta) is the same at every level."""
    top = chars.i_theta(theta)
    return all(
        i_theta_at(chars, theta, k) == top for k in range(1, chars.tower.N + 1)
    )


# -- modules ---------------------------------------------------------------------


def pivots(S) -> list[int]:
    """The pivot columns of a Subspace, ascending."""
    return [int(c) for c in np.nonzero(S.have)[0]]


def tagged_nullspace_coeffs(rows, ell: int) -> list:
    """The kernel of extlab.nullspace_coeffs, one row at a time: each row
    enters tagged with its unit vector, and a row whose leading part reduces
    to zero leaves its relation in the tag block.  Every pivot stays in the
    leading D columns, since a residue with a nonzero leading part has its
    first nonzero entry there."""
    n = len(rows)
    if n == 0:
        return []
    D = len(rows[0])
    tagged = modules.Subspace(D + n, ell)
    out = []
    for j, row in enumerate(rows):
        vec = np.zeros(D + n, dtype=np.int64)
        vec[:D] = row
        vec[D + j] = 1
        res = tagged.residue(vec)
        if res[:D].any():
            tagged.insert(res)
        else:
            out.append(res[D:])
    return out


def act_key(ctx, g, key) -> tuple:
    """g . key in the Bruhat module one key at a time, through the scalar
    bruhat_form of g * key: the image key (w, u) and the scale theta(t), the
    oracle of KeyedModule._locate for J' empty."""
    bf = bruhat_form(ctx.chev, ctx.chev.mat_mul(g, ctx.key_mat(key)))
    return (bf.w, bf.u), ctx.chars.eval_diag(ctx.theta, bf.t)


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
    bf = bruhat_form(cx, g)
    x = rs.elements[nb._min_reps[rs.elements.index(bf.w)]]
    R = [list(bf.u[i * m : (i + 1) * m]) for i in range(m)]
    return (x, peel_unipotent(cx, R, rs.inv(x)))


def induced_act_key(nb, g, key) -> tuple:
    """g . key in an induced module one key at a time: the image key and
    the scale theta(key'^-1 g key), the oracle of KeyedModule._locate."""
    cx = nb.chev
    gk = cx.mat_mul(g, nb.key_mat(key))
    key2 = coset_key(nb, gk)
    bf = bruhat_form(cx, cx.mat_mul(cx.mat_inv(nb.key_mat(key2)), gk))
    assert set(bf.w.word) <= nb.Jp, "key^-1 g key outside P_J'"
    return key2, nb.chars.eval_diag(nb.theta, bf.t)


# -- the central splitter ------------------------------------------------------


def untwisted_extension(chars, lam, mu, J, K, k: int):
    """A SynthExtension of the configuration without its twist: its matrices
    are writable copies of the untwisted blocks of split_blocks."""
    ext = extlab.SynthExtension(chars, lam, mu, J, K, k, seed=0)
    blocks = extlab.split_blocks(chars, lam, mu, J, K, k)
    ext.gens = [np.array(Mb) for Mb in blocks.gens]
    ext.c0_mat = np.array(blocks.c0_block)
    return ext
