"""Principal series modules with Bruhat bases over F_ell.

A module vector is a dense int64 array of residues in [0, ell), one entry
per basis key (w, u) in the order of `keys`; the key names the basis
element u * wdot(w) * highest_vector, and u runs over the level-k points of
the unipotent group attached to Phi_{w^-1}^-.  Keys are level-agnostic, so
the level-k module literally embeds in the level-(k+1) one.

The action of any group element is monomial on this basis (it permutes keys
and scales by a character value), which makes spans and spin-up closures
cheap dense row-reduction over F_ell.  Spun submodules, their sums, and the
resulting quotients (with canonical coset representatives given by echelon
reduction) realize the generated-submodule and simple-quotient constructions.
One class, `KeyedModule(chars, theta, k, J')`, is both realizations: the
Bruhat module (`ModuleContext`) has J' empty, and `check_socle` spins a
generator inside the module induced from the parabolic of J' = I(theta) - J
and compares its dimension with the quotient's.  Its one stacked action runs
every (group element, key) pair of a call through one batched product and
one Bruhat-cell pass, with one `_locate` naming the key and scale of each
product.  The per-element references the tests compare these against live
in tests/oracles.py.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from . import _backend as kern
from .characters import Characters
from .chevalley import Mat
from .fieldtower import BudgetError
from .rootdata import WeylElt

KEY_BUDGET = 10**5
# bytes of one dense D x D int64 echelon array: A3 p=2 at level 2 (D = 8,925,
# about 640 MB) fits, A1 p=5 N=3 at level 3 (D = 15,626, about 2 GB) does not
ECHELON_BYTES_BUDGET = 2**30
# bytes of one stack of images in spin_closure: the frontier's images under
# the generators, and the basis images under the stability samples, are
# built and reduced at most this many bytes at a time (one row's images at
# A3 p=2 level 2, 15 tables of D = 8,925, take 1.07 MB)
SPIN_CHUNK_BYTES = 2**21
# rows of a stack that Subspace.extend reduces in one stacked residue: rows
# made dependent by the inserts of their own chunk still reach insert, so
# small chunks waste few inserts.  16, 32 and 64 time the same within noise
# on the A2 p=3 club, the A1 p=3 N=3 probe, verify socle A2 p=2 k=2 and a
# split pass, while one residue over a whole stack made the probe's kernel
# step reject 7,313 inserts instead of 251
EXTEND_ROWS = 32
STABILITY_SAMPLES = 8
_STABILITY_SEED = 20260818


class Subspace:
    """Row space over F_ell in reduced row echelon form, fixed ambient dimension."""

    def __init__(self, D: int, ell: int):
        if ell * ell * (D + 1) >= 2**63:
            raise OverflowError(f"residues overflow int64: ell={ell}, D={D}")
        nbytes = 8 * D * D
        if nbytes > ECHELON_BYTES_BUDGET:
            raise BudgetError("echelon basis", "memory", "ECHELON_BYTES_BUDGET",
                              ECHELON_BYTES_BUDGET, nbytes, "bytes")
        self.D, self.ell = D, ell
        self.rows = np.zeros((D, D), dtype=np.int64)
        self.have = np.zeros(D, dtype=np.uint8)

    @property
    def dim(self) -> int:
        return int(self.have.sum())

    def insert(self, vec) -> int:
        v = np.array(vec, dtype=np.int64)
        v %= self.ell
        return int(kern.echelon_insert(self.rows, self.have, v, self.ell))

    def extend(self, stack) -> np.ndarray:
        """Insert every row of a (k, D) stack in order, with the result of
        inserting them one at a time: the same rows and pivot flags, and the
        pivot of each row, -1 for a row already in the span.

        The stack is reduced modulo the current span EXTEND_ROWS rows at a
        time, each chunk in one stacked residue, and only the rows whose
        residue is nonzero go through `insert`: a residue differs from its
        row by an element of the span, so `insert` gives it the same pivot,
        and a zero residue means a row in the span.  Once the span is
        everything, the remaining rows are not inserted.
        """
        stack = np.asarray(stack, dtype=np.int64)
        stack = stack.reshape(len(stack), self.D)
        piv = np.full(len(stack), -1, dtype=np.int64)
        dim = self.dim
        for lo in range(0, len(stack), EXTEND_ROWS):
            res = self.residue(stack[lo:lo + EXTEND_ROWS])
            for j in res.any(axis=1).nonzero()[0]:
                if dim == self.D:
                    return piv
                piv[lo + j] = self.insert(res[j])
                dim += int(piv[lo + j] >= 0)
        return piv

    def residue(self, vec) -> np.ndarray:
        """Canonical representative of vec modulo this subspace: it depends
        only on the coset of vec, and is linear in vec.  A (k, D) stack is
        reduced row by row."""
        v = np.array(vec, dtype=np.int64)
        v %= self.ell
        return kern.echelon_reduce(self.rows, self.have, v, self.ell)

    def contains(self, vec) -> bool:
        """vec, or every row of a stack, lies in this subspace."""
        return not self.residue(vec).any()

    def apply(self, vec):
        """The rest of the span element whose leading part is vec, the
        leading part being the first len(vec) entries: when every pivot lies
        in the leading columns the span is the graph of a linear map, and
        this is the image of vec under it.  A (k, n) stack gives one row per
        row.  None when vec, or some row of the stack, is outside the span
        of the leading parts."""
        vec = np.asarray(vec)
        n = vec.shape[-1]
        full = np.zeros(vec.shape[:-1] + (self.D,), dtype=np.int64)
        full[..., :n] = vec
        res = self.residue(full)
        if res[..., :n].any():
            return None
        return -res[..., n:] % self.ell

    def basis_matrix(self) -> np.ndarray:
        """The basis rows, in pivot order, as one (dim, width) array."""
        return self.rows[np.flatnonzero(self.have)]

    def copy(self) -> "Subspace":
        out = Subspace(self.D, self.ell)
        out.rows[:] = self.rows
        out.have[:] = self.have
        return out

    def union(self, other: "Subspace") -> "Subspace":
        out = self.copy()
        out.extend(other.basis_matrix())
        return out

    def leq(self, other: "Subspace") -> bool:
        return other.contains(self.basis_matrix())


# -- vector helpers ---------------------------------------------------------------

def subsets(indices) -> list[frozenset]:
    """All subsets of indices, canonically ordered (size, then sorted tuple)."""
    base = sorted(indices)
    return [
        frozenset(combo)
        for size in range(len(base) + 1)
        for combo in itertools.combinations(base, size)
    ]


class KeyedModule:
    """The level-k module induced from the parabolic P_{J'}, on a monomial
    basis of keys (w, u): w runs over the minimal representatives of the
    cosets w W_{J'} (all of rs.elements, in order, when J' is empty: the
    principal series), u over the level-k points of the unipotent group
    attached to Phi_{w^-1}^-, and the key stands for u * wdot(w).

    The action is written once, on code arrays: `_images` multiplies paired
    group elements and keys in one batched product and hands the products
    h = g * key to `_locate(H)`, which names the key and scale of each h in
    one stacked Bruhat-cell pass.  `act_stack`, `act_sum`, `action_table`
    and `action_tables` are built on it.  Its per-key oracles, `act_key` for
    J' empty and `induced_act_key` for the induced module, live in
    tests/oracles.py and go through the scalar Bruhat elimination one
    element at a time.
    """

    def __init__(self, chars: Characters, theta, k: int, Jp=frozenset()):
        self.chars = chars
        self.chev = chars.chev
        self.rs = rs = chars.rs
        self.tower = chars.tower
        self.theta = chars.normalize(theta)
        self.k = k
        self.Jp = frozenset(Jp)
        self.ell = chars.coeff.ell
        reps = rs.min_coset_reps(self.Jp)
        qk = self.tower.level_size(k)
        total = sum(qk**w.length for w in reps)
        if total > KEY_BUDGET:
            raise BudgetError("module basis", "key", "KEY_BUDGET", KEY_BUDGET,
                              total, "keys")
        self.keys = [(w, u) for w in reps for u in self.chev.enum_U_w(rs.inv(w), k)]
        self.D = len(self.keys)
        self.key_index = {key: i for i, key in enumerate(self.keys)}
        self.one_key = (rs.e, self.chev.identity)
        index = {w: e for e, w in enumerate(rs.elements)}
        sub = rs.subgroup(self.Jp)
        # rs.elements index of the minimal representative of each coset w W_{J'}
        self._min_reps = np.array([
            index[min((rs.mul(w, rs.inv(y)) for y in sub), key=lambda z: z.length)]
            for w in rs.elements
        ])
        for w, e in zip(rs.elements, self._min_reps):
            x = rs.elements[e]
            assert not rs.descents(x) & self.Jp, "coset representative not minimal"
            assert set(rs.mul(rs.inv(x), w).word) <= self.Jp, "w outside x W_J'"
        self._key_mats: dict = {}
        self._tables: dict = {}
        self._etas: dict = {}
        self._samples: list | None = None
        self._build_key_tables()

    def _build_key_tables(self) -> None:
        """The key matrices as a (D, m*m) code array, the index of each code
        in level_members(k) (-1 outside level k), and per Weyl element w
        (in rs.elements order) the index of its key (w, 1), -1 when w is not
        a representative, and the mixed-radix weight of each strictly upper
        entry of u (0 off Phi_{w^-1}^-), in the order of enum_U_w."""
        cx, tw, rs, m = self.chev, self.tower, self.rs, self.chev.m
        self._key_codes = kern.mat_mul_codes(
            np.array([u for _, u in self.keys], dtype=np.int64),
            np.array([cx.wdot(w) for w, _ in self.keys], dtype=np.int64),
            m, tw.zech, tw.Q1,
        )
        members = tw.level_members(self.k)
        self._level = np.full(tw.Q1 + 1, -1, dtype=np.int64)
        self._level[members] = np.arange(len(members))
        self._upper = np.array([a * m + b for a, b in rs.pos_pairs])
        self._offset = np.zeros(len(rs.elements), dtype=np.int64)
        self._weight = np.zeros((len(rs.elements), rs.n), dtype=np.int64)
        for e, w in enumerate(rs.elements):
            self._offset[e] = self.key_index.get((w, cx.identity), -1)
            pairs = rs.phi_minus_pairs(rs.inv(w))
            for j, ab in enumerate(reversed(pairs)):
                self._weight[e, rs.pos_pairs.index(ab)] = len(members) ** j

    # -- basis plumbing ----------------------------------------------------

    def key_mat(self, key) -> Mat:
        if key not in self._key_mats:
            w, u = key
            self._key_mats[key] = self.chev.mat_mul(u, self.chev.wdot(w))
        return self._key_mats[key]

    # -- the module action -----------------------------------------------------

    def _images(self, G, src) -> tuple:
        """Key index and scale of g_r . key_{src_r} for the paired rows of an
        (n, m*m) code array G and n key indices, SCAN_CHUNK pairs at a time."""
        tw, m = self.tower, self.chev.m
        idx = np.empty(len(src), dtype=np.int64)
        scale = np.empty(len(src), dtype=np.int64)
        for lo in range(0, len(src), kern.SCAN_CHUNK):
            s = slice(lo, lo + kern.SCAN_CHUNK)
            H = kern.mat_mul_codes(G[s], self._key_codes[src[s]], m, tw.zech, tw.Q1)
            idx[s], scale[s] = self._locate(H)
        return idx, scale

    def _locate(self, H) -> tuple:
        """Key index and scale of each row h of H: h = key' * p with key' the
        key of the coset h P_{J'}, and the scale is theta(p), p in P_{J'}.

        The Bruhat cell h = u * wdot(w) * t * v gives both.  With x =
        _min_reps[w], w = x * y with y in W_{J'} and l(w) = l(x) + l(y), so
        the Tits lift has wdot(w) = wdot(x) * wdot(y).  The peel u = u' * R,
        u' on Phi_{x^-1}^- and R zero there, gives key' = u' * wdot(x), and
        wdot(x)^-1 R wdot(x) lies in U.  So p = key'^-1 * h = (wdot(x)^-1 R
        wdot(x)) * wdot(y) * t * v, and as the torus part of U wdot(y) T U is
        unique, theta(p) = theta(t).  With J' empty x = w, and the peel, which
        would return u unchanged, is skipped.
        """
        widx, u, t = self.chev.bruhat_cells(H)
        if self.Jp:
            widx = self._min_reps[widx]
            u = self.chev.peel_unipotents(u, widx)[0]
        return self._key_indices(widx, u), self.chars.eval_diags(self.theta, t)

    def _key_indices(self, widx, u) -> np.ndarray:
        """Index of the key (w, u) of each row, w = rs.elements[widx]."""
        digits = self._level[u[:, self._upper]]
        if (digits < 0).any():
            raise ValueError(f"image key has entries outside level {self.k}")
        return self._offset[widx] + (digits * self._weight[widx]).sum(axis=1)

    def _act_terms(self, G, dense) -> tuple:
        """The terms of g . dense for every row g of an (n, m*m) code array G
        of level-k elements: (n, gi, idx, terms), one entry per pair (g_gi,
        key) with key in the support of dense, all pairs through one _images
        call; the term, below ell, lands on key index idx."""
        G = np.asarray(G, dtype=np.int64).reshape(-1, self.chev.m ** 2)
        if (self._level[G] < 0).any():
            raise ValueError(f"group element has entries outside level {self.k}")
        dense = np.asarray(dense, dtype=np.int64) % self.ell
        src = dense.nonzero()[0]
        gi = np.repeat(np.arange(len(G)), src.size)
        ki = np.tile(src, len(G))
        idx, scale = self._images(G[gi], ki)
        return len(G), gi, idx, dense[ki] * scale % self.ell

    def act_stack(self, G, dense) -> np.ndarray:
        """g . dense for every row g of an (n, m*m) code array G of level-k
        elements, as the (n, D) stack of images."""
        n, gi, idx, terms = self._act_terms(G, dense)
        out = np.zeros((n, self.D), dtype=np.int64)
        out[gi, idx] = terms
        return out

    def act_sum(self, G, weights, dense) -> np.ndarray:
        """sum_r weights[r] * (g_r . dense) mod ell over the rows g_r of an
        (n, m*m) code array G of level-k elements, as one D-vector; the zero
        vector when G is empty.

        The pairs are those of act_stack, and each weighted term, reduced
        below ell, is added into its key by np.bincount.  bincount sums in
        float64, which is exact while every sum stays below 2^53: that holds
        when (number of pairs) * ell < 2^53, which is checked.
        """
        _, gi, idx, terms = self._act_terms(G, dense)
        ell = self.ell
        assert terms.size * ell < 2**53, "bincount sum could round"
        terms = np.asarray(weights, dtype=np.int64)[gi] % ell * terms % ell
        sums = np.bincount(idx, weights=terms, minlength=self.D)
        return sums.astype(np.int64) % ell

    def alternating_sum(self, J, dense) -> np.ndarray:
        """sum over w in W_J of (-1)^l(w) * (wdot(w) . dense) mod ell, as one
        D-vector.  The identity term is dense itself and the others are one
        act_sum, so with J empty no action runs."""
        ws = self.rs.subgroup(J)[1:]  # the identity comes first
        dense = np.asarray(dense, dtype=np.int64) % self.ell
        if not ws:
            return dense
        signs = [self.ell - 1 if w.length % 2 else 1 for w in ws]
        terms = self.act_sum([self.chev.wdot_in(J, w) for w in ws], signs, dense)
        return (dense + terms) % self.ell

    def action_table(self, g: Mat):
        """Monomial form of g: (perm, scale) with g.key_i = scale_i * key_{perm_i}."""
        if g not in self._tables:
            self.action_tables([g])
        return self._tables[g]

    def action_tables(self, gs) -> list:
        """action_table of every element of gs, the missing tables built in
        one stacked pass.  The elements need not lie in level k (a central
        element of a higher level acts), but every image key must."""
        todo = [g for g in dict.fromkeys(gs) if g not in self._tables]
        if todo:
            G = np.repeat(np.array(todo, dtype=np.int64), self.D, axis=0)
            src = np.tile(np.arange(self.D), len(todo))
            idx, scale = (a.reshape(-1, self.D) for a in self._images(G, src))
            for g, perm, sc in zip(todo, idx, scale):
                counts = np.bincount(perm, minlength=self.D)
                assert (counts == 1).all(), "module action is not a key bijection"
                self._tables[g] = (perm, sc)
        return [self.action_table(g) for g in gs]

    def apply_table(self, table, dense: np.ndarray) -> np.ndarray:
        """g applied to a dense vector, or to each row of a (k, D) stack."""
        perm, scale = table
        out = np.zeros(dense.shape, dtype=np.int64)
        out[..., perm] = dense * scale % self.ell
        return out

    # -- distinguished vectors ------------------------------------------------

    def i_theta(self) -> frozenset:
        return self.chars.i_theta(self.theta)

    def eta(self, J) -> np.ndarray:
        """Alternating sum of the wdot(w)-translates of the one key, w in W_J
        (alternating_sum), computed once per J and returned read-only."""
        J = frozenset(J)
        if not J <= self.i_theta():
            raise ValueError("J must be contained in I(theta)")
        if J not in self._etas:
            one = np.zeros(self.D, dtype=np.int64)
            one[self.key_index[self.one_key]] = 1
            eta = self.alternating_sum(J, one)
            eta.setflags(write=False)
            self._etas[J] = eta
        return self._etas[J]

    def generators(self) -> list[Mat]:
        return level_generators(self.chev, self.k)

    def stability_samples(self) -> list[Mat]:
        """The STABILITY_SAMPLES random level-k elements that spin_closure
        checks a span against, drawn once per module from a fixed seed."""
        if self._samples is None:
            rng = random.Random(_STABILITY_SEED)
            self._samples = [
                self.random_group_elt(rng) for _ in range(STABILITY_SAMPLES)
            ]
        return self._samples

    def random_group_elt(self, rng: random.Random) -> Mat:
        cx, tw = self.chev, self.tower
        members = tw.level_members(self.k)
        nonzero = members[1:]
        w = rng.choice(self.rs.elements)
        u = cx._from_entry_support(
            self.rs.phi_minus_pairs(self.rs.inv(w)),
            [rng.choice(members) for _ in range(w.length)],
        )
        v = cx._from_entry_support(
            self.rs.pos_pairs, [rng.choice(members) for _ in range(self.rs.n)]
        )
        free = [rng.choice(nonzero) for _ in range(self.rs.rank)]
        prod = tw.ONE
        for c in free:
            prod = tw.mul(prod, c)
        t = cx.torus(tuple(free) + (tw.inv(prod),))
        return cx.mat_prod([u, cx.wdot(w), t, v])

    # -- spin-up closure ---------------------------------------------------------

    def spin(self, seeds) -> Subspace:
        return spin_closure(self, seeds)


class ModuleContext(KeyedModule):
    """The level-k principal series module for one character theta: the
    product h = u * wdot(w) * t * v of the Bruhat form sends the one key
    to theta(t) times the key (w, u)."""

    def __init__(self, chars: Characters, theta, k: int):
        super().__init__(chars, theta, k)
        self._spins: dict = {}
        self._straightening: dict = {}

    def act_key(self, g: Mat, key):
        """g . key one key at a time through bruhat_form, so through
        bruhat_cells.  Nothing in src/ calls it: it stays because the
        benchmark's tracer wraps it, and goes once the tracer no longer
        does.  The tests hold it to the oracle act_key in tests/oracles.py."""
        bf = self.chev.bruhat_form(self.chev.mat_mul(g, self.key_mat(key)))
        return (bf.w, bf.u), self.chars.eval_diag(self.theta, bf.t)

    # -- simple quotients -----------------------------------------------------

    def _spin_eta(self, K: frozenset) -> Subspace:
        """The spin of eta(K), built once per K and read-only, so that a walk
        over J spins each K once and no quotient can change it."""
        if K not in self._spins:
            S = self.spin([self.eta(K)])
            S.rows.setflags(write=False)
            S.have.setflags(write=False)
            self._spins[K] = S
        return self._spins[K]

    def e_module(self, J) -> "EModule":
        J = frozenset(J)
        itheta = self.i_theta()
        if not J <= itheta:
            raise ValueError("J must be contained in I(theta)")
        M = self._spin_eta(J)
        N = Subspace(self.D, self.ell)
        for S in subsets(itheta - J)[1:]:  # every K with J < K <= I(theta)
            N = N.union(self._spin_eta(J | S))
        if not N.leq(M):
            raise AssertionError("N(theta)_J escaped M(theta)_J")
        C = N.residue(self.eta(J))
        return EModule(ctx=self, J=J, M=M, N=N, C=C)

    def predicted_dim(self, J) -> int:
        """Dimension of the simple quotient for J from the translate count:
        the sum of q_k^{l(w_J w^-1)} over w in Z(J)."""
        J = frozenset(J)
        wJ = self.rs.longest(J)
        qk = self.tower.level_size(self.k)
        return sum(
            qk ** self.rs.mul(wJ, self.rs.inv(w)).length
            for w in self.rs.z_set(J, self.i_theta())
        )

    def check_translate_basis(self, J) -> dict:
        J = frozenset(J)
        em = self.e_module(J)
        cx, rs = self.chev, self.rs
        wJ = rs.longest(J)
        gs = [
            cx.mat_mul(u, cx.wdot(w))
            for w in rs.z_set(J, self.i_theta())
            for u in cx.enum_U_w(rs.mul(wJ, rs.inv(w)), self.k)
        ]
        span = Subspace(self.D, self.ell)
        imgs = em.project(self.act_stack(gs, self.eta(J)))
        independent = bool((span.extend(imgs) >= 0).all())
        num = len(gs)
        predicted = self.predicted_dim(J)
        report = {
            "theta": list(self.theta),
            "J": sorted(J),
            "level": self.k,
            "num_vectors": num,
            "predicted_count": predicted,
            "dim_E": em.dim,
            "independent": independent,
            "spanning": span.dim == em.dim,
            "count_identity": predicted == em.dim,
        }
        report["ok"] = bool(
            independent and report["spanning"] and report["count_identity"]
        )
        return report

    def _straightening_images(self, J: frozenset) -> dict:
        """(wdot(w), sdot(i) eps_i(x) wdot(w), eps_i(f) wdot(w)) . eta(J) of
        every applicable (i, w, x) of J, f from rank1_constants(i, x): one
        stacked action per J."""
        if J not in self._straightening:
            cx, gs = self.chev, []
            inst = [(i, w, x) for _, i, w, x in straightening_instances(self, [J])]
            for i, w, x in inst:
                wd, f = cx.wdot(w), cx.rank1_constants(i, x)[0]
                gs += [wd, cx.mat_prod([cx.sdot(i), cx.eps_simple(i, x), wd]),
                       cx.mat_mul(cx.eps_simple(i, f), wd)]
            imgs = self.act_stack(gs, self.eta(J))
            self._straightening[J] = dict(zip(inst, imgs.reshape(-1, 3, self.D)))
        return self._straightening[J]

    def verify_straightening(self, J, i: int, w: WeylElt, x) -> dict:
        J = frozenset(J)
        tw, cx = self.tower, self.chev
        if x == tw.ZERO:
            raise ValueError("x must be nonzero")
        if not tw.in_level(x, self.k):
            raise ValueError("x outside the module level")
        if w not in set(self.rs.min_coset_reps(J)):
            raise ValueError("w must be a minimal coset representative")
        wJ = self.rs.longest(J)
        v = self.rs.mul(wJ, self.rs.inv(w))
        if (i - 1, i) not in set(self.rs.phi_minus_pairs(v)):
            raise ValueError("applicability requires alpha_i in Phi_{w_J w^-1}^-")
        f, h, g2 = cx.rank1_constants(i, x)
        wd = cx.wdot(w)
        w_eta, lhs, f_w_eta = self._straightening_images(J)[(i, w, x)]
        si_w = self.rs.mul(self.rs.s(i), w)
        report = {
            "theta": list(self.theta),
            "J": sorted(J),
            "i": i,
            "w": list(w.word),
            "x": tw.scalar_index(x),
            "level": self.k,
        }
        if si_w.length < w.length:
            # shorter case: scalar twist of the f-translate
            t_mid = cx.mat_prod([cx.sdot(i), cx.coroot(i, h), cx.sdot(i)])
            conj_fwd = cx.mat_prod([wd, t_mid, cx.mat_inv(wd)])
            conj_bwd = cx.mat_prod([cx.mat_inv(wd), t_mid, wd])
            scal_fwd = self.chars.eval(self.theta, conj_fwd)
            scal_bwd = self.chars.eval(self.theta, conj_bwd)
            report["case"] = "i"
            report["matches_fwd"] = bool((lhs == scal_fwd * f_w_eta % self.ell).all())
            report["matches_bwd"] = bool((lhs == scal_bwd * f_w_eta % self.ell).all())
            report["ok"] = bool(report["matches_fwd"] or report["matches_bwd"])
        else:
            # longer case; the applicability condition forces the descent of w w_J
            assert (
                self.rs.mul(si_w, wJ).length < self.rs.mul(w, wJ).length
            ), "applicability must force s_i w w_J below w w_J"
            report["case"] = "ii"
            report["matches"] = bool((lhs == (f_w_eta - w_eta) % self.ell).all())
            report["ok"] = bool(report["matches"])
        return report


class EModule:
    """Quotient M(theta)_J / N(theta)_J with echelon coset representatives.

    It is a module in its own right: a class is its canonical representative
    in the D-dimensional ambient space, and an action table of the ambient
    module acts on classes through `project`, so `spin_closure` spins inside
    the quotient."""

    def __init__(self, ctx: ModuleContext, J: frozenset, M: Subspace, N: Subspace, C):
        self.ctx = ctx
        self.D, self.ell = ctx.D, ctx.ell
        self.J = J
        self.M = M
        self.N = N
        self.C = C  # canonical representative of the quotient generator
        self.dim = M.dim - N.dim

    def project(self, dense) -> np.ndarray:
        return self.N.residue(dense)

    def action_tables(self, gs) -> list:
        return self.ctx.action_tables(gs)

    def apply_table(self, table, dense: np.ndarray) -> np.ndarray:
        """The class of g applied to a class, or to each row of a stack."""
        return self.project(self.ctx.apply_table(table, dense))

    def class_basis(self) -> np.ndarray:
        # echelon rows of the projected span; each row is a canonical
        # representative since residues are closed under linear combinations
        span = Subspace(self.D, self.ell)
        span.extend(self.project(self.M.basis_matrix()))
        return span.basis_matrix()


def level_generators(chev, k: int) -> list[Mat]:
    """Small level-k generating set of the group: root elements over a field
    basis plus one torus generator per coroot."""
    tw, rs = chev.tower, chev.rs
    gens = []
    for i in rs.I:
        for b in tw.field_basis(k):
            gens.append(chev.eps((i - 1, i), b))
            gens.append(chev.eps((i, i - 1), b))
    gk = tw.generator(k)
    if gk != tw.ONE:
        gens.extend(chev.coroot(i, gk) for i in rs.I)
    return gens


def _image_chunks(mod, tables, vecs):
    """The images of the rows of vecs under every table, in stacks of at
    most SPIN_CHUNK_BYTES bytes (the images of one row at the least)."""
    step = max(1, SPIN_CHUNK_BYTES // (8 * mod.D * max(1, len(tables))))
    for lo in range(0, len(vecs), step):
        part = vecs[lo:lo + step]
        yield np.concatenate([mod.apply_table(t, part) for t in tables])


def spin_closure(mod, seeds, gens=None) -> Subspace:
    """Smallest subspace containing the dense seeds and stable under the
    generators: the one spin-up routine, for a module, a quotient
    (`EModule`) or a direct sum of them (`DirectSum`, whose spin of a pair
    (v, w) is the graph of the equivariant map v -> w when it has no pivot
    past v).

    `mod` provides D, ell, action_tables() and apply_table(), and also
    generators() and stability_samples() when `gens` is None.

    The spin runs by frontiers.  The first frontier is the echelon rows of
    the seeds; each round applies every generator table to the whole
    frontier and extends the span by the images, SPIN_CHUNK_BYTES of them
    at a time, and the next frontier is the rows at the pivots that round
    added: with the older rows they span the new span, so every vector of
    the span has its images in it once a round adds nothing.  The spin
    stops there, or once the span is the whole module, where no image can
    add to it.

    The stability check applies random level-k elements of `mod` to the
    whole basis and tests every image in stacked residues.  It runs exactly
    when `gens` is None (given generators may generate a smaller group) and
    the span is proper: the whole module contains every vector, so there
    the check cannot fail, and its samples are not even drawn.
    """
    S = Subspace(mod.D, mod.ell)
    piv = S.extend(seeds)
    frontier = S.rows[piv[piv >= 0]]
    tables = mod.action_tables(mod.generators() if gens is None else gens)
    while len(frontier) and S.dim < mod.D:
        added = [np.zeros(0, dtype=np.int64)]
        for stack in _image_chunks(mod, tables, frontier):
            piv = S.extend(stack)
            added.append(piv[piv >= 0])
            if S.dim == mod.D:
                break
        frontier = S.rows[np.concatenate(added)]
    if gens is None and S.dim < mod.D:
        samples = mod.action_tables(mod.stability_samples())
        chunks = _image_chunks(mod, samples, S.basis_matrix())
        if not all(S.contains(stack) for stack in chunks):
            raise AssertionError("spin closure is not group stable")
    return S


class DirectSum:
    """Modules side by side: a vector is the concatenation of one vector of
    each summand, and an action table the tuple of the summands' tables."""

    def __init__(self, *mods):
        self.mods = mods
        self.ell = mods[0].ell
        self.cuts = np.cumsum([0] + [mod.D for mod in mods])
        self.D = int(self.cuts[-1])

    def action_tables(self, gs) -> list:
        return list(zip(*(mod.action_tables(gs) for mod in self.mods)))

    def apply_table(self, table, dense: np.ndarray) -> np.ndarray:
        """g applied to a dense vector, or to each row of a (k, D) stack."""
        parts = zip(self.mods, table, self.cuts, self.cuts[1:])
        return np.concatenate(
            [mod.apply_table(t, dense[..., lo:hi]) for mod, t, lo, hi in parts],
            axis=-1,
        )


def check_socle(ctx: ModuleContext, J) -> dict:
    """Spin the alternating generator inside the induced module and compare
    its dimension with the quotient dimension from the Bruhat-basis side.
    The module context is the caller's, so one context serves every J."""
    J = frozenset(J)
    em = ctx.e_module(J)  # refuses a J outside I(theta)
    nb = KeyedModule(ctx.chars, ctx.theta, ctx.k, ctx.i_theta() - J)
    sub = nb.spin([nb.eta(J)])
    report = {
        "theta": list(ctx.theta),
        "J": sorted(J),
        "level": ctx.k,
        "nabla_dim": nb.D,
        "socle_generator_spin_dim": sub.dim,
        "dim_E": em.dim,
        "ok": sub.dim == em.dim,
    }
    return report


def straightening_instances(ctx: ModuleContext, Js=None):
    """Every applicable (J, i, w, x) of one module context: J runs over Js
    (all subsets of I(theta) by default, those outside it are skipped), w
    over the minimal coset representatives of W_J with alpha_i in
    Phi_{w_J w^-1}^-, and x over the nonzero level-k scalars."""
    itheta = ctx.i_theta()
    rs = ctx.rs
    for J in subsets(itheta) if Js is None else Js:
        J = frozenset(J)
        if not J <= itheta:
            continue
        wJ = rs.longest(J)
        for w in rs.min_coset_reps(J):
            neg = set(rs.phi_minus_pairs(rs.mul(wJ, rs.inv(w))))
            for i in rs.I:
                if (i - 1, i) in neg:
                    for x in ctx.tower.level_members(ctx.k)[1:]:
                        yield J, i, w, x


def scalar_convention(fwd_ok: bool, bwd_ok: bool, case_i: int) -> dict:
    """Calibration verdict from the shorter-case instances: which torus-twist
    convention held on every one of them."""
    if fwd_ok and not bwd_ok:
        convention = "w t w^-1"
    elif bwd_ok and not fwd_ok:
        convention = "w^-1 t w"
    elif fwd_ok and bwd_ok:
        convention = "both"
    else:
        convention = "neither"
    return {
        "case_i_instances": case_i,
        "convention": convention,
        "ambiguous": convention == "both",
        "ok": convention != "neither",
    }
