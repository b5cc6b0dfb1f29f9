"""Principal series modules with Bruhat bases over F_ell.

A module vector is a sparse dict {(w, u): coeff} where (w, u) names the basis
element u * wdot(w) * highest_vector; u runs over the level-k points of the
unipotent group attached to Phi_{w^-1}^-.  Keys are level-agnostic, so the
level-k module literally embeds in the level-(k+1) one.

The action of any group element is monomial on this basis (it permutes keys
and scales by a character value), which makes spans and spin-up closures
cheap dense row-reduction over F_ell.  Spun submodules, their sums, and the
resulting quotients (with canonical coset representatives given by echelon
reduction) realize the generated-submodule and simple-quotient constructions;
an induced-from-parabolic realization with coset bases is provided alongside,
with a generator whose spin is compared against the quotient dimension.  Both
realizations share one base, `KeyedModule`, and differ only in act_key.
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
STABILITY_SAMPLES = 8
_STABILITY_SEED = 20260818


class Subspace:
    """Row space over F_ell in reduced row echelon form, fixed ambient dimension.

    With `carry=n` every row has n trailing columns that ride along with the
    row operations but never hold a pivot: inserting pairs (v, w) records the
    linear map v -> w on the span of the v's, and a residue's trailing part
    is then the obstruction w - f(v) of a pair whose v already lies in it.
    """

    def __init__(self, D: int, ell: int, carry: int = 0):
        if ell * ell * (D + 1) >= 2**63:
            raise OverflowError(f"residues overflow int64: ell={ell}, D={D}")
        self.D, self.ell = D, ell
        self.rows = np.zeros((D, D + carry), dtype=np.int64)
        self.have = np.zeros(D, dtype=np.uint8)

    @property
    def dim(self) -> int:
        return int(self.have.sum())

    def insert(self, vec) -> int:
        v = np.array(vec, dtype=np.int64)
        v %= self.ell
        return int(kern.echelon_insert(self.rows, self.have, v, self.ell))

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
        """Carried part of the span element whose leading part is vec; None
        when vec is outside the span of the leading parts."""
        full = np.zeros(self.rows.shape[1], dtype=np.int64)
        full[:self.D] = vec
        res = self.residue(full)
        if res[:self.D].any():
            return None
        return -res[self.D:] % self.ell

    def pivots(self) -> list[int]:
        return [int(c) for c in np.nonzero(self.have)[0]]

    def basis_matrix(self) -> np.ndarray:
        """The basis rows, in pivot order, as one (dim, width) array."""
        return self.rows[np.flatnonzero(self.have)]

    def basis(self) -> list[np.ndarray]:
        return list(self.basis_matrix())

    def copy(self) -> "Subspace":
        out = Subspace(self.D, self.ell, self.rows.shape[1] - self.D)
        out.rows[:] = self.rows
        out.have[:] = self.have
        return out

    def union(self, other: "Subspace") -> "Subspace":
        out = self.copy()
        for row in other.basis():
            out.insert(row)
        return out

    def leq(self, other: "Subspace") -> bool:
        return other.contains(self.basis_matrix())


# -- sparse vector helpers ------------------------------------------------------

def vadd(a: dict, b: dict, ell: int) -> dict:
    out = dict(a)
    for key, c in b.items():
        v = (out.get(key, 0) + c) % ell
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def vscale(c: int, a: dict, ell: int) -> dict:
    c %= ell
    if c == 0:
        return {}
    return {key: (c * v) % ell for key, v in a.items()}


def vsub(a: dict, b: dict, ell: int) -> dict:
    return vadd(a, vscale(ell - 1, b, ell), ell)


def subsets(indices) -> list[frozenset]:
    """All subsets of indices, canonically ordered (size, then sorted tuple)."""
    base = sorted(indices)
    return [
        frozenset(combo)
        for size in range(len(base) + 1)
        for combo in itertools.combinations(base, size)
    ]


class KeyedModule:
    """A level-k module on a monomial basis of keys (w, u), one for each Weyl
    representative w in `reps` and each u in the level-k points of the
    unipotent group attached to Phi_{w^-1}^-, the key standing for
    u * wdot(w).  Subclasses supply act_key(g, key) -> (key', scale)."""

    def __init__(self, chars: Characters, theta, k: int, reps):
        self.chars = chars
        self.chev = chars.chev
        self.rs = chars.rs
        self.tower = chars.tower
        self.theta = chars.normalize(theta)
        self.k = k
        self.ell = chars.coeff.ell
        qk = self.tower.level_size(k)
        total = sum(qk**w.length for w in reps)
        if total > KEY_BUDGET:
            raise BudgetError(
                "module basis exceeds the key budget: "
                f"KEY_BUDGET={KEY_BUDGET}, requested {total} keys"
            )
        self.keys = [
            (w, u)
            for w in reps
            for u in self.chev.enum_U_w(self.rs.inv(w), k)
        ]
        self.D = len(self.keys)
        self.key_index = {key: i for i, key in enumerate(self.keys)}
        self.one_key = (self.rs.e, self.chev.identity)
        self._key_mats: dict = {}
        self._tables: dict = {}

    # -- basis plumbing ----------------------------------------------------

    def key_mat(self, key) -> Mat:
        if key not in self._key_mats:
            w, u = key
            self._key_mats[key] = self.chev.mat_mul(u, self.chev.wdot(w))
        return self._key_mats[key]

    def to_dense(self, vec: dict) -> np.ndarray:
        out = np.zeros(self.D, dtype=np.int64)
        for key, c in vec.items():
            out[self.key_index[key]] = c % self.ell
        return out

    def from_dense(self, arr) -> dict:
        return {
            self.keys[i]: int(arr[i]) % self.ell
            for i in np.nonzero(arr)[0]
        }

    # -- the module action -----------------------------------------------------

    def act(self, g: Mat, vec: dict) -> dict:
        if not self.chev.in_level(g, self.k):
            raise ValueError(f"group element has entries outside level {self.k}")
        out: dict = {}
        for key, c in vec.items():
            key2, mult = self.act_key(g, key)
            v = (out.get(key2, 0) + c * mult) % self.ell
            if v:
                out[key2] = v
            else:
                out.pop(key2, None)
        return out

    def action_table(self, g: Mat):
        """Monomial form of g: (perm, scale) with g.key_i = scale_i * key_{perm_i}."""
        if g not in self._tables:
            perm = np.empty(self.D, dtype=np.int64)
            scale = np.empty(self.D, dtype=np.int64)
            for idx, key in enumerate(self.keys):
                key2, mult = self.act_key(g, key)
                perm[idx] = self.key_index[key2]
                scale[idx] = mult
            counts = np.bincount(perm, minlength=self.D)
            assert (counts == 1).all(), "module action is not a key bijection"
            self._tables[g] = (perm, scale)
        return self._tables[g]

    def apply_table(self, table, dense: np.ndarray) -> np.ndarray:
        """g applied to a dense vector, or to each row of a (k, D) stack."""
        perm, scale = table
        out = np.zeros(dense.shape, dtype=np.int64)
        out[..., perm] = dense * scale % self.ell
        return out

    # -- distinguished vectors ------------------------------------------------

    def i_theta(self) -> frozenset:
        return self.chars.i_theta(self.theta)

    def eta(self, J) -> dict:
        """Alternating sum of the wdot(w)-translates of the one key, w in W_J."""
        J = frozenset(J)
        if not J <= self.i_theta():
            raise ValueError("J must be contained in I(theta)")
        out: dict = {}
        one = {self.one_key: 1}
        for w in self.rs.subgroup(J):
            sign = self.ell - 1 if w.length % 2 else 1
            term = vscale(sign, self.act(self.chev.wdot_in(J, w), one), self.ell)
            out = vadd(out, term, self.ell)
        return out

    def generators(self) -> list[Mat]:
        return level_generators(self.chev, self.k)

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

    def spin(self, seeds, verify: bool = True) -> Subspace:
        return spin_closure(self, seeds, verify=verify)


class ModuleContext(KeyedModule):
    """The level-k principal series module for one character theta."""

    def __init__(self, chars: Characters, theta, k: int):
        super().__init__(chars, theta, k, chars.rs.elements)

    def act_key(self, g: Mat, key):
        w, u, t = self.chev.bruhat_cell(self.chev.mat_mul(g, self.key_mat(key)))
        return (w, u), self.chars.eval_diag(self.theta, t)

    # -- serialization -------------------------------------------------------

    def key_json(self, key) -> list:
        w, u = key
        pairs = self.rs.phi_minus_pairs(self.rs.inv(w))
        entries = [
            self.tower.scalar_index(u[a * self.chev.m + b]) for a, b in pairs
        ]
        return [list(w.word), entries]

    def vec_json(self, vec: dict) -> list:
        items = sorted(vec.items(), key=lambda kv: self.key_index[kv[0]])
        return [[self.key_json(key), int(c)] for key, c in items]

    # -- simple quotients -----------------------------------------------------

    def e_module(self, J) -> "EModule":
        J = frozenset(J)
        itheta = self.i_theta()
        if not J <= itheta:
            raise ValueError("J must be contained in I(theta)")
        eta_J = self.eta(J)
        M = self.spin([eta_J])
        N = Subspace(self.D, self.ell)
        for S in subsets(itheta - J)[1:]:  # every K with J < K <= I(theta)
            N = N.union(self.spin([self.eta(J | S)]))
        if not N.leq(M):
            raise AssertionError("N(theta)_J escaped M(theta)_J")
        C = N.residue(self.to_dense(eta_J))
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
        Z = self.rs.z_set(J, self.i_theta())
        wJ = self.rs.longest(J)
        eta_J = self.eta(J)
        span = Subspace(self.D, self.ell)
        num, independent = 0, True
        for w in Z:
            v = self.rs.mul(wJ, self.rs.inv(w))
            for u in self.chev.enum_U_w(v, self.k):
                g = self.chev.mat_mul(u, self.chev.wdot(w))
                img = em.project(self.to_dense(self.act(g, eta_J)))
                if span.insert(img) < 0:
                    independent = False
                num += 1
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
        eta_J = self.eta(J)
        w_eta = self.act(cx.wdot(w), eta_J)
        lhs = self.act(cx.sdot(i), self.act(cx.eps_simple(i, x), w_eta))
        f, h, g2 = cx.rank1_constants(i, x)
        f_w_eta = self.act(cx.eps_simple(i, f), w_eta)
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
            wd = cx.wdot(w)
            conj_fwd = cx.mat_prod([wd, t_mid, cx.mat_inv(wd)])
            conj_bwd = cx.mat_prod([cx.mat_inv(wd), t_mid, wd])
            scal_fwd = self.chars.eval(self.theta, conj_fwd)
            scal_bwd = self.chars.eval(self.theta, conj_bwd)
            report["case"] = "i"
            report["matches_fwd"] = lhs == vscale(scal_fwd, f_w_eta, self.ell)
            report["matches_bwd"] = lhs == vscale(scal_bwd, f_w_eta, self.ell)
            report["ok"] = bool(report["matches_fwd"] or report["matches_bwd"])
        else:
            # longer case; the applicability condition forces the descent of w w_J
            assert (
                self.rs.mul(si_w, wJ).length < self.rs.mul(w, wJ).length
            ), "applicability must force s_i w w_J below w w_J"
            rhs = vsub(f_w_eta, w_eta, self.ell)
            report["case"] = "ii"
            report["matches"] = lhs == rhs
            report["ok"] = bool(report["matches"])
        return report


class EModule:
    """Quotient M(theta)_J / N(theta)_J with echelon coset representatives."""

    def __init__(self, ctx: ModuleContext, J: frozenset, M: Subspace, N: Subspace, C):
        self.ctx = ctx
        self.J = J
        self.M = M
        self.N = N
        self.C = C  # canonical representative of the quotient generator
        self.dim = M.dim - N.dim

    def project(self, dense) -> np.ndarray:
        return self.N.residue(dense)

    def class_basis(self) -> list[np.ndarray]:
        # echelon rows of the projected span; each row is a canonical
        # representative since residues are closed under linear combinations
        span = Subspace(self.ctx.D, self.ctx.ell)
        for row in self.project(self.M.basis_matrix()):
            span.insert(row)
        return span.basis()

    def simplicity_probe(self, samples: int = 5) -> bool:
        """Spin random nonzero classes; True if each regenerates all of M_J mod N."""
        rng = random.Random(_STABILITY_SEED + 1)
        reps = [row for row in self.M.basis() if not self.N.contains(row)]
        if not reps:
            return self.dim == 0
        for _ in range(samples):
            vec = rng.choice(reps).copy()
            vec = (vec + rng.randrange(1, self.ctx.ell) * rng.choice(reps)) % self.ctx.ell
            if self.N.contains(vec):
                continue
            S = self.ctx.spin([self.ctx.from_dense(vec)], verify=False)
            if S.union(self.N).dim != self.M.dim:
                return False
        return True


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


def spin_closure(
    mod, seeds, verify: bool = True, gens=None, project=None
) -> Subspace:
    """Smallest subspace containing seeds and stable under the generators.

    `mod` provides D, ell, generators(), action_table(), apply_table(),
    to_dense(), random_group_elt(); seeds are sparse dicts or dense arrays.
    `gens` replaces mod.generators(), and `project`, a residue map of a
    quotient, is applied to every image, so that the span is the spin of the
    seeds inside that quotient.  `verify` samples random level-k elements of
    `mod`, so it must be off when `gens` generate a smaller group.
    """
    S = Subspace(mod.D, mod.ell)

    def image(table, vec):
        out = mod.apply_table(table, vec)
        return out if project is None else project(out)

    queue = []
    for seed in seeds:
        dense = mod.to_dense(seed) if isinstance(seed, dict) else np.array(seed)
        piv = S.insert(dense)
        if piv >= 0:
            queue.append(S.rows[piv].copy())
    tables = [
        mod.action_table(g)
        for g in (mod.generators() if gens is None else gens)
    ]
    while queue:
        vec = queue.pop()
        for table in tables:
            piv = S.insert(image(table, vec))
            if piv >= 0:
                queue.append(S.rows[piv].copy())
    if verify:
        rng = random.Random(_STABILITY_SEED)
        basis = S.basis_matrix()
        for _ in range(STABILITY_SAMPLES):
            table = mod.action_table(mod.random_group_elt(rng))
            if not S.contains(image(table, basis)):
                raise AssertionError("spin closure is not group stable")
    return S


class InducedContext(KeyedModule):
    """Induction from the parabolic fixed by J' = I(theta) - J: basis indexed
    by canonical coset representatives u * wdot(x), x minimal in x W_{J'}."""

    def __init__(self, chars: Characters, theta, J, k: int):
        J = frozenset(J)
        itheta = chars.i_theta(chars.normalize(theta))
        if not J <= itheta:
            raise ValueError("J must be contained in I(theta)")
        self.J = J
        self.Jp = itheta - J
        super().__init__(chars, theta, k, chars.rs.min_coset_reps(self.Jp))
        self._min_rep_cache: dict = {}

    def _min_rep(self, w: WeylElt) -> WeylElt:
        if w.perm not in self._min_rep_cache:
            best = min(
                (self.rs.mul(w, self.rs.inv(y)) for y in self.rs.subgroup(self.Jp)),
                key=lambda z: z.length,
            )
            self._min_rep_cache[w.perm] = best
        return self._min_rep_cache[w.perm]

    def coset_key(self, g: Mat):
        """Canonical basis key of the coset g P_{J'}."""
        cx, m = self.chev, self.chev.m
        w, u, _ = cx.bruhat_cell(g)
        x = self._min_rep(w)
        R = [list(u[i * m : (i + 1) * m]) for i in range(m)]
        return (x, cx.peel_unipotent(R, self.rs.inv(x)))

    def act_key(self, g: Mat, key):
        cx = self.chev
        gk = cx.mat_mul(g, self.key_mat(key))
        key2 = self.coset_key(gk)
        p = cx.mat_mul(cx.mat_inv(self.key_mat(key2)), gk)
        coeff = self.chars.eval_parabolic(self.theta, self.Jp, p)
        return key2, coeff


def check_socle(chars: Characters, theta, J, k: int) -> dict:
    """Spin the alternating generator inside the induced module and compare
    its dimension with the quotient dimension from the Bruhat-basis side."""
    ctx = ModuleContext(chars, theta, k)
    em = ctx.e_module(J)
    nb = InducedContext(chars, theta, J, k)
    sub = nb.spin([nb.eta(nb.J)])
    report = {
        "theta": list(ctx.theta),
        "J": sorted(frozenset(J)),
        "level": k,
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


def calibrate_scalar_convention(contexts, Js=None) -> dict:
    """Decide the torus-twist convention in the shorter-case formula by
    scanning every applicable (J, i, w, x) across the given module contexts."""
    fwd_ok, bwd_ok, case_i = True, True, 0
    for ctx in contexts:
        for J, i, w, x in straightening_instances(ctx, Js):
            # s_i w and w differ in length by one: the shorter case is case (i)
            if ctx.rs.mul(ctx.rs.s(i), w).length > w.length:
                continue
            rep = ctx.verify_straightening(J, i, w, x)
            case_i += 1
            fwd_ok = fwd_ok and rep["matches_fwd"]
            bwd_ok = bwd_ok and rep["matches_bwd"]
    return scalar_convention(fwd_ok, bwd_ok, case_i)
