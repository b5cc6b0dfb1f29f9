"""Extension laboratory: censuses and probes for glueing two simple quotients.

Everything here works at a pair of adjacent levels (i, i+1).  The target
module is the level-(i+1) simple quotient attached to (mu, K); the lab
measures which unipotent translates of its generator stay inside the
top-cell span (the omega sets), which group elements can conjugate back
into the Borel (the gamma set), builds the alternating-average vector
attached to a chosen unipotent u, extends it to a linear map from the
level-i quotient attached to (lambda, J), and probes the twisted embedding
for fixed vectors under the relevant unipotent subgroup.  A separate
synthesized-extension splitter recovers a complement from the eigenspace
of a central element when the two characters differ on the center.

Census loops run in canonical enumeration order; every report is a plain
dict of ints, bools, and strings, reproducible across runs.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _backend as kern
from .characters import Characters
from .chevalley import Mat
from .fieldtower import BudgetError
from .modules import ModuleContext, Subspace, level_generators, spin_closure

UNIPOTENT_BUDGET = 10**6
SCAN_BUDGET = 10**8
_PROBE_SEED = 414243

# shared state for forked census workers; set right before the pool spawns
_WORK: "ExtContext | None" = None


def _modinv(x: int, ell: int) -> int:
    return pow(x % ell, ell - 2, ell)


def _census_pair_worker(u) -> tuple:
    ctx = _WORK
    return (
        ctx.claim_club(u),
        bool(ctx.xi(u, check_eigen=False)["xi_nonzero"]),
    )


def _gamma_hit_worker(u) -> bool:
    return _WORK.gamma_hit(u)


def _pmap(fn, items, jobs: int) -> list:
    """Order-preserving map, forked across `jobs` workers when asked.

    Results must not depend on the schedule: workers only read the shared
    context, so the output list is identical for every jobs value.
    """
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    import multiprocessing as mp

    try:
        pool_ctx = mp.get_context("fork")
    except ValueError:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (4 * jobs))
    with pool_ctx.Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=chunk)


def nullspace_coeffs(rows, ell: int):
    """Coefficient vectors c with sum_j c_j rows[j] = 0 (a basis of them).

    Each row enters tagged with its unit vector; a row whose leading part
    reduces to zero leaves the relation in the carried tag block."""
    n = len(rows)
    if n == 0:
        return []
    D = len(rows[0])
    tagged = Subspace(D, ell, carry=n)
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


def subspace_intersection(A: Subspace, B: Subspace) -> Subspace:
    rowsA = A.basis_matrix()
    out = Subspace(A.D, A.ell)
    for coeffs in nullspace_coeffs(B.residue(rowsA), A.ell):
        out.insert(coeffs @ rowsA)
    return out


class ExtContext:
    """Adjacent-level laboratory for the character pair (lambda, J), (mu, K)."""

    def __init__(self, chars: Characters, lam, mu, J, K, i: int):
        self.chars = chars
        self.chev = chars.chev
        self.rs = chars.rs
        self.tower = chars.tower
        self.ell = chars.coeff.ell
        if i + 1 > self.tower.N:
            raise ValueError("level i+1 exceeds the tower")
        self.i = i
        self.lam = chars.normalize(lam)
        self.mu = chars.normalize(mu)
        self.J = frozenset(J)
        self.K = frozenset(K)
        if not self.J <= chars.i_theta(self.lam):
            raise ValueError("J must be contained in I(lambda)")
        if not self.K <= chars.i_theta(self.mu):
            raise ValueError("K must be contained in I(mu)")
        self.Jp = chars.i_theta(self.lam) - self.J
        self.qt = self.tower.level_size(i + 1)
        if self.qt**self.rs.n > UNIPOTENT_BUDGET:
            raise BudgetError("|U_{i+1}| exceeds the unipotent budget")
        self.mu_ctx = ModuleContext(chars, self.mu, i + 1)
        self.mu_E = self.mu_ctx.e_module(self.K)
        self.C_sparse = self.mu_ctx.from_dense(self.mu_E.C)
        self.w0dot = self.chev.wdot(self.rs.w0)
        self.U_list = self.chev.enum_U(i + 1)
        self.U_i_set = set(self.chev.enum_U(i))
        self._S: Subspace | None = None
        self._omega_w_sets: dict = {}
        self._omega: list | None = None
        self._gamma: list | None = None
        self._g_rest: np.ndarray | None = None
        self._g_rest_count = 0
        self._parab_terms: list | None = None

    # -- elementary moves ---------------------------------------------------

    def class_of(self, g: Mat) -> np.ndarray:
        """Canonical representative of g . C in the target quotient."""
        vec = self.mu_ctx.act(g, self.C_sparse)
        return self.mu_E.project(self.mu_ctx.to_dense(vec))

    def require_u(self, u: Mat):
        if not (
            self.chev.is_unitriangular(u) and self.chev.in_level(u, self.i + 1)
        ):
            raise ValueError("u must be unitriangular at level i+1")

    def u_serial(self, u: Mat) -> list:
        m = self.chev.m
        return [
            self.tower.scalar_index(u[a * m + b]) for a, b in self.rs.pos_pairs
        ]

    # -- omega machinery -----------------------------------------------------

    def S_subspace(self) -> Subspace:
        if self._S is None:
            S = Subspace(self.mu_ctx.D, self.ell)
            for x in self.U_list:
                S.insert(self.class_of(self.chev.mat_mul(x, self.w0dot)))
            self._S = S
        return self._S

    def omega_w(self, w):
        """(Omega_w, Omega'_w) in canonical enumeration order."""
        if w.perm not in self._omega_w_sets:
            S = self.S_subspace()
            wd = self.chev.wdot(w)
            om = [
                x
                for x in self.U_list
                if S.contains(
                    self.class_of(
                        self.chev.mat_prod([wd, x, self.w0dot])
                    )
                )
            ]
            om_set = set(om)
            omp = [
                x
                for x in self.chev.enum_U_w(w, self.i + 1)
                if x not in om_set
            ]
            self._omega_w_sets[w.perm] = (om, omp)
        return self._omega_w_sets[w.perm]

    def h_set(self, u: Mat) -> frozenset:
        self.require_u(u)
        cx = self.chev
        out = set()
        for t in cx.enum_T(self.i):
            conj = cx.mat_prod([t, u, cx.mat_inv(t)])
            for x in cx.enum_U(self.i):
                out.add(cx.mat_mul(x, conj))
        return frozenset(out)

    def omega_set(self) -> list:
        if self._omega is None:
            good = None
            for w in self.rs.elements:
                om, _ = self.omega_w(w)
                om_set = set(om)
                good = om_set if good is None else (good & om_set)
            self._omega = [
                u for u in self.U_list if self.h_set(u) <= good
            ]
        return self._omega

    def h_partition_report(self) -> dict:
        classes: dict = {}
        for u in self.U_list:
            classes.setdefault(self.h_set(u), []).append(u)
        reps = list(classes)
        ok = True
        for a in range(len(reps)):
            for b in range(a + 1, len(reps)):
                if reps[a] & reps[b]:
                    ok = False
        cover = sum(len(v) for v in classes.values()) == len(self.U_list)
        contain = all(u in h for h, us in classes.items() for u in us)
        lower = len(self.U_list) // (
            len(self.chev.enum_U(self.i)) * len(self.chev.enum_T(self.i))
        )
        return {
            "num_h_classes": len(classes),
            "h_partition_ok": ok and cover and contain,
            "h_class_lower_bound": lower,
            "h_class_lower_bound_ok": len(classes) >= lower,
        }

    # -- gamma machinery ----------------------------------------------------

    def _noncentral_level_i(self) -> np.ndarray:
        if self._g_rest is None:
            central = set(self.chev.center(self.i))
            rows = [g for g in self.chev.enum_G(self.i) if g not in central]
            self._g_rest = np.array(rows, dtype=np.int64)
            self._g_rest_count = len(rows)
        return self._g_rest

    def _scan_hit(self, P: Mat, garr: np.ndarray, Q: Mat) -> int:
        return int(
            kern.scan_conj_upper(
                np.array(P, dtype=np.int64),
                garr,
                np.array(Q, dtype=np.int64),
                self.chev.m,
                self.tower.zech,
                self.tower.Q1,
            )
        )

    def gamma_hit(self, u: Mat) -> bool:
        """Some noncentral level-i g puts (u.wdot(w0))^-1 . g . u.wdot(w0) in B."""
        cx = self.chev
        uw0 = cx.mat_mul(u, self.w0dot)
        return self._scan_hit(cx.mat_inv(uw0), self._noncentral_level_i(), uw0) >= 0

    def gamma_set(self, jobs: int = 1) -> list:
        if self._gamma is None:
            global _WORK
            omega = self.omega_set()
            self._noncentral_level_i()
            requested = len(omega) * self._g_rest_count
            if requested > SCAN_BUDGET:
                raise BudgetError(
                    "gamma scan exceeds the membership budget: "
                    f"SCAN_BUDGET={SCAN_BUDGET}, requested {requested} "
                    "conjugations"
                )
            _WORK = self
            hits = _pmap(_gamma_hit_worker, omega, jobs)
            _WORK = None
            self._gamma = [u for u, hit in zip(omega, hits) if hit]
        return self._gamma

    def gamma_cell_e_empty(self) -> bool:
        """No u in omega is captured by a noncentral element of the level-i Borel."""
        central = set(self.chev.center(self.i))
        rows = [b for b in self.chev.enum_B(self.i) if b not in central]
        if not rows:
            return True
        barr = np.array(rows, dtype=np.int64)
        cx = self.chev
        for u in self.omega_set():
            uw0 = cx.mat_mul(u, self.w0dot)
            if self._scan_hit(cx.mat_inv(uw0), barr, uw0) >= 0:
                return False
        return True

    def claim_club(self, u: Mat) -> bool:
        """No noncentral level-i g and w in W put g.u.wdot(w) in u.wdot(w0).B_{i+1}."""
        self.require_u(u)
        garr = self._noncentral_level_i()
        requested = self._g_rest_count * len(self.rs.elements)
        if requested > SCAN_BUDGET:
            raise BudgetError(
                "club scan exceeds the membership budget: "
                f"SCAN_BUDGET={SCAN_BUDGET}, requested {requested} "
                "conjugations"
            )
        cx = self.chev
        P = cx.mat_inv(cx.mat_mul(u, self.w0dot))
        for w in self.rs.elements:
            Q = cx.mat_mul(u, cx.wdot(w))
            if self._scan_hit(P, garr, Q) >= 0:
                return False
        return True

    # -- the alternating average vector -------------------------------------

    def xi(self, u: Mat, check_eigen: bool = True) -> dict:
        self.require_u(u)
        cx = self.chev
        D = self.mu_ctx.D
        eta = np.zeros(D, dtype=np.int64)
        terms = self._parabolic_terms()
        for p, _, coeff in terms:
            vec = self.class_of(cx.mat_prod([p, u, self.w0dot]))
            eta = (eta + coeff * vec) % self.ell
        report = {"u": self.u_serial(u)}
        if check_eigen:
            ok = True
            for p, value, _ in terms:
                lhs = self._act_class(p, eta)
                rhs = value * eta % self.ell
                if not np.array_equal(lhs, rhs):
                    ok = False
                    break
            report["eigen_ok"] = ok
        xi = np.zeros(D, dtype=np.int64)
        for w in self.rs.subgroup(self.J):
            sign = self.ell - 1 if w.length % 2 else 1
            xi = (
                xi + sign * self._act_class(cx.wdot_in(self.J, w), eta)
            ) % self.ell
        report["xi_nonzero"] = bool(xi.any())
        report["xi_in_top_cell_span"] = bool(self.S_subspace().contains(xi))
        report["vector"] = xi
        return report

    def _parabolic_terms(self) -> list:
        """(p, lambda(p), 1/lambda(p)) over P_{J'} at level i, in enumeration
        order.  They do not depend on u, so xi builds them once, on first use."""
        if self._parab_terms is None:
            ch, terms = self.chars, []
            for p in self.chev.enum_P(self.Jp, self.i):
                value = ch.eval_parabolic(self.lam, self.Jp, p)
                terms.append((p, value, _modinv(value, self.ell)))
            self._parab_terms = terms
        return self._parab_terms

    def _act_class(self, g: Mat, dense: np.ndarray) -> np.ndarray:
        out = self.mu_ctx.act(g, self.mu_ctx.from_dense(dense))
        return self.mu_E.project(self.mu_ctx.to_dense(out))

    # -- census ------------------------------------------------------------

    def choose_u(self):
        """Deterministic probe element: first of omega minus gamma, else first
        of omega, else the first level-(i+1) unipotent outside level i."""
        omega = self.omega_set()
        gamma = set(self.gamma_set())
        for u in omega:
            if u not in gamma:
                return u, "omega_minus_gamma"
        if omega:
            return omega[0], "omega"
        for u in self.U_list:
            if u not in self.U_i_set:
                return u, "complement_of_level_i"
        return self.U_list[0], "level_i_fallback"

    def census(self, jobs: int = 1) -> dict:
        global _WORK
        rs = self.rs
        per_w = []
        for w in rs.elements:
            om, omp = self.omega_w(w)
            bound = Fraction(3 * self.qt) ** (w.length - 1)
            fact = self.qt ** (rs.n - w.length) * (
                self.qt**w.length - len(omp)
            )
            per_w.append(
                {
                    "word": list(w.word),
                    "length": w.length,
                    "omega_w": len(om),
                    "omega_prime_w": len(omp),
                    "bound": str(bound),
                    "bound_ok": len(omp) <= bound,
                    "factorization_ok": len(om) == fact,
                }
            )
        omega = self.omega_set()
        gamma = self.gamma_set(jobs=jobs)
        self._noncentral_level_i()
        _WORK = self
        pairs = _pmap(_census_pair_worker, omega, jobs)
        _WORK = None
        club_true = 0
        xi_nonzero = 0
        implication_ok = True
        for club, nz in pairs:
            club_true += club
            xi_nonzero += nz
            if club and not nz:
                implication_ok = False
        P = sum(Fraction(3) ** (w.length - 1) for w in rs.elements)
        report = {
            "context": self.context_echo(),
            "per_w": per_w,
            "P": str(P),
            "omega_size": len(omega),
            "omega_disjoint_from_level_i": not (set(omega) & self.U_i_set),
            "gamma_size": len(gamma),
            "omega_minus_gamma_size": len(omega) - len(gamma),
            "gamma_cell_e_empty": self.gamma_cell_e_empty(),
            "club_true_count": int(club_true),
            "xi_nonzero_count": int(xi_nonzero),
            "club_implies_xi_nonzero": implication_ok,
        }
        report.update(self.h_partition_report())
        report["ok"] = bool(
            all(row["bound_ok"] and row["factorization_ok"] for row in per_w)
            and report["omega_disjoint_from_level_i"]
            and report["gamma_cell_e_empty"]
            and report["h_partition_ok"]
            and report["h_class_lower_bound_ok"]
            and report["club_implies_xi_nonzero"]
        )
        return report

    def context_echo(self) -> dict:
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "J": sorted(self.J),
            "K": sorted(self.K),
            "level": self.i,
            "q_tilde": self.qt,
            "ell": self.ell,
        }

    # -- the linear map and the twisted embedding ---------------------------

    def phi_map(self, u: Mat) -> dict:
        """Linear map from the level-i (lambda, J) quotient into the
        level-(i+1) (mu, K) quotient, sending the generator to xi."""
        lam_ctx = ModuleContext(self.chars, self.lam, self.i + 1)
        lam_E = lam_ctx.e_module(self.J)
        xi_rep = self.xi(u)
        xi_vec = xi_rep["vector"]
        gens = level_generators(self.chev, self.i)
        lam_tables = {g: lam_ctx.action_table(g) for g in gens}
        mu_tables = {g: self.mu_ctx.action_table(g) for g in gens}
        Dl = lam_ctx.D
        # pairs (v, w) of the map, the lambda class v leading and w carried
        solver = Subspace(Dl, self.ell, carry=self.mu_ctx.D)
        well_defined = True
        queue = [np.concatenate([lam_E.project(lam_E.C), xi_vec])]
        solver.insert(queue[0])
        pairs = [queue[0]]
        while queue:
            pair = queue.pop()
            for g in gens:
                v2 = lam_E.project(lam_ctx.apply_table(lam_tables[g], pair[:Dl]))
                w2 = self.mu_E.project(
                    self.mu_ctx.apply_table(mu_tables[g], pair[Dl:])
                )
                pair2 = np.concatenate([v2, w2])
                res = solver.residue(pair2)
                if res[:Dl].any():
                    solver.insert(res)
                    queue.append(pair2)
                    pairs.append(pair2)
                elif res[Dl:].any():
                    well_defined = False
        domain_dim = solver.dim
        equivariant = well_defined
        if well_defined:
            for g in gens:
                for pair in pairs:
                    v2 = lam_E.project(
                        lam_ctx.apply_table(lam_tables[g], pair[:Dl])
                    )
                    img = solver.apply(v2)
                    w2 = self.mu_E.project(
                        self.mu_ctx.apply_table(mu_tables[g], pair[Dl:])
                    )
                    if img is None or not np.array_equal(img, w2):
                        equivariant = False
        image = Subspace(self.mu_ctx.D, self.ell)
        for row in solver.basis():
            image.insert(row[Dl:])
        level_i_dim = ModuleContext(self.chars, self.lam, self.i).e_module(
            self.J
        ).dim
        report = {
            "u": self.u_serial(u),
            "xi_nonzero": xi_rep["xi_nonzero"],
            "eigen_ok": xi_rep["eigen_ok"],
            "well_defined": well_defined,
            "equivariant": equivariant,
            "domain_dim": domain_dim,
            "level_i_quotient_dim": level_i_dim,
            "kernel_dim": domain_dim - image.dim,
            "injective": domain_dim == image.dim,
            "solver": solver,
            "lam_ctx": lam_ctx,
            "lam_E": lam_E,
        }
        return report

    def twisted_probe(self, u: Mat) -> dict:
        """Fixed-vector probe of the twisted embedding of M_i into M_{i+1}."""
        phi = self.phi_map(u)
        lam_ctx, lam_E = phi["lam_ctx"], phi["lam_E"]
        solver = phi["solver"]
        Dl, Dm = lam_ctx.D, self.mu_ctx.D
        ell = self.ell
        # spans of the level-i translates of each quotient generator; level-i
        # generators do not give a level-(i+1) stable span, so no stability check
        gens = level_generators(self.chev, self.i)
        lam_sub = spin_closure(
            lam_ctx, [lam_E.C], gens=gens, project=lam_E.project, verify=False
        )
        mu_sub = spin_closure(
            self.mu_ctx, [self.mu_E.C], gens=gens, project=self.mu_E.project,
            verify=False,
        )

        def embed(vl, vm):
            out = np.zeros(Dl + Dm, dtype=np.int64)
            out[:Dl] = vl % ell
            out[Dl:] = vm % ell
            return out

        # f_i(M_i): lambda-block rows are twisted by the map, mu-block rows kept
        f_image = Subspace(Dl + Dm, ell)
        for row in lam_sub.basis():
            img = solver.apply(row)
            if img is None:
                return {
                    "u": self.u_serial(u),
                    "well_defined": False,
                    "verdict_nonsplit_signal": False,
                }
            f_image.insert(embed(row, img))
        f_mu = Subspace(Dl + Dm, ell)
        for row in mu_sub.basis():
            vec = embed(np.zeros(Dl, dtype=np.int64), row)
            f_image.insert(vec)
            f_mu.insert(vec)

        # fixed vectors of the level-(i+1) unipotent attached to w_J
        wJ = self.rs.longest(self.J)
        fix_gens = [
            self.chev.eps(pair, b)
            for pair in self.rs.phi_plus_pairs(wJ)
            for b in self.tower.field_basis(self.i + 1)
        ]
        lam_rows = lam_E.class_basis()
        mu_rows = self.mu_E.class_basis()
        big_rows = [embed(r, np.zeros(Dm, dtype=np.int64)) for r in lam_rows]
        big_rows += [embed(np.zeros(Dl, dtype=np.int64), r) for r in mu_rows]

        def act_big(g, vec):
            vl = lam_E.project(lam_ctx.apply_table(lam_ctx.action_table(g), vec[:Dl]))
            vm = self.mu_E.project(
                self.mu_ctx.apply_table(self.mu_ctx.action_table(g), vec[Dl:])
            )
            return embed(vl, vm)

        fixed = Subspace(Dl + Dm, ell)
        if not fix_gens:
            for row in big_rows:
                fixed.insert(row)
        else:
            diff_rows = [
                np.concatenate(
                    [(act_big(g, row) - row) % ell for g in fix_gens]
                )
                for row in big_rows
            ]
            for coeffs in nullspace_coeffs(diff_rows, ell):
                vec = np.zeros(Dl + Dm, dtype=np.int64)
                for j, c in enumerate(coeffs):
                    vec = (vec + int(c) * big_rows[j]) % ell
                fixed.insert(vec)

        meet = subspace_intersection(f_image, fixed)
        contained = all(f_mu.contains(row) for row in meet.basis())
        return {
            "u": self.u_serial(u),
            "u_basis": None,
            "xi_nonzero": phi["xi_nonzero"],
            "eigen_ok": phi["eigen_ok"],
            "phi_well_defined": phi["well_defined"],
            "phi_equivariant": phi["equivariant"],
            "phi_kernel_dim": phi["kernel_dim"],
            "m_i_dim": lam_sub.dim + mu_sub.dim,
            "fix_dim": fixed.dim,
            "meet_dim": meet.dim,
            # signal: every fixed vector the embedded module contains already
            # lies in the mu block; vacuous (negative) when xi vanished
            "verdict_nonsplit_signal": bool(
                phi["xi_nonzero"] and contained
            ),
            "fixed_meet_inside_mu_block": bool(contained),
        }

    def probe_report(self, jobs: int = 1) -> dict:
        self.gamma_set(jobs=jobs)
        u, basis = self.choose_u()
        report = self.twisted_probe(u)
        report["u_basis"] = basis
        report["census_ref"] = {
            "omega_size": len(self.omega_set()),
            "gamma_size": len(self.gamma_set()),
        }
        return report


# -- the central-element splitter --------------------------------------------


def least_central_witness(chars: Characters, lam, mu):
    """Canonically least central element on which the two characters differ."""
    lam = chars.normalize(lam)
    mu = chars.normalize(mu)
    for z in chars.chev.center(chars.tower.N):
        if chars.eval(lam, z) != chars.eval(mu, z):
            return z
    return None


@dataclass(frozen=True)
class SplitBlocks:
    """The untwisted block representation of a split configuration: the
    matrices of the level generators and of the central witness c0 on the
    class bases of the two quotients, lambda block first.  The arrays are
    read-only; they are shared by every SynthExtension of the configuration."""

    dl: int
    dm: int
    gens: tuple
    c0: Mat
    c0_block: np.ndarray
    a: int
    b: int


# split_blocks results, per Characters object and normalized configuration
_SPLIT_BLOCKS: "weakref.WeakKeyDictionary[Characters, dict]" = (
    weakref.WeakKeyDictionary()
)


def split_blocks(chars: Characters, lam, mu, J, K, k: int) -> SplitBlocks:
    """Build, or fetch from the per-Characters memo, the untwisted block
    representation of the configuration (lambda, J), (mu, K) at level k."""
    lam, mu = chars.normalize(lam), chars.normalize(mu)
    J, K = frozenset(J), frozenset(K)
    memo = _SPLIT_BLOCKS.setdefault(chars, {})
    key = (lam, mu, J, K, k)
    if key in memo:
        return memo[key]
    c0 = least_central_witness(chars, lam, mu)
    if c0 is None:
        raise ValueError("characters agree on the center")
    # per quotient: its module, the quotient, the class basis and the
    # pivot columns that give a class its coordinates in that basis
    quotients = []
    for theta, S in ((lam, J), (mu, K)):
        ctx = ModuleContext(chars, theta, k)
        em = ctx.e_module(S)
        basis = em.class_basis()
        piv = [int(np.nonzero(r)[0][0]) for r in basis]
        quotients.append((ctx, em, basis, piv))
    dl, dm = (len(q[2]) for q in quotients)
    n = dl + dm

    def block_mat(g):
        out = np.zeros((n, n), dtype=np.int64)
        off = 0
        for ctx, em, basis, piv in quotients:
            table = ctx.action_table(g)
            for b, row in enumerate(basis):
                img = em.project(ctx.apply_table(table, row))
                out[off:off + len(basis), off + b] = img[piv]
            off += len(basis)
        out.setflags(write=False)
        return out

    out = SplitBlocks(
        dl=dl,
        dm=dm,
        gens=tuple(block_mat(g) for g in level_generators(chars.chev, k)),
        c0=c0,
        c0_block=block_mat(c0),
        a=chars.eval(lam, c0),
        b=chars.eval(mu, c0),
    )
    memo[key] = out
    return out


class SynthExtension:
    """A finite-level module with designated submodule (the mu-block) and a
    seeded random filtration-respecting change of basis hiding the splitting.

    The untwisted blocks come from `split_blocks`, built once per
    configuration; each instance draws its twist R and holds fresh arrays
    R . M . R^-1, so mutating an instance leaves the shared blocks alone."""

    def __init__(
        self,
        chars: Characters,
        lam,
        mu,
        J,
        K,
        k: int,
        seed: int,
        twist: bool = True,
    ):
        blocks = split_blocks(chars, lam, mu, J, K, k)
        self.chars = chars
        self.ell = chars.coeff.ell
        self.dl, self.dm = blocks.dl, blocks.dm
        n = self.dl + self.dm

        rng = random.Random(seed)
        X = np.array(
            [
                [rng.randrange(self.ell) if twist else 0 for _ in range(self.dl)]
                for _ in range(self.dm)
            ],
            dtype=np.int64,
        )
        R = np.eye(n, dtype=np.int64)
        R[self.dl:, :self.dl] = X
        Rinv = np.eye(n, dtype=np.int64)
        Rinv[self.dl:, :self.dl] = (-X) % self.ell

        def conj(Mb):
            return R.dot(Mb).dot(Rinv) % self.ell

        self.gens = [conj(Mb) for Mb in blocks.gens]
        self.c0, self.a, self.b = blocks.c0, blocks.a, blocks.b
        self.c0_mat = conj(blocks.c0_block)
        self.sub = Subspace(n, self.ell)
        for jj in range(self.dm):
            e = np.zeros(n, dtype=np.int64)
            e[self.dl + jj] = 1
            self.sub.insert(e)
        self.n = n


def central_split(ext: SynthExtension) -> dict:
    """Recover a complement of the designated submodule as the a-eigenspace
    of the central element; hard-fails if the eigenspace is not complementary."""
    if ext.a == ext.b:
        raise ValueError("central element does not separate the characters")
    ell = ext.ell
    T = (ext.c0_mat - ext.a * np.eye(ext.n, dtype=np.int64)) % ell
    cols = [T[:, j] % ell for j in range(ext.n)]
    eigen_rows = nullspace_coeffs(cols, ell)
    eigen = Subspace(ext.n, ell)
    for v in eigen_rows:
        eigen.insert(v)
    basis = eigen.basis_matrix()
    stable = all(eigen.contains(basis @ Mb.T) for Mb in ext.gens)
    total = eigen.union(ext.sub)
    meet = subspace_intersection(eigen, ext.sub)
    complementary = (
        total.dim == ext.n and meet.dim == 0 and eigen.dim == ext.dl
    )
    if not complementary:
        raise AssertionError(
            "central eigenspace failed to split the module: "
            f"eigenspace_dim={eigen.dim} sum_dim={total.dim} "
            f"meet_dim={meet.dim} dl={ext.dl} n={ext.n}"
        )
    return {
        "a": ext.a,
        "b": ext.b,
        "eigenspace_dim": eigen.dim,
        "g_stable": bool(stable),
        "complementary": True,
    }
