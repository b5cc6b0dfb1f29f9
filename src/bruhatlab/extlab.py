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
from .modules import (
    DirectSum, ModuleContext, Subspace, level_generators, spin_closure,
)

UNIPOTENT_BUDGET = 10**6
SCAN_BUDGET = 10**8
_PROBE_SEED = 414243

# the function a forked _pmap maps: set by _pmap right before its pool forks,
# so the workers inherit it, and cleared when the map ends
_WORK = None


def _run_work(x):
    return _WORK(x)


def _pmap(fn, items, jobs: int) -> list:
    """Order-preserving map, forked across `jobs` workers when asked.

    Results must not depend on the schedule: workers only read the shared
    context, so the output list is identical for every jobs value.  The
    pool maps the module-level _run_work, which calls fn through _WORK, so
    fn may be any callable; _WORK holds it only while the pool runs.
    """
    global _WORK
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    import multiprocessing as mp

    try:
        pool_ctx = mp.get_context("fork")
    except ValueError:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (4 * jobs))
    _WORK = fn
    try:
        with pool_ctx.Pool(jobs) as pool:
            return pool.map(_run_work, items, chunksize=chunk)
    finally:
        _WORK = None


def nullspace_coeffs(rows, ell: int) -> np.ndarray:
    """A basis of the coefficient vectors c with sum_j c_j rows[j] = 0, as
    the rows of a (k, n) array for n rows.

    It is the kernel of the matrix whose columns are the rows, read off the
    RREF of its rows over the n-column coefficient space: one basis vector
    per free column f, 1 at f and minus column f of the live rows at their
    pivots."""
    rows = np.asarray(rows, dtype=np.int64)
    n = len(rows)
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    span = Subspace(n, ell)
    span.extend(rows.T)
    live = span.have.nonzero()[0]
    free = (span.have == 0).nonzero()[0]
    out = np.zeros((free.size, n), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, live] = -span.rows[live[:, None], free].T % ell
    return out


def subspace_intersection(A: Subspace, B: Subspace) -> Subspace:
    rowsA = A.basis_matrix()
    out = Subspace(A.D, A.ell)
    coeffs = nullspace_coeffs(B.residue(rowsA), A.ell)
    out.extend(kern.residue_matmul(coeffs, rowsA, A.ell))
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
            raise BudgetError(f"U_{i + 1}", "unipotent", "UNIPOTENT_BUDGET",
                              UNIPOTENT_BUDGET, self.qt**self.rs.n, "elements")
        self.mu_ctx = ModuleContext(chars, self.mu, i + 1)
        self.mu_E = self.mu_ctx.e_module(self.K)
        self.w0dot = self.chev.wdot(self.rs.w0)
        self.U_list = self.chev.enum_U(i + 1)
        self.U_i_set = set(self.chev.enum_U(i))
        self._S: Subspace | None = None
        self._omega_w_sets: dict = {}
        self._h_sets: dict = {}
        # scan verdicts per h-class, unpermuted (gamma) and permuted (club)
        self._class_hits: dict = {False: {}, True: {}}
        self._omega: list | None = None
        self._gamma: list | None = None
        self._g_rest: np.ndarray | None = None
        self._parab_terms: tuple | None = None

    # -- elementary moves ---------------------------------------------------

    def class_of(self, G) -> np.ndarray:
        """Canonical representatives of g . C in the target quotient, one row
        per row g of an (n, m*m) code array G."""
        return self.mu_E.project(self.mu_ctx.act_stack(G, self.mu_E.C))

    def _U_times(self, left: Mat, right: Mat) -> np.ndarray:
        """left * x * right for every x of U_list, as a code array."""
        tw, m, U = self.tower, self.chev.m, np.array(self.U_list, dtype=np.int64)
        LU = kern.mat_mul_codes(left, U, m, tw.zech, tw.Q1)
        return kern.mat_mul_codes(LU, right, m, tw.zech, tw.Q1)

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
            S.extend(self.class_of(self._U_times(self.chev.identity, self.w0dot)))
            self._S = S
        return self._S

    def omega_w(self, w):
        """(Omega_w, Omega'_w) in canonical enumeration order."""
        if w.perm not in self._omega_w_sets:
            classes = self.class_of(self._U_times(self.chev.wdot(w), self.w0dot))
            inside = ~self.S_subspace().residue(classes).any(axis=1)
            om = [x for x, ok in zip(self.U_list, inside) if ok]
            om_set = set(om)
            omp = [
                x
                for x in self.chev.enum_U_w(w, self.i + 1)
                if x not in om_set
            ]
            self._omega_w_sets[w.perm] = (om, omp)
        return self._omega_w_sets[w.perm]

    def _h_orbit(self, u: Mat) -> frozenset:
        """{x t u t^-1 : t in T_i, x in U_i}, built afresh."""
        cx, tw, m = self.chev, self.tower, self.chev.m
        T = np.array(cx.enum_T(self.i), dtype=np.int64)
        # a torus element's inverse negates the codes on its diagonal
        T_inv = np.where(T == tw.Q1, tw.Q1, -T % tw.Q1)
        conj = kern.mat_mul_codes(
            kern.mat_mul_codes(T, u, m, tw.zech, tw.Q1), T_inv, m, tw.zech, tw.Q1
        )
        X = np.array(cx.enum_U(self.i), dtype=np.int64)[:, None]
        H = kern.mat_mul_codes(X, conj, m, tw.zech, tw.Q1).reshape(-1, m * m)
        return frozenset(map(tuple, H.tolist()))

    def h_set(self, u: Mat) -> frozenset:
        """The h-class {x t u t^-1 : t in T_i, x in U_i} of u.

        It is the orbit of u under b * u = b.u.t(b)^-1 of B_i, t(b) the torus
        part of b, so the h-classes partition U_{i+1}: the orbit is built
        once, and every member shares the one frozenset object, on which
        gamma_hit and claim_club memoize their verdicts.
        h_partition_report checks the partition by rebuilding each u's orbit.
        """
        if u not in self._h_sets:
            self.require_u(u)
            H = self._h_orbit(u)
            for v in H:
                self._h_sets[v] = H
        return self._h_sets[u]

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
        # h_set shares one orbit among its members, which is sound only if
        # each u's own orbit is its class
        own = all(self._h_orbit(u) == self.h_set(u) for u in self.U_list)
        union = frozenset().union(*classes)
        # the classes are pairwise disjoint exactly when their sizes add up
        # to the size of their union, and they partition U_{i+1} when that
        # union is U_{i+1}
        disjoint = sum(map(len, classes)) == len(union)
        cover = union == frozenset(self.U_list)
        contain = all(u in h for h, us in classes.items() for u in us)
        lower = len(self.U_list) // (
            len(self.chev.enum_U(self.i)) * len(self.chev.enum_T(self.i))
        )
        return {
            "num_h_classes": len(classes),
            "h_partition_ok": own and disjoint and cover and contain,
            "h_class_lower_bound": lower,
            "h_class_lower_bound_ok": len(classes) >= lower,
        }

    # -- gamma machinery ----------------------------------------------------

    def _noncentral_level_i(self) -> np.ndarray:
        if self._g_rest is None:
            central = set(self.chev.center(self.i))
            rows = [g for g in self.chev.enum_G(self.i) if g not in central]
            self._g_rest = np.array(rows, dtype=np.int64)
        return self._g_rest

    def _scan_hit(self, u: Mat, garr: np.ndarray, permuted: bool = False) -> int:
        """First row g of garr with P.g.Q upper triangular, else -1, for P =
        (u.wdot(w0))^-1 and Q = u.wdot(w0); permuted tests P.g.u in B.N."""
        cx, tw = self.chev, self.tower
        uw0 = cx.mat_mul(u, self.w0dot)
        P = np.array(cx.mat_inv(uw0), dtype=np.int64)
        Q = np.array(u if permuted else uw0, dtype=np.int64)
        return int(kern.scan_conj_upper(P, garr, Q, cx.m, tw.zech, tw.Q1,
                                        permuted=permuted))

    def _class_hit(self, u: Mat, garr: np.ndarray, permuted: bool) -> bool:
        """_scan_hit(u, garr, permuted) >= 0, scanned once per h-class: the
        verdict is memoized on the class object that h_set shares."""
        memo = self._class_hits[permuted]
        H = self.h_set(u)
        if H not in memo:
            memo[H] = self._scan_hit(u, garr, permuted) >= 0
        return memo[H]

    def gamma_hit(self, u: Mat) -> bool:
        """Some noncentral level-i g puts (u.wdot(w0))^-1 . g . u.wdot(w0) in B.

        The verdict is constant on the h-class of u, so it is scanned once
        per class.  Write u' = b * u = x.t.u.t^-1 with b = x.t in B_i.  Then
        u'.wdot(w0) = b.(u.wdot(w0)).s with s = wdot(w0)^-1.t^-1.wdot(w0) in
        T, so the test for u' with g is the test for u with g' = b^-1.g.b,
        conjugated by s, which keeps B.  And g -> b^-1.g.b permutes the
        noncentral elements of G_i.
        """
        return self._class_hit(u, self._noncentral_level_i(), False)

    def gamma_set(self, jobs: int = 1) -> list:
        if self._gamma is None:
            omega = self.omega_set()
            requested = len(omega) * len(self._noncentral_level_i())
            if requested > SCAN_BUDGET:
                raise BudgetError("gamma scan", "membership", "SCAN_BUDGET",
                                  SCAN_BUDGET, requested, "conjugations")
            hits = _pmap(self.gamma_hit, omega, jobs)
            self._gamma = [u for u, hit in zip(omega, hits) if hit]
        return self._gamma

    def gamma_cell_e_empty(self) -> bool:
        """No u in omega is captured by a noncentral element of the level-i Borel."""
        central = set(self.chev.center(self.i))
        rows = [b for b in self.chev.enum_B(self.i) if b not in central]
        if not rows:
            return True
        barr = np.array(rows, dtype=np.int64)
        return not any(self._scan_hit(u, barr) >= 0 for u in self.omega_set())

    def claim_club(self, u: Mat) -> bool:
        """No noncentral level-i g and w in W put g.u.wdot(w) in u.wdot(w0).B_{i+1}.

        With P = (u.wdot(w0))^-1 that is P.g.u.wdot(w) in B, i.e. h = u^-1.g.u
        in B^-.wdot(w0).wdot(w)^-1, as wdot(w0).B.wdot(w0)^-1 = B^-.  Over W
        these cosets make up B^-.N, so the club fails exactly when some g puts
        P.g.u in B.N: for every r, its last r rows are supported on exactly r
        columns.  One scan of the noncentral level-i group tests that.

        The verdict is constant on the h-class of u, so it is scanned once
        per class.  For u' = b * u = b.u.t^-1 (b = x.t, as in gamma_hit), P'
        = s^-1.P.b^-1, so P'.g.u' = s^-1.P.(b^-1.g.b).u.t^-1: g -> b^-1.g.b
        permutes the noncentral elements of G_i, and B.N is stable under
        left and right multiplication by T (in h terms: B^- and B^-.N are
        stable under conjugation by T).
        """
        self.require_u(u)
        garr = self._noncentral_level_i()
        if len(garr) > SCAN_BUDGET:
            raise BudgetError("club scan", "membership", "SCAN_BUDGET",
                              SCAN_BUDGET, len(garr), "conjugations")
        return not self._class_hit(u, garr, True)

    # -- the alternating average vector -------------------------------------

    def xi(self, u: Mat, check_eigen: bool = True) -> dict:
        """The alternating average attached to u: eta is the class of the
        sum over p in P_{J'} of (1/lambda(p)) (p.u.wdot(w0)).C, one weighted
        module action (act_sum), and xi the class of the alternating sum of
        the wdot(w)-translates of eta over W_J (alternating_sum, which is eta
        itself when J is empty).  Residues are linear, so each sum is
        projected once."""
        self.require_u(u)
        cx, tw, mod, project = self.chev, self.tower, self.mu_ctx, self.mu_E.project
        P, values, coeffs = self._parabolic_terms()
        uw0 = np.array(cx.mat_mul(u, self.w0dot), dtype=np.int64)
        G = kern.mat_mul_codes(P, uw0, cx.m, tw.zech, tw.Q1)
        eta = project(mod.act_sum(G, coeffs, self.mu_E.C))
        report = {"u": self.u_serial(u)}
        if check_eigen:
            lhs = project(mod.act_stack(P, eta))
            report["eigen_ok"] = bool((lhs == values[:, None] * eta % self.ell).all())
        xi = project(mod.alternating_sum(self.J, eta))
        report["xi_nonzero"] = bool(xi.any())
        report["xi_in_top_cell_span"] = bool(self.S_subspace().contains(xi))
        report["vector"] = xi
        return report

    def _parabolic_terms(self) -> tuple:
        """P_{J'} at level i in enumeration order as an (n, m*m) code array,
        with lambda(p) and 1/lambda(p) per row.  They do not depend on u, so
        xi builds them once, on first use."""
        if self._parab_terms is None:
            P = np.array(self.chev.enum_P(self.Jp, self.i), dtype=np.int64)
            values = self.chars.eval_parabolic(self.lam, self.Jp, P)
            inverses = [pow(int(v), -1, self.ell) for v in values]
            self._parab_terms = (P, values, np.array(inverses, dtype=np.int64))
        return self._parab_terms

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
        pairs = _pmap(
            lambda u: (self.claim_club(u), bool(self.xi(u, check_eigen=False)["xi_nonzero"])),
            omega, jobs,
        )
        club_true = 0
        xi_nonzero = 0
        failing = None  # first u of omega where the club holds and xi vanishes
        for u, (club, nz) in zip(omega, pairs):
            club_true += club
            xi_nonzero += nz
            if club and not nz and failing is None:
                failing = u
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
            "club_implies_xi_nonzero": failing is None,
        }
        if failing is not None:
            report["first_failing_u"] = self.u_serial(failing)
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
        level-(i+1) (mu, K) quotient, sending the generator to xi.

        A linear map is equivariant exactly when its graph is a submodule, so
        the map is read off the spin of (C_lambda, xi) in the direct sum of
        the two quotients under the level-i generators, returned as
        "solver" (its `apply` evaluates the map).  The map is well defined
        when the spin meets 0 + M_mu only in zero, that is, when it has no
        pivot in the mu block; the domain is its projection to the lambda
        block.  "kernel_dim" counts the classes v with (v, 0) in the spin,
        the kernel of the map when it is well defined.
        """
        lam_ctx = ModuleContext(self.chars, self.lam, self.i + 1)
        lam_E = lam_ctx.e_module(self.J)
        xi_rep = self.xi(u)
        gens = level_generators(self.chev, self.i)
        pair = DirectSum(lam_E, self.mu_E)
        Dl = lam_ctx.D
        graph = spin_closure(
            pair, [np.concatenate([lam_E.C, xi_rep["vector"]])], gens=gens
        )
        in_lam = np.flatnonzero(graph.have) < Dl
        well_defined = bool(in_lam.all())
        domain_dim = int(in_lam.sum())
        basis = graph.basis_matrix()
        equivariant = well_defined and all(
            graph.contains(pair.apply_table(t, basis))
            for t in pair.action_tables(gens)
        )
        image = Subspace(self.mu_ctx.D, self.ell)
        image.extend(basis[:, Dl:])
        level_i_dim = ModuleContext(self.chars, self.lam, self.i).e_module(
            self.J
        ).dim
        kernel_dim = graph.dim - image.dim
        report = {
            "u": self.u_serial(u),
            "xi_nonzero": xi_rep["xi_nonzero"],
            "eigen_ok": xi_rep["eigen_ok"],
            "well_defined": well_defined,
            "equivariant": equivariant,
            "domain_dim": domain_dim,
            "level_i_quotient_dim": level_i_dim,
            "kernel_dim": kernel_dim,
            "injective": kernel_dim == 0,
            "solver": graph,
            "lam_ctx": lam_ctx,
            "lam_E": lam_E,
        }
        return report

    def twisted_probe(self, u: Mat) -> dict:
        """Fixed-vector probe of the twisted embedding of M_i into M_{i+1}.

        f_i(M_i) is the span of (v, f(v)) over the level-i spin of C_lambda
        and of (0, w) over that of C_mu, f read off the graph of phi_map;
        "fix_dim" is the dimension of the vectors of the direct sum of the
        two quotients fixed by the level-(i+1) unipotent attached to w_J, and
        "meet_dim" that of their meet with f_i(M_i).  When phi is not well
        defined no map exists: f(v) is then the graph's mu part reduced
        modulo the graph's meet with 0 + M_mu, the counts are of that span,
        and the verdict is negative.
        """
        phi = self.phi_map(u)
        lam_E, graph = phi["lam_E"], phi["solver"]
        Dl = lam_E.D
        ell = self.ell
        # spans of the level-i translates of each quotient generator; level-i
        # generators do not give a level-(i+1) stable span, so no stability check
        gens = level_generators(self.chev, self.i)
        lam_sub = spin_closure(lam_E, [lam_E.C], gens=gens)
        mu_sub = spin_closure(self.mu_E, [self.mu_E.C], gens=gens)
        pair = DirectSum(lam_E, self.mu_E)

        # f_i(M_i): lambda-block rows are twisted by the map, mu-block rows kept
        lam_basis, mu_basis = lam_sub.basis_matrix(), mu_sub.basis_matrix()
        f_image = Subspace(pair.D, ell)
        f_image.extend(np.vstack([
            np.hstack([lam_basis, graph.apply(lam_basis)]),
            np.hstack([np.zeros((len(mu_basis), Dl), dtype=np.int64), mu_basis]),
        ]))

        # fixed vectors of the level-(i+1) unipotent attached to w_J: the
        # combinations of the class bases that every fixing generator fixes
        wJ = self.rs.longest(self.J)
        fix_gens = [
            self.chev.eps(ab, b)
            for ab in self.rs.phi_plus_pairs(wJ)
            for b in self.tower.field_basis(self.i + 1)
        ]
        lam_rows, mu_rows = lam_E.class_basis(), self.mu_E.class_basis()
        big = np.zeros((len(lam_rows) + len(mu_rows), pair.D), dtype=np.int64)
        big[:len(lam_rows), :Dl] = lam_rows
        big[len(lam_rows):, Dl:] = mu_rows
        # with no fixing generator diff has zero width and fixes every vector;
        # it is filled one generator at a time, so no list of blocks doubles it
        tables = pair.action_tables(fix_gens)
        diff = np.empty((len(big), len(tables) * pair.D), dtype=np.int64)
        for i, t in enumerate(tables):
            diff[:, i * pair.D:(i + 1) * pair.D] = (pair.apply_table(t, big) - big) % ell
        fixed = Subspace(pair.D, ell)
        fixed.extend(kern.residue_matmul(nullspace_coeffs(diff, ell), big, ell))

        meet = subspace_intersection(f_image, fixed).basis_matrix()
        contained = not meet[:, :Dl].any() and mu_sub.contains(meet[:, Dl:])
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
            "meet_dim": len(meet),
            # signal: every fixed vector the embedded module contains already
            # lies in the mu block; vacuous (negative) when xi vanished or
            # no map exists
            "verdict_nonsplit_signal": bool(
                phi["well_defined"] and phi["xi_nonzero"] and contained
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
    # per quotient: the quotient, the class basis, the pivot columns that
    # give a class its coordinates in that basis, and the tables of the
    # generators and c0, built in one stacked pass
    elts = level_generators(chars.chev, k) + [c0]
    quotients = []
    for theta, S in ((lam, J), (mu, K)):
        em = ModuleContext(chars, theta, k).e_module(S)
        basis = em.class_basis()
        piv = [int(np.nonzero(r)[0][0]) for r in basis]
        quotients.append((em, basis, piv, em.action_tables(elts)))
    dl, dm = (len(q[1]) for q in quotients)
    n = dl + dm

    def block_mat(e):
        out = np.zeros((n, n), dtype=np.int64)
        off = 0
        for em, basis, piv, tables in quotients:
            imgs = em.apply_table(tables[e], basis)
            out[off:off + len(basis), off:off + len(basis)] = imgs[:, piv].T
            off += len(basis)
        out.setflags(write=False)
        return out

    out = SplitBlocks(
        dl=dl,
        dm=dm,
        gens=tuple(block_mat(e) for e in range(len(elts) - 1)),
        c0=c0,
        c0_block=block_mat(-1),
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

    def __init__(self, chars: Characters, lam, mu, J, K, k: int, seed: int):
        blocks = split_blocks(chars, lam, mu, J, K, k)
        self.chars = chars
        self.ell = chars.coeff.ell
        self.dl, self.dm = blocks.dl, blocks.dm
        n = self.dl + self.dm

        rng = random.Random(seed)
        X = np.array(
            [[rng.randrange(self.ell) for _ in range(self.dl)] for _ in range(self.dm)],
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
        self.sub.extend(np.eye(n, dtype=np.int64)[self.dl:])
        self.n = n


def central_split(ext: SynthExtension) -> dict:
    """Recover a complement of the designated submodule as the a-eigenspace
    of the central element; hard-fails if the eigenspace is not complementary."""
    if ext.a == ext.b:
        raise ValueError("central element does not separate the characters")
    ell = ext.ell
    T = (ext.c0_mat - ext.a * np.eye(ext.n, dtype=np.int64)) % ell
    eigen = Subspace(ext.n, ell)
    eigen.extend(nullspace_coeffs(T.T, ell))
    basis = eigen.basis_matrix()
    stable = eigen.contains(
        np.vstack([kern.residue_matmul(basis, Mb.T, ell) for Mb in ext.gens])
    )
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
