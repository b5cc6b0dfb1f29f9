"""Matrix realization of SL_{r+1} over a field tower.

Group elements are flat row-major tuples of scalar codes (hashable, exact).
Provides root subgroups, coroots, Weyl representatives, the Bruhat normal
form g = u * wdot(w) * t * v with u supported on Phi_{w^-1}^-, rank-1
structure constants, and canonical enumeration of U_k, T_k, B_k, G_k,
parabolic subsets and centers at each tower level.

Two decompositions run the same pivot elimination and share one
unipotent-peeling routine: `bruhat_cell` returns (w, u, t) only and is the
fast path of every module action; `bruhat_form` also builds the right factor
v, for the callers that need it and as the test oracle of `bruhat_cell`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

from .fieldtower import BudgetError, FieldTower
from .rootdata import RootSystem, WeylElt

GROUP_BUDGET = 10**6

Mat = tuple  # flat row-major tuple of scalar codes, length (r+1)^2


@dataclass(frozen=True)
class BruhatForm:
    u: Mat
    w: WeylElt
    t: tuple          # diagonal entries, length r+1, product 1
    v: Mat


class Chevalley:
    """SL_{r+1} over the ambient field of a tower, with level subgroups."""

    def __init__(self, tower: FieldTower, rs: RootSystem):
        self.tower = tower
        self.rs = rs
        self.m = rs.rank + 1
        tw = tower
        self.identity = tuple(
            tw.ONE if i == j else tw.ZERO
            for i in range(self.m)
            for j in range(self.m)
        )
        self._sdot_cache: dict[int, Mat] = {}
        self._wdot_cache: dict[tuple, Mat] = {}
        self._wdot_inv_cache: dict[tuple, tuple] = {}
        self._peel_cache: dict[tuple, tuple] = {}
        self._enum_cache: dict[tuple, list] = {}

    # -- raw matrix arithmetic ----------------------------------------------

    def mat_mul(self, A: Mat, B: Mat) -> Mat:
        tw, m = self.tower, self.m
        out = []
        for i in range(m):
            row = A[i * m : (i + 1) * m]
            for j in range(m):
                acc = tw.ZERO
                for a in range(m):
                    acc = tw.add(acc, tw.mul(row[a], B[a * m + j]))
                out.append(acc)
        return tuple(out)

    def mat_prod(self, mats) -> Mat:
        """Product of the factors in order; the identity for none."""
        mats = iter(mats)
        first = next(mats, None)
        if first is None:
            return self.identity
        return reduce(self.mat_mul, mats, first)

    def mat_inv(self, A: Mat) -> Mat:
        tw, m = self.tower, self.m
        M = [list(A[i * m : (i + 1) * m]) for i in range(m)]
        R = [
            [tw.ONE if i == j else tw.ZERO for j in range(m)] for i in range(m)
        ]
        for col in range(m):
            piv = next(r for r in range(col, m) if M[r][col] != tw.ZERO)
            if piv != col:
                M[col], M[piv] = M[piv], M[col]
                R[col], R[piv] = R[piv], R[col]
            c = tw.inv(M[col][col])
            M[col] = [tw.mul(c, x) for x in M[col]]
            R[col] = [tw.mul(c, x) for x in R[col]]
            for r in range(m):
                if r != col and M[r][col] != tw.ZERO:
                    f = M[r][col]
                    M[r] = [tw.sub(x, tw.mul(f, y)) for x, y in zip(M[r], M[col])]
                    R[r] = [tw.sub(x, tw.mul(f, y)) for x, y in zip(R[r], R[col])]
        return tuple(x for row in R for x in row)

    def det(self, A: Mat):
        tw, m = self.tower, self.m
        M = [list(A[i * m : (i + 1) * m]) for i in range(m)]
        acc = tw.ONE
        for col in range(m):
            piv = next(
                (r for r in range(col, m) if M[r][col] != tw.ZERO), None
            )
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

    # -- generators --------------------------------------------------------

    def eps(self, pair, c) -> Mat:
        """Root subgroup element: identity + c at entry (a, b) for e_a - e_b."""
        a, b = pair
        if a == b:
            raise ValueError("not a root")
        out = list(self.identity)
        out[a * self.m + b] = c
        return tuple(out)

    def eps_simple(self, i: int, c) -> Mat:
        return self.eps((i - 1, i), c)

    def coroot(self, i: int, t) -> Mat:
        if t == self.tower.ZERO:
            raise ValueError("coroot at 0")
        out = list(self.identity)
        out[(i - 1) * self.m + (i - 1)] = t
        out[i * self.m + i] = self.tower.inv(t)
        return tuple(out)

    def torus(self, diag) -> Mat:
        """Diagonal matrix from r+1 nonzero codes (caller ensures det 1)."""
        out = list(self.identity)
        for i, d in enumerate(diag):
            out[i * self.m + i] = d
        return tuple(out)

    def diag_of(self, A: Mat) -> tuple:
        return tuple(A[i * self.m + i] for i in range(self.m))

    def sdot(self, i: int) -> Mat:
        if i not in self._sdot_cache:
            tw = self.tower
            one = tw.ONE
            self._sdot_cache[i] = self.mat_prod(
                [
                    self.eps((i - 1, i), one),
                    self.eps((i, i - 1), tw.neg(one)),
                    self.eps((i - 1, i), one),
                ]
            )
        return self._sdot_cache[i]

    def wdot(self, w: WeylElt) -> Mat:
        key = w.perm
        if key not in self._wdot_cache:
            self._wdot_cache[key] = self.mat_prod(self.sdot(i) for i in w.word)
        return self._wdot_cache[key]

    def wdot_in(self, J, w: WeylElt) -> Mat:
        """Representative built from a reduced word inside W_J (w must lie in W_J)."""
        if not set(w.word) <= set(J):
            raise ValueError("element not in the parabolic subgroup W_J")
        return self.wdot(w)

    # -- predicates ----------------------------------------------------------

    def is_unitriangular(self, A: Mat) -> bool:
        tw, m = self.tower, self.m
        for i in range(m):
            for j in range(m):
                v = A[i * m + j]
                if i == j and v != tw.ONE:
                    return False
                if i > j and v != tw.ZERO:
                    return False
        return True

    def is_upper_triangular(self, A: Mat) -> bool:
        tw, m = self.tower, self.m
        return all(
            A[i * m + j] == tw.ZERO for i in range(m) for j in range(i)
        )

    def in_level(self, A: Mat, k: int) -> bool:
        return all(self.tower.in_level(x, k) for x in A)

    # -- Bruhat normal form ----------------------------------------------------

    def _wdot_inv_rows(self, w: WeylElt) -> tuple:
        """wdot(w)^-1 as the (column, value) of the one nonzero entry per row."""
        key = w.perm
        if key not in self._wdot_inv_cache:
            m, zero = self.m, self.tower.ZERO
            winv = self.mat_inv(self.wdot(w))
            self._wdot_inv_cache[key] = tuple(
                next((j, winv[i * m + j]) for j in range(m) if winv[i * m + j] != zero)
                for i in range(m)
            )
        return self._wdot_inv_cache[key]

    def _peel_order(self, x: WeylElt) -> tuple:
        """Phi_x^- positions in ascending height, then by row."""
        key = x.perm
        if key not in self._peel_cache:
            self._peel_cache[key] = tuple(
                sorted(
                    self.rs.phi_minus_pairs(x),
                    key=lambda ab: (ab[1] - ab[0], ab[0]),
                )
            )
        return self._peel_cache[key]

    def peel_unipotent(self, R: list, x: WeylElt) -> Mat:
        """Split unitriangular rows R in place as u * R' with u supported on
        Phi_x^- positions only; return u and leave R' in R.

        Peeling in ascending height lets disturbances flow upward only, so
        R' ends up zero at every Phi_x^- position.
        """
        tw, m = self.tower, self.m
        u = list(self.identity)
        for a, b in self._peel_order(x):
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

    def bruhat_form(self, g: Mat) -> BruhatForm:
        tw, m = self.tower, self.m
        M = [list(g[i * m + j] for j in range(m)) for i in range(m)]
        u_acc = [list(row) for row in
                 [self.identity[i * m : (i + 1) * m] for i in range(m)]]
        v_acc = [list(row) for row in
                 [self.identity[i * m : (i + 1) * m] for i in range(m)]]
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
                        v_acc[j][col] = tw.add(
                            v_acc[j][col], tw.mul(c, v_acc[j2][col])
                        )
            # clear pivot column upward (row ops; left factor)
            for r in range(piv):
                c = tw.mul(M[r][j], inv)
                if c != tw.ZERO:
                    for j2 in range(m):
                        M[r][j2] = tw.sub(M[r][j2], tw.mul(c, M[piv][j2]))
                    # u_acc <- u_acc (I + c E_{r,piv})
                    for row in range(m):
                        u_acc[row][piv] = tw.add(
                            u_acc[row][piv], tw.mul(c, u_acc[row][r])
                        )
        w = self.rs.by_perm(perm_col)
        monomial = tuple(x for row in M for x in row)
        t_mat = self.mat_mul(self.mat_inv(self.wdot(w)), monomial)
        t = self.diag_of(t_mat)
        assert t_mat == self.torus(t), "pivot pattern mismatch"
        v0 = tuple(x for row in v_acc for x in row)

        # split u0 = u * u2 with u supported on Phi_{w^-1}^- positions only
        u = self.peel_unipotent(u_acc, self.rs.inv(w))
        u2 = tuple(x for row in u_acc for x in row)
        # push the complementary factor through wdot and t into the right part
        x = self.mat_prod(
            [self.mat_inv(self.wdot(w)), u2, self.wdot(w)]
        )
        t_inv = self.torus(tuple(tw.inv(d) for d in t))
        v = self.mat_prod([t_inv, x, self.torus(t), v0])
        assert self.is_unitriangular(v), "right factor not unipotent"
        return BruhatForm(u=u, w=w, t=t, v=v)

    def bruhat_cell(self, g: Mat) -> tuple:
        """(w, u, t) of the Bruhat form of g, without building v.

        The elimination of bruhat_form with each step's row operations done
        first: once they have cleared the pivot column, the column operations
        that build v change only the pivot row, and only to zero it right of
        the pivot, so that row is zeroed directly.  Both checks of
        bruhat_form stay, in a cheap form: the pivot pattern must match the
        nonzero pattern of wdot(w)^-1, and the factor left after peeling u
        must vanish at every Phi_{w^-1}^- position, which is exactly v being
        unipotent.
        """
        tw, m = self.tower, self.m
        zero, mul, sub, add = tw.ZERO, tw.mul, tw.sub, tw.add
        M = [list(g[i * m : (i + 1) * m]) for i in range(m)]
        U = [list(self.identity[i * m : (i + 1) * m]) for i in range(m)]
        used = [False] * m
        perm_col = [0] * m
        for j in range(m):
            piv = max(r for r in range(m) if not used[r] and M[r][j] != zero)
            used[piv] = True
            perm_col[j] = piv
            prow = M[piv]
            inv = tw.inv(prow[j])
            for r in range(piv):
                c = mul(M[r][j], inv)
                if c != zero:
                    row = M[r]
                    for j2 in range(j, m):
                        row[j2] = sub(row[j2], mul(c, prow[j2]))
                    # U <- U (I + c E_{r,piv}); U is upper unitriangular
                    for i in range(r + 1):
                        U[i][piv] = add(U[i][piv], mul(c, U[i][r]))
            for j2 in range(j + 1, m):
                prow[j2] = zero
        w = self.rs.by_perm(perm_col)
        # t = diagonal of wdot(w)^-1 times the monomial matrix left in M
        t = []
        for i, (col, s) in enumerate(self._wdot_inv_rows(w)):
            assert col == perm_col[i], "pivot pattern mismatch"
            t.append(mul(s, M[col][i]))
        winv = self.rs.inv(w)
        u = self.peel_unipotent(U, winv)
        assert all(
            U[a][b] == zero for a, b in self._peel_order(winv)
        ), "right factor not unipotent"
        return w, u, tuple(t)

    def reassemble(self, bf: BruhatForm) -> Mat:
        return self.mat_prod([bf.u, self.wdot(bf.w), self.torus(bf.t), bf.v])

    # -- rank-1 structure constants ---------------------------------------------

    def rank1_constants(self, i: int, x):
        """Parameters (f, h, g2) with sdot_i eps_i(x) sdot_i^{-1}
        = eps_i(f) sdot_i coroot_i(h) eps_i(g2); defined for x != 0."""
        tw = self.tower
        if x == tw.ZERO:
            raise ValueError("rank1_constants undefined at x = 0")
        s = self.sdot(i)
        lhs = self.mat_prod([s, self.eps_simple(i, x), self.mat_inv(s)])
        bf = self.bruhat_form(lhs)
        if bf.w != self.rs.s(i):
            raise AssertionError("rank-1 element fell outside the s_i cell")
        pos = (i - 1) * self.m + i
        f = bf.u[pos]
        g2 = bf.v[pos]
        h = bf.t[i - 1]
        # torus part must be exactly coroot(i, h)
        assert bf.t == self.diag_of(self.coroot(i, h))
        # v must be a pure root element
        assert bf.v == self.eps_simple(i, g2)
        assert f != tw.ZERO and g2 != tw.ZERO
        return f, h, g2

    # -- canonical enumerations ----------------------------------------------

    def _level_elts(self, k):
        return self.tower.level_members(k)

    def enum_U_w(self, w: WeylElt, k: int, plus: bool = False) -> list[Mat]:
        """Unipotent group for the closed set Phi_w^- (or Phi_w^+ if plus)."""
        key = ("Uw", w.perm, k, plus)
        if key not in self._enum_cache:
            pairs = (
                self.rs.phi_plus_pairs(w) if plus else self.rs.phi_minus_pairs(w)
            )
            elts = self._level_elts(k)
            self._enum_cache[key] = [
                self._from_entry_support(pairs, combo)
                for combo in itertools.product(elts, repeat=len(pairs))
            ]
        return self._enum_cache[key]

    def _from_entry_support(self, pairs, values) -> Mat:
        # entry-support parametrization: closed root subsets in type A admit
        # coordinates directly in the matrix entries
        mat = list(self.identity)
        for (a, b), c in zip(pairs, values):
            mat[a * self.m + b] = c
        return tuple(mat)

    def enum_U(self, k: int) -> list[Mat]:
        return self.enum_U_w(self.rs.w0, k)

    def enum_T(self, k: int) -> list[Mat]:
        key = ("T", k)
        if key not in self._enum_cache:
            tw = self.tower
            free = self._level_elts(k)[1:]  # nonzero, in dlog order
            out = []
            for combo in itertools.product(free, repeat=self.rs.rank):
                prod = tw.ONE
                for c in combo:
                    prod = tw.mul(prod, c)
                out.append(self.torus(combo + (tw.inv(prod),)))
            self._enum_cache[key] = out
        return self._enum_cache[key]

    def enum_B(self, k: int) -> list[Mat]:
        key = ("B", k)
        if key not in self._enum_cache:
            self._enum_cache[key] = [
                self.mat_mul(t, u) for t in self.enum_T(k) for u in self.enum_U(k)
            ]
        return self._enum_cache[key]

    def enum_cell(self, w: WeylElt, k: int) -> list[Mat]:
        """The Bruhat cell U_{w^-1} wdot(w) B at level k, canonical order."""
        key = ("cell", w.perm, k)
        if key not in self._enum_cache:
            wd = self.wdot(w)
            left = [
                self.mat_mul(u, wd)
                for u in self.enum_U_w(self.rs.inv(w), k)
            ]
            self._enum_cache[key] = [
                self.mat_mul(lhs, b) for lhs in left for b in self.enum_B(k)
            ]
        return self._enum_cache[key]

    def group_order(self, k: int, ws=None) -> int:
        qk = self.tower.level_size(k)
        ws = self.rs.elements if ws is None else ws
        cells = sum(qk ** w.length for w in ws)
        return cells * (qk - 1) ** self.rs.rank * qk ** self.rs.n

    def enum_G(self, k: int) -> list[Mat]:
        if self.group_order(k) > GROUP_BUDGET:
            raise BudgetError(
                f"|G_{k}| = {self.group_order(k)} exceeds the 10^6 budget"
            )
        key = ("G", k)
        if key not in self._enum_cache:
            out = []
            for w in self.rs.elements:
                out.extend(self.enum_cell(w, k))
            self._enum_cache[key] = out
        return self._enum_cache[key]

    def enum_P(self, J, k: int) -> list[Mat]:
        ws = self.rs.subgroup(J)
        if self.group_order(k, ws) > GROUP_BUDGET:
            raise BudgetError("parabolic enumeration exceeds the 10^6 budget")
        key = ("P", frozenset(J), k)
        if key not in self._enum_cache:
            out = []
            for w in ws:
                out.extend(self.enum_cell(w, k))
            self._enum_cache[key] = out
        return self._enum_cache[key]

    def center(self, k: int) -> list[Mat]:
        """Scalar matrices zeta*id with zeta^{r+1} = 1 at level k, dlog order."""
        tw = self.tower
        qk1 = tw.level_size(k) - 1
        mm = self.m
        d = math.gcd(mm, qk1)
        gk = tw.generator(k)
        out = []
        for j in range(d):
            zeta = tw.pow_int(gk, j * (qk1 // d)) if qk1 > 1 else tw.ONE
            out.append(self.torus((zeta,) * mm))
        out.sort(key=lambda A: tw.scalar_index(self.diag_of(A)[0]))
        return out
