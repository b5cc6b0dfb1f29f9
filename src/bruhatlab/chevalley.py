"""Matrix realization of SL_{r+1} over a field tower.

Group elements are flat row-major tuples of scalar codes (hashable, exact).
Provides root subgroups, coroots, Weyl representatives, the Bruhat normal
form g = u * wdot(w) * t * v with u supported on Phi_{w^-1}^-, rank-1
structure constants, and canonical enumeration of U_k, T_k, B_k, G_k,
parabolic subsets and centers at each tower level.

Two decompositions run the same pivot elimination.  `bruhat_cells` is the
one used by module actions: it returns (w, u, t) for a whole code array at
once.  `bruhat_form` takes one element, also builds the right factor v, and
serves `rank1_constants`, `reassemble` and the per-element test oracles.
`peel_unipotents` splits a stack of unipotents on Phi_x^- for the induced
module's coset keys; the scalar `peel_unipotent` is its oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _backend as kern
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
        self._cells_cache: tuple | None = None
        self._rank1_cache: dict[tuple, tuple] = {}
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

    def peel_unipotent(self, R: list, x: WeylElt) -> Mat:
        """Split unitriangular rows R in place as u * R' with u supported on
        Phi_x^- positions only; return u and leave R' in R.  The one-element
        oracle of peel_unipotents.

        Peeling in ascending height lets disturbances flow upward only, so
        R' ends up zero at every Phi_x^- position; phi_minus_pairs keeps the
        order of rs.pos_pairs, ascending height and then by row.
        """
        tw, m = self.tower, self.m
        u = list(self.identity)
        for a, b in self.rs.phi_minus_pairs(x):
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
        # a row operation adds E_{r,piv} only where r pivots a later column,
        # an inversion of the pivot pattern, so u_acc lies in U_{w^-1}
        # already: peeling it would split off the identity
        u = tuple(x for row in u_acc for x in row)
        inside = set(self.rs.phi_minus_pairs(self.rs.inv(w)))
        off = [a * m + b for a, b in self.rs.pos_pairs if (a, b) not in inside]
        assert all(u[i] == tw.ZERO for i in off), "left factor outside U_{w^-1}"
        return BruhatForm(u=u, w=w, t=t, v=tuple(x for row in v_acc for x in row))

    def _cells_tables(self) -> tuple:
        """Per Weyl element, in rs.elements order: the (column, value) rows
        of wdot(w)^-1 as two (|W|, m) arrays, and which positive pairs lie
        in Phi_{w^-1}^-; plus the rs.elements index of each pivot pattern,
        read as a base-m number with column 0 least significant."""
        if self._cells_cache is None:
            m, rs = self.m, self.rs
            ws = rs.elements
            rows = [self._wdot_inv_rows(w) for w in ws]
            cols = np.array([[c for c, _ in r] for r in rows], dtype=np.int64)
            vals = np.array([[v for _, v in r] for r in rows], dtype=np.int64)
            negs = [set(rs.phi_minus_pairs(rs.inv(w))) for w in ws]
            phi = np.array([[ab in neg for ab in rs.pos_pairs] for neg in negs])
            by_code = np.full(m**m, -1, dtype=np.int64)
            for e, w in enumerate(ws):
                by_code[sum(c * m**j for j, c in enumerate(w.perm))] = e
            self._cells_cache = (cols, vals, phi, by_code)
        return self._cells_cache

    def bruhat_cells(self, G) -> tuple:
        """(w, u, t) of the Bruhat form of every row of an (n, m*m) code array G.

        Returns (widx, u, t): w = rs.elements[widx[r]], u an (n, m*m) and t
        an (n, m) code array, row r matching bruhat_form(G[r]).  The pivot
        elimination of bruhat_form runs on every row at once, looping over m
        only, with each step's row operations first: once they have cleared
        the pivot column, the column operations that build v only zero the
        pivot row right of the pivot, so that row is zeroed directly.  The
        last column needs no row operations, since every other row is then
        a used pivot row.  Both checks of bruhat_form stay: the pivot
        pattern against _wdot_inv_rows, and u inside U_{w^-1}.
        """
        tw, m = self.tower, self.m
        Q1, minus_one = tw.Q1, tw.neg(tw.ONE)
        mul, add = self._mul_codes, self._add_codes
        cols, vals, phi, by_code = self._cells_tables()
        M = np.array(G, dtype=np.int64).reshape(-1, m, m)
        n = M.shape[0]
        rows = np.arange(n)
        eye = np.array(self.identity, dtype=np.int64).reshape(m, m)
        U = np.broadcast_to(eye, (n, m, m)).copy()
        used = np.zeros((n, m), dtype=bool)
        perm = np.empty((n, m), dtype=np.int64)
        for j in range(m):
            cand = ~used & (M[:, :, j] != Q1)
            if not cand.any(axis=1).all():
                raise ValueError("singular matrix has no Bruhat cell")
            piv = m - 1 - cand[:, ::-1].argmax(axis=1)  # last candidate row
            used[rows, piv] = True
            perm[:, j] = piv
            if j == m - 1:
                break
            prow = M[rows, piv, j:]
            neg_prow = mul(prow, minus_one)
            inv = (-prow[:, 0]) % Q1
            for r in range(m - 1):
                c = np.where(r < piv, mul(M[:, r, j], inv), Q1)
                M[:, r, j:] = add(M[:, r, j:], mul(c[:, None], neg_prow))
                # U <- U (I + c E_{r,piv}); U is upper unitriangular
                U[rows, :, piv] = add(U[rows, :, piv], mul(c[:, None], U[:, :, r]))
            M[rows, piv, j + 1:] = Q1
        widx = by_code[perm @ (m ** np.arange(m))]
        assert (cols[widx] == perm).all(), "pivot pattern mismatch"
        t = mul(vals[widx], M[rows[:, None], perm, np.arange(m)])
        # as in bruhat_form, U is already u
        upper = [a * m + b for a, b in self.rs.pos_pairs]
        off = (U.reshape(n, m * m)[:, upper] != Q1) & ~phi[widx]
        assert not off.any(), "left factor outside U_{w^-1}"
        return widx, U.reshape(n, m * m), t

    def peel_unipotents(self, U, widx) -> tuple:
        """peel_unipotent on every row of an (n, m*m) code array U of upper
        unitriangular matrices, row r on Phi_{w^-1}^- for w =
        rs.elements[widx[r]].  Returns the code arrays (u, R) with U = u R
        row by row, u supported on Phi_{w^-1}^- and R zero there.  The
        positive pairs are in ascending height, then by row, so each row
        peels in the order of peel_unipotent."""
        tw, m = self.tower, self.m
        mul, add = self._mul_codes, self._add_codes
        phi = self._cells_tables()[2][widx]
        R = np.array(U, dtype=np.int64).reshape(-1, m, m)
        u = np.broadcast_to(np.array(self.identity).reshape(m, m), R.shape).copy()
        for k, (a, b) in enumerate(self.rs.pos_pairs):
            c = np.where(phi[:, k], R[:, a, b], tw.Q1)[:, None]
            R[:, a, b:] = add(R[:, a, b:], mul(mul(c, tw.neg(tw.ONE)), R[:, b, b:]))
            # u <- u * eps((a, b), c): add c times column a to column b
            u[:, :a + 1, b] = add(u[:, :a + 1, b], mul(c, u[:, :a + 1, a]))
        return u.reshape(-1, m * m), R.reshape(-1, m * m)

    def _mul_codes(self, a, b):
        return kern._code_mul(a, b, self.tower.zech, self.tower.Q1)

    def _add_codes(self, a, b):
        return kern._code_add(a, b, self.tower.zech, self.tower.Q1)

    def reassemble(self, bf: BruhatForm) -> Mat:
        return self.mat_prod([bf.u, self.wdot(bf.w), self.torus(bf.t), bf.v])

    # -- rank-1 structure constants ---------------------------------------------

    def rank1_constants(self, i: int, x):
        """Parameters (f, h, g2) with sdot_i eps_i(x) sdot_i^{-1}
        = eps_i(f) sdot_i coroot_i(h) eps_i(g2); defined for x != 0."""
        tw = self.tower
        if x == tw.ZERO:
            raise ValueError("rank1_constants undefined at x = 0")
        if (i, x) in self._rank1_cache:
            return self._rank1_cache[(i, x)]
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
        self._rank1_cache[(i, x)] = (f, h, g2)
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

    def _products(self, A, B) -> list[Mat]:
        """a * b for every a of A and b of B, a-major, as one stacked
        product (mat_mul_codes) over the code arrays."""
        A = np.array(A, dtype=np.int64).reshape(-1, 1, self.m * self.m)
        B = np.array(B, dtype=np.int64).reshape(1, -1, self.m * self.m)
        out = kern.mat_mul_codes(A, B, self.m, self.tower.zech, self.tower.Q1)
        return list(map(tuple, out.reshape(-1, self.m * self.m).tolist()))

    def enum_B(self, k: int) -> list[Mat]:
        """t * u for t of T_k and u of U_k, t-major."""
        key = ("B", k)
        if key not in self._enum_cache:
            self._enum_cache[key] = self._products(self.enum_T(k), self.enum_U(k))
        return self._enum_cache[key]

    def enum_cell(self, w: WeylElt, k: int) -> list[Mat]:
        """The Bruhat cell U_{w^-1} wdot(w) B at level k, canonical order:
        (u * wdot(w)) * b, u-major."""
        key = ("cell", w.perm, k)
        if key not in self._enum_cache:
            left = self._products(self.enum_U_w(self.rs.inv(w), k), [self.wdot(w)])
            self._enum_cache[key] = self._products(left, self.enum_B(k))
        return self._enum_cache[key]

    def group_order(self, k: int, ws=None) -> int:
        qk = self.tower.level_size(k)
        ws = self.rs.elements if ws is None else ws
        cells = sum(qk ** w.length for w in ws)
        return cells * (qk - 1) ** self.rs.rank * qk ** self.rs.n

    def enum_G(self, k: int) -> list[Mat]:
        if self.group_order(k) > GROUP_BUDGET:
            raise BudgetError(f"G_{k} enumeration", "group", "GROUP_BUDGET",
                              GROUP_BUDGET, self.group_order(k), "elements")
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
            raise BudgetError("parabolic enumeration", "group", "GROUP_BUDGET",
                              GROUP_BUDGET, self.group_order(k, ws), "elements")
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
