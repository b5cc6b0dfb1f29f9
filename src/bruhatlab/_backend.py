"""The numpy kernels: F_ell reduced row echelon form, and stacked code-matrix
products, Bruhat elimination, unipotent peel and Bruhat cell scan.

Conventions:
  * F_ell vectors are numpy int64 arrays with entries in [0, ell).
  * An echelon basis is a square array `rows` (D x D) plus a uint8 flag
    vector `have` of length D: have[c] says rows[c] is live with pivot column
    c and pivot value 1.  Live rows are in reduced row echelon form: each is
    zero in every other live pivot column, and dead rows are zero.
  * A product of residue arrays goes through residue_matmul, which picks
    float64 (BLAS) where that is exact and int64 elsewhere.
  * Field-tower scalars are "codes": c in [0, Q1) means generator^c, and the
    value Q1 itself is zero.  `zech` is the Zech logarithm table, with
    zech[k] = Q1 marking 1 + g^k = 0.  A code matrix is a flat row-major
    array of m*m codes; a batch of them is an (n, m*m) array.
  * Code arithmetic is table lookups in an extended encoding that moves zero
    to Z = 2*Q1 and keeps every nonzero code.  Two tables of length 4*Q1+1,
    `red` and `shift`, give a product as red[a + b] and a sum as
    red[a + shift[b - a + Z]]; a zero operand lands at or above Z, which red
    sends to Z.  With the encoding table they hold about 9*Q entries, O(Q)
    and never O(Q^2), built once per field.  Only this module knows the
    encoding: each kernel encodes its input once and decodes once, so
    callers see canonical codes only.
"""

from __future__ import annotations

import numpy as np

BACKEND = "py"

# the most rows per batched product: group elements in scan_conj_upper,
# (g, key) pairs in modules.KeyedModule._images
SCAN_CHUNK = 2048


# -- F_ell reduced row echelon form ---------------------------------------------

# the least m*k*n at which an (m x k) @ (k x n) residue product runs in
# float64.  Timing both products on the operands of real runs (2-core x86,
# OpenBLAS) puts the crossover between 2^12 and 2^13: below 2^11 the two
# conversions make float64 about twice as slow (5 against 2.5 us), at 2^12
# the faster one depends on the shape, and from 2^14 float64 is never slower
FLOAT_MATMUL_WORK = 2**13


def residue_matmul(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    """The exact int64 product a @ b of a (k,) or (m, k) and a (k, n) array
    of residues, entries in [0, ell).

    Every entry is a sum of k products below (ell-1)^2, so every partial sum
    of it is an integer below k*(ell-1)^2.  While that bound is below 2^53
    float64 holds each one exactly in any summation order (Dumas, Giorgi
    and Pernet, FFLAS-FFPACK), and a large product runs there through BLAS;
    otherwise the product is taken in int64, where callers keep it from
    overflowing (modules.Subspace refuses ell^2 * (D+1) >= 2^63).
    """
    k = b.shape[0]
    if k * (ell - 1) ** 2 < 2**53 and a.size * b.shape[1] >= FLOAT_MATMUL_WORK:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a @ b


def echelon_reduce(rows: np.ndarray, have: np.ndarray, vec: np.ndarray, ell: int) -> np.ndarray:
    """Residue of vec, or of each row of a (k, D) stack, modulo the live rows.

    The basis is in RREF, so the residue is one product (residue_matmul)
    against the live rows at whose pivots vec is nonzero, then one reduction
    mod ell.  A residue vanishes on the pivot columns, so a stack takes the
    product on the other columns only (a large stack has nearly all pivots
    in use); a single vector takes whole rows, which is cheaper than
    gathering columns.
    """
    if vec.ndim == 1:
        used = (vec * have).nonzero()[0]
        if not used.size:
            return vec % ell
        return (vec - residue_matmul(vec[used], rows[used], ell)) % ell
    live = have.nonzero()[0]
    used = live[vec[:, live].any(axis=0)] if live.size else live
    if not used.size:
        return vec % ell
    free = (have == 0).nonzero()[0]
    out = np.zeros(vec.shape, dtype=np.int64)
    prod = residue_matmul(vec[:, used], rows[used[:, None], free], ell)
    out[:, free] = (vec[:, free] - prod) % ell
    return out


def echelon_insert(rows: np.ndarray, have: np.ndarray, vec: np.ndarray, ell: int) -> int:
    """Insert vec into the RREF basis; return its new pivot column, or -1 if
    it already lies in the span."""
    res = echelon_reduce(rows, have, vec, ell)
    nz = res.nonzero()[0]
    if not nz.size:
        return -1
    c = int(nz[0])
    lead = int(res[c])
    if lead != 1:
        res = res * pow(lead, -1, ell) % ell
    # clear column c from the older rows to keep the basis fully reduced
    hit = rows[:, c].nonzero()[0]
    if hit.size:
        rows[hit] = (rows[hit] - rows[hit, c, None] * res) % ell
    rows[c] = res
    have[c] = 1
    return c


# -- batched code-matrix products -------------------------------------------------

# the tables of the last field seen: (zech, Q1, red, shift, enc)
_TABLES: tuple | None = None


def _code_tables(zech: np.ndarray, Q1: int) -> tuple:
    """(red, shift, enc) of the field with Zech table `zech`, memoized on the
    identity of `zech`, which the tower keeps read-only.

    red maps s < Z to s mod Q1 and s >= Z to Z.  shift[d + Z], for d = b - a,
    is zech[d mod Q1] (Z where that marks a zero sum) when |d| < Q1, d itself
    when d < -Q1 (a is zero, so a + d = b) and 0 when d > Q1 (b is zero).
    enc maps a canonical code to its extended one.
    """
    global _TABLES
    if _TABLES is not None and _TABLES[0] is zech and _TABLES[1] == Q1:
        return _TABLES[2:]
    Z = 2 * Q1
    red = np.full(2 * Z + 1, Z, dtype=np.int64)
    red[:Z] = np.arange(Z) % Q1
    d = np.arange(-Z, Z + 1)
    shift = np.where(d < -Q1, d, 0)
    inner = np.abs(d) < Q1
    z = zech[d[inner] % Q1]
    shift[inner] = np.where(z == Q1, Z, z)
    enc = np.arange(Q1 + 1, dtype=np.int64)
    enc[Q1] = Z
    _TABLES = (zech, Q1, red, shift, enc)
    return red, shift, enc


def _encode_stack(X, m: int, enc: np.ndarray, nb: int) -> np.ndarray:
    """Canonical (..., m*m) codes as an extended (m, m, ...) array, matrix
    axes first and padded to nb batch axes: each entry then runs over the
    batch contiguously, so every step of _mul_ext is one long inner loop."""
    X = np.asarray(X)
    out = enc.take(X.reshape(-1, m * m).T)
    return out.reshape((m, m) + (1,) * (nb - X.ndim + 1) + X.shape[:-1])


def _add_ext(a: np.ndarray, b: np.ndarray, red, shift) -> np.ndarray:
    """Sums of extended codes, elementwise with broadcasting."""
    Z = shift.shape[0] // 2  # shift is indexed by d + Z
    return red[a + shift[b - a + Z]]


def _mul_ext(A: np.ndarray, B: np.ndarray, m: int, red, shift) -> np.ndarray:
    """Products of extended (m, m, ...) code stacks, batch axes broadcast."""
    out = red[A[:, 0:1] + B[None, 0]]
    for k in range(1, m):
        out = _add_ext(out, red[A[:, k:k + 1] + B[None, k]], red, shift)
    return out


def mat_mul_codes(A, B, m: int, zech: np.ndarray, Q1: int) -> np.ndarray:
    """Products of code matrices, broadcast over the leading axes of A and B
    ((m*m,) or (n, m*m) each); loops over the m terms of a sum only, in the
    extended encoding."""
    red, shift, enc = _code_tables(zech, Q1)
    A, B = np.asarray(A), np.asarray(B)
    nb = max(A.ndim, B.ndim) - 1
    out = _mul_ext(_encode_stack(A, m, enc, nb), _encode_stack(B, m, enc, nb),
                   m, red, shift)
    res = np.empty(out.shape[2:] + (m * m,), dtype=np.int64)
    np.minimum(out.reshape(m * m, -1).T, Q1, out=res.reshape(-1, m * m))
    return res


def bruhat_eliminate(G, m: int, zech: np.ndarray, Q1: int) -> tuple:
    """The pivot elimination of Chevalley.bruhat_cells on every row of an
    (n, m*m) code array G at once, looping over m only: (perm, U, piv), with
    perm[r, j] the pivot row of column j, U the (n, m*m) upper unitriangular
    left factor and piv[r, j] the pivot entry.  ValueError for a singular row.

    Column by column, the pivot is the last unused row with a nonzero entry;
    row operations from it, which U collects, clear the column above it.
    The column operations that would build the right factor then only zero
    the pivot row right of the pivot, so that row is zeroed directly.  The
    last column needs no row operations: every other row is a pivot row.
    """
    red, shift, enc = _code_tables(zech, Q1)
    Z, minus_one = 2 * Q1, int((zech == Q1).argmax())  # zech marks 1 + g^k = 0
    M = enc.take(np.asarray(G, dtype=np.int64)).reshape(-1, m, m)
    n = M.shape[0]
    rows = np.arange(n)
    U = np.broadcast_to(np.where(np.eye(m, dtype=bool), 0, Z), M.shape).copy()
    used = np.zeros((n, m), dtype=bool)
    perm = np.empty((n, m), dtype=np.int64)
    for j in range(m):
        cand = ~used & (M[:, :, j] != Z)
        if not cand.any(axis=1).all():
            raise ValueError("singular matrix has no Bruhat cell")
        piv = m - 1 - cand[:, ::-1].argmax(axis=1)  # last candidate row
        used[rows, piv] = True
        perm[:, j] = piv
        if j == m - 1:
            break
        prow = M[rows, piv, j:]
        neg_prow = red[prow + minus_one]
        inv = (-prow[:, 0]) % Q1  # the pivot is nonzero
        for r in range(m - 1):
            c = np.where(r < piv, red[M[:, r, j] + inv], Z)
            M[:, r, j:] = _add_ext(M[:, r, j:], red[c[:, None] + neg_prow], red, shift)
            # U <- U (I + c E_{r,piv}); U is upper unitriangular
            U[rows, :, piv] = _add_ext(U[rows, :, piv], red[c[:, None] + U[:, :, r]],
                                       red, shift)
        M[rows, piv, j + 1:] = Z
    # the pivots are nonzero, so their extended codes are canonical already
    piv = M[rows[:, None], perm, np.arange(m)]
    return perm, np.minimum(U.reshape(n, m * m), Q1), piv


def peel_unipotents(U, phi: np.ndarray, pairs, m: int, zech: np.ndarray, Q1: int) -> tuple:
    """Split every row of an (n, m*m) code array U of upper unitriangular
    matrices as U = u R, returning the code arrays (u, R): u is supported on
    the positive pairs (a, b) that the (n, len(pairs)) mask phi marks for
    that row, and R is zero there.  Peeling `pairs` in ascending height, then
    by row, lets disturbances flow upward only."""
    red, shift, enc = _code_tables(zech, Q1)
    Z, minus_one = 2 * Q1, int((zech == Q1).argmax())  # zech marks 1 + g^k = 0
    R = enc.take(np.asarray(U, dtype=np.int64)).reshape(-1, m, m)
    u = np.broadcast_to(np.where(np.eye(m, dtype=bool), 0, Z), R.shape).copy()
    for k, (a, b) in enumerate(pairs):
        c = np.where(phi[:, k], R[:, a, b], Z)[:, None]
        R[:, a, b:] = _add_ext(R[:, a, b:], red[red[c + minus_one] + R[:, b, b:]],
                               red, shift)
        # u <- u * eps((a, b), c): add c times column a to column b
        u[:, :a + 1, b] = _add_ext(u[:, :a + 1, b], red[c + u[:, :a + 1, a]], red, shift)
    return np.minimum(u, Q1).reshape(-1, m * m), np.minimum(R, Q1).reshape(-1, m * m)


# the zero-pattern tables of each matrix size seen: m -> (bit, in_B, in_BN)
_PATTERNS: dict = {}


def _pattern_tables(m: int) -> tuple:
    """(bit, in_B, in_BN) for m x m matrices, built once per m.

    A zero pattern is the integer with bit a*m + b set when entry (a, b) is
    zero; bit[a*m + b] is that bit's value.  The boolean tables have one
    entry per pattern, 2^(m*m) of them (16 at m = 2, 65,536 at m = 4):
    in_B[z] says every entry below the diagonal is zero, in_BN[z] that the
    lowest nonzero rows of the columns are distinct (so no column is zero).
    For an invertible matrix the latter says it lies in B.N: sorting the
    columns by that row, and no other permutation, makes it upper triangular.
    """
    if m not in _PATTERNS:
        bit = np.int64(1) << np.arange(m * m, dtype=np.int64)
        z = np.arange(1 << (m * m), dtype=np.int64)
        zero = (z[:, None] & bit != 0).reshape(-1, m, m)
        below, left = np.tril_indices(m, -1)
        in_B = zero[:, below, left].all(axis=1)
        # lowest nonzero row of each column, -1 for a zero column
        lowest = np.where(zero, -1, np.arange(m)[:, None]).max(axis=1)
        in_BN = (np.sort(lowest, axis=1) == np.arange(m)).all(axis=1)
        _PATTERNS[m] = (bit, in_B, in_BN)
    return _PATTERNS[m]


def scan_conj_upper(
    P: np.ndarray,
    G: np.ndarray,
    Q: np.ndarray,
    m: int,
    zech: np.ndarray,
    Q1: int,
    *,
    permuted: bool = False,
) -> int:
    """First index idx with P @ G[idx] @ Q upper-triangular, else -1.

    With permuted=True the test is P @ G[idx] @ Q in B.N, upper-triangular
    after some column permutation.

    G is an (nG, m*m) int64 array of code matrices, multiplied out in
    chunks that grow: the first has SCAN_CHUNK // 8 rows (at least one) and
    each next one twice as many, up to SCAN_CHUNK, so an early hit skips the
    rest and a late one or a miss pays few extra chunks.  The products stay
    in the extended encoding, and each is tested by one lookup of its zero
    pattern in the in_B or in_BN table of _pattern_tables.
    """
    red, shift, enc = _code_tables(zech, Q1)
    bit, in_B, in_BN = _pattern_tables(m)
    table = in_BN if permuted else in_B
    Z = 2 * Q1
    P, Q = _encode_stack(P, m, enc, 1), _encode_stack(Q, m, enc, 1)
    lo, size = 0, max(1, SCAN_CHUNK // 8)
    while lo < G.shape[0]:
        T = _encode_stack(G[lo:lo + size], m, enc, 1)
        T = _mul_ext(_mul_ext(P, T, m, red, shift), Q, m, red, shift)
        hits = table[bit @ (T.reshape(m * m, -1) == Z)].nonzero()[0]
        if hits.size:
            return lo + int(hits[0])
        lo, size = lo + size, min(2 * size, SCAN_CHUNK)
    return -1
