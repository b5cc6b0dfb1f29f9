"""The numpy kernels: F_ell reduced row echelon form and the Bruhat cell scan.

Conventions:
  * F_ell vectors are numpy int64 arrays with entries in [0, ell).
  * An echelon basis is a square-or-wider array `rows` (D x W, W >= D) plus a
    uint8 flag vector `have` of length D: have[c] says rows[c] is live with
    pivot column c and pivot value 1.  Live rows are in reduced row echelon
    form: each is zero in every other live pivot column, and dead rows are
    zero.  Columns D..W-1 carry data along and never hold a pivot.
  * Field-tower scalars are "codes": c in [0, Q1) means generator^c, and the
    value Q1 itself is zero.  `zech` is the Zech logarithm table, with
    zech[k] = Q1 marking 1 + g^k = 0.  A code matrix is a flat row-major
    array of m*m codes; a batch of them is an (n, m*m) array.
"""

from __future__ import annotations

import numpy as np

BACKEND = "py"

# group elements per batched product in scan_conj_upper
SCAN_CHUNK = 2048


# -- F_ell reduced row echelon form ---------------------------------------------

def echelon_reduce(rows: np.ndarray, have: np.ndarray, vec: np.ndarray, ell: int) -> np.ndarray:
    """Residue of vec, or of each row of a (k, W) stack, modulo the live rows.

    The basis is in RREF, so the residue is one product against the live
    rows at whose pivots vec is nonzero, then one reduction mod ell: exact in
    int64 because each sum has at most D terms below ell^2.  A residue
    vanishes on the pivot columns, so a stack takes the product on the
    other columns only (a large stack has nearly all pivots in use); a
    single vector takes whole rows, which is cheaper than gathering columns.
    """
    live = have.nonzero()[0]
    lead = vec[..., live]
    if vec.ndim == 1:
        used = live[lead != 0]
        if not used.size:
            return vec % ell
        return (vec - vec[used] @ rows[used]) % ell
    used = live[lead.any(axis=0)]
    if not used.size:
        return vec % ell
    free = np.ones(vec.shape[1], dtype=bool)
    free[live] = False
    free = free.nonzero()[0]
    out = np.zeros(vec.shape, dtype=np.int64)
    out[:, free] = (vec[:, free] - vec[:, used] @ rows[used[:, None], free]) % ell
    return out


def echelon_insert(rows: np.ndarray, have: np.ndarray, vec: np.ndarray, ell: int) -> int:
    """Insert vec into the RREF basis; return its new pivot column, or -1 if
    its first D entries already lie in the span."""
    D = have.shape[0]
    res = echelon_reduce(rows, have, vec, ell)
    nz = res[:D].nonzero()[0]
    if not nz.size:
        return -1
    c = int(nz[0])
    res = res * pow(int(res[c]), -1, ell) % ell
    # clear column c from the older rows to keep the basis fully reduced
    hit = rows[:, c].nonzero()[0]
    if hit.size:
        rows[hit] = (rows[hit] - np.outer(rows[hit, c], res)) % ell
    rows[c] = res
    have[c] = 1
    return c


# -- batched code-matrix products -------------------------------------------------

def _code_mul(a: np.ndarray, b: np.ndarray, Q1: int) -> np.ndarray:
    return np.where((a == Q1) | (b == Q1), Q1, (a + b) % Q1)


def _code_add(a: np.ndarray, b: np.ndarray, zech: np.ndarray, Q1: int) -> np.ndarray:
    z = zech[(b - a) % Q1]
    out = np.where(z == Q1, Q1, (a + z) % Q1)
    out = np.where(a == Q1, b, out)
    return np.where(b == Q1, a, out)


def mat_mul_codes(A, B, m: int, zech: np.ndarray, Q1: int) -> np.ndarray:
    """Products of code matrices, broadcast over the leading axes of A and B
    ((m*m,) or (n, m*m) each); loops over the m terms of a sum only."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    A = A.reshape(A.shape[:-1] + (m, m))
    B = B.reshape(B.shape[:-1] + (m, m))
    out = _code_mul(A[..., :, 0:1], B[..., 0:1, :], Q1)
    for k in range(1, m):
        term = _code_mul(A[..., :, k:k + 1], B[..., k:k + 1, :], Q1)
        out = _code_add(out, term, zech, Q1)
    return out.reshape(out.shape[:-2] + (m * m,))


def scan_conj_upper(
    P: np.ndarray,
    G: np.ndarray,
    Q: np.ndarray,
    m: int,
    zech: np.ndarray,
    Q1: int,
    start: int = 0,
) -> int:
    """First index idx >= start with P @ G[idx] @ Q upper-triangular, else -1.

    G is an (nG, m*m) int64 array of code matrices, multiplied out
    SCAN_CHUNK rows at a time so an early hit skips the rest.
    """
    lower = [i * m + j for i in range(m) for j in range(i)]
    for lo in range(start, G.shape[0], SCAN_CHUNK):
        T = mat_mul_codes(P, G[lo:lo + SCAN_CHUNK], m, zech, Q1)
        T = mat_mul_codes(T, Q, m, zech, Q1)
        hits = np.flatnonzero((T[:, lower] == Q1).all(axis=1))
        if hits.size:
            return lo + int(hits[0])
    return -1
