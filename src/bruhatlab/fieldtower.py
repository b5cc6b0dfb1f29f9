"""Exact arithmetic in a finite field tower F_q = F_{q^{1!}} < F_{q^{2!}} < ... < F_{q^{N!}}.

One ambient field F_{q^{N!}} is materialized; each level k is the fixed-point
set of x -> x^{q^{k!}}, so all subfield embeddings are identities.

Scalar representation: an element is a plain int "code".  Nonzero elements are
codes 0 <= c < Q-1 meaning g^c for the canonical ambient generator g; zero is
the code Q-1 (tower.ZERO).  Multiplication and inversion are index arithmetic
mod Q-1; addition goes through a Zech logarithm table.  exp_table and
log_table convert codes to and from the canonical polynomial representation
(coefficients mod the lexicographically least monic irreducible), packed as
base-p integers.  The test oracles in tests/oracles.py read them: coeffs,
from_coeffs, frobenius, level_of and dlog.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

ENUM_BUDGET = 2**24


class BudgetError(Exception):
    """An enumeration budget was exceeded: `subject` would need `requested`
    `unit`, beyond the `kind` budget `name` = `limit`."""

    def __init__(self, subject: str, kind: str, name: str, limit: int,
                 requested: int, unit: str):
        super().__init__(subject, kind, name, limit, requested, unit)
        self.subject, self.kind, self.name = subject, kind, name
        self.limit, self.requested, self.unit = limit, requested, unit

    def __str__(self) -> str:
        return (
            f"{self.subject} exceeds the {self.kind} budget: "
            f"{self.name}={self.limit}, requested {self.requested} {self.unit}"
        )


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for t in range(2, math.isqrt(n) + 1):
        if n % t == 0:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    t = 2
    while t * t <= n:
        if n % t == 0:
            out.append(t)
            while n % t == 0:
                n //= t
        t += 1
    if n > 1:
        out.append(n)
    return out


# -- packed-polynomial helpers (base-p digit vectors packed into ints) --------

def _digits(n: int, p: int, d: int) -> list[int]:
    out = []
    for _ in range(d):
        out.append(n % p)
        n //= p
    return out


def _pack(digs: list[int], p: int) -> int:
    n = 0
    for c in reversed(digs):
        n = n * p + c
    return n


def _padd(x: int, y: int, p: int, d: int) -> int:
    a, b = _digits(x, p, d), _digits(y, p, d)
    return _pack([(u + v) % p for u, v in zip(a, b)], p)


def _pmulmod(x: int, y: int, p: int, fdigs: list[int], d: int) -> int:
    # schoolbook product then reduction by the monic modulus X^d + f(X)
    a, b = _digits(x, p, d), _digits(y, p, d)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * d - 2, d - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(d):
                prod[i - d + j] = (prod[i - d + j] - c * fdigs[j]) % p
    return _pack(prod[:d], p)


def _ppowmod(x: int, e: int, p: int, fdigs: list[int], d: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _pmulmod(r, x, p, fdigs, d)
        x = _pmulmod(x, x, p, fdigs, d)
        e >>= 1
    return r


def _poly_gcd_nontrivial(g_digs: list[int], fdigs: list[int], p: int, d: int) -> bool:
    # gcd(g, X^d + f) != 1, with g given by its digit vector (degree < d)
    a = list(fdigs) + [1]           # the modulus itself
    b = list(g_digs)
    while any(b):
        while len(b) > 1 and b[-1] == 0:
            b.pop()
        while len(a) >= len(b):
            if a[-1] == 0:
                a.pop()
                if not a:
                    return True
                continue
            c = (a[-1] * pow(b[-1], -1, p)) % p
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - c * bj) % p
            while len(a) > 1 and a[-1] == 0:
                a.pop()
            if len(a) == 1 and a[0] == 0:
                break
        a, b = b, a
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return not (len(a) == 1 and a[0] != 0)


def _find_irreducible(p: int, d: int) -> list[int]:
    """Digits of the non-leading part of the least monic irreducible of degree d."""
    if d == 1:
        return [0]  # X itself
    primes = prime_factors(d)
    for packed in range(p**d):
        fdigs = _digits(packed, p, d)
        # X^{p^d} == X mod f
        xp = _ppowmod(p, p**d, p, fdigs, d)  # packed(X) = p
        if xp != p:
            continue
        ok = True
        for t in primes:
            y = _ppowmod(p, p ** (d // t), p, fdigs, d)
            diff = _padd(y, _pack([(-c) % p for c in _digits(p, p, d)], p), p, d)
            if diff == 0 or _poly_gcd_nontrivial(_digits(diff, p, d), fdigs, p, d):
                ok = False
                break
        if ok:
            return fdigs
    raise AssertionError("no irreducible found (impossible)")


class FieldTower:
    """Ambient field F_{q^{N!}} with Frobenius-level subfield structure."""

    def __init__(self, p: int, a: int, N: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if a < 1 or not 1 <= N <= 3:
            raise ValueError("need a >= 1 and 1 <= N <= 3")
        d = a * math.factorial(N)
        if p**d > ENUM_BUDGET:
            raise BudgetError("field tower", "enumeration", "ENUM_BUDGET",
                              ENUM_BUDGET, p**d, "elements")
        self.p, self.a, self.N, self.d = p, a, N, d
        self.q = p**a
        self.Q = p**d
        self.Q1 = self.Q - 1
        self.ZERO = self.Q1
        self.ONE = 0
        self._fdigs = _find_irreducible(p, d)

        # ambient generator: least packed element of full multiplicative order
        factors = prime_factors(self.Q1) if self.Q1 > 1 else []
        gen_packed = None
        for cand in range(1, self.Q):
            if all(
                _ppowmod(cand, self.Q1 // t, p, self._fdigs, d) != 1 for t in factors
            ):
                gen_packed = cand
                break
        assert gen_packed is not None

        exp = np.empty(self.Q1, dtype=np.int64)
        log = np.empty(self.Q, dtype=np.int64)
        log[0] = self.ZERO
        x = 1
        for k in range(self.Q1):
            exp[k] = x
            log[x] = k
            x = _pmulmod(x, gen_packed, p, self._fdigs, d)
        assert x == 1, "generator order mismatch"
        zech = np.empty(self.Q1, dtype=np.int64)
        for k in range(self.Q1):
            s = _padd(int(exp[k]), 1, p, d)
            zech[k] = log[s]
        # read-only: the kernels memoize their arithmetic tables on the
        # identity of zech, which must then never change underneath them
        for table in (exp, log, zech):
            table.setflags(write=False)
        self.exp_table, self.log_table, self.zech = exp, log, zech
        # the scalar ops index a plain list so that codes stay Python ints;
        # the array is for the kernels
        self._zech = zech.tolist()

        # level data: level k = unique subgroup of order q^{k!}-1, plus zero
        self._level_size = {k: self.q ** math.factorial(k) for k in range(1, N + 1)}
        self._stride = {
            k: self.Q1 // (sz - 1) if sz > 1 else 0
            for k, sz in self._level_size.items()
        }
        self._gen_code = {k: self._level_generator(k) for k in range(1, N + 1)}

    def _level_generator(self, k: int) -> int:
        """The code of the level-k generator: of the elements of order
        q^{k!}-1, the one with the least packed polynomial."""
        m = self._level_size[k] - 1  # multiplicative order of the level
        if m == 1:
            return self.ONE
        s = self._stride[k]
        best = None
        for j in range(1, m):
            if math.gcd(j, m) == 1:
                code = j * s
                packed = int(self.exp_table[code])
                if best is None or packed < best[0]:
                    best = (packed, code)
        return best[1]

    # -- scalar ops ------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if x == self.ZERO:
            return y
        if y == self.ZERO:
            return x
        z = self._zech[(y - x) % self.Q1]
        if z == self.ZERO:
            return self.ZERO
        return (x + z) % self.Q1

    def neg(self, x: int) -> int:
        if self.p == 2 or x == self.ZERO:
            return x
        return (x + self.Q1 // 2) % self.Q1

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == self.ZERO or y == self.ZERO:
            return self.ZERO
        return (x + y) % self.Q1

    def inv(self, x: int) -> int:
        if x == self.ZERO:
            raise ZeroDivisionError("inverse of zero")
        return (-x) % self.Q1

    def pow_int(self, x: int, e: int) -> int:
        if x == self.ZERO:
            if e <= 0:
                raise ZeroDivisionError("0 ** nonpositive")
            return self.ZERO
        return (x * (e % self.Q1)) % self.Q1 if self.Q1 > 1 else self.ONE

    # -- level structure ---------------------------------------------------

    def level_size(self, k: int) -> int:
        return self._level_size[k]

    def level_members(self, k: int) -> list[int]:
        """Zero first, then powers of generator(k): the canonical level order."""
        if not 1 <= k <= self.N:
            raise ValueError(f"level {k} out of range")
        m = self._level_size[k] - 1
        gen = self._gen_code[k]
        out = [self.ZERO]
        c = self.ONE
        for _ in range(m):
            out.append(c)
            c = (c + gen) % self.Q1 if self.Q1 > 1 else c
        return out

    def in_level(self, x: int, k: int) -> bool:
        if x == self.ZERO:
            return True
        s = self._stride[k]
        return x == self.ONE if s == 0 else x % s == 0

    def generator(self, k: int) -> int:
        """Canonically-least element of level k of multiplicative order q^{k!}-1."""
        return self._gen_code[k]

    def field_basis(self, k: int) -> list[int]:
        """F_p-basis of level k: first a*k! powers of generator(k)."""
        dk = self.a * math.factorial(k)
        g = self._gen_code[k]
        return [self.pow_int(g, j) for j in range(dk)]

    # -- canonical order ---------------------------------------------------

    def scalar_index(self, x: int) -> int:
        """Canonical enumeration index: zero first, then by ambient dlog."""
        return 0 if x == self.ZERO else 1 + x

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, a={self.a}, N={self.N}, |F|={self.Q})"


@lru_cache(maxsize=None)
def build_tower(p: int, a: int, N: int) -> FieldTower:
    return FieldTower(p, a, N)
