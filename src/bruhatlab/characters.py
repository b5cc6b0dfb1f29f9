"""Torus characters over a small prime coefficient field F_ell.

A character is a tuple of exponents (e_1 .. e_r) mod q^{N!}-1; its value on a
diagonal t = diag(t_1..t_{r+1}) is prod_i iota(t_1*..*t_i)^{e_i}, where iota
embeds the ambient multiplicative group into F_ell^* and ell is the smallest
prime with a full set of roots of unity (ell = 1 mod q^{N!}-1).  Values are
plain ints in [1, ell).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chevalley import Chevalley, Mat
from .fieldtower import _is_prime, _prime_factors

PRIME_SEARCH_BOUND = 2**31


@dataclass(frozen=True)
class CoeffField:
    ell: int
    omega: int          # smallest primitive root mod ell
    modulus: int        # q^{N!} - 1: the order of the ambient cyclic group
    char_collision: bool  # ell == p (possible only when modulus <= 2)


def _smallest_primitive_root(ell: int) -> int:
    phi = ell - 1
    prime_factors = _prime_factors(phi)
    for w in range(2, ell):
        if all(pow(w, phi // f, ell) != 1 for f in prime_factors):
            return w
    raise AssertionError("no primitive root (impossible for prime modulus)")


def make_coeff_field(
    q: int, N: int, p: int | None = None, ell: int | None = None
) -> CoeffField:
    """The coefficient field for the tower F_{q^{N!}}: the smallest prime ell
    with ell = 1 mod q^{N!}-1, or the given prime `ell` when it has those
    roots of unity (ValueError otherwise)."""
    modulus = q**math.factorial(N) - 1
    if ell:
        if not _is_prime(ell):
            raise ValueError("ell override must be prime")
        if (ell - 1) % modulus:
            raise ValueError("ell override lacks the needed roots of unity")
    else:
        ell = modulus + 1
        while True:
            if ell > PRIME_SEARCH_BOUND:
                raise RuntimeError("prime search exceeded 2^31")
            if _is_prime(ell):
                break
            ell += modulus
    if ell == 2:
        omega = 1  # F_2^* is trivial
    else:
        omega = _smallest_primitive_root(ell)
    collision = p is not None and ell == p
    return CoeffField(ell=ell, omega=omega, modulus=modulus, char_collision=collision)


class Characters:
    """Character evaluation context bound to one Chevalley group."""

    def __init__(self, chev: Chevalley, coeff: CoeffField | None = None):
        self.chev = chev
        self.tower = chev.tower
        self.rs = chev.rs
        tw = self.tower
        self.coeff = coeff or make_coeff_field(tw.q, tw.N, p=tw.p)
        cf = self.coeff
        if (cf.ell - 1) % cf.modulus:
            raise ValueError("coefficient field lacks the needed roots of unity")
        self._step = (cf.ell - 1) // cf.modulus
        # iota: ambient code -> F_ell^*
        self._iota = [
            pow(cf.omega, self._step * c, cf.ell) for c in range(cf.modulus)
        ]
        self._iota_arr: np.ndarray | None = None

    # -- exponents -------------------------------------------------------

    def normalize(self, theta) -> tuple[int, ...]:
        theta = tuple(int(e) % self.coeff.modulus for e in theta)
        if len(theta) != self.rs.rank:
            raise ValueError("wrong number of exponents")
        return theta

    # -- evaluation ----------------------------------------------------------

    def eval_diag(self, theta, diag) -> int:
        tw, cf = self.tower, self.coeff
        theta = self.normalize(theta)
        out = 1
        d = tw.ONE
        for i in range(self.rs.rank):
            d = tw.mul(d, diag[i])
            e = theta[i]
            if e:
                out = out * pow(self._iota[d], e, cf.ell) % cf.ell
        return out

    def eval_diags(self, theta, T) -> np.ndarray:
        """eval_diag on every row of an (n, r+1) array of nonzero codes.

        iota is a homomorphism from the codes mod q^{N!}-1, so the value is
        iota of sum_i e_i * code(t_1*..*t_i), one table lookup per row."""
        if self._iota_arr is None:
            self._iota_arr = np.array(self._iota, dtype=np.int64)
        theta = np.array(self.normalize(theta), dtype=np.int64)
        prefix = np.cumsum(T[:, :self.rs.rank], axis=1) % self.tower.Q1
        return self._iota_arr[(prefix @ theta) % self.coeff.modulus]

    def eval(self, theta, t: Mat) -> int:
        return self.eval_diag(theta, self.chev.diag_of(t))

    # -- triviality loci ---------------------------------------------------------

    def i_theta(self, theta) -> frozenset[int]:
        """{i : theta trivial on the i-th coroot torus of the ambient field}."""
        theta = self.normalize(theta)
        return frozenset(
            i for i in self.rs.I if theta[i - 1] % self.tower.Q1 == 0
        )

    def eval_parabolic(self, theta, Jp, P) -> np.ndarray:
        """Evaluate on every row of an (n, m*m) code array P through
        P_J' = U_J' x| L_J': only the torus part of the Bruhat form counts."""
        Jp = frozenset(Jp)
        if not Jp <= self.i_theta(theta):
            raise ValueError("J' must be contained in I(theta)")
        widx, _, T = self.chev.bruhat_cells(P)
        inside = np.array([set(w.word) <= Jp for w in self.rs.elements])
        if not inside[widx].all():
            raise ValueError("element not in the parabolic subgroup P_J'")
        return self.eval_diags(theta, T)

    # -- central characters and blocks ----------------------------------------

    def central_key(self, theta) -> tuple[int, ...]:
        N = self.tower.N
        return tuple(
            self.eval(theta, z) for z in self.chev.center(N)
        )

    def blocks(self, params) -> list[list]:
        """Partition (theta, J) pairs by central key; key order is canonical."""
        groups: dict[tuple, list] = {}
        for theta, J in params:
            th = self.normalize(theta)
            if not frozenset(J) <= self.i_theta(th):
                raise ValueError("J must be contained in I(theta)")
            groups.setdefault(self.central_key(th), []).append((th, frozenset(J)))
        return [groups[key] for key in sorted(groups)]

    def all_characters(self):
        """Every exponent tuple mod q^{N!}-1, lexicographic order."""
        m = self.coeff.modulus
        return [
            tuple(es)
            for es in itertools.product(range(m), repeat=self.rs.rank)
        ]
