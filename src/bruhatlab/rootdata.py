"""Type-A root systems and Weyl combinatorics for ranks 1..3.

The Weyl group of A_r is the symmetric group on {0..r}; an element is stored
as the tuple (w(0), .., w(r)) together with its lexicographically least
reduced word.  Roots e_a - e_b are stored both as index pairs (a, b) and as
coefficient vectors over the simple roots; positive roots are listed in
height-then-leftmost order, which is the canonical order used everywhere
downstream (subgroup enumerations, module bases).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class WeylElt:
    perm: tuple[int, ...]   # one-line notation, 0-based
    word: tuple[int, ...]   # lex-least reduced word, simple indices 1-based
    length: int

    def __repr__(self):
        return "e" if not self.word else "*".join(f"s{i}" for i in self.word)


class RootSystem:
    """Root system of type A_r with a fully enumerated Weyl group."""

    def __init__(self, r: int):
        if not 1 <= r <= 3:
            raise ValueError(f"rank {r} out of range (need 1..3)")
        self.rank = r
        self.I = tuple(range(1, r + 1))

        # positive roots: pair (a, b) with a < b means e_a - e_b (0-based),
        # coeff vector has ones in simple positions a+1 .. b (1-based)
        pairs = sorted(
            ((a, b) for a in range(r + 1) for b in range(a + 1, r + 1)),
            key=lambda ab: (ab[1] - ab[0], ab[0]),
        )
        self.pos_pairs = pairs
        self.n = len(pairs)
        self.pos_roots = [self._coeff_of_pair(ab) for ab in pairs]
        self.roots = self.pos_roots + [
            tuple(-c for c in v) for v in self.pos_roots
        ]
        self._pair_index = {ab: k for k, ab in enumerate(pairs)}

        # full Weyl group with canonical words
        self._by_perm: dict[tuple[int, ...], WeylElt] = {}
        for perm in itertools.permutations(range(r + 1)):
            word = self._canonical_word(perm)
            self._by_perm[perm] = WeylElt(perm, word, len(word))
        self.e = self._by_perm[tuple(range(r + 1))]
        self.elements = sorted(
            self._by_perm.values(), key=lambda w: (w.length, w.word)
        )
        self.w0 = self.elements[-1]

    # -- construction helpers ---------------------------------------------

    def _coeff_of_pair(self, ab) -> tuple[int, ...]:
        a, b = ab
        return tuple(1 if a < i <= b else 0 for i in range(1, self.rank + 1))

    def _canonical_word(self, perm) -> tuple[int, ...]:
        # greedy: always strip the smallest available left descent
        perm = list(perm)
        word = []
        while True:
            for i in range(1, self.rank + 1):
                # left descent i of w  <=>  position of i-1 after position of i
                ia, ib = perm.index(i - 1), perm.index(i)
                if ia > ib:
                    word.append(i)
                    perm[ia], perm[ib] = i, i - 1
                    break
            else:
                return tuple(word)

    # -- group structure -----------------------------------------------------

    def by_perm(self, perm) -> WeylElt:
        return self._by_perm[tuple(perm)]

    def s(self, i: int) -> WeylElt:
        perm = list(range(self.rank + 1))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return self._by_perm[tuple(perm)]

    def mul(self, v: WeylElt, w: WeylElt) -> WeylElt:
        return self._by_perm[tuple(v.perm[w.perm[a]] for a in range(self.rank + 1))]

    def inv(self, w: WeylElt) -> WeylElt:
        out = [0] * (self.rank + 1)
        for a, wa in enumerate(w.perm):
            out[wa] = a
        return self._by_perm[tuple(out)]

    def from_word(self, word) -> WeylElt:
        w = self.e
        for i in word:
            w = self.mul(w, self.s(i))
        return w

    # -- root actions ----------------------------------------------------

    def act_pair(self, w: WeylElt, ab) -> tuple[int, int]:
        a, b = ab
        return (w.perm[a], w.perm[b])

    def pair_is_positive(self, ab) -> bool:
        return ab[0] < ab[1]

    def phi_minus(self, w: WeylElt) -> list[tuple[int, ...]]:
        """Positive roots sent negative by w, in canonical order."""
        return [
            self.pos_roots[k]
            for k, ab in enumerate(self.pos_pairs)
            if not self.pair_is_positive(self.act_pair(w, ab))
        ]

    def phi_minus_pairs(self, w: WeylElt) -> list[tuple[int, int]]:
        return [
            ab
            for ab in self.pos_pairs
            if not self.pair_is_positive(self.act_pair(w, ab))
        ]

    def phi_plus_pairs(self, w: WeylElt) -> list[tuple[int, int]]:
        return [
            ab
            for ab in self.pos_pairs
            if self.pair_is_positive(self.act_pair(w, ab))
        ]

    # -- length, descents, Bruhat order ------------------------------------

    def descents(self, w: WeylElt) -> frozenset[int]:
        """Right descents {i : l(w s_i) < l(w)}."""
        return frozenset(
            i for i in self.I if w.perm[i - 1] > w.perm[i]
        )

    def bruhat_leq(self, x: WeylElt, y: WeylElt) -> bool:
        if x.length > y.length:
            return False
        for idxs in itertools.combinations(range(y.length), x.length):
            if self.from_word(y.word[k] for k in idxs) == x:
                return True
        return False

    # -- parabolic combinatorics -------------------------------------------

    def subgroup(self, J) -> list[WeylElt]:
        """W_J in canonical order."""
        J = frozenset(J)
        return [w for w in self.elements if set(w.word) <= J]

    def min_coset_reps(self, J) -> list[WeylElt]:
        J = frozenset(J)
        return [w for w in self.elements if not (self.descents(w) & J)]

    def longest(self, J) -> WeylElt:
        return max(self.subgroup(J), key=lambda w: w.length)

    def z_set(self, J, Itheta) -> list[WeylElt]:
        J, Itheta = frozenset(J), frozenset(Itheta)
        if not J <= Itheta:
            raise ValueError("J must be contained in Itheta")
        if not Itheta <= set(self.I):
            raise ValueError("Itheta must be contained in I")
        wJ = self.longest(J)
        allowed = J | (set(self.I) - Itheta)
        return [
            w
            for w in self.min_coset_reps(J)
            if self.descents(self.mul(w, wJ)) <= allowed
        ]


@lru_cache(maxsize=None)
def build_A(r: int) -> RootSystem:
    return RootSystem(r)
