"""The benchmark workloads: census and split.

Each workload builds its shared context in its constructor, then serves
passes of ops.  An op is one closed-loop call into the program followed by
the check of its result.  A pass is a fixed set of ops, the same in every
pass of a run, whose combined results are checked again against a frozen
total.  Inputs come from the run seed alone.

`size="tiny"` swaps in A1, p=3 inputs so the benchmark's own smoke test
runs in seconds; the measured workloads use `size="full"`.
"""

from __future__ import annotations

import importlib
import os
import random
import sys
from types import SimpleNamespace

import numpy as np

FS = frozenset()

# (lambda, mu) pairs the census seed chooses from (pair = seed mod count),
# each with the totals ExtContext.census() reports for it:
# (|Omega|, |Gamma|, club-true, xi-nonzero).  lambda = 0 is left out because
# it makes J' = {1}, which turns the Borel sum in xi into a sum over all of
# G_1 and costs 12 times more; mu = 0 makes the census itself fail.
CENSUS_PAIRS = {
    "full": (
        ((1,), (1,), (110, 110, 0, 110)),
        ((7,), (3,), (110, 110, 0, 110)),
        ((60,), (1,), (110, 110, 0, 0)),
        ((1,), (60,), (110, 110, 0, 0)),
        ((37,), (91,), (110, 110, 0, 110)),
        ((119,), (119,), (110, 110, 0, 110)),
        ((24,), (40,), (110, 110, 0, 110)),
        ((5,), (17,), (110, 110, 0, 110)),
    ),
    "tiny": (
        ((1,), (1,), (6, 6, 0, 6)),
        ((1,), (2,), (6, 6, 0, 0)),
        ((3,), (5,), (6, 6, 0, 6)),
    ),
}

# group rank, p and N, then the working level where there is one
CENSUS_GROUP = {"full": (1, 11, 2), "tiny": (1, 3, 2)}
SPLIT_GROUP = {"full": (2, 2, 2, 1), "tiny": (1, 3, 2, 1)}
# lambda, mu and the expected lambda-block (eigenspace) dimension
SPLIT_CHARS = {"full": ((1, 0), (0, 0), 7), "tiny": ((1,), (0,), 4)}
SPLIT_PASS = 40


class OpFailed(Exception):
    """An op's result contradicts the identity it should satisfy."""


def load_bruhatlab(src: str) -> SimpleNamespace:
    """Import the layers afresh from the source tree `src`, refusing any
    other copy.  Modules imported before are dropped first, so nothing the
    program cached at module level survives into the new import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "bruhatlab"]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    names = ("fieldtower", "rootdata", "chevalley", "characters", "modules",
             "extlab", "_backend")
    mods = {n: importlib.import_module(f"bruhatlab.{n}") for n in names}
    prefix = os.path.join(os.path.abspath(src), "")
    for mod in mods.values():
        if not os.path.abspath(mod.__file__).startswith(prefix):
            raise SystemExit(f"imported {mod.__file__}, not the sources in {src}")
    mods["backend"] = mods.pop("_backend")
    return SimpleNamespace(**mods)


def _chars(bl, rank: int, p: int, N: int):
    tower = bl.fieldtower.build_tower(p, 1, N)
    chev = bl.chevalley.Chevalley(tower, bl.rootdata.build_A(rank))
    return bl.characters.Characters(chev)


class Census:
    """Level-step census: one op is one u in Omega (gamma scan, club, xi)."""

    name = "census"

    def __init__(self, bl, seed: int, size: str):
        self.bl = bl
        lam, mu, self.totals = CENSUS_PAIRS[size][seed % len(CENSUS_PAIRS[size])]
        self.chars = _chars(bl, *CENSUS_GROUP[size])
        self.ctx = bl.extlab.ExtContext(self.chars, lam, mu, FS, FS, 1)
        self.ctx.S_subspace()
        omega = list(self.ctx.omega_set())
        # the noncentral level-1 group; built here through the context's own
        # cache so that claim_club scans the same array and no op pays for it
        self.g_rest = self.ctx._noncentral_level_i()
        random.Random(seed).shuffle(omega)
        self.omega = omega

    def pass_ops(self):
        return self.omega

    def run(self, u):
        ctx, cx, tw = self.ctx, self.ctx.chev, self.ctx.tower
        uw0 = cx.mat_mul(u, ctx.w0dot)
        hit = self.bl.backend.scan_conj_upper(
            np.array(cx.mat_inv(uw0), dtype=np.int64),
            self.g_rest,
            np.array(uw0, dtype=np.int64),
            cx.m,
            tw.zech,
            tw.Q1,
        )
        club = ctx.claim_club(u)
        nonzero = bool(ctx.xi(u, check_eigen=False)["xi_nonzero"])
        if club and not nonzero:
            raise OpFailed(f"club holds but xi vanishes at u={ctx.u_serial(u)}")
        return hit >= 0, club, nonzero

    def check_pass(self, results) -> str | None:
        got = (
            len(results),
            sum(r[0] for r in results),
            sum(r[1] for r in results),
            sum(r[2] for r in results),
        )
        if got != self.totals:
            return f"census totals {got} differ from census() {self.totals}"
        return None


class Split:
    """Central-splitter battery: one op is one seeded twist, then the split."""

    name = "split"

    def __init__(self, bl, seed: int, size: str):
        self.bl = bl
        rank, p, N, self.k = SPLIT_GROUP[size]
        self.lam, self.mu, self.dim = SPLIT_CHARS[size]
        self.chars = _chars(bl, rank, p, N)
        rng = random.Random(seed)
        self.twists = [rng.randrange(2**31) for _ in range(SPLIT_PASS)]

    def pass_ops(self):
        return self.twists

    def run(self, twist_seed):
        ex = self.bl.extlab
        ext = ex.SynthExtension(
            self.chars, self.lam, self.mu, FS, FS, self.k, seed=twist_seed
        )
        rep = ex.central_split(ext)
        if not (
            rep["complementary"]
            and rep["g_stable"]
            and rep["eigenspace_dim"] == ext.dl == self.dim
        ):
            raise OpFailed(f"split failed for twist seed {twist_seed}: {rep}")
        return None

    def check_pass(self, results) -> str | None:
        return None


WORKLOADS = {cls.name: cls for cls in (Census, Split)}
