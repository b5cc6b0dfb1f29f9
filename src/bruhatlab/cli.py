"""Batch driver: every verification as a subcommand with flat-file reports.

Configuration is a flat key=value file plus command-line overrides (later
wins).  Each run writes a JSON report (UTF-8, sorted keys) and a CSV summary
next to it, and prints the JSON to stdout.  No timestamps, no hostnames:
the same config and seed produce the same bytes, whatever the parallelism.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad config,
3 an enumeration budget was exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

import numpy as np

from . import _backend as kern
from .characters import Characters, make_coeff_field
from .chevalley import Chevalley
from .extlab import ExtContext, SynthExtension, central_split, least_central_witness
from .fieldtower import BudgetError, build_tower
from .modules import (
    ModuleContext,
    check_socle,
    scalar_convention,
    straightening_instances,
    subsets,
)
from .rootdata import build_A

GROUPS = {"A1": 1, "A2": 2, "A3": 3}
DEFAULT_SEED = 20260818

INT_KEYS = {
    "p", "a", "N", "ell", "J", "K", "k", "i", "seed", "jobs",
    "twists", "samples",
}
LIST_KEYS = {"theta", "lambda", "mu"}
STR_KEYS = {"group", "out"}
KEY_ALIASES = {"lam": "lambda"}

DEFAULTS = {
    "group": "A1",
    "p": 3,
    "a": 1,
    "N": 2,
    "ell": 0,  # 0 = choose the smallest prime with the needed roots of unity
    "J": 0,
    "K": 0,
    "k": 1,
    "i": 1,
    "seed": DEFAULT_SEED,
    "jobs": 1,
    "twists": 10,
    "samples": 200,
    "out": "",
}


class ConfigError(ValueError):
    pass


# -- config parsing -----------------------------------------------------------


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} expects an integer, got {raw!r}")
    if key in LIST_KEYS:
        if raw == "":
            return ()
        try:
            return tuple(int(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"{key} expects comma-separated integers, got {raw!r}")
    return raw


def _parse_pairs(pairs, into: dict):
    for token in pairs:
        if "=" not in token:
            raise ConfigError(f"override {token!r} is not of the form key=value")
        key, _, raw = token.partition("=")
        key = key.strip()
        key = KEY_ALIASES.get(key, key)
        if key not in INT_KEYS | LIST_KEYS | STR_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        into[key] = _parse_value(key, raw)


def load_config_file(path: str) -> dict:
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    stripped = [
        ln.strip() for ln in lines if ln.strip() and not ln.strip().startswith("#")
    ]
    _parse_pairs(stripped, out)
    return out


class RunConfig:
    """Resolved parameters for one command invocation."""

    def __init__(self, values: dict):
        merged = dict(DEFAULTS)
        merged.update(values)
        self.group = merged["group"]
        if self.group not in GROUPS:
            raise ConfigError(f"group must be one of {sorted(GROUPS)}")
        self.rank = GROUPS[self.group]
        for key in ("p", "a", "N", "k", "i", "jobs", "twists", "samples"):
            if merged[key] < (0 if key == "i" else 1):
                raise ConfigError(f"{key} must be positive")
        self.p, self.a, self.N = merged["p"], merged["a"], merged["N"]
        self.ell = merged["ell"]
        self.k, self.i = merged["k"], merged["i"]
        if self.k > self.N:
            raise ConfigError("k exceeds the tower depth N")
        self.seed = merged["seed"]
        self.jobs = merged["jobs"]
        self.twists = merged["twists"]
        self.samples = merged["samples"]
        self.outdir = (
            merged["out"] or os.environ.get("BRUHATLAB_OUTDIR", "") or "."
        )
        mask_bound = 1 << self.rank
        for key in ("J", "K"):
            if not 0 <= merged[key] < mask_bound:
                raise ConfigError(f"{key} bitmask out of range for {self.group}")
        self.J = frozenset(
            b + 1 for b in range(self.rank) if merged["J"] >> b & 1
        )
        self.K = frozenset(
            b + 1 for b in range(self.rank) if merged["K"] >> b & 1
        )
        zero = tuple(0 for _ in range(self.rank))
        self.theta = tuple(merged.get("theta", zero) or zero)
        self.lam = tuple(merged.get("lambda", zero) or zero)
        self.mu = tuple(merged.get("mu", zero) or zero)
        self._explicit = set(values)

    def was_set(self, key: str) -> bool:
        return key in self._explicit

    def echo(self) -> dict:
        return {
            "group": self.group,
            "p": self.p,
            "a": self.a,
            "N": self.N,
            "ell": self.ell,
            "theta": list(self.theta),
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "J": sorted(self.J),
            "K": sorted(self.K),
            "k": self.k,
            "i": self.i,
            "seed": self.seed,
            # parallelism degree deliberately not echoed: reports must be
            # byte-identical whatever the schedule
        }


def build_chars(cfg: RunConfig) -> Characters:
    try:
        tower = build_tower(cfg.p, cfg.a, cfg.N)
        coeff = make_coeff_field(tower.q, tower.N, p=tower.p, ell=cfg.ell)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return Characters(Chevalley(tower, build_A(cfg.rank)), coeff)


# -- shared helpers -----------------------------------------------------------


def level_char_grid(chars: Characters, k: int) -> list:
    """Exponent tuples giving the distinct level-k torus characters."""
    mk = chars.tower.level_size(k) - 1
    return [
        tuple(es)
        for es in itertools.product(range(mk), repeat=chars.rs.rank)
    ]


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def emit(report: dict, stem: str, header: list, rows: list, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
    with open(os.path.join(outdir, stem + ".json"), "w", encoding="utf-8") as fh:
        fh.write(blob)
    lines = [",".join(header)]
    lines += [",".join(_fmt_cell(c) for c in row) for row in rows]
    with open(os.path.join(outdir, stem + ".csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    sys.stdout.write(blob)


# -- dims ---------------------------------------------------------------------


def cmd_dims(cfg: RunConfig):
    chars = build_chars(cfg)
    ctx = ModuleContext(chars, cfg.theta, cfg.k)
    itheta = ctx.i_theta()
    if cfg.was_set("J"):
        if not cfg.J <= itheta:
            raise ConfigError("J is not contained in I(theta)")
        Js = [cfg.J]
    else:
        Js = subsets(itheta)
    per_J = []
    for J in Js:
        em = ctx.e_module(J)
        predicted = ctx.predicted_dim(J)
        per_J.append(
            {
                "J": sorted(J),
                "dim_E": em.dim,
                "predicted": predicted,
                "ok": em.dim == predicted,
            }
        )
    total = sum(row["dim_E"] for row in per_J)
    full_sum = not cfg.was_set("J")
    report = {
        "command": "dims",
        "config": cfg.echo(),
        "dim_M": ctx.D,
        "I_theta": sorted(itheta),
        "per_J": per_J,
        "sum_E": total,
        "composition_sum_ok": (total == ctx.D) if full_sum else None,
        "ok": all(row["ok"] for row in per_J)
        and (total == ctx.D or not full_sum),
    }
    rows = [
        (row["J"], row["dim_E"], row["predicted"], row["ok"]) for row in per_J
    ]
    return report, "dims", ["J", "dim_E", "predicted", "ok"], rows


# -- blocks -------------------------------------------------------------------

BLOCK_GRID_BUDGET = 10**6


def cmd_blocks(cfg: RunConfig):
    chars = build_chars(cfg)
    modulus = chars.coeff.modulus
    if modulus**cfg.rank > BLOCK_GRID_BUDGET:
        raise BudgetError("ambient character grid", "block", "BLOCK_GRID_BUDGET",
                          BLOCK_GRID_BUDGET, modulus**cfg.rank, "characters")
    params = []
    for theta in chars.all_characters():
        for J in subsets(chars.i_theta(theta)):
            params.append((theta, J))
    blocks = chars.blocks(params)
    per_block = [
        {
            "central_key": list(chars.central_key(members[0][0])),
            "size": len(members),
            "first_theta": list(members[0][0]),
            "first_J": sorted(members[0][1]),
        }
        for members in blocks
    ]
    report = {
        "command": "blocks",
        "config": cfg.echo(),
        "num_params": len(params),
        "num_blocks": len(blocks),
        "blocks": per_block,
        "ok": True,
    }
    rows = [
        (idx, b["size"], b["central_key"]) for idx, b in enumerate(per_block)
    ]
    return report, "blocks", ["block", "size", "central_key"], rows


# -- verify -------------------------------------------------------------------


def _verify_straightening(cfg: RunConfig, chars: Characters):
    points = []
    fwd_all, bwd_all, case_i_total = True, True, 0
    for theta in level_char_grid(chars, cfg.k):
        ctx = ModuleContext(chars, theta, cfg.k)
        for J in subsets(ctx.i_theta()):
            instances, case_i, ok = 0, 0, True
            for _, i, w, x in straightening_instances(ctx, [J]):
                rep = ctx.verify_straightening(J, i, w, x)
                instances += 1
                ok = ok and rep["ok"]
                if rep["case"] == "i":
                    case_i += 1
                    fwd_all = fwd_all and rep["matches_fwd"]
                    bwd_all = bwd_all and rep["matches_bwd"]
            case_i_total += case_i
            points.append(
                {
                    "theta": list(theta),
                    "J": sorted(J),
                    "instances": instances,
                    "case_i": case_i,
                    "case_ii": instances - case_i,
                    "ok": ok,
                }
            )
    calibration = scalar_convention(fwd_all, bwd_all, case_i_total)
    header = ["theta", "J", "instances", "case_i", "case_ii", "ok"]
    rows = [
        (pt["theta"], pt["J"], pt["instances"], pt["case_i"], pt["case_ii"], pt["ok"])
        for pt in points
    ]
    return points, {"calibration": calibration}, header, rows


def _verify_basis(cfg: RunConfig, chars: Characters):
    points = []
    for theta in level_char_grid(chars, cfg.k):
        ctx = ModuleContext(chars, theta, cfg.k)
        sum_E = 0
        for J in subsets(ctx.i_theta()):
            rep = ctx.check_translate_basis(J)
            sum_E += rep["dim_E"]
            points.append(rep)
        points.append(
            {
                "theta": list(ctx.theta),
                "J": None,
                "dim_E": sum_E,
                "predicted_count": ctx.D,
                "independent": True,
                "spanning": True,
                "count_identity": sum_E == ctx.D,
                "ok": sum_E == ctx.D,  # composition series sums to dim M
            }
        )
    header = ["theta", "J", "dim_E", "predicted", "ok"]
    rows = [
        (
            pt["theta"],
            "total" if pt["J"] is None else pt["J"],
            pt["dim_E"],
            pt["predicted_count"],
            pt["ok"],
        )
        for pt in points
    ]
    return points, {}, header, rows


def _verify_rank1(cfg: RunConfig, chars: Characters):
    cx = chars.chev
    tw = chars.tower
    points = []
    for i in cx.rs.I:
        for level in range(1, cfg.N + 1):
            ok, instances = True, 0
            for x in tw.level_members(level)[1:]:
                f, h, g2 = cx.rank1_constants(i, x)
                lhs = cx.mat_prod(
                    [cx.sdot(i), cx.eps_simple(i, x), cx.mat_inv(cx.sdot(i))]
                )
                rhs = cx.mat_prod(
                    [
                        cx.eps_simple(i, f),
                        cx.sdot(i),
                        cx.coroot(i, h),
                        cx.eps_simple(i, g2),
                    ]
                )
                same_level = (
                    tw.in_level(f, level)
                    and tw.in_level(h, level)
                    and tw.in_level(g2, level)
                )
                ok = ok and lhs == rhs and same_level
                instances += 1
            points.append(
                {"i": i, "level": level, "instances": instances, "ok": ok}
            )
    header = ["i", "level", "instances", "ok"]
    rows = [(pt["i"], pt["level"], pt["instances"], pt["ok"]) for pt in points]
    return points, {}, header, rows


def _verify_socle(cfg: RunConfig, chars: Characters):
    points = []
    for theta in level_char_grid(chars, cfg.k):
        ctx = ModuleContext(chars, theta, cfg.k)
        for J in subsets(ctx.i_theta()):
            points.append(check_socle(ctx, J))
    header = ["theta", "J", "nabla_dim", "spin_dim", "dim_E", "ok"]
    rows = [
        (
            pt["theta"],
            pt["J"],
            pt["nabla_dim"],
            pt["socle_generator_spin_dim"],
            pt["dim_E"],
            pt["ok"],
        )
        for pt in points
    ]
    return points, {}, header, rows


def _verify_action(cfg: RunConfig, chars: Characters):
    ctx = ModuleContext(chars, cfg.theta, cfg.k)
    tw, ell = chars.tower, ctx.ell
    rng = random.Random(cfg.seed)
    samples = []
    for _ in range(cfg.samples):
        g = ctx.random_group_elt(rng)
        h = ctx.random_group_elt(rng)
        samples.append((g, h, rng.randrange(ctx.D), 1 + rng.randrange(ell - 1)))
    # g . (h . c key) against (g h) . c key, every sample in one stacked pass each
    G, H, src, c = (np.array(col, dtype=np.int64) for col in zip(*samples))
    mid, s1 = ctx._images(H, src)
    two, s2 = ctx._images(G, mid)
    one, s3 = ctx._images(kern.mat_mul_codes(G, H, chars.chev.m, tw.zech, tw.Q1), src)
    ok = bool((two == one).all() and (c * s1 % ell * s2 % ell == c * s3 % ell).all())
    points = [
        {
            "theta": list(ctx.theta),
            "level": cfg.k,
            "samples": cfg.samples,
            "ok": ok,
        }
    ]
    header = ["theta", "level", "samples", "ok"]
    rows = [(points[0]["theta"], cfg.k, cfg.samples, ok)]
    return points, {}, header, rows


VERIFY_DRIVERS = {
    "straightening": _verify_straightening,
    "basis": _verify_basis,
    "rank1": _verify_rank1,
    "socle": _verify_socle,
    "action": _verify_action,
}


def cmd_verify(cfg: RunConfig, which: str):
    chars = build_chars(cfg)
    points, extra, header, rows = VERIFY_DRIVERS[which](cfg, chars)
    failures = [pt for pt in points if not pt["ok"]]
    report = {
        "command": "verify",
        "which": which,
        "config": cfg.echo(),
        "num_points": len(points),
        "points": points,
        "first_failure": failures[0] if failures else None,
        "ok": not failures,
    }
    report.update(extra)
    if "calibration" in report:
        report["ok"] = report["ok"] and report["calibration"]["ok"]
    return report, f"verify_{which}", header, rows


# -- ext ----------------------------------------------------------------------

CENSUS_CSV = {
    "omega": [
        "word", "length", "omega_w", "omega_prime_w",
        "bound", "bound_ok", "factorization_ok",
    ],
    "gamma": [
        "omega_size", "gamma_size", "omega_minus_gamma_size",
        "gamma_cell_e_empty",
    ],
    "club": ["omega_size", "club_true_count", "club_implies_xi_nonzero"],
    "xi": [
        "omega_size", "xi_nonzero_count", "club_implies_xi_nonzero", "ok",
    ],
}

PROBE_CSV = [
    "u", "u_basis", "xi_nonzero", "eigen_ok", "phi_well_defined",
    "phi_equivariant", "phi_kernel_dim", "m_i_dim", "fix_dim", "meet_dim",
    "verdict_nonsplit_signal",
]


def cmd_ext(cfg: RunConfig, which: str):
    chars = build_chars(cfg)
    if which == "split":
        witness = least_central_witness(chars, cfg.lam, cfg.mu)
        if witness is None:
            raise ConfigError(
                "the two characters agree on the center; nothing to split"
            )
        runs = []
        for offset in range(cfg.twists):
            seed = cfg.seed + offset
            ext = SynthExtension(
                chars, cfg.lam, cfg.mu, cfg.J, cfg.K, cfg.k, seed=seed
            )
            try:
                rep = central_split(ext)
                rep = {"seed": seed, **rep, "ok": True}
            except AssertionError as exc:
                rep = {
                    "seed": seed,
                    "a": ext.a,
                    "b": ext.b,
                    "error": str(exc),
                    "ok": False,
                }
            runs.append(rep)
        report = {
            "command": "ext",
            "which": which,
            "config": cfg.echo(),
            "witness_diag": [
                chars.tower.scalar_index(c)
                for c in chars.chev.diag_of(witness)
            ],
            "runs": runs,
            "ok": all(r["ok"] for r in runs),
        }
        header = ["seed", "a", "b", "eigenspace_dim", "g_stable", "ok"]
        rows = [
            (
                r["seed"],
                r["a"],
                r["b"],
                r.get("eigenspace_dim", ""),
                r.get("g_stable", ""),
                r["ok"],
            )
            for r in runs
        ]
        return report, "ext_split", header, rows

    ctx = ExtContext(chars, cfg.lam, cfg.mu, cfg.J, cfg.K, cfg.i)
    if which == "probe":
        probe = ctx.probe_report(jobs=cfg.jobs)
        report = {
            "command": "ext",
            "which": which,
            "config": cfg.echo(),
            "probe": probe,
            "ok": True,  # the verdict itself is the result, not a failure
        }
        rows = [tuple(probe[col] for col in PROBE_CSV)]
        return report, "ext_probe", PROBE_CSV, rows

    census = ctx.census(jobs=cfg.jobs)
    report = {
        "command": "ext",
        "which": which,
        "config": cfg.echo(),
        "census": census,
        "ok": census["ok"],
    }
    header = CENSUS_CSV[which]
    if which == "omega":
        rows = [tuple(row[col] for col in header) for row in census["per_w"]]
    else:
        rows = [tuple(census[col] for col in header)]
    return report, f"ext_{which}", header, rows


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatlab",
        description="exact-arithmetic workbench for Bruhat-cell modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("dims", "module and quotient dimensions with the composition sum"),
        ("blocks", "partition character parameters by central character"),
        ("verify", "re-check one family of identities over a grid"),
        ("ext", "two-level censuses, probes, and the synthetic splitter"),
    ):
        sp = sub.add_parser(name, help=help_text)
        if name == "verify":
            sp.add_argument("which", choices=sorted(VERIFY_DRIVERS))
        if name == "ext":
            sp.add_argument(
                "which",
                choices=["omega", "gamma", "xi", "club", "probe", "split"],
            )
        sp.add_argument("--config", default=None, help="key=value file")
        sp.add_argument(
            "overrides",
            nargs="*",
            metavar="key=value",
            help="config overrides, applied after the file",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = load_config_file(args.config) if args.config else {}
        _parse_pairs(args.overrides, values)
        cfg = RunConfig(values)
        if args.command == "dims":
            result = cmd_dims(cfg)
        elif args.command == "blocks":
            result = cmd_blocks(cfg)
        elif args.command == "verify":
            result = cmd_verify(cfg, args.which)
        else:
            result = cmd_ext(cfg, args.which)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:  # an ell too large overflows int64
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report, stem, header, rows = result
    emit(report, stem, header, rows, cfg.outdir)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
