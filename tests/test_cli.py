"""End-to-end command tests: reports, files, exit codes, determinism.

Each test drives main() with an explicit out= directory and reads the JSON
and CSV files back.  Frozen numbers come from the module-level suites; the
block counts are re-derived in comments where the arithmetic is short.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from bruhatlab import cli, extlab, modules
from bruhatlab.cli import RunConfig, build_chars, level_char_grid, main
from oracles import calibrate_scalar_convention


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, f"out={out}"])
    return code, out


def read_json(out, stem):
    with open(out / f"{stem}.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_dims_rank1_trivial_character(tmp_path):
    code, out = run(tmp_path, "dims", "group=A1", "p=3", "theta=0", "k=1")
    assert code == 0
    rep = read_json(out, "dims")
    assert rep["dim_M"] == 4
    assert [(row["J"], row["dim_E"]) for row in rep["per_J"]] == [
        ([], 1),
        ([1], 3),
    ]
    assert rep["composition_sum_ok"] is True
    csv_lines = (out / "dims.csv").read_text().splitlines()
    assert csv_lines[0] == "J,dim_E,predicted,ok"
    assert csv_lines[1:] == [",1,1,true", "1,3,3,true"]


def test_dims_rank2_trivial_character(tmp_path):
    code, out = run(tmp_path, "dims", "group=A2", "p=2", "theta=0,0", "k=1")
    assert code == 0
    rep = read_json(out, "dims")
    assert rep["dim_M"] == 21
    assert sorted(row["dim_E"] for row in rep["per_J"]) == [1, 6, 6, 8]


def test_dims_explicit_J_filter(tmp_path):
    code, out = run(tmp_path, "dims", "group=A1", "p=3", "theta=0", "J=1")
    assert code == 0
    rep = read_json(out, "dims")
    assert len(rep["per_J"]) == 1 and rep["per_J"][0]["J"] == [1]
    assert rep["composition_sum_ok"] is None  # single-J run skips the sum


def test_dims_invalid_J_is_config_error(tmp_path):
    code, _ = run(tmp_path, "dims", "group=A1", "p=3", "theta=1", "J=1")
    assert code == 2


def test_blocks_counts(tmp_path):
    # ambient SL_2(F_9): center {+-1}, nontrivial characters split in two
    code, out = run(tmp_path, "blocks", "group=A1", "p=3")
    assert code == 0 and read_json(out, "blocks")["num_blocks"] == 2
    # ambient SL_2(F_4): gcd(2, 3) = 1, center trivial, single block
    code, out = run(tmp_path, "blocks", "group=A1", "p=2")
    assert code == 0 and read_json(out, "blocks")["num_blocks"] == 1
    # ambient SL_3(F_4): gcd(3, 3) = 3 central elements, keys e1+2e2 mod 3
    code, out = run(tmp_path, "blocks", "group=A2", "p=2")
    rep = read_json(out, "blocks")
    assert code == 0 and rep["num_blocks"] == 3
    assert rep["num_params"] == 16


@pytest.mark.parametrize(
    "which", ["basis", "rank1", "socle", "action", "straightening"]
)
def test_verify_passes_on_rank1_grid(tmp_path, which):
    code, out = run(
        tmp_path, "verify", which, "group=A1", "p=3", "k=1", "samples=60"
    )
    assert code == 0
    rep = read_json(out, f"verify_{which}")
    assert rep["ok"] and rep["first_failure"] is None
    assert rep["num_points"] >= 1


@pytest.mark.parametrize(
    "group, p, k, case_i",
    [("A2", 2, 2, 198), ("A1", 3, 2, 64), ("A1", 3, 1, 4)],
)
def test_straightening_calibration_matches_library(tmp_path, group, p, k, case_i):
    # the CLI counts the instances its reports put in case (i); the library
    # keeps the (i, w) with s_i w shorter than w; both must give one verdict
    code, out = run(
        tmp_path, "verify", "straightening", f"group={group}", f"p={p}", f"k={k}"
    )
    rep = read_json(out, "verify_straightening")
    chars = build_chars(RunConfig({"group": group, "p": p, "k": k}))
    contexts = [
        modules.ModuleContext(chars, theta, k)
        for theta in level_char_grid(chars, k)
    ]
    assert rep["calibration"] == calibrate_scalar_convention(contexts)
    assert rep["calibration"]["case_i_instances"] == case_i
    assert sum(pt["case_i"] for pt in rep["points"]) == case_i
    assert code == 0


def test_verify_straightening_calibrates_uniquely(tmp_path):
    # the rank-2 level-2 grid separates the two torus-twist conventions
    code, out = run(tmp_path, "verify", "straightening", "group=A2", "p=2", "k=2")
    assert code == 0
    rep = read_json(out, "verify_straightening")
    assert rep["ok"] and rep["num_points"] == 16
    assert rep["calibration"] == {
        "case_i_instances": 198,
        "convention": "w^-1 t w",
        "ambiguous": False,
        "ok": True,
    }
    # a rank-1 group cannot separate them: both conventions agree there
    code, out = run(tmp_path, "verify", "straightening", "group=A1", "p=3", "k=2")
    assert code == 0
    rep = read_json(out, "verify_straightening")
    assert rep["calibration"]["convention"] == "both"
    assert rep["calibration"]["ok"]


def test_ext_omega_census_table(tmp_path):
    code, out = run(
        tmp_path, "ext", "omega", "group=A1", "p=3", "lam=1", "mu=1", "i=1"
    )
    assert code == 0
    rep = read_json(out, "ext_omega")
    per_w = rep["census"]["per_w"]
    assert [row["omega_prime_w"] for row in per_w] == [0, 1]
    csv_lines = (out / "ext_omega.csv").read_text().splitlines()
    assert csv_lines[0].startswith("word,length,omega_w")
    assert len(csv_lines) == 3


def test_ext_reports_byte_identical_across_runs_and_jobs(tmp_path):
    blobs = []
    for name, jobs in (("r1", 1), ("r2", 1), ("r3", 8)):
        out = tmp_path / name
        code = main(
            [
                "ext", "probe", "group=A1", "p=3", "lam=1", "mu=1", "i=1",
                f"jobs={jobs}", f"out={out}",
            ]
        )
        assert code == 0
        blobs.append(
            (
                (out / "ext_probe.json").read_bytes(),
                (out / "ext_probe.csv").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1] == blobs[2]


def test_ext_split_paths(tmp_path):
    code, out = run(
        tmp_path, "ext", "split", "group=A1", "p=3", "lam=1", "mu=0", "twists=4"
    )
    assert code == 0
    rep = read_json(out, "ext_split")
    assert len(rep["runs"]) == 4 and rep["ok"]
    assert all(r["a"] == 16 and r["b"] == 1 for r in rep["runs"])
    assert rep["witness_diag"] == [5, 5]  # -identity, both entries index 5
    # same central character: the splitting hypothesis cannot be met
    code, _ = run(tmp_path, "ext", "split", "group=A1", "p=3", "lam=1", "mu=1")
    assert code == 2


def test_budget_exit_code(tmp_path):
    code, _ = run(
        tmp_path, "ext", "omega", "group=A2", "p=3", "N=3",
        "lam=1,1", "mu=1,1", "i=2",
    )
    assert code == 3


def test_scan_budget_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(extlab, "SCAN_BUDGET", 10)
    for which in ("gamma", "club"):
        code, _ = run(
            tmp_path, "ext", which, "group=A1", "p=3", "lam=1", "mu=1", "i=1"
        )
        assert code == 3
        assert "SCAN_BUDGET=10, requested" in capsys.readouterr().err


def test_block_grid_budget_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "BLOCK_GRID_BUDGET", 7)
    code, _ = run(tmp_path, "blocks", "group=A1", "p=3")
    assert code == 3
    err = capsys.readouterr().err
    assert "BLOCK_GRID_BUDGET=7, requested 8 characters" in err


def test_key_budget_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(modules, "KEY_BUDGET", 3)
    code, _ = run(tmp_path, "verify", "socle", "group=A1", "p=3", "k=1")
    assert code == 3
    assert "KEY_BUDGET=3, requested 4 keys" in capsys.readouterr().err


def test_echelon_bytes_budget_exit_code(tmp_path, monkeypatch, capsys):
    # the first echelon array of the socle check is 4 x 4 int64
    monkeypatch.setattr(modules, "ECHELON_BYTES_BUDGET", 100)
    code, _ = run(tmp_path, "verify", "socle", "group=A1", "p=3", "k=1")
    assert code == 3
    assert capsys.readouterr().err == (
        "budget error: echelon basis exceeds the memory budget: "
        "ECHELON_BYTES_BUDGET=100, requested 128 bytes\n"
    )


def test_config_file_plus_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# base settings\ngroup=A1\np=3\ntheta=1\n\nk=1\n")
    out = tmp_path / "out"
    code = main(["dims", "--config", str(cfg), "theta=0", f"out={out}"])
    assert code == 0
    rep = read_json(out, "dims")
    assert rep["config"]["theta"] == [0]  # override beat the file
    assert rep["config"]["p"] == 3


def test_bad_config_keys_and_syntax(tmp_path):
    assert main(["dims", "group=A1", "p=3", "bogus=1"]) == 2
    assert main(["dims", "group=A1", "p=3", "thetaequalszero"]) == 2
    assert main(["dims", "group=A9", "p=3"]) == 2
    assert main(["dims", "group=A1", "p=3", "k=5"]) == 2
    assert main(["dims", "group=A1", "p=3", "J=4"]) == 2  # mask out of range


def test_outdir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("BRUHATLAB_OUTDIR", str(target))
    code = main(["dims", "group=A1", "p=3", "theta=0"])
    assert code == 0
    assert (target / "dims.json").exists()


def test_failed_verification_exits_one(tmp_path, monkeypatch):
    # every real check passes on these grids, so exercise the exit-code
    # mapping with a stub driver reporting a single failing point
    from bruhatlab import cli as climod

    def failing_driver(cfg, chars):
        points = [{"theta": [0], "J": [], "ok": False}]
        return points, {}, ["theta", "J", "ok"], [([0], [], False)]

    monkeypatch.setitem(climod.VERIFY_DRIVERS, "action", failing_driver)
    code, out = run(tmp_path, "verify", "action", "group=A1", "p=3")
    assert code == 1
    rep = read_json(out, "verify_action")
    assert rep["ok"] is False
    assert rep["first_failure"] == {"theta": [0], "J": [], "ok": False}


@pytest.mark.parametrize("broken", ["keys", "scales"])
def test_verify_action_catches_a_broken_action(tmp_path, monkeypatch, broken):
    # a realization whose images are shifted by one key, or scaled twice,
    # is not an action: g . (h . v) and (g h) . v then differ
    real = modules.ModuleContext._locate

    def wrong(self, H):
        idx, scale = real(self, H)
        if broken == "keys":
            return (idx + 1) % self.D, scale
        return idx, 2 * scale % self.ell

    monkeypatch.setattr(modules.ModuleContext, "_locate", wrong)
    code, out = run(tmp_path, "verify", "action", "group=A1", "p=3", "samples=20")
    assert code == 1
    assert read_json(out, "verify_action")["ok"] is False


def test_ext_split_report_digests(tmp_path):
    # the README split battery: the reports are pinned byte for byte
    code, out = run(
        tmp_path, "ext", "split", "group=A1", "p=3", "lam=1", "mu=0",
        "twists=100",
    )
    assert code == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("ext_split.json", "ext_split.csv")
    }
    assert digests == {
        "ext_split.json":
            "2372587d9a4479da9c83f9980690f43fad3a597821d21a20635f9f1f13172fdb",
        "ext_split.csv":
            "1aca94d69c2477a37039c7e902e67733d11dc3cdf2aaceba4aeb267eb544a0f1",
    }


@pytest.mark.parametrize("config, digests", [
    (
        "group=A1 p=3 lam=1 mu=1 i=1",
        ("39072d76e05311c02d039f21fbb2eedc0b747d66278deaccd9d59a169fdd2b66",
         "ddbfef39c97081f5806fccf155575b179e88b060ffcaa3c7e0d28b4415000710"),
    ),
    (
        "group=A1 p=3 lam=0 mu=0 i=1 J=1 K=1",
        ("91828e6365466834c2ef6e060574f6a5ff5e8e315d99404c54d87951a60a4421",
         "c0026f04e37f978f4223f4f17d0fa50f4d4ea6fc3d8330d585c54d0e097035da"),
    ),
    (
        "group=A2 p=2 lam=0,0 mu=0,0 i=1 J=1 K=1",
        ("bd2d057726e80f7858a9cb9f73fc245a83b7fc0c08a403143cd97ac7b0090175",
         "f97574494f736142feffac355a4eff299361feca060c9a0d3b2ae2e84031923a"),
    ),
    (
        "group=A2 p=2 lam=0,0 mu=0,0 i=1 J=3 K=3",
        ("49818a70c607331f6948fd82e3495d6055021186814c4b4320535fd21af678ec",
         "a0f7f3f6ce919cf0c769414c56e831820edaffa5cdf981498618418e5837df43"),
    ),
])
def test_ext_probe_report_digests(tmp_path, config, digests):
    # probes pinned byte for byte, with and without fixing generators (J
    # empty, J nonempty): the graph spin, the stacked fixed-vector step and
    # the meet all feed these reports
    code, out = run(tmp_path, "ext", "probe", *config.split())
    assert code == 0
    assert tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("ext_probe.json", "ext_probe.csv")
    ) == digests


def test_ext_split_failure_reports_witness(tmp_path, monkeypatch):
    # no real twist fails to split, so a scalar central element (whose
    # eigenspace is the whole module) stands in for a broken one
    from bruhatlab import cli as climod

    class ScalarCenter(climod.SynthExtension):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.c0_mat = self.a * np.eye(self.n, dtype=np.int64) % self.ell

    monkeypatch.setattr(climod, "SynthExtension", ScalarCenter)
    code, out = run(
        tmp_path, "ext", "split", "group=A1", "p=3", "lam=1", "mu=0",
        "twists=2",
    )
    assert code == 1
    rep = read_json(out, "ext_split")
    assert rep["ok"] is False
    for r in rep["runs"]:
        assert r["ok"] is False
        assert r["error"] == (
            "central eigenspace failed to split the module: "
            "eigenspace_dim=5 sum_dim=5 meet_dim=1 dl=4 n=5"
        )


def test_ell_override(tmp_path, capsys):
    # 97 = 1 + 12 * 8 also carries eighth roots of unity
    code, out = run(tmp_path, "dims", "group=A1", "p=3", "theta=1", "ell=97")
    assert code == 0
    assert read_json(out, "dims")["config"]["ell"] == 97
    code, _ = run(tmp_path, "dims", "group=A1", "p=3", "ell=10")
    assert code == 2
    # 11 is prime, but 8 = 3^2 - 1 does not divide 10
    code, _ = run(tmp_path, "dims", "group=A1", "p=3", "N=2", "ell=11")
    assert code == 2
    capsys.readouterr()
    # a prime with the roots of unity, but ell^2 (D + 1) overflows int64
    code, _ = run(tmp_path, "dims", "group=A1", "p=3", "N=1", "k=1", "ell=2147483659")
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: residues overflow")


def test_budget_errors_carry_their_fields(monkeypatch):
    # every budget, forced low, raises with its name, limit, requested size
    # and unit as fields, and its one message is built from them
    from bruhatlab import chevalley, fieldtower
    from bruhatlab.characters import Characters
    from bruhatlab.chevalley import Chevalley
    from bruhatlab.rootdata import build_A

    ch = Characters(Chevalley(fieldtower.build_tower(3, 1, 2), build_A(1)))
    ctx = extlab.ExtContext(ch, (1,), (1,), frozenset(), frozenset(), 1)
    ctx.omega_set()
    cases = [
        (fieldtower, "ENUM_BUDGET", 80, lambda: fieldtower.FieldTower(3, 2, 2),
         ("field tower", "enumeration", 81, "elements")),
        (modules, "KEY_BUDGET", 3, lambda: modules.ModuleContext(ch, (0,), 1),
         ("module basis", "key", 4, "keys")),
        (chevalley, "GROUP_BUDGET", 23, lambda: ch.chev.enum_G(1),
         ("G_1 enumeration", "group", 24, "elements")),
        (chevalley, "GROUP_BUDGET", 5, lambda: ch.chev.enum_P(set(), 1),
         ("parabolic enumeration", "group", 6, "elements")),
        (extlab, "UNIPOTENT_BUDGET", 8,
         lambda: extlab.ExtContext(ch, (1,), (1,), frozenset(), frozenset(), 1),
         ("U_2", "unipotent", 9, "elements")),
        (extlab, "SCAN_BUDGET", 10, ctx.gamma_set,
         ("gamma scan", "membership", 132, "conjugations")),
        (extlab, "SCAN_BUDGET", 10, lambda: ctx.claim_club(ctx.U_list[-1]),
         ("club scan", "membership", 22, "conjugations")),
        (modules, "ECHELON_BYTES_BUDGET", 8 * 4 * 4 - 1,
         lambda: modules.Subspace(4, 7),
         ("echelon basis", "memory", 8 * 4 * 4, "bytes")),
        (cli, "BLOCK_GRID_BUDGET", 7,
         lambda: cli.cmd_blocks(RunConfig({"group": "A1", "p": 3})),
         ("ambient character grid", "block", 8, "characters")),
    ]
    for owner, name, limit, trigger, (subject, kind, requested, unit) in cases:
        with monkeypatch.context() as patch, pytest.raises(extlab.BudgetError) as info:
            patch.setattr(owner, name, limit)
            trigger()
        exc = info.value
        fields = (exc.subject, exc.kind, exc.name, exc.limit, exc.requested, exc.unit)
        assert fields == (subject, kind, name, limit, requested, unit)
        assert str(exc) == (
            f"{subject} exceeds the {kind} budget: {name}={limit}, "
            f"requested {requested} {unit}"
        )
