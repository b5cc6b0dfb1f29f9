"""Smoke test of the benchmark itself, at tiny size (A1, p=3).

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
no op fails, that the record carries its environment stamp, that compare.py
refuses results from different backends, and that the benchmark refuses to
run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, out=None):
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    if out:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(workload, trace, tmp_path):
    proc = run_bench(workload, trace, out=tmp_path / "rec.jsonl")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    record = json.loads(lines[-2])
    assert record["failed_ratio"] == 0
    assert record["metrics"] == result["metrics"]
    for key in ("backend", "python", "numpy", "nproc", "git_sha", "seed"):
        assert key in record["env"], key
    assert json.loads((tmp_path / "rec.jsonl").read_text()) == record


def test_compare_refuses_mixed_backends(tmp_path):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    for out in (base, new):
        assert run_bench("split", 0, out=out).returncode == 0
    compare = os.path.join(HERE, "compare.py")
    same = subprocess.run(
        [sys.executable, compare, str(base), str(new)],
        capture_output=True, text=True, timeout=60,
    )
    assert same.returncode in (0, 1), same.stderr
    assert "ops_per_s" in same.stdout
    record = json.loads(new.read_text())
    record["env"]["backend"] = "other"
    new.write_text(json.dumps(record) + "\n")
    mixed = subprocess.run(
        [sys.executable, compare, str(base), str(new)],
        capture_output=True, text=True, timeout=60,
    )
    assert mixed.returncode == 2
    assert "backend" in mixed.stderr


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("census", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
