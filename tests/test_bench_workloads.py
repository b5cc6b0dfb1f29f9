"""The benchmark's workloads still run against the program.

`perfbench/workloads.py` calls into the layers directly, the kernel
`scan_conj_upper` among them, with positional arguments.  One tiny pass of
each workload here, a few hundredths of a second, makes a signature change
that breaks the benchmark fail this suite, and not only the benchmark's own
smoke test (`perfbench/test_smoke.py`).  The workloads import the program
afresh, so they run in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
from workloads import WORKLOADS, load_bruhatlab

bl = load_bruhatlab({src!r})
out = {{}}
for name in ("census", "split"):
    work = WORKLOADS[name](bl, 0, "tiny")
    results = [work.run(op) for op in work.pass_ops()]
    out[name] = [len(results), work.check_pass(results)]
print(json.dumps(out))
"""


def test_tiny_workload_passes_run_and_check():
    script = SCRIPT.format(
        bench=os.path.join(ROOT, "perfbench"), src=os.path.join(ROOT, "src")
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert set(got) == {"census", "split"}
    for name, (ops, problem) in got.items():
        assert ops > 0 and problem is None, (name, problem)
