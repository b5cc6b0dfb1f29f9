"""The benchmark's tracer still finds every callable it wraps.

`perfbench/tracer.py` wraps named functions and methods of the program's
layers from outside; a renamed or removed one breaks the traced benchmark,
whose own smoke test (`perfbench/test_smoke.py`) is not part of this suite.
Installing the tracer patches the classes, so it runs in a fresh interpreter.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path.insert(0, {bench!r})
from tracer import SPAN_NAMES, Tracer
from workloads import load_bruhatlab

mods = load_bruhatlab({src!r})
Tracer().install(mods)
wrapped = [
    mods.modules.ModuleContext.act_key,
    mods.modules.ModuleContext.action_table,
    mods.modules.ModuleContext.e_module,
    mods.chevalley.Chevalley.bruhat_form,
    mods.characters.Characters.eval_parabolic,
    mods.modules.Subspace.insert,
    mods.modules.Subspace.residue,
    mods.modules.spin_closure,
    mods.extlab.nullspace_coeffs,
    mods.extlab.central_split,
    mods.backend.echelon_insert,
    mods.backend.echelon_reduce,
]
assert all(getattr(fn, "__perfbench_wrapped__", False) for fn in wrapped)
print(len(SPAN_NAMES))
"""


def test_tracer_installs_on_every_target():
    script = SCRIPT.format(
        bench=os.path.join(ROOT, "perfbench"), src=os.path.join(ROOT, "src")
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
