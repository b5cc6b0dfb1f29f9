"""The package holds only what the program runs.

Every function or method defined under src/bruhatlab must be referenced
somewhere in src/bruhatlab, as a name or as an attribute.  A callable that
only the tests call belongs in tests/oracles.py, as a function over the
package's public objects.

The check is by name and one level deep.  A method counts as referenced
when its name is read as an attribute anywhere in src/, a module-level
function also when its name is read as a plain name.  So a callable whose
only caller is itself unreferenced is not caught until that caller goes,
and a name that another callable or variable shares counts as referenced.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bruhatlab"

# the callables that may stay without a caller in src/, and why
ALLOWED = {
    "act_key": "ModuleContext.act_key, the per-key oracle of the stacked "
    "action, is wrapped by the benchmark's tracer (perfbench/tracer.py), "
    "which tests/test_tracer_targets.py pins",
    "main": "cli.main is the console entry point that pyproject.toml names",
}


def _callables_and_references() -> tuple:
    """(callables, attribute reads, plain-name reads) of src/bruhatlab; a
    callable maps to its location and whether it is a method."""
    defined, attrs, names = {}, set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {
            id(fn)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.name}:{node.lineno}"
                defined.setdefault(node.name, []).append((where, id(node) in methods))
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    return defined, attrs, names


def test_src_defines_no_test_only_callable():
    defined, attrs, names = _callables_and_references()
    unreferenced = [
        f"{where} {name}"
        for name, sites in sorted(defined.items())
        for where, is_method in sites
        if name not in attrs
        and (is_method or name not in names)
        and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unreferenced, (
        "defined in src/ but called only from outside it; move each to "
        f"tests/oracles.py or allow it with a reason: {unreferenced}"
    )
    # an allowance outlives its callable only by mistake
    assert set(ALLOWED) <= set(defined)
