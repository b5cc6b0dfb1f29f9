"""The package holds only what the program runs.

Every function or method defined under src/bruhatlab must be referenced
somewhere in src/bruhatlab, as a name or as an attribute, and every
defaulted parameter must be set by some call there.  A callable that only
the tests call belongs in tests/oracles.py, as a function over the package's
public objects; a behaviour that only the tests switch on is reached through
the public objects from the tests.

A third check keeps private names private: an underscore-named function
or variable of a module is used only inside that module, so src/ has no
`from .m import _name` and no `m._name` read through a module alias.

The first two checks go by name and one level deep.  A method counts as
referenced when its name is read as an attribute anywhere in src/, a
module-level function also when its name is read as a plain name.  So a
callable whose only caller is itself unreferenced is not caught until that
caller goes, and a name that another callable or variable shares counts as
referenced.
A defaulted parameter counts as set when some call in src/ of a callable of
that name (for `__init__`, of the class or of any `__init__`) passes it by
keyword, passes enough positional arguments to reach it, or unpacks `*args`
or `**kwargs`.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bruhatlab"

# the callables that may stay without a caller in src/, and why
ALLOWED = {
    "act_key": "ModuleContext.act_key, one key at a time through "
    "bruhat_form, is wrapped by the benchmark's tracer (perfbench/tracer.py), "
    "which tests/test_tracer_targets.py pins",
    "main": "cli.main is the console entry point that pyproject.toml names",
}

# the defaulted parameters that no call in src/ may set, and why
ALLOWED_DEFAULTS = {
    "main(argv)": "cli.main reads sys.argv when the console entry point "
    "calls it without arguments; tests pass their own argument lists",
}


def _trees() -> list:
    return [
        (path, ast.parse(path.read_text(), str(path)))
        for path in sorted(SRC.rglob("*.py"))
    ]


def _callables_and_references() -> tuple:
    """(callables, attribute reads, plain-name reads) of src/bruhatlab; a
    callable maps to its location and whether it is a method."""
    defined, attrs, names = {}, set(), set()
    for path, tree in _trees():
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


def _defaulted_parameters() -> list:
    """(call name, function name, parameter, positional index or None for
    keyword-only, location) of every defaulted parameter in src/bruhatlab.
    The positional index counts from the first argument a caller passes:
    after self or cls for a method, which is how src/ calls them."""
    out = []
    for path, tree in _trees():
        owner = {
            id(fn): cls
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list
            )
            call = cls.name if cls and fn.name == "__init__" else fn.name
            a = fn.args
            positional = a.posonlyargs + a.args
            skip = 1 if cls and not static else 0
            where = f"{path.name}:{fn.lineno}"
            first = len(positional) - len(a.defaults)
            for j, arg in enumerate(positional[first:], start=first):
                out.append((call, fn.name, arg.arg, j - skip, where))
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out.append((call, fn.name, arg.arg, None, where))
    return out


def _calls() -> dict:
    """Per called name (a plain name or an attribute), every call in
    src/bruhatlab as (number of positional arguments, keyword names); a
    `*args` counts as any number, a `**kwargs` as any keyword."""
    calls = {}
    for _, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            starred = any(isinstance(x, ast.Starred) for x in node.args)
            npos = float("inf") if starred else len(node.args)
            kws = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((npos, kws))
    return calls


def test_src_sets_every_defaulted_parameter():
    calls = _calls()
    unset = []
    for call, fn, param, index, where in _defaulted_parameters():
        names = [call, "__init__"] if fn == "__init__" else [call]
        sites = [c for name in names for c in calls.get(name, [])]
        if any(
            param in kws or None in kws or (index is not None and npos > index)
            for npos, kws in sites
        ):
            continue
        if f"{fn}({param})" not in ALLOWED_DEFAULTS:
            unset.append(f"{where} {fn}({param})")
    assert not unset, (
        "defaulted parameter that no call in src/ sets; drop it and reach "
        f"the behaviour from the tests, or allow it with a reason: {unset}"
    )
    # an allowance outlives its parameter only by mistake
    defaulted = {f"{fn}({param})" for _, fn, param, _, _ in _defaulted_parameters()}
    assert set(ALLOWED_DEFAULTS) <= defaulted


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_src_reads_no_private_name_of_another_module():
    modules = {path.stem for path in SRC.rglob("*.py")}
    leaks = []
    for path, tree in _trees():
        aliases = set()  # names bound to a module of src/ in this file
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
                elif node.module is not None and _private(alias.name):
                    leaks.append(f"{path.name}:{node.lineno} "
                                 f"from .{node.module} import {alias.name}")
        leaks += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _private(node.attr)
            and isinstance(node.value, ast.Name) and node.value.id in aliases
        ]
    assert not leaks, (
        "private name of one module used in another; make it public or "
        f"move its use into its module: {leaks}"
    )
