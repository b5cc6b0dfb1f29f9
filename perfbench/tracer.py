"""Per-layer tracing from outside the program.

`install(mods)` replaces public callables of the bruhatlab layers with
wrappers that time each call.  Spans nest strictly (one thread), so each
wrapper pushes a frame on entry and, on exit, charges its duration minus the
time its child spans covered to its own self time.  Spans are folded into
per-name totals as they close instead of being stored one by one: the
census pass alone closes about 350,000 `mat_mul` spans.

Every wrapper counts its calls.  A few also record what their call did:

* `modules.action_table` counts the calls with no child `modules.act_key`
  (table already built), giving `hit_ratio`;
* `modules.e_module` counts calls whose (theta, k, J) was seen before in the
  same process, giving `repeat_ratio`;
* `modules.subspace.insert` counts inserts that grew the subspace, giving
  `accept_ratio`;
* `kernels.scan_conj_upper` counts the group elements it visited.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

_WRAPPED = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.events: Counter = Counter()
        self._stack: list = []  # child time covered, one entry per open span
        self._seen_modules: set = set()

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapped `fn` recording spans under `name`.

        `before(args, kwargs)` runs at entry and its value is handed to
        `after(args, result, token)` when the call returns normally.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self.self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
            if after:
                after(args, out, token)
            return out

        setattr(traced, _WRAPPED, True)
        return traced

    # -- outcome hooks ------------------------------------------------------

    def _act_key_calls(self, args, kwargs):
        return self.calls["modules.act_key"]

    def _table_outcome(self, args, out, act_key_before):
        if self.calls["modules.act_key"] == act_key_before:
            self.events["modules.action_table.hits"] += 1

    def _e_module_key(self, args, kwargs):
        ctx = args[0]
        J = args[1] if len(args) > 1 else kwargs["J"]
        key = (ctx.theta, ctx.k, frozenset(J))
        if key in self._seen_modules:
            self.events["modules.e_module.repeats"] += 1
        self._seen_modules.add(key)

    def _insert_outcome(self, args, pivot, token):
        if pivot >= 0:
            self.events["modules.subspace.insert.accepted"] += 1

    def _scan_outcome(self, args, hit, token):
        nG = args[1].shape[0]
        start = args[6] if len(args) > 6 else 0
        self.events["kernels.scan_conj_upper.elements"] += (
            int(hit) - start + 1 if hit >= 0 else nG - start
        )

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, before=None, after=None):
        fn = getattr(owner, attr)
        # a class that inherits an already wrapped method keeps that wrapper
        if getattr(fn, _WRAPPED, False):
            return
        setattr(owner, attr, self.wrap(name, fn, before, after))

    def install(self, mods) -> None:
        """Wrap the traced callables of the freshly imported layers `mods`."""
        ft, cv, chs = mods.fieldtower, mods.chevalley, mods.characters
        md, ex, be = mods.modules, mods.extlab, mods.backend
        p = self._patch
        p(ft, "build_tower", "fieldtower.build_tower")
        for attr in ("bruhat_form", "mat_mul", "mat_inv"):
            p(cv.Chevalley, attr, f"chevalley.{attr}")
        for attr in dir(cv.Chevalley):
            if attr.startswith("enum_"):
                p(cv.Chevalley, attr, "chevalley.enum")
        for attr in ("eval_diag", "eval_parabolic"):
            p(chs.Characters, attr, f"characters.{attr}")
        p(md.ModuleContext, "act_key", "modules.act_key")
        p(
            md.ModuleContext,
            "action_table",
            "modules.action_table",
            self._act_key_calls,
            self._table_outcome,
        )
        p(md.ModuleContext, "e_module", "modules.e_module", self._e_module_key)
        p(md, "spin_closure", "modules.spin_closure")
        p(
            md.Subspace,
            "insert",
            "modules.subspace.insert",
            after=self._insert_outcome,
        )
        p(md.Subspace, "residue", "modules.subspace.residue")
        p(ex.ExtContext, "__init__", "extlab.ext_context")
        for attr in ("S_subspace", "omega_set", "claim_club", "xi"):
            p(ex.ExtContext, attr, f"extlab.{attr}")
        p(ex.SynthExtension, "__init__", "extlab.synth_extension")
        p(ex, "central_split", "extlab.central_split")
        p(ex, "nullspace_coeffs", "extlab.nullspace_coeffs")
        p(
            be,
            "scan_conj_upper",
            "kernels.scan_conj_upper",
            after=self._scan_outcome,
        )
        p(be, "echelon_insert", "kernels.echelon_insert")
        p(be, "echelon_reduce", "kernels.echelon_reduce")

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics, `<layer>.<function>.<metric>` -> (value, unit)."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        ev, calls = self.events, self.calls

        def ratio(num: str, den: str) -> float:
            return ev[num] / calls[den] if calls[den] else 0.0

        out["kernels.scan_conj_upper.elements"] = (
            ev["kernels.scan_conj_upper.elements"],
            "count",
        )
        out["modules.action_table.hit_ratio"] = (
            ratio("modules.action_table.hits", "modules.action_table"),
            "ratio",
        )
        out["modules.e_module.repeat_ratio"] = (
            ratio("modules.e_module.repeats", "modules.e_module"),
            "ratio",
        )
        out["modules.subspace.insert.accept_ratio"] = (
            ratio("modules.subspace.insert.accepted", "modules.subspace.insert"),
            "ratio",
        )
        return out


# every span name `install` records, in reporting order
SPAN_NAMES = (
    "fieldtower.build_tower",
    "chevalley.bruhat_form",
    "chevalley.mat_mul",
    "chevalley.mat_inv",
    "chevalley.enum",
    "characters.eval_diag",
    "characters.eval_parabolic",
    "modules.act_key",
    "modules.action_table",
    "modules.e_module",
    "modules.spin_closure",
    "modules.subspace.insert",
    "modules.subspace.residue",
    "extlab.ext_context",
    "extlab.S_subspace",
    "extlab.omega_set",
    "extlab.claim_club",
    "extlab.xi",
    "extlab.synth_extension",
    "extlab.central_split",
    "extlab.nullspace_coeffs",
    "kernels.scan_conj_upper",
    "kernels.echelon_insert",
    "kernels.echelon_reduce",
)
