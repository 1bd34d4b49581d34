"""Per-layer tracing of gring from outside: wrap public functions and
methods at run time, leaving the source tree untouched.

A count hook counts calls.  A span hook also records each call's total
time and its self time (the span minus the time of its child spans).  A
hook replaces its target on the owning module or class and every alias of
the same object in other gring modules, so names imported with
``from x import f`` are seen too.  The kernel implementation modules are
not rewritten: calls made inside ``reduce_nd`` fall under its span.
A target that no longer resolves is reported as untraced.
"""

from __future__ import annotations

import importlib
import sys
import time

COUNT, SPAN = "count", "span"

# target (module.qualname under gring), kind
HOOKS = (
    ("kernel.reduce_nd", SPAN),
    ("kernel.mono_div", COUNT),
    ("kernel.mono_lcm", COUNT),
    ("groebner.buchberger", SPAN),
    ("groebner.groebner_with_cofactors", SPAN),
    ("groebner.GroebnerBasis.normal_form", SPAN),
    ("ring.QuotientRing.__init__", SPAN),
    ("ring.QuotientRing.nf", SPAN),
    ("ring.QuotientRing.ideal_gb", SPAN),
    ("ring.ideal_equal", SPAN),
    ("ring.invert", SPAN),
    ("ideals.hash_generators", SPAN),
    ("ideals.hashhash_generators", SPAN),
    ("ideals.bullet_generators", SPAN),
    ("ideals.normally_generates_check", SPAN),
    ("agmod.AElem.__init__", SPAN),
    ("agmod.AElem.__mul__", SPAN),
    ("agmod.embed_word", SPAN),
    ("agmod.dot", SPAN),
    ("agmod.bracket", SPAN),
    ("casestudies.build_E", SPAN),
    ("casestudies.boyer_certificate", SPAN),
    ("casestudies.sw_build", SPAN),
    ("casestudies.SWRings.s_inverse", SPAN),
    ("casestudies.sw_elements", SPAN),
    ("casestudies.sw_verify", SPAN),
    ("identities.run_identity_suite", SPAN),
    ("poly.Poly.__mul__", SPAN),
    ("poly.Poly.substitute", SPAN),
)

# ROADMAP layer of each traced module; 'bench' is the benchmark's own
# root span around each operation.
LAYER = {
    "kernel": "kernel",
    "groebner": "engine",
    "ring": "ring",
    "agmod": "module",
    "poly": "poly",
    "ideals": "drivers",
    "casestudies": "drivers",
    "identities": "drivers",
}
LAYERS = ("kernel", "engine", "ring", "module", "poly", "drivers", "bench")

_SKIP_ALIASES = ("gring._kernel_py", "gring._kernel_c")


def resolve(target):
    """(owning module or class, original object), or None when missing."""
    mod_name, _, qual = target.partition(".")
    try:
        owner = importlib.import_module(f"gring.{mod_name}")
    except ImportError:
        return None
    *path, name = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # a method must be defined on the named class itself, not inherited
    orig = owner.__dict__.get(name)
    if orig is None or not callable(orig):
        return None
    return owner, orig


class Tracer:
    """Installs the hooks, accumulates counters, and restores on uninstall."""

    def __init__(self):
        self.calls = {t: 0 for t, _ in HOOKS}
        self.total = {t: 0.0 for t, kind in HOOKS if kind == SPAN}
        self.self_time = dict(self.total)
        self.total["bench.op"] = 0.0
        self.self_time["bench.op"] = 0.0
        self.reductions = 0
        self.zero_reductions = 0
        self.basis_len = 0
        self.untraced = []
        self._stack = []  # per open span: time covered by its children
        self._in_buchberger = 0
        self._patches = []  # (owner, name, previous value)

    # -- installation -----------------------------------------------------

    def install(self):
        for target, kind in HOOKS:
            found = resolve(target)
            if found is None:
                self.untraced.append(target)
                continue
            owner, orig = found
            wrapper = self._span(target, orig) if kind == SPAN else self._count(target, orig)
            self._replace(owner, orig, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("gring") or mod_name in _SKIP_ALIASES:
                    continue
                self._replace(mod, orig, wrapper)

    def _replace(self, owner, orig, wrapper):
        namespace = owner.__dict__
        for name, value in list(namespace.items()):
            if value is orig:
                self._patches.append((owner, name, value))
                setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def _count(self, target, orig):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[target] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _span(self, target, orig):
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack
        clock = time.perf_counter
        is_reduce = target == "kernel.reduce_nd"
        is_buchberger = target == "groebner.buchberger"

        def wrapper(*args, **kwargs):
            calls[target] += 1
            if is_buchberger:
                self._in_buchberger += 1
            stack.append(0.0)
            start = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                total[target] += dur
                self_time[target] += dur - child
                if stack:
                    stack[-1] += dur
                if is_buchberger:
                    self._in_buchberger -= 1
            if is_reduce and self._in_buchberger:
                self.reductions += 1
                if not out:
                    self.zero_reductions += 1
            elif is_buchberger:
                self.basis_len += len(out.polys)
            return out

        return wrapper

    def run_op(self, call):
        """Run one benchmark operation under the root span."""
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return call()
        finally:
            dur = time.perf_counter() - start
            child = stack.pop()
            self.total["bench.op"] += dur
            self.self_time["bench.op"] += dur - child

    # -- report -------------------------------------------------------------

    def metrics(self):
        """Flat {name: value}: calls, total_s, self_s per hook, layer self
        times, and the engine's reduction counters.  An untraced hook reads
        0 here and is named in ``untraced``."""
        out = {}
        for target, kind in HOOKS:
            out[f"{target}.calls"] = self.calls[target]
            if kind == SPAN:
                out[f"{target}.total_s"] = self.total[target]
                out[f"{target}.self_s"] = self.self_time[target]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for target, value in self.self_time.items():
            layer_self[LAYER.get(target.partition(".")[0], "bench")] += value
        for layer, value in layer_self.items():
            out[f"layer.{layer}.self_s"] = value
        red = self.reductions
        out["groebner.buchberger.reductions"] = red
        out["groebner.buchberger.zero_reductions"] = self.zero_reductions
        out["groebner.buchberger.useful_ratio"] = (red - self.zero_reductions) / red if red else 0.0
        out["groebner.buchberger.basis_len"] = self.basis_len
        return out
