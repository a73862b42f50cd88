"""Spans at the layer boundaries of stablext, recorded from outside.

``Tracer.install`` wraps every public function of each layer module (in
every ``stablext`` namespace that imported it with ``from .x import f``, so
calls between layers are caught) and every public method of the layer's
classes, plus their arithmetic and equality operators.
Each call records a span: name, start, end and the span that caused it.
Spans stay in memory and are written out once, by ``save``.

A span's self time is its duration minus the durations of its child spans.
Metric groups (``exactlin.elim``, ``algmod.sub``, ...) count a call only
when no span of the same group is already open, so ``kernel_basis``
calling ``rref`` is one elimination, not two.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("exactlin", "algmod", "resolve", "frobenius", "phantom",
          "stablecat", "fixtures", "textio")
OPERATORS = ("__mul__", "__add__", "__sub__", "__neg__", "__eq__")
# Field's helpers run once per scalar; a span there would cost more than
# the work it times.  Their time counts toward the calling span.
EXCLUDED = {"exactlin.Field"}

# metric group -> span names; each group reports .calls and .self_s
GROUPS = {
    "exactlin.mul": ["exactlin.Matrix.__mul__"],
    "exactlin.elim": ["exactlin.rref", "exactlin.rank", "exactlin.kernel_basis",
                      "exactlin.solve", "exactlin.quotient_reps"],
    "algmod.hom_space": ["algmod.hom_space"],
    "algmod.projective_cover": ["algmod.projective_cover"],
    "algmod.projective_indecs": ["algmod.projective_indecs"],
    "algmod.sub": ["algmod.submodule", "algmod.quotient_module",
                   "algmod.kernel_module", "algmod.image_module",
                   "algmod.cokernel_module"],
    "algmod.summands": ["algmod.indecomposable_summands"],
    "resolve.extend": ["resolve.Resolution.extend"],
    "resolve.ext": ["resolve.Resolver.ext"],
    "resolve.lift": ["resolve.Resolver.lift"],
    "resolve.sequence": ["resolve.sequence_from_element",
                         "resolve.class_from_sequence",
                         "resolve.pullback_sequence", "resolve.pushout_sequence",
                         "resolve.baer_sum_sequence",
                         "resolve.direct_sum_conflation",
                         "resolve.ExtElement.sequence"],
    "frobenius.is_n_projective": ["frobenius.FrobeniusContext.is_n_projective"],
    "frobenius.unit": ["frobenius.FrobeniusContext.unit_down",
                       "frobenius.FrobeniusContext.unit_up"],
    "frobenius.gorenstein_parameter": ["frobenius.gorenstein_parameter"],
    "frobenius.is_gproj": ["frobenius.FrobeniusContext.is_gproj"],
    "frobenius.search": ["frobenius.gorenstein_one_search"],
    "phantom.p_subspace": ["phantom.p_subspace"],
    "phantom.is_quasi_invertible": ["phantom.is_quasi_invertible"],
    "phantom.is_phantom": ["phantom.is_phantom"],
    "phantom.compose_mod_p": ["phantom.compose_mod_p"],
    "phantom.ext_ring": ["phantom.ext_ring"],
    "stablecat.functor_T": ["stablecat.functor_T"],
    "stablecat.stable_compose": ["stablecat.stable_compose"],
    "stablecat.stable_hom": ["stablecat.stable_hom"],
    "stablecat.omega_iso": ["stablecat.omega_iso"],
    "fixtures.inventory": ["fixtures.indecomposable_inventory"],
    "textio.load": ["textio.loads_workspace", "textio.load_workspace"],
}

# cache -> (lookup span, constructor counted from outside)
CACHES = {
    "resolve.ext": ("resolve.Resolver.ext", "resolve.ExtSpace"),
    "resolve.hom_basis": ("resolve.Resolver.hom_basis", "resolve._HomBasis"),
    "resolve.resolution": ("resolve.Resolver.resolution", "resolve.Resolution"),
}

# counts computed from argument shapes by the hooks below
COUNTS = ("exactlin.mul.madds", "exactlin.elim.cells", "exactlin.elim.max_cols",
          "algmod.hom_space.unknowns", "algmod.max_module_dim",
          "resolve.extend.terms")
SUITE_CRITERIA = range(1, 14)


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS[:6]:
        out.append((f"{layer}.self_s", "s"))
        for group in GROUPS:
            if group.startswith(layer + "."):
                out += [(f"{group}.calls", "count"), (f"{group}.self_s", "s")]
    out += [("fixtures.inventory.self_s", "s"), ("textio.load.self_s", "s")]
    out += [(name, "count") for name in COUNTS]
    out += [(f"{cache}.hit_ratio", "ratio") for cache in CACHES]
    out += [(f"suites.criterion_{n:02d}_s", "s") for n in SUITE_CRITERIA]
    out.append(("trace.overhead_s", "s"))
    return out


def _shape(m):
    return m.a.shape


class Tracer:
    def __init__(self):
        self.names = []             # span name per id
        self.calls = []             # calls per name id
        self.self_s = []            # self seconds per name id
        self.group_calls = dict.fromkeys(GROUPS, 0)
        self.constructed = {}       # class name -> instances built
        self.counts = dict.fromkeys(COUNTS, 0)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []            # [span index, child seconds] per open span
        self._group_of = {n: g for g, names in GROUPS.items() for n in names}
        self._depth = dict.fromkeys(GROUPS, 0)

    # -- counting hooks: before(args, kwargs, outer) -> token,
    #    after(token, args) ------------------------------------------------

    def _count_mul(self, args, kwargs, outer):
        (m, k), (_, n) = _shape(args[0]), _shape(args[1])
        self.counts["exactlin.mul.madds"] += m * k * n

    def _count_elim(self, args, kwargs, outer):
        if not outer:
            return
        if not hasattr(args[0], "a"):   # quotient_reps(dim, sub) reduces sub^T
            cols, rows = _shape(args[1])
        else:
            rows, cols = _shape(args[0])
            if len(args) > 1:           # solve(A, b) reduces [A | b]
                cols += _shape(args[1])[1]
        self.counts["exactlin.elim.cells"] += rows * cols
        if cols > self.counts["exactlin.elim.max_cols"]:
            self.counts["exactlin.elim.max_cols"] = cols

    def _count_unknowns(self, args, kwargs, outer):
        self.counts["algmod.hom_space.unknowns"] += args[0].dim * args[1].dim

    def _count_module(self, args, kwargs):
        dim = args[2] if len(args) > 2 else kwargs["dim"]
        if dim > self.counts["algmod.max_module_dim"]:
            self.counts["algmod.max_module_dim"] = dim

    def _terms_before(self, args, kwargs, outer):
        return len(args[0].terms)

    def _terms_after(self, before, args):
        self.counts["resolve.extend.terms"] += len(args[0].terms) - before

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        group = self._group_of.get(name)
        stack, calls, selfs = self._stack, self.calls, self.self_s
        depth, group_calls = self._depth, self.group_calls
        names_add, parents_add = self.span_name.append, self.span_parent.append
        starts_add, ends = self.span_start.append, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = group is None or depth[group] == 0
            token = before(args, kwargs, outer) if before is not None else None
            if group is not None:
                depth[group] += 1
                if outer:
                    group_calls[group] += 1
            idx = len(ends)
            names_add(nid)
            parents_add(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts_add(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                ends[idx] = t1
                if stack:
                    stack[-1][1] += d
                selfs[nid] += d - frame[1]
                calls[nid] += 1
                if group is not None:
                    depth[group] -= 1
            if after is not None:
                after(token, args)
            return result
        return wrapper

    def _constructor(self, key, fn, extra=None):
        self.constructed[key] = 0
        constructed = self.constructed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            constructed[key] += 1
            if extra is not None:
                extra(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package):
        """Wrap the layers of an imported ``stablext`` package in place."""
        hooks = {"exactlin.Matrix.__mul__": (self._count_mul, None),
                 "algmod.hom_space": (self._count_unknowns, None),
                 "resolve.Resolution.extend": (self._terms_before,
                                               self._terms_after)}
        for name in GROUPS["exactlin.elim"]:
            hooks[name] = (self._count_elim, None)
        replaced = {}
        modules = {name: getattr(package, name) for name in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self._span(name, obj, *hooks.get(name, ()))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, hooks)
        for mod in [m for n, m in list(sys.modules.items())
                    if n == package.__name__ or n.startswith(package.__name__ + ".")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, layer, cls, hooks):
        key = f"{layer}.{cls.__name__}"
        if key in [c for _, c in CACHES.values()]:
            cls.__init__ = self._constructor(key, cls.__init__)
        elif key == "algmod.Module":
            cls.__init__ = self._constructor(key, cls.__init__,
                                             self._count_module)
        if cls.__name__.startswith("_") or key in EXCLUDED:
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{key}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._span(name, raw.__func__,
                                               *hooks.get(name, ())))
            elif inspect.isfunction(raw):
                wrapped = self._span(name, raw, *hooks.get(name, ()))
            else:
                continue
            setattr(cls, attr, wrapped)

    # -- results ------------------------------------------------------------

    def values(self) -> dict:
        """Every per-layer metric the trace itself gives, by name; the
        suite's criterion times and the tracing overhead come from the
        untraced unit (see ``run.per_layer``)."""
        by_name = {n: i for i, n in enumerate(self.names)}
        values = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                s for n, s in zip(self.names, self.self_s)
                if n.startswith(layer + "."))
        for group, names in GROUPS.items():
            values[f"{group}.calls"] = self.group_calls[group]
            values[f"{group}.self_s"] = sum(self.self_s[by_name[n]]
                                            for n in names if n in by_name)
        values.update(self.counts)
        for cache, (lookup, cls) in CACHES.items():
            lookups = self.calls[by_name[lookup]]
            built = self.constructed[cls]
            values[f"{cache}.hit_ratio"] = 1 - built / lookups if lookups else 0.0
        return values

    def counters(self) -> dict:
        """The deterministic part of the trace: calls and computed counts."""
        out = {n: c for n, c in zip(self.names, self.calls)}
        out.update({f"group:{g}": c for g, c in self.group_calls.items()})
        out.update({f"built:{k}": c for k, c in self.constructed.items()})
        out.update(self.counts)
        return out

    def save(self, path):
        """Write every span: name id, parent span index, start and end."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
