"""Per-layer spans recorded from outside the program.

Layers are the callee modules of ``pyrhead``. Every public function a layer
module defines is wrapped at each name under which a ``pyrhead`` module or
this benchmark's workloads can look it up, so a span is attributed to the
module that implements the callee, whatever its name. Methods are not
looked up through module names, so the few that carry per-layer work are
listed in ``METHODS``.

Spans live in memory as parallel lists (no per-span container, so tracing
adds little work for the cycle collector) and are folded into per-op totals
after each traced op, outside the op's timing. ``Tracer.install`` and
``Tracer.uninstall`` swap the wrappers in and out, so traced and untraced
ops can be interleaved in one process.
"""
from __future__ import annotations

import gc
import inspect
import sys
import time
from collections import defaultdict
from types import FunctionType, ModuleType

import numpy as np

from pyrbench import workloads

LAYERS = ("spatial", "geometry", "darp", "operators", "head", "autodiff")

# Methods reached through an instance rather than a module-level name.
METHODS = {
    "spatial": ("SpatialIndex.query", "SpatialIndex.region_ids"),
    "autodiff": ("Value.backward",),
}

# Layers whose calls keep their arguments and result for the counters.
COUNTED = ("spatial", "geometry", "operators")

# Role split inside a layer. A role is matched by callee name, so a rename
# zeroes the role metric; the layer's total and self time still hold.
ROLE_NAMES = {
    "darp.context": ("context_embedding",),
    "darp.radius": ("predict_radius",),
    "operators.attend": ("gated_attention_batched",),
    "operators.soft_radius": ("soft_radius_coeff",),
    "head.forward": ("forward_rois",),
    "head.refine": ("refine",),
    "head.loss": ("loss",),
    "autodiff.backward": ("Value.backward",),
}
_ROLE_OF = {f"{role.split('.')[0]}.{name}": role
            for role, names in ROLE_NAMES.items() for name in names}


class HookError(RuntimeError):
    """A layer exposes no hookable callable, or none of them was called."""


def _public_functions(mod: ModuleType) -> dict[int, str]:
    """id -> name of every public plain function the module defines."""
    return {id(obj): name for name, obj in vars(mod).items()
            if isinstance(obj, FunctionType) and not name.startswith("_")
            and obj.__module__ == mod.__name__
            and not inspect.isgeneratorfunction(obj)}


class Tracer:
    """Wraps the layer callables of the imported ``pyrhead`` and records spans."""

    def __init__(self):
        # span i: keys[i] "layer.callee", parents[i] index or -1, t0s/t1s in
        # seconds, calls[i] the (fn, args, kwargs, result) kept for counters
        self.keys: list[str] = []
        self.parents: list[int] = []
        self.t0s: list[float] = []
        self.t1s: list[float] = []
        self.calls: list[tuple | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._gc_t0 = 0.0
        self.gc_s = 0.0
        self.gc_count = 0
        self.hooked: dict[str, list[str]] = {layer: [] for layer in LAYERS}
        self._discover()

    def _discover(self):
        callers = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pyrhead" or name.startswith("pyrhead."))]
        callers.append(workloads)
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"pyrhead.{layer}"]
            funcs = _public_functions(mod)
            for caller in callers:
                for name, obj in list(vars(caller).items()):
                    callee = funcs.get(id(obj))
                    if callee is None:
                        continue
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj, f"{layer}.{callee}",
                                                       layer in COUNTED)
                        self.hooked[layer].append(callee)
                    self._patches.append((caller, name, obj, wrappers[id(obj)]))
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                fn = vars(getattr(mod, cls_name, object)).get(meth)
                if not isinstance(fn, FunctionType):
                    raise HookError(f"{layer}: method {qual} not found")
                keep = layer in COUNTED or qual == "Value.backward"
                self._patches.append((getattr(mod, cls_name), meth, fn,
                                      self._wrap(fn, f"{layer}.{qual}", keep)))
                self.hooked[layer].append(qual)
        for layer, names in self.hooked.items():
            if not names:
                raise HookError(f"layer {layer} exposes no callable to hook")

    def _wrap(self, fn, key, keep):
        keys, parents, t0s, t1s, calls = (self.keys, self.parents, self.t0s,
                                          self.t1s, self.calls)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(keys)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            t0s.append(0.0)
            t1s.append(0.0)
            calls.append(None)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                t0s[i] = t0
                stack.pop()
            if keep:
                calls[i] = (fn, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, name, orig, _ in reversed(self._patches):
            setattr(owner, name, orig)
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_count += 1

    def span(self, key: str):
        """Context manager for a span opened by the benchmark's own code."""
        return _ManualSpan(self, key)

    def reset(self) -> None:
        for lst in (self.keys, self.parents, self.t0s, self.t1s, self.calls,
                    self._stack):
            lst.clear()
        self.gc_s = 0.0
        self.gc_count = 0


class _ManualSpan:
    def __init__(self, tracer: Tracer, key: str):
        self.t, self.key = tracer, key

    def __enter__(self):
        t = self.t
        self.i = len(t.keys)
        t.keys.append(self.key)
        t.parents.append(t._stack[-1] if t._stack else -1)
        t.t1s.append(0.0)
        t.calls.append(None)
        t._stack.append(self.i)
        t.t0s.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        self.t.t1s[self.i] = time.perf_counter()
        self.t._stack.pop()
        return False


# -- per-call counters, read after the op -------------------------------------

def _neighbor_counts(result):
    """Per-grid-point neighbour counts of a spatial result, or None.

    Understands a list of (ids, dists) pairs, one per grid point, and a
    single (ids, dists) pair.
    """
    if isinstance(result, list):
        if all(isinstance(r, tuple) and r and isinstance(r[0], np.ndarray)
               for r in result):
            return [len(r[0]) for r in result]
        return None
    if (isinstance(result, tuple) and len(result) == 2
            and isinstance(result[0], np.ndarray) and result[0].ndim == 1):
        return [len(result[0])]
    return None


def _bound_arg(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind_partial(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _tape_nodes(loss) -> int:
    """Nodes reachable from the loss through the tape's parent links."""
    seen = set()
    todo = [loss]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(getattr(node, "_parents", ()))
    return len(seen)


class LayerTotals:
    """Per-op sums of spans and counters over the traced ops of one run."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.n = defaultdict(float)
        self.ops = 0
        self.spans_per_layer = defaultdict(int)    # for the hook check

    def add_op(self, tr: Tracer) -> None:
        keys, parents, calls = tr.keys, tr.parents, tr.calls
        dur = [(b - a) * 1e3 for a, b in zip(tr.t0s, tr.t1s)]
        layer_of = [k.split(".", 1)[0] for k in keys]
        child_ms = [0.0] * len(keys)
        nested_ids = defaultdict(int)   # ids handed back by nested lookups
        for i, p in enumerate(parents):
            if p >= 0:
                child_ms[p] += dur[i]
                out = calls[i][3] if calls[i] is not None else None
                if (isinstance(out, np.ndarray) and out.ndim == 1
                        and out.dtype.kind in "iu"):
                    nested_ids[p] += len(out)
        ms, n = self.ms, self.n
        for i, key in enumerate(keys):
            layer, d = layer_of[i], dur[i]
            self.spans_per_layer[layer] += 1
            ms[f"{layer}.self"] += d - child_ms[i]
            role = _ROLE_OF.get(key)
            if role is not None:
                ms[role] += d
                n[role + ".calls"] += 1
                if role == "head.forward":
                    ms["head.forward_self"] += d - child_ms[i]
            call = calls[i]
            if key == "autodiff.Value.backward":
                n["autodiff.tape_nodes"] += _tape_nodes(call[1][0])
            p_layer = layer_of[parents[i]] if parents[i] >= 0 else "bench"
            if p_layer == layer:
                continue            # layer metrics take a layer's outermost span
            if layer == "spatial":
                where = {"head": "gather", "darp": "query", "bench": "build"}.get(p_layer)
                if where is not None:
                    ms[f"spatial.{where}"] += d
                if where == "gather":
                    self._gather(call, nested_ids[i])
            elif layer == "geometry":
                ms["geometry.grid"] += d
                fn, _, _, out = call
                if "grid" in fn.__name__ and isinstance(out, np.ndarray) and out.ndim == 2:
                    n["geometry.grid_points"] += out.shape[0]
            elif role == "operators.attend":
                offsets = call[1][0] if call[1] else None
                if isinstance(offsets, np.ndarray) and offsets.ndim == 3:
                    n["operators.slots"] += offsets.shape[0] * offsets.shape[1]
        ms["autodiff.gc"] += tr.gc_s * 1e3
        n["autodiff.gc_collections"] += tr.gc_count
        self.ops += 1

    def _gather(self, call, nested_ids: int):
        n = self.n
        n["spatial.gather_calls"] += 1
        fn, args, kwargs, out = call
        counts = _neighbor_counts(out)
        if counts is None:
            return
        cap = _bound_arg(fn, args, kwargs, "max_k")
        n["spatial.grid_queries"] += len(counts)
        n["spatial.neighbors"] += sum(counts)
        n["spatial.empty"] += sum(1 for c in counts if c == 0)
        if cap is not None:
            n["spatial.cap_hit"] += sum(1 for c in counts if c >= cap)
        # points distance-tested: each id a nested region lookup handed back
        # is tested against every grid point of the gather
        n["spatial.candidates"] += nested_ids * len(counts)

    def check_called(self) -> None:
        idle = [layer for layer in LAYERS if self.spans_per_layer[layer] == 0]
        if idle:
            raise HookError(f"hooked layers never called: {', '.join(idle)}")

    def metrics(self) -> dict[str, tuple[float, str]]:
        ops = max(self.ops, 1)
        ms, n = self.ms, self.n

        def ratio(a, b):
            return a / b if b else 0.0

        per_op_ms = {
            "spatial.gather_ms": "spatial.gather", "spatial.build_ms": "spatial.build",
            "spatial.query_ms": "spatial.query", "geometry.grid_ms": "geometry.grid",
            "darp.context_ms": "darp.context", "darp.radius_ms": "darp.radius",
            "operators.attend_ms": "operators.attend",
            "operators.soft_radius_ms": "operators.soft_radius",
            "head.forward_ms": "head.forward", "head.forward_self_ms": "head.forward_self",
            "head.refine_ms": "head.refine", "head.loss_ms": "head.loss",
            "autodiff.backward_ms": "autodiff.backward", "autodiff.gc_ms": "autodiff.gc",
            "synth.update_ms": "synth.self",
        }
        per_op_count = {
            "spatial.gather_calls": "spatial.gather_calls",
            "spatial.candidates": "spatial.candidates",
            "spatial.neighbors": "spatial.neighbors",
            "geometry.grid_points": "geometry.grid_points",
            "operators.attend_calls": "operators.attend.calls",
            "operators.slots": "operators.slots",
            "autodiff.tape_nodes": "autodiff.tape_nodes",
            "autodiff.gc_collections": "autodiff.gc_collections",
        }
        out = {k: (ms[v] / ops, "ms") for k, v in per_op_ms.items()}
        out.update({k: (n[v] / ops, "count") for k, v in per_op_count.items()})
        out.update({
            "spatial.hit_ratio": (ratio(n["spatial.neighbors"], n["spatial.candidates"]), "ratio"),
            "spatial.empty_frac": (ratio(n["spatial.empty"], n["spatial.grid_queries"]), "ratio"),
            "spatial.cap_hit_frac": (ratio(n["spatial.cap_hit"], n["spatial.grid_queries"]), "ratio"),
            # neighbours gathered per attention slot: drops below 1 with padding
            "operators.slot_fill": (ratio(n["spatial.neighbors"], n["operators.slots"]), "ratio"),
        })
        for layer in (*LAYERS, "bench"):
            out[f"{layer}.self_ms"] = (ms[f"{layer}.self"] / ops, "ms")
        out["trace.spans"] = (sum(self.spans_per_layer.values()) / ops, "count")
        return out
