"""Out-of-process-style tracing of the jointspec layers, installed from outside.

The library has no instrumentation of its own, so the traced run replaces
every binding of every public function of the layer modules with a wrapper
that records a span.  "Every binding" matters: modules import each other's
functions under their own names (``branches._slice_roots``,
``relations.local_branches``, ``coxeter.line_roots``, ``cli.verify_pair``)
and the package re-exports them, so patching only the defining module's
attribute would miss most calls.

Spans are kept in memory as tuples ``(id, parent, request, phase, name, t0, t1)``
and written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import numbers
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "jointspec"
LAYERS = (
    "pencil",
    "branches",
    "extrapolate",
    "projections",
    "relations",
    "coxeter",
    "fixtures",
    "cli",
    "serialize",
)

# Argument keys for the distinct-work ratios.  `resolution` is left out of
# analyze_pair's key: it is derived from `t` and only spares a recomputation.
_KEYED = {
    "branches.local_branches": (),
    "relations.analyze_pair": ("resolution",),
}


def _digest(obj, h):
    """Feed a stable, value-based description of an argument into h.

    Scalars and vectors are rounded to 10 significant digits so that an
    eigenvalue passed once as computed and once as a cluster center counts as
    the same key; matrices are hashed exactly.
    """
    if isinstance(obj, numbers.Number):
        z = complex(obj)
        h.update(f"{z.real:.10g},{z.imag:.10g};".encode())
    elif isinstance(obj, np.ndarray) and obj.ndim >= 2:
        a = np.ascontiguousarray(obj)
        h.update(f"{a.shape}{a.dtype}".encode())
        h.update(a.tobytes())
    elif isinstance(obj, (np.ndarray, list, tuple)):
        h.update(b"[")
        for v in obj:
            _digest(v, h)
        h.update(b"]")
    elif hasattr(obj, "matrices"):
        _digest(tuple(obj.matrices), h)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _digest(getattr(obj, f.name), h)
    else:
        h.update(repr(obj).encode())


class Tracer:
    """Wraps the public functions of the jointspec layers and records spans."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.request = -1
        self.counters = defaultdict(float)  # (phase, name) -> value
        self.keys = defaultdict(set)  # (phase, name) -> argument digests
        self._stack = []
        self._patches = []
        self._wrappers = {}
        self.bindings = []  # (module, attribute, traced name) of each patched binding

    # -- installation --------------------------------------------------------

    def _targets(self):
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[obj] = f"{layer}.{attr}"
        return targets

    def install(self):
        """Replace every binding of every public layer function by its wrapper."""
        if self._patches:
            return
        targets = self._targets()
        for fn, name in targets.items():
            if fn not in self._wrappers:
                self._wrappers[fn] = self._wrap(fn, name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])
        self.bindings = [(mod.__name__, attr, targets[obj]) for mod, attr, obj in self._patches]

    def uninstall(self):
        for mod, attr, obj in self._patches:
            setattr(mod, attr, obj)
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        hook = self._hook_for(fn, name)
        is_cli_main = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            span_name = name
            if is_cli_main:
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.main.{argv[0] if argv else 'none'}"
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.request, self.phase, span_name, t0, t1)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _hook_for(self, fn, name):
        """Derived counters, computed from arguments and return values."""
        if name == "projections.riesz_projection_info":
            def hook(args, kwargs, out):
                self.counters[(self.phase, "projections.quad_nodes")] += out[1]
            return hook
        if name == "coxeter.equivalence_evidence":
            def hook(args, kwargs, out):
                key = (self.phase, "coxeter.equivalence_evidence.words")
                self.counters[key] += out.words_checked
            return hook
        if name.startswith("relations.verify_"):
            def hook(args, kwargs, out):
                key = (self.phase, "relations.worst_residual_ratio")
                for r in out if isinstance(out, list) else [out]:
                    self.counters[key] = max(self.counters[key], r.residual / r.tolerance)
            return hook
        if name in _KEYED:
            sig = inspect.signature(fn)
            skip = _KEYED[name]

            def hook(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                h = hashlib.sha1()
                for k, v in bound.arguments.items():
                    if k not in skip:
                        h.update(k.encode())
                        _digest(v, h)
                self.keys[(self.phase, name)].add(h.hexdigest())
            return hook
        return None

    # -- results -------------------------------------------------------------

    def layer_stats(self, phase, request=None):
        """{name: {"calls", "total_s", "self_s"}} over the spans of one phase
        (and of one request, when given)."""
        child = defaultdict(float)
        for sid, parent, _, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _, req, ph, name, t0, t1 in self.spans:
            if ph != phase or request is not None and req != request:
                continue
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child[sid]
        return stats

    def child_calls(self, phase, parent_name, child_name):
        """How many child_name spans ran directly under a parent_name span."""
        names = {sid: name for sid, _, _, _, name, _, _ in self.spans}
        return sum(
            1 for _, parent, _, ph, name, _, _ in self.spans
            if ph == phase and name == child_name and names.get(parent) == parent_name
        )

    def span_cost(self, calls=20000, repeats=5):
        """Median seconds a wrapper adds to one call, measured on a no-op."""
        def noop():
            return None

        wrapped = self._wrap(noop, "calibration")
        start = len(self.spans)
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        del self.spans[start:]
        return statistics.median(costs)

    def counter(self, phase, name):
        return self.counters.get((phase, name), 0.0)

    def distinct_ratio(self, phase, name, calls):
        return len(self.keys.get((phase, name), ())) / calls if calls else 0.0

    def write(self, path):
        """Spans as JSON lines, one per span, after a header with the bindings."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"bindings": self.bindings}) + "\n")
            for sid, parent, req, ph, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, req, ph, name, t0, t1]) + "\n")
