"""Spans around the calls into each qasfg module, recorded from outside.

install() replaces every public function of the six modules with a timing
wrapper at every place it is bound: its own module, the package namespace
and the sibling modules that imported it by name (for example
qasfg.sensitivity.angle_profiles or qasfg.experiments.simulate_undepleted).
Spans stay in memory as (id, parent, name, layer, start, end, error, steps)
tuples and are written out once, after the run. Calls made outside an op
span (the benchmark's checks) are not recorded.
"""

import importlib
import inspect
import json
import time
import types

LAYERS = ("materials", "trajectory", "sensitivity", "propagation", "experiments", "cli")
PROPAGATORS = {"simulate_undepleted": "undepleted", "simulate_depleted": "depleted"}
Q_FUNCTIONS = ("q_deltak", "q_kappa")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.next_id = 1
        self.patches = []

    def _enter(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent

    def op(self, name):
        """Context manager for the benchmark's own root span of one op."""
        tracer = self

        class _Op:
            def __enter__(self):
                self.sid, self.parent = tracer._enter()
                self.t0 = time.perf_counter()

            def __exit__(self, exc_type, *_):
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((self.sid, self.parent, name, "op", self.t0, t1,
                                     exc_type is not None, 0))
        return _Op()

    def add_child_spans(self, spans):
        """Graft spans recorded in a child process under the current span.
        perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes."""
        parent = self.stack[-1]
        remap = {0: parent}
        for sid, par, name, layer, t0, t1, err, steps in spans:
            remap[sid] = self.next_id
            self.next_id += 1
        for sid, par, name, layer, t0, t1, err, steps in spans:
            self.spans.append((remap[sid], remap[par], name, layer, t0, t1, err, steps))

    def _wrap(self, fn, name, layer):
        tracer = self
        steps_default = None
        if name.split(".")[-1] in PROPAGATORS:
            sig = inspect.signature(fn)
            steps_default = sig.parameters["steps"].default

        def wrapper(*args, **kwargs):
            if len(tracer.stack) == 1:  # outside any op: the benchmark's own checks
                return fn(*args, **kwargs)
            sid, parent = tracer._enter()
            err = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                err = False
                return result
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                steps = 0
                if steps_default is not None:
                    steps = kwargs.get("steps", args[2] if len(args) > 2 else steps_default)
                tracer.spans.append((sid, parent, name, layer, t0, t1, err, steps))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the public functions of the qasfg modules wherever bound."""
        modules = {layer: importlib.import_module(f"qasfg.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for mod in [importlib.import_module("qasfg")] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self.patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self.patches):
            setattr(mod, attr, obj)
        self.patches = []

    def dump(self, path, extra=None):
        payload = dict(extra or {})
        payload["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(payload, fh)


def layer_metrics(spans, ops):
    """Per-op means of the per-layer counts and self times.

    A layer's calls are its spans entered from another layer; its self time
    is the span time not covered by child spans. ops is the number of root
    op spans the totals are shared among.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, name, layer, t0, t1, err, steps in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    m = {f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("calls", "self_s")}
    for kind in PROPAGATORS.values():
        for k in ("calls", "steps", "self_s"):
            m[f"propagation.{kind}.{k}"] = 0.0
    q_evals = q_attempts = q_failed = 0
    root_self = 0.0
    for sid, parent, name, layer, t0, t1, err, steps in spans:
        self_s = (t1 - t0) - child_time.get(sid, 0.0)
        if layer == "op":
            root_self += self_s
            continue
        parent_layer = by_id[parent][3] if parent in by_id else None
        m[f"{layer}.self_s"] += self_s
        if parent_layer != layer:
            m[f"{layer}.calls"] += 1
        func = name.split(".")[-1]
        if func in PROPAGATORS:
            kind = PROPAGATORS[func]
            m[f"propagation.{kind}.calls"] += 1
            m[f"propagation.{kind}.steps"] += steps
            m[f"propagation.{kind}.self_s"] += self_s
        elif func in Q_FUNCTIONS:
            q_evals += 1
        elif func == "angle_profiles" and parent_layer == "sensitivity":
            q_attempts += 1
            q_failed += err
    n = max(ops, 1)
    out = {k: v / n for k, v in m.items()}
    out["sensitivity.q_evals"] = q_evals / n
    out["sensitivity.q_valid_share"] = (q_attempts - q_failed) / q_attempts if q_attempts else 0.0
    out["trace.unaccounted_s"] = root_self / n
    return out
