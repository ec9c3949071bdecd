"""Span tracer that wraps the program's public functions and methods from
outside, so the program's source stays untouched.

Every public function defined in a traced module, and every public method
defined on a class of one, is replaced by a wrapper that records a span
(id, parent id, name, start, end). References to the same function object
held by other modules (``from .x import f``) are replaced too, because the
program calls many functions through names bound at import time.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory; `write_spans` dumps them when the run ends.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# Modules of the program that are traced. `synthetic` is left out: it makes
# the benchmark's inputs and is not part of the pipeline being measured.
MODULES = ("catalog", "container", "preprocess", "weighting", "evaluate",
           "zoo", "cli", "nn.layers", "nn.recurrent", "nn.model", "nn.optim",
           "nn.losses")

# Tree-walk helpers called once per layer per walk; a span each would only
# measure the tracer.
SKIP_METHODS = {"children", "param_count"}


class Tracer:
    def __init__(self):
        self.spans = []              # (id, parent, name, start, end)
        self._stack = []             # [span id, child seconds]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)   # name -> [seconds], on request
        self.counts = defaultdict(float)     # named counters from hooks
        self._patched = []           # (owner, attribute, original)

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, hook=None, keep_durations=False):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans[span_id] = (span_id, parent, name, start, end)
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[1]
                if keep_durations:
                    tracer.durations[name].append(dur)
            if hook is not None:
                hook(tracer, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, package, hooks=None, keep_durations=()):
        """Wrap the public functions and methods of `package`'s traced
        modules. `hooks` maps a span name to hook(tracer, args, kwargs,
        result, seconds), called after the span closes."""
        hooks = hooks or {}
        replace = {}                 # id(original) -> wrapper
        for short in MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    name = f"{short}.{attr}"
                    replace[id(obj)] = self._wrap(obj, name, hooks.get(name),
                                                  name in keep_durations)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if (meth.startswith("_") or meth in SKIP_METHODS
                                or not inspect.isfunction(fn)
                                or inspect.isgeneratorfunction(fn)):
                            continue
                        name = f"{short}.{attr}.{meth}"
                        self._patched.append((obj, meth, fn))
                        setattr(obj, meth, self._wrap(fn, name, hooks.get(name),
                                                      name in keep_durations))
        # rebind every module-level reference to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- cost -----------------------------------------------------------------

    def span_cost(self, calls=20_000, repeats=7):
        """Seconds the wrapper adds to one call: a wrapped no-op against the
        bare no-op, the median of `repeats` timings of `calls` calls each.
        Measured on a scratch tracer, so this one's spans stay as they are."""
        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "noop")
        costs = []
        for _ in range(repeats):
            times = []
            for fn in (noop, wrapped):
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - start)
            costs.append((times[1] - times[0]) / calls)
        return sorted(costs)[repeats // 2]

    # --- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
