"""Layer spans recorded from outside the program.

`Tracer.install()` wraps every public module-level function of the nine
qideal layer modules, at every place the package binds it (the defining
module, every module that imported it by name, and the package root).
Each wrapped call appends one `(name, start, end, parent)` span to an
in-memory list; `dump()` writes the spans and a few layer counters as
JSON at the end.  Private helpers are not wrapped, so a private helper
called from another module stays billed to its caller's span.

`summarize()` turns span files into per-layer self time and call counts.
A layer's self time is the time its spans cover minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("quantale", "qorder", "fuzzy", "ideals", "completion", "scott",
          "suites", "io", "cli")
DECIDERS = ("ideals.is_flat", "ideals.is_irreducible", "ideals.is_forward_cauchy")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self._refused = set()

    def install(self):
        """Import every layer and rebind its public functions to wrappers."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qideal.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and obj.__qualname__ == name):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "qideal" and not modname.startswith("qideal."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        return self

    def _wrap(self, fn, span_name):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "BudgetExceeded" and id(exc) not in self._refused:
                    self._refused.add(id(exc))
                    self.counters[span_name.split(".")[0] + ".budget_refusals"] += 1
                raise
            finally:
                spans[idx] = (span_name, start, clock(), parent)
                stack.pop()
            self._observe(span_name, args, result)
            return result

        return traced

    def _observe(self, span_name, args, result):
        c = self.counters
        if span_name == "fuzzy.enumerate_monotone_sets":
            A = args[0]
            c["fuzzy.sets_emitted"] += len(result)
            c["fuzzy.candidates"] += A.quantale.n ** A.n
        elif span_name in DECIDERS:
            c["ideals.decided"] += 1
            c["ideals.accepted"] += bool(result[0])
        elif span_name == "scott.generate_scott_structure":
            c["scott.members"] += len(result.members)

    def dump(self, directory):
        """Write this process's spans and counters to `directory`."""
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def summarize(paths):
    """Per-layer self time, calls and counters summed over span files."""
    self_s, calls, counters = Counter(), Counter(), Counter()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent), inner in zip(spans, child_time):
            layer = name.split(".")[0]
            self_s[layer] += end - start - inner
            calls[layer] += 1
        counters.update(data["counters"])
    return self_s, calls, counters
