"""Spans recorded around calls into locrel, from outside the package.

The tracer replaces chosen functions and methods with wrappers that record
one span per call: its id, its parent span's id, its name and its start and
end times. A module-level function is replaced in every ``locrel`` module
that holds it, including those that bound it with ``from .x import y``, so
nested calls become child spans. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans; ``clock`` is replaceable so tests can drive time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.spans = []  # (span id, parent id, name id, start, end); parent 0 is the root
        self.counters = defaultdict(int)
        self._stack = [0]
        self._next_id = 1
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name_id, start):
        end = self.clock()
        self._stack.pop()
        self.spans.append((sid, parent, name_id, start, end))

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        name_id = self._name_id(name)
        sid, parent = self._enter()
        start = self.clock()
        try:
            yield
        finally:
            self._exit(sid, parent, name_id, start)

    def wrap(self, name, fn, on_return=None):
        """``fn`` recording a span per call; ``on_return(args, kwargs, result)``
        may return {counter: amount} to add to the run's computed counters."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid, parent, name_id, start)
            if on_return is not None:
                for key, amount in on_return(args, kwargs, result).items():
                    self.counters[key] += amount
            return result

        return traced

    def install(self, package, targets, hooks=None):
        """Wrap each ``module.function`` or ``module.Class.method`` of a package.

        Span names are the target names; ``hooks`` maps a target name to an
        ``on_return`` callback.
        """
        hooks = hooks or {}
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for target in targets:
            module_name, _, attr = target.partition(".")
            module = sys.modules[f"{package}.{module_name}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self.wrap(target, original, hooks.get(target)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(target, original, hooks.get(target))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, first=0):
        """{name: (calls, self seconds, total seconds)} over the spans from index ``first`` on.

        A span's self time is its duration minus the part of its interval
        that its child spans cover; its total time is its whole duration.
        """
        spans = self.spans[first:]
        children = defaultdict(list)
        for sid, parent, _, start, end in spans:
            children[parent].append((start, end))
        out = {}
        for sid, _, name_id, start, end in spans:
            covered = _covered(children.get(sid, ()), start, end)
            calls, self_s, total_s = out.get(self.names[name_id], (0, 0.0, 0.0))
            out[self.names[name_id]] = (calls + 1, self_s + (end - start) - covered, total_s + end - start)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
