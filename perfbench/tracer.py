"""Spans around the public functions of the solver layers, from outside.

`Tracer.install` replaces every public function and public method defined in
the given modules with a timing wrapper, and rebinds the wrapper wherever any
loaded module of the package holds the original under a name (so
`spectrum.mode_spectral_data` is timed as well as `pencil.mode_spectral_data`).
`uninstall` restores every original.

Spans are aggregated as they close: per span name the call count, total time
and self time (span time minus the time its child spans cover), plus call
counts per (parent, child) edge. Hooks attached to a few names record counts
taken from arguments and results at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, package: str, modules: tuple[str, ...], hooks=None):
        self.package = package
        self.modules = modules
        self.hooks = hooks or {}
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.counters: defaultdict = defaultdict(float)
        self.stack: list[list] = []
        self.root_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if parent is None:
                    self.root_s += elapsed
                else:
                    parent[1] += elapsed
                    self.edges[(parent[0], name)] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def active(self, name: str) -> bool:
        """Whether a span called `name` is open."""
        return any(frame[0] == name for frame in self.stack)

    def parent(self) -> str | None:
        """Name of the innermost open span."""
        return self.stack[-1][0] if self.stack else None

    def install(self) -> None:
        modules = {s: importlib.import_module(f"{self.package}.{s}") for s in self.modules}
        loaded = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped = self._wrap(f"{short}.{attr}", value)
                    for holder in loaded:
                        for key, held in list(vars(holder).items()):
                            if held is value:
                                self._patch(holder, key, wrapped)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_methods(short, value)

    def _install_methods(self, short: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(name, value))
            elif isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr, type(value)(self._wrap(name, value.__func__)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> dict:
        """Per span name: calls, total_s and self_s; calls per parent>child edge."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
            "edges": {f"{p}>{c}": n for (p, c), n in sorted(self.edges.items())},
        }
