"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces a public function by a wrapper under every name the
program's modules bind it to, so callers that imported it with
`from .module import name` are traced too.  Spans are kept in memory as
(name, start, end, parent, op) and reduced to per-layer numbers at the end.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "orbitcert"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self.counts, out)
            return out

        return traced

    def install(self, targets: dict[str, tuple[str, ...]], hooks=None) -> dict[str, str]:
        """Wrap each target function under `metric name -> ("module.func", ...)`.

        Every binding of the function in the program's loaded modules is
        replaced.  Returns the metrics whose functions are missing, with the
        reason; a missing target never fails the run."""
        hooks = hooks or {}
        absent = {}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for metric, paths in targets.items():
            missing = []
            for path in paths:
                modname, func = path.rsplit(".", 1)
                mod = sys.modules.get(f"{PACKAGE}.{modname}")
                orig = getattr(mod, func, None) if mod is not None else None
                if not callable(orig):
                    missing.append(f"{PACKAGE}.{path} not found")
                    continue
                wrapper = self.wrap(metric, orig, hooks.get(path))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)
            if missing and len(missing) == len(paths):
                absent[metric] = "; ".join(missing)
        return absent

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = []
        for i, (s, e) in enumerate(zip(self.starts, self.ends)):
            covered, reach = 0.0, s
            for c in sorted(children.get(i, ()), key=self.starts.__getitem__):
                cs, ce = max(self.starts[c], reach), min(self.ends[c], e)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append((e - s) - covered)
        return out

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, st in zip(self.names, self.self_times()):
            seconds[name] += st
            calls[name] += 1
        return dict(seconds), dict(calls)
