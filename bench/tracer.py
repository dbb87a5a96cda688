"""Spans around calls into the proxgml package, recorded from outside it.

A traced function is wrapped at every name through which package code looks
it up (``proxgml.proximal.solve_line``, ``proxgml.solve_line``, ...), found
by identity with the original function object, so the wrapper keeps working
when a function moves or is re-exported.  A function that no longer exists
is reported as absent; one that exists but is never called reports zero
calls.  Functions of other packages (``scipy.sparse.linalg.spsolve``) are
reached through the module object that package code holds, which is
replaced by a copy whose attribute is wrapped.

Spans live in flat arrays (name id, start, end, parent index) and are
written out when the run ends.  Self time, a span's duration minus the
durations of its child spans, is accumulated as spans close.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import types
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.outer_s: dict[str, float] = {}  # excluding calls nested in the same name
        self.nested: dict[str, int] = {}  # calls made inside a call of the same name
        self._open_by_name: dict[int, int] = {}
        self.absent: list[str] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
            self.outer_s[name] = 0.0
            self.nested[name] = 0
        return self._ids[name]

    def open(self, nid: int) -> None:
        depth = self._open_by_name.get(nid, 0)
        if depth:
            self.nested[self.names[nid]] += 1
        self._open_by_name[nid] = depth + 1
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([len(self.name), nid, 0.0])
        self.name.append(nid)
        self.end.append(0.0)
        self.start.append(perf_counter())

    def close(self) -> None:
        t = perf_counter()
        idx, nid, child = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        if self._stack:
            self._stack[-1][2] += dur
        name = self.names[nid]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self._open_by_name[nid] -= 1
        if not self._open_by_name[nid]:
            self.outer_s[name] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self.open(self._id(name))
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn, observe=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self, package: str, targets: dict[str, tuple[str, str]], observers=None) -> None:
        """Wrap each target ``span name -> (module, attribute)``.

        Every global of a ``package`` module that is the target function, or
        the target's (foreign) module, is rebound for the life of the
        tracer; ``uninstall`` restores them.
        """
        observers = observers or {}
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == package or n.startswith(package + "."))]
        for span_name, (mod_name, attr) in targets.items():
            self._id(span_name)
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                owner = None
            original = getattr(owner, attr, None)
            if not callable(original):
                if span_name not in self.absent:
                    self.absent.append(span_name)
                continue
            wrapper = self.wrap(span_name, original, observers.get(span_name))
            foreign = not (mod_name == package or mod_name.startswith(package + "."))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
                    elif foreign and value is owner:
                        proxy = types.ModuleType(owner.__name__)
                        proxy.__dict__.update(vars(owner))
                        setattr(proxy, attr, wrapper)
                        self._rebind(mod, key, proxy)

    def _rebind(self, mod, key, value) -> None:
        self._bindings.append((mod, key, getattr(mod, key)))
        setattr(mod, key, value)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._bindings):
            setattr(mod, key, value)
        self._bindings.clear()

    def snapshot(self) -> tuple[dict[str, int], dict[str, int]]:
        return dict(self.calls), dict(self.nested)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
