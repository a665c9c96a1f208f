"""Per-layer tracing from outside the program.

A Tracer wraps every public function of the layer modules, and every public
method of the classes they define, and binds each wrapper in place of the
original in every ``szegolab`` module namespace that holds it, so calls made
through ``from .x import f`` bindings are seen as well.  Each call records a
span (function, start, end, parent span, item, work).  ``uninstall`` puts the
originals back, so untraced rounds run the program unmodified.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "fileio", "hardy", "hankel", "inverse", "flow", "geometric")

# Work counted at a boundary, from the call's arguments and result.
WORK = {
    "geometric.f_gamma": lambda args, kwargs, result: int(np.size(args[1] if len(args) > 1 else kwargs["zeta"])),
    "flow.integrate": lambda args, kwargs, result: round(result[-1].t / result[-1].dt) if result else 0,
}


def _targets(package):
    """(span name, owner, attribute, original descriptor, function) for each public callable."""
    out = []
    for layer in LAYERS:
        mod = getattr(package, layer)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{name}", mod, name, obj, obj))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, desc in vars(obj).items():
                    fn = desc.__func__ if isinstance(desc, (classmethod, staticmethod)) else desc
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        out.append((f"{layer}.{name}.{attr}", obj, attr, desc, fn))
    return out


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.spans: list = []          # (name index, start, end, parent span, item, work)
        self.item = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, fid: int, name: str, fn):
        spans, stack, clock, work = self.spans, self._stack, time.perf_counter, WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.item,
                              work(args, kwargs, result) if work and result is not None else None)
        return wrapper

    def install(self) -> None:
        targets = _targets(self.package)
        if not self.names:
            self.names = [t[0] for t in targets] + ["item"]
        fid = {n: i for i, n in enumerate(self.names)}
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == self.package.__name__ or k.startswith(self.package.__name__ + "."))]
        for name, owner, attr, desc, fn in targets:
            wrapper = self._wrap(fid[name], name, fn)
            if inspect.isclass(owner):
                new = type(desc)(wrapper) if isinstance(desc, (classmethod, staticmethod)) else wrapper
                self._patches.append((owner, attr, desc))
                setattr(owner, attr, new)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_item(self, k: int, call):
        """Run one item under a root span named "item"."""
        self.item = k
        root = len(self.spans)
        self.spans.append(None)
        self._stack.append(root)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[root] = (len(self.names) - 1, t0, t1, -1, k, None)

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds, work."""
        n = len(self.names)
        calls = np.zeros(n, dtype=np.int64)
        incl = np.zeros(n)
        child = np.zeros(len(self.spans))
        work = np.zeros(n, dtype=np.int64)
        for fid, t0, t1, parent, _item, w in self.spans:
            calls[fid] += 1
            incl[fid] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
            if w is not None:
                work[fid] += w
        selft = np.zeros(n)
        for i, (fid, t0, t1, *_rest) in enumerate(self.spans):
            selft[fid] += (t1 - t0) - child[i]
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(selft[i]),
                       "work": int(work[i])} for i, name in enumerate(self.names)}
