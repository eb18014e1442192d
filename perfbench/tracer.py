"""Span tracer that wraps the package's public functions from outside.

``install`` wraps every public module-level function of every loaded
``delpoint`` module, plus the classmethod constructors of public classes,
and rebinds each wrapper wherever the original is bound: ``snr.phi`` gets
the same wrapper as ``gauss.phi``, so calls through imported names are
seen too.  Functions called only inside their own module through a
private name are not wrapped; their time is self time of the caller.

Each call records one span: name, parent span, start, end and whether it
raised.  Spans stay in memory; ``summary`` turns them into per-function
self time (duration minus the time covered by child spans), call counts
and error counts, plus the work counters of ``COUNTERS``.  Everything
runs in one thread, so no span ever waits.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


def _scan_work(args, kwargs, result):
    # one pass over X (n, d) and y, writing two length-n arrays
    n, d = args[0].shape
    return {"rows": n,
            "bytes_computed": 8 * (n * d + 3 * n + 2 * d),
            "flops_computed": n * (8 * d + 3)}


def _skips(args, kwargs, result):
    cfg = args[0]
    if cfg.protocol != "perfect_delete":
        return {}
    steps = [e for log in result.deletions_log for e in log]
    return {"perfect_delete_steps": len(steps),
            "perfect_delete_skips": sum(e is None for e in steps)}


# Work counters, keyed by span name: f(args, kwargs, result) -> increments.
COUNTERS = {
    "kernels.scan_norms": _scan_work,
    "gauss.phi": lambda a, k, r: {"elems": np.size(a[0])},
    "core.load_csv": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "selector.selection_to_json": lambda a, k, r: {"bytes": len(r)},
    "sim.run_protocol": _skips,
}


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and counter."""
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records a span ``name``."""
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        index = self._name_index[name]
        count = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.span_name)
            self.span_name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            self.failed.append(0)
            stack.append(span)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[span] = 1
                raise
            finally:
                self.end[span] = perf_counter_ns()
                self.start[span] = t0
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return traced

    def spans(self) -> int:
        return len(self.span_name)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: self_s, total_s, calls, errors, plus counters."""
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        names = np.frombuffer(self.span_name, dtype=np.int32)
        failed = np.frombuffer(self.failed, dtype=np.int8)
        out = {}
        for i, name in enumerate(self.names):
            mask = names == i
            out[name] = {"self_s": float((dur[mask] - child[mask]).sum()),
                         "total_s": float(dur[mask].sum()),
                         "calls": int(mask.sum()),
                         "errors": int(failed[mask].sum())}
        for key, value in self.counters.items():
            name, _, counter = key.rpartition(".")
            out[name][counter] = value
        return out


def _public_callables(module):
    """(attribute, function) pairs defined in ``module`` with public names."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap delpoint's public functions and rebind every reference."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "delpoint"
                                     or name.startswith("delpoint."))]
    wrappers: dict[int, dict[str, object]] = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2].lstrip("_")
        for attr, fn in _public_callables(module):
            wrappers.setdefault(id(fn), {})[attr] = tracer.wrap(
                f"{layer}.{attr}", fn)
        for cls_name, cls in vars(module).items():
            if (cls_name.startswith("_") or not isinstance(cls, type)
                    or cls.__module__ != module.__name__):
                continue
            for attr, member in list(vars(cls).items()):
                if isinstance(member, classmethod) and not attr.startswith("_"):
                    setattr(cls, attr, classmethod(
                        tracer.wrap(f"{layer}.{attr}", member.__func__)))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            by_name = wrappers.get(id(obj))
            if by_name:
                # an alias such as scan_norms = scan_norms_numpy keeps
                # the name it is imported under elsewhere
                setattr(module, attr,
                        by_name.get(attr, next(iter(by_name.values()))))
