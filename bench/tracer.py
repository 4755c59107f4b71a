"""Span tracer that wraps library functions from outside the library.

A traced run rebinds module and class attributes of ``shiftlab`` to thin
wrappers.  Each call records one span (name, start, end, parent, query id);
spans stay in memory and are written out once the run ends.  A span's self
time is its duration minus the durations of its direct children; since the
program is single-threaded, spans nest strictly and the self times of all
spans add up to the time spent inside outermost spans.

Wrapped names are resolved at install time.  A name that no longer exists in
the library is reported as absent instead of failing, so the benchmark keeps
running on versions that have deleted or moved a helper.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field


@dataclass
class Target:
    """One wrapped callable: ``module:qualname`` reported as ``metric``.

    ``count`` optionally maps (result, args) to {counter name: increment}.
    A qualname ending in ``.*`` expands to every class in the module's
    hierarchy under the given base that defines the method itself.
    """

    module: str
    qualname: str
    metric: str
    count: object = None


@dataclass
class Tracer:
    targets: list
    names: list = field(default_factory=list)
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    parents: array = field(default_factory=lambda: array("l"))
    queries: array = field(default_factory=lambda: array("l"))
    name_ids: array = field(default_factory=lambda: array("l"))
    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    absent: set = field(default_factory=set)
    outer_s: float = 0.0
    active: bool = False     # spans are recorded only while this is set
    query_id: int = -1
    _stack: list = field(default_factory=list)
    _child: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- recording ------------------------------------------------------------

    def _name_id(self, metric):
        if metric not in self.calls:
            self.calls[metric] = 0
            self.self_s[metric] = 0.0
            self.names.append(metric)
        return self.names.index(metric)

    def wrap(self, fn, metric, count):
        name_id = self._name_id(metric)
        perf = time.perf_counter
        stack, child = self._stack, self._child
        starts, ends, parents = self.starts, self.ends, self.parents
        queries, name_ids = self.queries, self.name_ids
        calls, self_s, tracer = self.calls, self.self_s, self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(stack[-1] if stack else -1)
            queries.append(tracer.query_id)
            name_ids.append(name_id)
            stack.append(idx)
            child.append(0.0)
            t0 = perf()
            starts[idx] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                ends[idx] = t1
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                elif tracer.query_id >= 0:
                    tracer.outer_s += dur
                calls[metric] += 1
                self_s[metric] += dur - inner
            if count is not None:
                for key, inc in count(result, args).items():
                    if inc is None:
                        tracer.absent.add(key)
                    else:
                        tracer.counters[key] = tracer.counters.get(key, 0) + inc
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", metric)
        return traced

    # -- installation ---------------------------------------------------------

    def _resolve(self, target):
        """[(owner, attr, original)] for a target, or [] when it is absent."""
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return []
        parts = target.qualname.split(".")
        if parts[-1] == "*":
            return self._resolve_overrides(module, parts[:-1])
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return []
        original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else \
            getattr(owner, parts[-1], None)
        if not callable(original):
            return []
        return [(owner, parts[-1], original)]

    @staticmethod
    def _resolve_overrides(module, parts):
        base = module
        for part in parts[:-1]:
            base = getattr(base, part, None)
            if base is None:
                return []
        method = parts[-1]
        if not isinstance(base, type):
            return []
        found, todo = [], [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            original = cls.__dict__.get(method)
            if callable(original):
                found.append((cls, method, original))
        return found

    def install(self):
        """Wrap every target and rebind each by-name import of it."""
        for target in self.targets:
            self._name_id(target.metric)
            resolved = self._resolve(target)
            if not resolved:
                self.absent.add(target.metric)
                continue
            for owner, attr, original in resolved:
                wrapper = self.wrap(original, target.metric, target.count)
                self._rebind(owner, attr, original, wrapper)
                if not isinstance(owner, type):
                    for module in self._library_modules():
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._rebind(module, key, original, wrapper)

    @staticmethod
    def _library_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "shiftlab" or name.startswith("shiftlab."))]

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    @property
    def installed(self):
        return bool(self._undo)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ---------------------------------------------------------------

    def span_count(self):
        return len(self.starts)

    def write(self, path):
        """Spans as gzip TSV: name, start, end, parent index, query id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\tquery\n")
            names = self.names
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\t{self.queries[i]}\n")
