"""Call tracing for the ma6 modules, installed from outside the package.

``Tracer.install()`` replaces every public function of the traced ma6
modules, and every public method of their public classes, by a wrapper
that records one span per call: (name, op, parent span, start, end).  The
wrapper is installed under every name a module binds the function to, so a
call through a re-import (``ma6.classify.pfaffian``, ``ma6.fields.pfaffian``)
or through the package namespace is counted as the defining function
(``hitchin.pfaffian``).  Calls a module makes to a name of its own go
through its globals and are counted too.

Only calls made while ``op`` is set (0 or more) are recorded, so input
generation and oracle checks between ops leave no spans.  Spans are kept in
memory in flat integer arrays and written out by ``dump()``.  ``summary()``
reduces them to calls and self time per name; self time is a span's
duration minus the durations of its direct children, scaled by its op's
host-speed factor (calib.py).  The clock is ``Speedometer.clock_ns`` of the
Speedometer sampling the ops, so sampling ticks are not in any span.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
from array import array

MODULES = ("exterior", "symplectic", "hitchin", "lr", "classify", "poly",
           "fields", "casestudies", "octonion", "documents")

# Index bookkeeping called from the innermost loops (once per coefficient
# pair in a wedge, once per KForm built).  They are not layer boundaries,
# and a span per call would multiply the traced run's time and memory.
UNTRACED = {"exterior.dim_grade", "exterior.merge_sign", "exterior.perm_sign_sort"}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.span_name = array("q")
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []
        self._wrapped = {}
        self.op = -1

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        names_a, ops_a = self.span_name, self.span_op
        parents, starts, ends, stack = (self.span_parent, self.span_start,
                                        self.span_end, self._stack)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op < 0:
                return fn(*args, **kwargs)
            idx = len(starts)
            names_a.append(nid)
            ops_a.append(op)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _wrapper_for(self, fn, name):
        key = id(fn)
        if key not in self._wrapped:
            self._wrapped[key] = (fn, self._wrap(fn, name))
        return self._wrapped[key][1]

    def install(self, *callers):
        """Wrap the public functions and methods of every traced module, and
        the ma6 functions that the ``callers`` modules imported by name."""
        mods = {m: importlib.import_module(f"ma6.{m}") for m in MODULES}
        pkg = importlib.import_module("ma6")
        for m, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if (inspect.isclass(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._wrap_class(m, val)
        for mod in [*mods.values(), pkg, *callers]:
            for attr, val in list(vars(mod).items()):
                name = self._function_name(attr, val)
                if name is not None:
                    setattr(mod, attr, self._wrapper_for(val, name))

    @staticmethod
    def _function_name(attr, val):
        if attr.startswith("_") or not callable(val) or inspect.isclass(val):
            return None
        if not (inspect.isfunction(val) or hasattr(val, "cache_info")):
            return None
        module = getattr(val, "__module__", "") or ""
        if not module.startswith("ma6."):
            return None
        m = module.split(".", 1)[1]
        name = f"{m}.{val.__name__}"
        if m not in MODULES or name in UNTRACED or val.__name__.startswith("_"):
            return None
        return name

    def _wrap_class(self, m, cls):
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{m}.{cls.__name__}.{attr}"
            if isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._wrap(val.__func__, name)))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(val.__func__, name)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, name))

    def summary(self, scale):
        """{name: [calls, self_ns]} over every recorded span; ``scale[op]``
        converts op ``op``'s times to the reference host speed."""
        n = len(self.span_start)
        child = [0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_ns[nid] += (ends[i] - starts[i] - child[i]) * scale[self.span_op[i]]
        return {name: [calls[i], self_ns[i]] for i, name in enumerate(self.names)}

    def dump(self, path, scale):
        """Write the summary (JSON) and the raw spans (int64 columns) next to
        it; returns the summary."""
        summary = self.summary(scale)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start),
                       "columns": ["name", "op", "parent", "start_ns", "end_ns"],
                       "summary": summary}, fh)
        with open(path[:-len(".json")] + ".spans", "wb") as fh:
            for col in (self.span_name, self.span_op, self.span_parent,
                        self.span_start, self.span_end):
                col.tofile(fh)
        return summary
