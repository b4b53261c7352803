"""Traced-run recorder: spans and counts taken from outside fcunits.

`Recorder.install()` replaces the public functions and methods listed in
TIMED and COUNTED with wrappers, wherever fcunits binds them: a function
imported with `from .x import f` is patched in every fcunits module that
holds it, because calls look the name up there.  `Recorder.restore()`
puts the originals back.

A timed wrapper records calls, total time (outermost call only, so that
recursion is not counted twice) and self time, which is the span's
duration minus the time of wrapped calls made inside it.  A counted
wrapper only counts calls; timing each field operation would swamp the
run.  Spans of the coarse layers are kept in memory with their request
and parent span; the hot ones (HOT) are aggregated only, to keep memory
bounded.  Nothing is written until the caller asks for `to_json()`.
"""

import functools
import importlib.abc
import importlib.util
import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.attribute, span name)
TIMED = (
    ("fcunits.structure", "FDAlgebra.mul", "structure.FDAlgebra.mul"),
    ("fcunits.structure", "jacobson_radical", "structure.jacobson_radical"),
    ("fcunits.structure", "count_idempotents", "structure.count_idempotents"),
    ("fcunits.structure", "primitive_idempotents",
     "structure.primitive_idempotents"),
    ("fcunits.structure", "corner_algebra", "structure.corner_algebra"),
    ("fcunits.structure", "fields_decomposition",
     "structure.fields_decomposition"),
    ("fcunits.linalg", "rref", "linalg.rref"),
    ("fcunits.linalg", "SpanBasis.add", "linalg.SpanBasis.add"),
    ("fcunits.algebra", "AlgebraElement.__mul__", "algebra.AlgebraElement.mul"),
    ("fcunits.algebra", "try_invert", "algebra.try_invert"),
    ("fcunits.cocycles", "validate_cocycle", "cocycles.validate_cocycle"),
    ("fcunits.groups", "make_group", "groups.make_group"),
    ("fcunits.fc", "instance_from_json", "fc.instance_from_json"),
    ("fcunits.fc", "verdict", "fc.verdict"),
    ("fcunits.fc", "structure_report", "fc.structure_report"),
    ("fcunits.fc", "necessary_conditions", "fc.necessary_conditions"),
    ("fcunits.fc", "check_theorem3", "fc.check_theorem3"),
    ("fcunits.fc", "check_theorem4", "fc.check_theorem4"),
    ("fcunits.fc", "check_theorem5_truncated", "fc.check_theorem5_truncated"),
    ("fcunits.fc", "probe_conjugates", "fc.probe_conjugates"),
    ("fcunits.oracle", "oracle_report", "oracle.oracle_report"),
)

COUNTED = (
    ("fcunits.fields", "Scalar.__mul__", "fields.Scalar.mul"),
    ("fcunits.fields", "Scalar.__rmul__", "fields.Scalar.mul"),
    # subtraction is addition of the negation, so __sub__ and __rsub__
    # reach __add__ once each and are counted there
    ("fcunits.fields", "Scalar.__add__", "fields.Scalar.add"),
    ("fcunits.fields", "Scalar.__radd__", "fields.Scalar.add"),
    ("fcunits.fields", "Scalar.inv", "fields.Scalar.inv"),
    ("fcunits.structure", "FDAlgebra.is_idempotent",
     "structure.FDAlgebra.is_idempotent"),
    ("fcunits.cocycles", "Cocycle.__call__", "cocycles.Cocycle.call"),
)

HOT = {"structure.FDAlgebra.mul", "linalg.rref", "linalg.SpanBasis.add",
       "algebra.AlgebraElement.mul"}

SYMPY_FACTOR_LIST = "structure.sympy_factor_list"

CAP_ERRORS = ("CapExceeded", "TooLargeToCount", "NotCommutative",
              "DimensionTooLarge")


class _PatchAfterImport(importlib.abc.MetaPathFinder):
    """Runs `callback(module)` right after module `name` is first executed,
    so a lazy import stays lazy while it is traced."""

    def __init__(self, name, callback):
        self.name = name
        self.callback = callback

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.callback(module)

        spec.loader.exec_module = exec_and_patch
        return spec


class Recorder:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.cells = 0
        self.cap_hits = 0
        self.spans = []
        self.request = None
        self._stack = []
        self._depth = Counter()
        self._patches = []
        self._finder = None
        self._caps_seen = []
        self._cap_types = ()

    # --- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._depth[name] += 1
        frame = [time.perf_counter(), 0.0, None]
        if name not in HOT:
            parent = self._stack[-1][2] if self._stack else None
            frame[2] = len(self.spans)
            self.spans.append([self.request, name, parent, frame[0], None])
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.calls[name] += 1
        self.self_time[name] += duration - frame[1]
        self._depth[name] -= 1
        if not self._depth[name]:
            self.total[name] += duration
        if self._stack:
            self._stack[-1][1] += duration
        if frame[2] is not None:
            self.spans[frame[2]][4] = end

    def _note_cap(self, exc):
        if not any(seen is exc for seen in self._caps_seen):
            self._caps_seen.append(exc)
            self.cap_hits += 1

    def run_request(self, key, fn, *args):
        """Calls fn(*args) inside a root span named 'request'."""
        self.request = key
        frame = self._enter("request")
        try:
            return fn(*args)
        finally:
            self._exit("request", frame)
            self.request = None

    # --- wrappers ------------------------------------------------------------

    def _timed(self, name, fn):
        enter, leave = self._enter, self._exit
        cap_types, note_cap = self._cap_types, self._note_cap
        count_cells = name == "linalg.rref"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_cells:
                rows = args[1]
                self.cells += len(rows) * (len(rows[0]) if rows else 0)
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            except cap_types as exc:
                note_cap(exc)
                raise
            finally:
                leave(name, frame)

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, module_name, path, make):
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            self._patch(owner, attr, make(owner.__dict__[attr]))
            return
        original = getattr(module, path)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "fcunits" or name.startswith("fcunits.")) and \
                    getattr(mod, path, None) is original:
                self._patch(mod, path, wrapped)

    def _wrap_sympy(self, sympy):
        self._patch(sympy, "factor_list",
                    self._counted(SYMPY_FACTOR_LIST, sympy.factor_list))

    def install(self):
        import fcunits.cli  # noqa: F401  binds every module patched below
        from fcunits import errors

        self._cap_types = tuple(getattr(errors, n) for n in CAP_ERRORS)
        for module_name, path, name in TIMED:
            self._wrap(module_name, path,
                       functools.partial(self._timed, name))
        for module_name, path, name in COUNTED:
            self._wrap(module_name, path,
                       functools.partial(self._counted, name))
        if "sympy" in sys.modules:
            self._wrap_sympy(sys.modules["sympy"])
        else:
            self._finder = _PatchAfterImport("sympy", self._wrap_sympy)
            sys.meta_path.insert(0, self._finder)

    def restore(self):
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        self._finder = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------------

    def to_json(self):
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "cells": self.cells,
                "cap_hits": self.cap_hits, "spans": self.spans}

    def merge(self, data):
        """Adds the aggregates of a recorder serialized by to_json()."""
        self.calls.update(data["calls"])
        for name, value in data["total"].items():
            self.total[name] += value
        for name, value in data["self"].items():
            self.self_time[name] += value
        self.cells += data["cells"]
        self.cap_hits += data["cap_hits"]
        offset = len(self.spans)
        for request, name, parent, start, end in data["spans"]:
            self.spans.append([request, name,
                               None if parent is None else parent + offset,
                               start, end])
