"""In-memory spans around berglab's public functions and two scipy calls.

The tracer wraps functions from outside the package: every module attribute
(and every dict value, such as ``suites.SUITES``) that refers to a wrapped
function is replaced, so calls are caught wherever other berglab modules
look the function up.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, op, attrs]``.  ``parent`` is the span
that was open on the same thread or, for a call made on a pool thread with
no span open, the innermost span open on the thread that began the op (the
``run_suite`` waiting on the pool).  Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

# Modules whose public functions are wrapped.  ``exactnum`` and ``indices``
# are left out: their public helpers (conj_s, degree, ...) run once per
# scalar inside the elimination loops, so a span per call would cost more
# than the work; their time shows as self time of the linalg callers.
WRAPPED_MODULES = ("suites", "sop", "bergman", "ideals", "linalg", "jets", "domains")
FOREIGN = (("scipy.linalg", "eigh"), ("scipy.integrate", "quad"))


def _rref_attrs(args, result):
    rows, ncols = args[0], args[1]
    return {"rows": len(rows), "cells": len(rows) * ncols}


def _gram_attrs(args, result):
    vectors, weights = args[0], args[1]
    return {"terms": len(vectors) * len(vectors) * len(weights)}


def _jet_ideal_attrs(args, result):
    return {"indices": len(result.indices), "span": result.span_dim}


def _annihilator_attrs(args, result):
    return {"dim": len(result)}


def _suite_attrs(args, result):
    return {"instances": result.total}


# counts recorded at the span boundary, from the call's arguments and result
ATTRS = {
    "linalg.rref": _rref_attrs,
    "linalg.hermitian_gram": _gram_attrs,
    "ideals.jet_ideal": _jet_ideal_attrs,
    "ideals.annihilator": _annihilator_attrs,
    "suites.run_suite": _suite_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._root = None
        self._op = None
        self._op_stack = []  # the span stack of the thread that began the op
        self._undo = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        attrs_fn = ATTRS.get(name)
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # slices, not indexing: the op's thread may pop its stack meanwhile
            parent = (stack[-1:] or self._op_stack[-1:] or [self._root])[0]
            rec = [name, clock(), 0.0, parent, self._op, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs_fn is not None:
                rec[5] = attrs_fn(args, result)
            return result

        return wrapper

    def begin_op(self, op_id):
        """Open the root span of one op; spans opened until :meth:`end_op`
        carry ``op_id``."""
        self._op = op_id
        rec = ["op", time.perf_counter(), 0.0, None, op_id, None]
        self.spans.append(rec)
        self._root = rec
        self._op_stack = self._stack()
        self._op_stack.append(rec)

    def adopt(self, rows):
        """Append spans dumped by a child process under the open op."""
        recs = []
        for name, start, end, parent, _op, attrs in rows:
            parent = recs[parent] if parent is not None else self._root
            recs.append([name, start, end, parent, self._op, attrs])
        self.spans.extend(recs)

    def end_op(self):
        rec = self._stack().pop()
        rec[2] = time.perf_counter()
        self._root = None
        self._op = None
        self._op_stack = []

    # -- installing --------------------------------------------------------

    def install(self, callers=()):
        """Wrap the public functions of :data:`WRAPPED_MODULES` and the
        :data:`FOREIGN` calls at every berglab lookup site, and in the
        ``callers`` modules that imported them by name."""
        for mod_name in WRAPPED_MODULES:
            importlib.import_module(f"berglab.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == "berglab" or n.startswith("berglab.")]
        wrappers = {}
        for mod_name in WRAPPED_MODULES:
            mod = sys.modules[f"berglab.{mod_name}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{mod_name}.{attr}", obj)
        for pkg, attr in FOREIGN:
            mod = importlib.import_module(pkg)
            obj = getattr(mod, attr)
            wrapper = self._wrap(f"{pkg}.{attr}", obj)
            setattr(mod, attr, wrapper)
            self._undo.append((mod, attr, obj))
        for mod in modules + list(callers):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._undo.append((mod, attr, obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]
                            self._undo.append((obj, key, val))

    def uninstall(self):
        for target, key, obj in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = obj
            else:
                setattr(target, key, obj)
        self._undo = []

    # -- export ------------------------------------------------------------

    def dump(self):
        """Spans as JSON-ready rows, parents given as row indices."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            [name, start, end, index.get(id(parent)), op, attrs]
            for name, start, end, parent, op, attrs in self.spans
        ]


def self_times(rows):
    """Per-span self time: duration minus the union of its children's
    intervals (children on pool threads may overlap)."""
    children = {}
    for i, row in enumerate(rows):
        if row[3] is not None:
            children.setdefault(row[3], []).append(i)
    out = []
    for i, (name, start, end, _parent, _op, _attrs) in enumerate(rows):
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in sorted(
            (max(rows[c][1], start), min(rows[c][2], end)) for c in children.get(i, ())
        ):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(end - start - covered)
    return out
