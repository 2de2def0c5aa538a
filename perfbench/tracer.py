"""In-memory span recorder for the benchmark's traced runs.

A :class:`Tracer` wraps callables at layer boundaries (module functions,
methods, classmethods) without editing the program: each wrapped call
becomes one span ``(id, name, start, end, parent)`` held in memory, and
an optional hook turns the call's arguments and result into counters.
Spans nest per thread, so a layer's *self time* is its span duration
minus the part of that interval its child spans cover
(:func:`self_times`).  :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: The package whose modules :meth:`Tracer.wrap_function` rebinds.
PACKAGE = "repro"


class Tracer:
    """Records spans and counters; installs and removes wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: Finished spans as ``(id, name, start, end, parent_id)``;
        #: ``parent_id`` is 0 for a root span.
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        #: Processes forked after install (pool workers) inherit the
        #: wrappers; their spans could never be read, so they record none.
        self._pid = os.getpid()

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "tuple | None":
        """The innermost open span of this thread as ``(id, name)``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open_names(self) -> list[str]:
        """Names of this thread's open spans, outermost first."""
        return [name for _, name in self._stack()]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*.

        A call made while the innermost open span already has the same
        name (a layer calling back into itself, e.g. a one-shot solve
        that factors and then solves) joins that span instead of
        opening a nested one, so calls are not counted twice.
        """
        stack = self._stack()
        if (stack and stack[-1][1] == name) or os.getpid() != self._pid:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record an interval measured by hand (e.g. a wait between two
        wrapped calls) as a child of the current span."""
        cur = self.current()
        self.spans.append((next(self._ids), name, start, end,
                           cur[0] if cur else 0))

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    # -- wrapping ------------------------------------------------------
    def _wrapper(self, name, fn, on_call=None, before=None):
        """A traced stand-in for *fn*.  *name* is a span name or a
        callable returning one at call time; ``before(tracer)`` runs
        before the span opens and ``on_call(tracer, args, kwargs,
        result)`` after it closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer)
            span = name() if callable(name) else name
            result = tracer.call(span, fn, *args, **kwargs)
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        return traced

    def wrap_attr(self, owner, attr: str, name, on_call=None,
                  before=None) -> None:
        """Replace ``owner.attr`` (a module function, or a method,
        classmethod or staticmethod defined on the class *owner*) with a
        traced version."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrapper(name, raw.__func__, on_call,
                                          before))
        else:
            new = self._wrapper(name, raw, on_call, before)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def wrap_function(self, fn, name, on_call=None, before=None) -> None:
        """Rebind every module-level reference to *fn* in the loaded
        modules of ``PACKAGE`` (the defining module and every module
        that imported the name) to one traced version."""
        traced = self._wrapper(name, fn, on_call, before)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans (one JSON array per line) and counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> tuple[list[tuple], dict]:
    """Read a :meth:`Tracer.dump` file back as ``(spans, counters)``."""
    with open(path) as fh:
        counters = json.loads(fh.readline())["counters"]
        spans = [tuple(json.loads(line)) for line in fh if line.strip()]
    return spans, counters


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its direct children."""
    children: dict[int, list] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, []), start, end)
            for sid, _, start, end, _ in spans}


def regroup(spans: list[tuple], members) -> list[tuple]:
    """The spans whose name is in *members*, each re-parented to its
    nearest ancestor that is also a member (0 when there is none)."""
    parent_of = {sid: parent for sid, _, _, _, parent in spans}
    name_of = {sid: name for sid, name, _, _, _ in spans}
    out = []
    for sid, name, start, end, parent in spans:
        if name not in members:
            continue
        while parent and name_of.get(parent) not in members:
            parent = parent_of.get(parent, 0)
        out.append((sid, name, start, end, parent))
    return out


def by_layer(spans: list[tuple], kernels=frozenset()) -> dict[str, dict]:
    """Per span name: number of spans, total (inclusive) time and total
    self time.

    Spans named in *kernels* form their own group: the self time of a
    stage is taken against its child *stages* only, and a kernel's
    against its child kernels only.  Stage self times then still add up
    to the wall time of the operation, and the kernels (called from
    many stages) are reported beside them.
    """
    names = {name for _, name, _, _, _ in spans}
    own: dict[int, float] = {}
    for group in (names - set(kernels), names & set(kernels)):
        own.update(self_times(regroup(spans, group)))
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _ in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[sid]
    return dict(out)
