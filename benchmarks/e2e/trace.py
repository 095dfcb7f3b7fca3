"""Spans around the served path, recorded from outside ``src/``.

:func:`install` replaces a fixed table of public callables
(``manifest.SPANS``) with wrappers that record one span per call into a
:class:`Tracer`; :func:`uninstall` puts the originals back.  Nothing
under ``src/`` knows it is being watched, so the table is also the list
of layer boundaries a later change must keep callable.

A span is ``[name, start_ns, end_ns, parent, request, phase, call,
value]``.  The client opens one root span per request (``service.server.
roundtrip``: send -> last response byte); whatever the server thread
does while that request is outstanding hangs below it, which is sound
because the driver keeps one request in flight on one connection.  Self
time is a span's duration minus its children's; the root's self time is
therefore what no wrapped callable covers -- loopback TCP, event-loop
scheduling, thread hand-off.

Generator functions (``FrameDecoder.feed``, ``QueryTask.steps``) get one
span per resumption, because the event loop runs other code between
their yields; only the first resumption counts as a call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

from manifest import RECOVER_SPANS, SPANS

ROOT_SPAN = "service.server.roundtrip"
NAME, START, END, PARENT, REQUEST, PHASE, CALL, VALUE = range(8)
FIELDS = ("name", "start_ns", "end_ns", "parent", "request", "phase", "call", "value")

#: spans whose integer return value is kept: WriteAheadLog.append returns
#: the frame's byte length
VALUE_SPANS = ("storage.wal.append",)


class Tracer:
    """An in-memory span store; one per traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self._root: "int | None" = None  # the outstanding request's root span
        self._local = threading.local()

    def begin(self, name: str, call: bool = True) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        request = self.spans[parent][REQUEST] if parent is not None else None
        index = len(self.spans)
        self.spans.append([name, 0, 0, parent, request, self.phase, call, None])
        stack.append(index)
        self.spans[index][START] = time.perf_counter_ns()
        return index

    def end(self, index: int, value: "int | None" = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[VALUE] = value
        self._local.stack.pop()

    def request_begin(self, request_id: int) -> None:
        index = len(self.spans)
        self.spans.append([ROOT_SPAN, 0, 0, None, request_id, self.phase, True, None])
        self._root = index
        self.spans[index][START] = time.perf_counter_ns()

    def request_end(self) -> None:
        self.spans[self._root][END] = time.perf_counter_ns()
        self._root = None

    # -- derived ---------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time (ns) of every span: duration minus direct children."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def totals(self, phase: str) -> dict[str, dict[str, int]]:
        """Per span name in ``phase``: self ns, calls, summed values (absent
        names read as zeros)."""
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"self_ns": 0, "calls": 0, "value": 0})
        for span, own in zip(self.spans, self.self_times()):
            if span[PHASE] != phase:
                continue
            row = out[span[NAME]]
            row["self_ns"] += own
            row["calls"] += bool(span[CALL])
            row["value"] += span[VALUE] or 0
        return out

    def count_children(self, phase: str, name: str, parent_name: str) -> int:
        return sum(
            1
            for span in self.spans
            if span[PHASE] == phase and span[NAME] == name and span[PARENT] is not None
            and self.spans[span[PARENT]][NAME] == parent_name
        )

    def check_nesting(self) -> None:
        """Raise unless every child lies inside its parent, siblings apart."""
        last_end: dict[int, int] = {}
        for span in self.spans:
            if span[END] < span[START]:
                raise AssertionError(f"span {span[NAME]} ends before it starts")
            parent = span[PARENT]
            if parent is None:
                continue
            outer = self.spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                raise AssertionError(f"{span[NAME]} escapes its parent {outer[NAME]}")
            if span[START] < last_end.get(parent, 0):
                raise AssertionError(f"{span[NAME]} overlaps a sibling under {outer[NAME]}")
            last_end[parent] = span[END]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, timed_ops: int) -> dict[str, float]:
    """``<span>.self_us_per_op`` and ``.calls_per_op`` for every span name."""
    timed = tracer.totals("timed")
    recover = tracer.totals("recover")
    reopens = max(1, recover["storage.mvcc.open"]["calls"])
    metrics: dict[str, float] = {}
    for name in SPANS:
        row, ops = (recover[name], reopens) if name in RECOVER_SPANS else (timed[name], timed_ops)
        metrics[f"{name}.self_us_per_op"] = row["self_ns"] / 1e3 / ops
        metrics[f"{name}.calls_per_op"] = row["calls"] / ops
    return metrics


# -- wrapping -------------------------------------------------------------------


def _wrap(fn, name: str, tracer: Tracer):
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = True
            try:
                while True:
                    index = tracer.begin(name, first)
                    first = False
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    yield item
            finally:
                gen.close()
    else:
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            value = None
            try:
                value = fn(*args, **kwargs)
                return value
            finally:
                tracer.end(index, value if name in VALUE_SPANS else None)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target of ``manifest.SPANS``; returns the undo list."""
    undo: list[tuple[object, str, object]] = []
    for name, targets in SPANS.items():
        for target in targets or ():
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:  # a method: patch the class
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(raw.__func__, name, tracer))
                else:
                    wrapped = _wrap(raw, name, tracer)
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:  # a function: patch every repro module that imported it by name
                fn = getattr(module, attr)
                wrapped = _wrap(fn, name, tracer)
                for mod in list(sys.modules.values()):
                    if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, key, fn))
                            setattr(mod, key, wrapped)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
