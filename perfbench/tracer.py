"""Outside-in span tracer for the benchmark's traced run.

Nothing in the program is edited: :meth:`Tracer.install` replaces the class
attributes of each layer's public entry points with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back, so untraced code pays
nothing. Spans live in memory as ``[name, parent, request, start, end]``
rows; a span's parent is the span open when it started, and its request
is the job id (replay) or ``(job_id, seq)`` (serving) being worked on.

Two aggregates come out of a span list:

- *inclusive* time of a name: the summed duration of its spans that are
  not nested inside another span of the same layer (the prefix before the
  first dot), so a detector pool's inner fits are not counted twice;
- *self* time of a name: each span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

NAME, PARENT, REQUEST, START, END = range(5)


class Tracer:
    """In-memory span recorder plus exact event counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: List[int] = []
        self._patches: List[Tuple[type, str, object]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.request, self.clock(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def relabel(self, first: int, request) -> None:
        """Set the request of span ``first`` and every span opened after it."""
        for row in self.spans[first:]:
            row[REQUEST] = request

    # -- patching -------------------------------------------------------
    def wrap(self, fn, name, before=None, after=None):
        """Timing wrapper around ``fn``.

        ``name`` is a string or a callable of the call's positional
        arguments. ``before(tracer, args)`` runs ahead of the span and its
        return value reaches ``after(tracer, sid, args, result, state)``,
        which runs once the span has closed.
        """
        tracer = self
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(tracer, args) if before is not None else None
            sid = tracer.open(name_of(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(tracer, sid, args, out, state)
            return out

        return traced

    def install(self, targets: Sequence[tuple]) -> None:
        """Wrap ``(owner, attr, name[, before[, after]])`` class attributes."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, *hooks in targets:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, *hooks))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def installed(self, targets: Sequence[tuple]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        """Dump spans and counters as JSON (once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [name, parent, _jsonable(req), start, end]
            for name, parent, req, start, end in self.spans
        ]
        with path.open("w") as fh:
            json.dump(
                {
                    "columns": ["name", "parent", "request", "start", "end"],
                    "spans": rows,
                    "counts": dict(self.counts),
                },
                fh,
            )


def _jsonable(request):
    return list(request) if isinstance(request, tuple) else request


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per-name span counts, inclusive seconds and self seconds."""
    child_time: Dict[int, float] = defaultdict(float)
    for row in spans:
        if row[PARENT] >= 0:
            child_time[row[PARENT]] += row[END] - row[START]
    count: Counter = Counter()
    inclusive: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    for sid, row in enumerate(spans):
        name = row[NAME]
        duration = row[END] - row[START]
        count[name] += 1
        self_time[name] += duration - child_time[sid]
        if not _nested_in_layer(spans, row, _layer(name)):
            inclusive[name] += duration
    return {"count": dict(count), "inclusive": dict(inclusive), "self": dict(self_time)}


def _nested_in_layer(spans, row, layer: str) -> bool:
    parent = row[PARENT]
    while parent >= 0:
        if _layer(spans[parent][NAME]) == layer:
            return True
        parent = spans[parent][PARENT]
    return False


def total(summary: Dict[str, Dict[str, float]], kind: str, prefix: str, suffix: str):
    """Sum ``summary[kind]`` over names starting with ``prefix`` and ending
    with ``suffix``."""
    return sum(
        v
        for k, v in summary[kind].items()
        if k.startswith(prefix) and k.endswith(suffix)
    )
