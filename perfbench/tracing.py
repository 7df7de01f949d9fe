"""Spans around the program's public calls, recorded from outside it.

A :class:`Tracer` patches timing wrappers onto classes of the ``repro``
package for the length of a traced session and removes them after;
nothing under ``src/`` knows it is traced.  Each call becomes a span
``(name, start, end, parent, request id)``; a span's parent is the
innermost span open when it started, which is exact because the whole
serving stack runs on one thread.  Each ``submit`` span carries the
client's request id, and :attr:`Tracer.links` ties every request id to
the ``dispatch`` span that served it.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The parent (and request id) recorded for a span that has none.
NO_PARENT = -1


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        #: ``(request id, dispatch span)`` pairs.
        self.links = array("q")
        #: Per-request wait from ``submit`` to the start of its dispatch.
        self.queue_waits = array("d")
        self.batch_sizes = array("i")
        #: Keys handled per span name, where the call takes a key batch.
        self.keys: Dict[str, int] = {}
        #: Request id the next ``submit`` belongs to (set by the client).
        self.request_id = NO_PARENT
        self._stack: List[int] = []
        self._futures: Dict[int, int] = {}
        self._patches: List[Tuple[type, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    # -- recording ----------------------------------------------------------

    def open(self, code: int, rid: int = NO_PARENT) -> int:
        """Start a span; returns its index (close it with :meth:`close`)."""
        index = len(self.name)
        stack = self._stack
        self.name.append(code)
        self.parent.append(stack[-1] if stack else NO_PARENT)
        self.rid.append(rid)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def patch(
        self,
        owner: type,
        attr: str,
        name: str,
        keys_arg: Optional[int] = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span named ``name``.

        ``keys_arg`` is the position of a key batch among the call's
        arguments (``self`` is position 0); its length is added to
        :attr:`keys` under ``name``.
        """
        original = owner.__dict__[attr]
        code = self.code(name)
        opened, closed = self.open, self.close
        counts = self.keys
        counts.setdefault(name, 0)

        def traced(*args, **kwargs):
            if keys_arg is not None:
                counts[name] += len(args[keys_arg])
            index = opened(code)
            try:
                return original(*args, **kwargs)
            finally:
                closed(index)

        self._install(owner, attr, traced)

    def patch_submit(self, owner: type, name: str) -> None:
        """Wrap ``MicroBatcher.submit``: tag the span and future with the
        client's request id."""
        original = owner.__dict__["submit"]
        code = self.code(name)
        futures = self._futures

        def traced(batcher, op, key, value=None):
            rid = self.request_id
            index = self.open(code, rid)
            try:
                future = original(batcher, op, key, value)
            finally:
                self.close(index)
            futures[id(future)] = rid
            return future

        self._install(owner, "submit", traced)

    def patch_dispatch(self, owner: type, name: str) -> None:
        """Wrap ``MicroBatcher.dispatch``: link requests, record waits."""
        original = owner.__dict__["dispatch"]
        code = self.code(name)
        futures = self._futures

        def traced(batcher, batch):
            index = self.open(code)
            started = self.start[index]
            links, waits = self.links, self.queue_waits
            for request in batch:
                rid = futures.pop(id(request.future), NO_PARENT)
                links.append(rid)
                links.append(index)
                waits.append(started - request.enqueued_at)
            self.batch_sizes.append(len(batch))
            try:
                return original(batcher, batch)
            finally:
                self.close(index)

        self._install(owner, "dispatch", traced)

    def _install(self, owner: type, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the span columns."""
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "rid": np.array(self.rid, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Write every span and link as one ``.npz`` (names as JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(json.dumps(self.names)),
            links=np.array(self.links, dtype=np.int64).reshape(-1, 2),
            **self.arrays(),
        )


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval.  Siblings never
    overlap: every traced call runs on the event-loop thread, so a span
    closes before the next one at its level opens.
    """
    own = end - start
    child = parent != NO_PARENT
    up = parent[child]
    covered = np.minimum(end[child], end[up]) - np.maximum(start[child], start[up])
    own -= np.bincount(up, weights=np.maximum(covered, 0.0), minlength=own.size)
    return own


def self_time_by_name(tracer: Tracer) -> Dict[str, float]:
    """Total self time per span name."""
    spans = tracer.arrays()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    totals = np.bincount(spans["name"], weights=own, minlength=len(tracer.names))
    return {name: float(totals[code]) for code, name in enumerate(tracer.names)}


def total_by_name(tracer: Tracer) -> Dict[str, float]:
    """Total duration (children included) per span name."""
    spans = tracer.arrays()
    totals = np.bincount(
        spans["name"],
        weights=spans["end"] - spans["start"],
        minlength=len(tracer.names),
    )
    return {name: float(totals[code]) for code, name in enumerate(tracer.names)}


def count_by_name(tracer: Tracer) -> Dict[str, int]:
    counts = np.bincount(tracer.arrays()["name"], minlength=len(tracer.names))
    return {name: int(counts[code]) for code, name in enumerate(tracer.names)}


def root_time(tracer: Tracer) -> float:
    """Time covered by spans that have no parent."""
    spans = tracer.arrays()
    roots = spans["parent"] == NO_PARENT
    return float((spans["end"][roots] - spans["start"][roots]).sum())


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (nearest rank) and the sample count.

    Nearest rank returns a value that was observed, and needs no
    interpolation between the two samples around a sparse tail.
    """
    count = len(samples)
    if count == 0:
        return float("nan"), 0
    values = np.array(samples, dtype=np.float64)
    return float(np.percentile(values, q, method="inverted_cdf")), count
