"""Span tracing from outside the program.

The traced run puts wrappers around public calls into each layer of the
program; the program itself carries no instrumentation.  A span's *self
time* is its duration minus the part of its interval that its child spans
cover.  Children usually run on the same thread, nested in the parent; a
span that opens on a thread with no open span (a shard-drain thread of the
sharded frontend) takes the client thread's innermost open span as its
parent, so the time the client spends waiting on shards is covered by the
spans of the threads that did the work.  The client's own span around each
call into the program is the root; its self time is the wall time no layer
span covers, and the benchmark reports it as unattributed.  The tracer's
own work on closing a span (the coverage sum, the totals) happens inside
the parent's interval; the parent counts it as covered, so it lands in no
layer's self time but in a bookkeeping total of its own.  Self times,
unattributed time and bookkeeping add up to the client's call time.

Spans are aggregated as they close (self time, call count and an item
count per name), so tracing a long run costs no memory.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns


def _covered(children: List[tuple], start: int, end: int) -> int:
    """Length of the union of ``children`` intervals, clipped to [start, end]."""
    if not children:
        return 0
    total = 0
    run_start = run_end = None
    for child_start, child_end in sorted(children):
        child_start = max(child_start, start)
        child_end = min(child_end, end)
        if child_end <= child_start:
            continue
        if run_end is None or child_start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = child_start, child_end
        else:
            run_end = max(run_end, child_end)
    if run_end is not None:
        total += run_end - run_start
    return total


class Tracer:
    """Aggregating span recorder (see the module docstring)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._client: Optional[list] = None
        self._totals: Dict[str, list] = {}  # name -> [self ns, calls, items]
        self._bookkeeping_ns = 0

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def bind_client(self) -> None:
        """Mark the calling thread as the client whose spans adopt orphans."""
        self._client = self._stack()

    def _slot(self, name: str) -> list:
        with self._lock:
            return self._totals.setdefault(name, [0, 0, 0])

    def open(self, name: str) -> list:
        return self._open(self._slot(name))

    def _open(self, slot: list) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            client = self._client
            parent = client[-1] if client else None
        frame = [slot, _now(), [], parent, stack]
        stack.append(frame)
        return frame

    def close(self, frame: list, items: int = 0) -> None:
        end = _now()
        slot, start, children, parent, stack = frame
        stack.pop()
        own = end - start - _covered(children, start, end)
        with self._lock:
            slot[0] += own
            slot[1] += 1
            slot[2] += items
            done = _now()
            self._bookkeeping_ns += done - end
        if parent is not None:
            parent[2].append((start, done))

    def wrap(self, name: str, fn: Callable, items: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``items(args)`` counts the work one call did."""
        slot = self._slot(name)
        open_, close = self._open, self.close

        def traced(*args, **kwargs):
            frame = open_(slot)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, items(args) if items is not None else 0)

        return traced

    def self_ns(self, name: str) -> int:
        return self._totals.get(name, (0, 0, 0))[0]

    def us(self, name: str) -> float:
        return self.self_ns(name) / 1e3

    def calls(self, name: str) -> int:
        return self._totals.get(name, (0, 0, 0))[1]

    def items(self, name: str) -> int:
        return self._totals.get(name, (0, 0, 0))[2]

    def bookkeeping_us(self) -> float:
        """The tracer's own time spent closing spans."""
        return self._bookkeeping_ns / 1e3

    def reset(self) -> None:
        with self._lock:
            for slot in self._totals.values():
                slot[:] = [0, 0, 0]
            self._bookkeeping_ns = 0


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    _MISSING = object()

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, items: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper of its current value."""
        previous = vars(owner).get(attr, self._MISSING)
        setattr(owner, attr, self.tracer.wrap(name, getattr(owner, attr), items))
        self._undo.append((owner, attr, previous))

    def restore(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
