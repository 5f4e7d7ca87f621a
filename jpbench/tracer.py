"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's public entry points:
set-up calls are timed where the benchmark makes them, and calls the
program makes internally (decode, reconstruct, recovery, checkpoints)
are timed by wrapping the class or module attribute for the duration of
one traced operation.  Nothing here is imported by the program itself.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Collects ``(id, name, start, end, parent, thread, counts)`` spans.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the same thread.  A span opened on a pool
    thread with nothing open there takes the innermost span of the thread
    that created the tracer, which is the thread that submitted the work.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stacks: Dict[int, List[int]] = {}
        self._owner = threading.get_ident()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            parent = stack[-1] if stack else None
            if parent is None and ident != self._owner:
                owner_stack = self._stacks.get(self._owner)
                parent = owner_stack[-1] if owner_stack else None
            span = {
                "id": len(self.spans),
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "thread": ident,
                "counts": {},
            }
            self.spans.append(span)
            stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        with self._lock:
            self._stacks[span["thread"]].pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        count: Optional[Callable[[dict, tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a spanned call until
        :meth:`unwrap_all`; *count* may add counts from the call's
        arguments and result to the span."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        function = original.__func__ if isinstance(original, classmethod) else original
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(record)
            if count is not None:
                count(record["counts"], args, result)
            return result

        traced.__wrapped__ = function
        self._patches.append((owner, attribute, original))
        setattr(
            owner,
            attribute,
            classmethod(traced) if isinstance(original, classmethod) else traced,
        )

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        duration = span["end"] - span["start"]
        covered = _union_length(
            [
                (max(start, span["start"]), min(end, span["end"]))
                for start, end in children.get(span["id"], [])
                if end > span["start"] and start < span["end"]
            ]
        )
        result[span["id"]] = duration - covered
    return result


def layer_totals(spans: List[dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per span name: summed self time and summed counts."""
    own = self_times(spans)
    times: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for span in spans:
        times[span["name"]] = times.get(span["name"], 0.0) + own[span["id"]]
        for key, value in span["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return times, counts


def unaccounted_fraction(spans: List[dict], window: str) -> float:
    """Share of the spans named *window* that no other span covers."""
    windows = [(s["start"], s["end"]) for s in spans if s["name"] == window]
    inner = [
        (s["start"], s["end"]) for s in spans if s["name"] != window
    ]
    total = sum(end - start for start, end in windows)
    if total <= 0:
        return 0.0
    covered = 0.0
    for lo, hi in windows:
        covered += _union_length(
            [
                (max(start, lo), min(end, hi))
                for start, end in inner
                if end > lo and start < hi
            ]
        )
    return 1.0 - covered / total
