"""In-memory spans and the self-time arithmetic of the traced run.

A span is one call into a wrapped function: its name, start and end on the
process clock, the index of the span that was open when it began (-1 for a
root), the operation id of the CLI command it belongs to, and optional
attributes computed after the call (sizes, byte counts). Spans stay in a list
until the traced process ends and writes them out in one piece.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, ATTRS = range(6)


class SpanRecorder:
    """Collects spans from wrapped callables of one single-threaded process."""

    def __init__(self, op: str = "", clock=time.perf_counter):
        self.op = op
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        """Return fn wrapped so that each call records a span named `name`.

        `attrs(args, kwargs, result)` runs after the clock has stopped and its
        return value is stored with the span.
        """
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op, None]
            open_.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                open_.pop()
            if attrs is not None:
                record[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        kids = [
            (max(spans[c][START], start), min(spans[c][END], end))
            for c in children.get(index, ())
        ]
        out.append(end - start - covered_length(kids))
    return out


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
