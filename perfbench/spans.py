"""Span recording, self-time accounting and the percentile rule.

Pure logic with no dependency on the program under test, so the
benchmark's own tests can exercise it on hand-built spans.

A span is one row ``[name, start, end, parent, ident]``: ``parent`` is
the index of the enclosing span (-1 at the root) and ``ident`` is set
only on per-iteration spans, as ``(campaign seed, batch, iteration)``.
Rows are appended when a span opens, so a parent always precedes its
children.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, IDENT = range(5)

#: Candidate tail percentiles, highest first (see :func:`tail_percentile`).
TAIL_PERCENTILES = ("99.9", "99", "90", "50")


class Tracer:
    """Keeps spans in memory; :meth:`wrap` times one callable as a span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = [-1]

    def wrap(
        self,
        name: str,
        fn: Callable,
        ident: Optional[Callable[[], tuple]] = None,
    ) -> Callable:
        """``fn`` recorded as a span named ``name`` on every call.

        ``ident`` is called when the span opens and its value stored in
        the span's ident slot.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1], ident() if ident else None]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()

        return traced


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover.

    Child intervals are clipped to the parent and merged first, so two
    children that overlap (or a child that outlives its parent) are not
    subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for row in spans:
        if row[PARENT] >= 0:
            children[row[PARENT]].append((row[START], row[END]))
    out = []
    for i, row in enumerate(spans):
        start, end = row[START], row[END]
        kids = children.get(i, ())
        covered = union_length(
            (max(s, start), min(e, end)) for s, e in kids if min(e, end) > max(s, start)
        )
        out.append((end - start) - covered)
    return out


def owners(spans: Sequence[list], root: str) -> List[int]:
    """Index of the innermost enclosing span named ``root`` (-1 if none)."""
    out: List[int] = []
    for i, row in enumerate(spans):
        if row[NAME] == root:
            out.append(i)
        else:
            parent = row[PARENT]
            out.append(out[parent] if parent >= 0 else -1)
    return out


def layer_totals(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, inclusive ``total`` and exclusive ``self``."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for i, row in enumerate(spans):
        agg = out.setdefault(row[NAME], {"count": 0, "total": 0.0, "self": 0.0})
        agg["count"] += 1
        agg["total"] += row[END] - row[START]
        agg["self"] += selfs[i]
    return out


def nearest_rank(sorted_samples: Sequence[float], pct: str) -> float:
    """Nearest-rank percentile of already sorted samples."""
    return sorted_samples[_rank(len(sorted_samples), pct) - 1]


def _rank(n: int, pct: str) -> int:
    return max(1, math.ceil(Fraction(pct) * n / 100))


def tail_percentile(samples: Sequence[float]) -> Tuple[Optional[str], Optional[float], int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, sample count)``; the percentile and
    value are ``None`` when there are too few samples for any candidate.
    """
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if n - _rank(n, pct) >= 10:
            return pct, nearest_rank(ordered, pct), n
    return None, None, n
