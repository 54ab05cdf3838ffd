"""Trace reduction: self time, depth, and end-to-end attribution.

Pure functions over plain span tuples, so the benchmark's tests can
check them on synthetic traces with known answers.

* A span's **self time** is its duration minus the part of its interval
  that its children cover (children clipped to the parent, overlaps
  among children counted once).
* **Attribution** splits one end-to-end window among spans: every
  instant goes to the deepest span covering it, and instants no span
  covers are *unattributed*. With properly nested spans this equals
  each span's self time inside the window, and the layer totals plus
  the unattributed time add up to the window exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]
#: (start, end, depth, layer) — one span placed for attribution.
Placed = Tuple[float, float, float, str]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Interval, children: Iterable[Interval]) -> float:
    """``span``'s duration minus the interval its children cover."""
    start, end = span
    clipped = [(max(start, c0), min(end, c1)) for c0, c1 in children]
    return (end - start) - union_length(clipped)


def lane_depths(spans: Sequence[Interval]) -> List[int]:
    """Nesting depth of each span among spans of one lane (one thread
    of one process): the number of other spans that contain it."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][0], -spans[i][1]))
    depths = [0] * len(spans)
    stack: List[int] = []
    for i in order:
        start, end = spans[i]
        while stack and spans[stack[-1]][1] < end:
            stack.pop()
        while stack and not (spans[stack[-1]][0] <= start
                             and end <= spans[stack[-1]][1]):
            stack.pop()
        depths[i] = len(stack)
        stack.append(i)
    return depths


def attribute(window: Interval,
              placed: Sequence[Placed]) -> Tuple[Dict[str, float], float]:
    """Split ``window`` among ``placed`` spans, deepest span first.

    Returns ``(time per layer, unattributed time)``; their sum is the
    window's length.
    """
    w0, w1 = window
    events: List[Tuple[float, int, int]] = []
    clipped = []
    for s, e, d, layer in placed:
        s, e = max(w0, s), min(w1, e)
        if e > s:
            events.append((s, 1, len(clipped)))
            events.append((e, -1, len(clipped)))
            clipped.append((d, layer))
    events.sort()
    per_layer: Dict[str, float] = defaultdict(float)
    uncovered = 0.0
    active: Dict[int, Tuple[float, str]] = {}
    cursor = w0
    for when, kind, index in events:
        if when > cursor:
            if active:
                layer = max(active.values(), key=lambda dl: dl[0])[1]
                per_layer[layer] += when - cursor
            else:
                uncovered += when - cursor
            cursor = when
        if kind > 0:
            active[index] = clipped[index]
        else:
            active.pop(index, None)
    uncovered += w1 - cursor
    return dict(per_layer), uncovered


def unattributed_frac(totals: Dict[str, float], uncovered: float) -> float:
    """Share of end-to-end time that no layer covers."""
    whole = sum(totals.values()) + uncovered
    return uncovered / whole if whole > 0 else 0.0
