"""Pure arithmetic for the benchmark: percentiles, busy time, self time.

Nothing here imports the program under test, so the rules the records
rest on can be tested on synthetic numbers (see ``selftest.py``).
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from typing import Iterable, Sequence

#: One traced interval.  ``sid`` is unique across every process of a
#: run, ``parent`` names the span that caused it (``None`` for an
#: operation root), ``op`` is shared by all spans of one operation, and
#: ``start``/``end`` are ``time.monotonic_ns()`` readings (one clock
#: for every process on the host).
Span = namedtuple("Span", "sid parent op name start end")

#: A tail value must have at least this many samples above it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ``n`` samples that is the
    ``(n - 10)``-th smallest value, percentile ``100 * (n - 10) / n``.
    Below eleven samples no value has ten beyond it; the maximum is
    returned with percentile 100 so the record says so.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def busy_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals: the wall time
    during which at least one timed call was in flight."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Split one operation's wall time over its spans.

    Every instant of the root span is given to the innermost spans open
    at that instant, shared evenly when several run in parallel (a
    coordinator waiting on two shards).  For spans that nest without
    overlap this is the span's duration minus the time its children
    cover.  Child intervals are clipped to their parent's, since clocks
    of two processes can disagree by the few microseconds a reply takes
    to cross the socket.  The values sum to the root's duration.
    Returns ``{sid: ns}``.
    """
    by_id = {span.sid: span for span in spans}
    roots = [span for span in spans if span.parent not in by_id]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    children = defaultdict(list)
    for span in spans:
        if span.parent in by_id:
            children[span.parent].append(span.sid)

    clipped: dict[str, tuple[int, int, int]] = {}
    stack = [(roots[0].sid, roots[0].start, roots[0].end, 0)]
    while stack:
        sid, low, high, depth = stack.pop()
        span = by_id[sid]
        start = min(max(span.start, low), high)
        end = max(min(span.end, high), start)
        clipped[sid] = (start, end, depth)
        for child in children[sid]:
            stack.append((child, start, end, depth + 1))

    # At one instant, ends come before starts; parents start before and
    # end after their children.
    events = []
    for sid, (start, end, depth) in clipped.items():
        if end > start:
            events.append((start, 1, depth, sid))
            events.append((end, 0, -depth, sid))
    events.sort()

    parent_of = {sid: by_id[sid].parent for sid in clipped}
    open_children: dict[str, int] = defaultdict(int)
    active: set[str] = set()
    leaves: set[str] = set()
    result = dict.fromkeys(clipped, 0.0)
    last = None
    for instant, is_start, _depth, sid in events:
        if leaves and last is not None and instant > last:
            share = (instant - last) / len(leaves)
            for leaf in leaves:
                result[leaf] += share
        last = instant
        parent = parent_of[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in clipped:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in clipped:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in active:
                    leaves.add(parent)
    return result
