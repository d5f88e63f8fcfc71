"""Exact counting of l-event temporal motif instances.

An instance is an ordered tuple of ``l`` events with strictly increasing
timestamps, every consecutive gap at most ``delta_c``, and each
event sharing a node with the earlier ones. Instances may overlap (they are
event subsets, not a partition). A graph holds no self-loop
(building a :class:`~motifgen.events.TemporalGraph` drops them), so every
event roots an instance of code ``01``. Counting grows all instances
together, one event a level: every instance of ``k`` events is a row of
numpy arrays, and its next events are slices of a per-node time index, in
time order (edge-driven expansion, Mackey et al., IEEE BigData 2018). Each
slice is read off a table of every event's window on each of its two nodes;
a row binary-searches only the windows that later events of a node have
made stale. Canonical digits are assigned as each event joins, so each
instance lands directly on its type code, kept as a dense id that one
fixed-size tally per size counts. Rows are grown a chunk at a time, depth
first, so memory is bounded by one chunk's growth, not by the number of
instances.

Growing to depth ``max(l_set)`` passes every shorter instance on its way, so
:func:`count_spectra` records each size in ``l_set`` as it goes
(shared-prefix counting, Paranjape, Benson & Leskovec, WSDM 2017). Given
equal-duration windows of the graph's span, it credits an instance to its
root event's window when its last event lies in that window too: windows
are monotone in time, so then every event of the instance lies inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Sequence

import numpy as np

from .codec import MotifCode
from .events import TemporalGraph, end_index

MAX_COUNT_EVENTS = 4  # l >= 5 counting is out of scope
CHUNK_ROWS = 1024  # frontier rows grown at once; bounds the memory of a step
TABLE_ROWS = 16384  # index entries whose windows are searched at once


@dataclass
class SpectrumCounts:
    """Per-type instance counts for one (l, delta_c), per-window totals if asked."""

    counts: dict[MotifCode, int]
    windows: list[int] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def by_string(self) -> dict[str, int]:
        return {code.render(): c for code, c in sorted(self.counts.items())}


def check_count_args(l_set: Sequence[int], delta_c: int) -> None:
    if not l_set:
        raise ValueError("need at least one motif size")
    for l in l_set:
        if not 2 <= l <= MAX_COUNT_EVENTS:
            raise ValueError(f"l must be in [2, {MAX_COUNT_EVENTS}], got {l}")
    if delta_c <= 0:
        raise ValueError(f"delta_c must be positive, got {delta_c}")


def _extend_id(code_id, j: int, a, b):
    """Tally id of a code after pair ``(a, b)`` joins as its event ``j`` (from
    1), on ints or arrays. Mixed-radix: event ``j``'s digits lie in ``[0, j]``."""
    return code_id * (j + 1) ** 2 + a * (j + 1) + b


def _tally_width(l: int) -> int:
    """Number of tally ids of size ``l``: 9, 144 and 3,600 at l = 2, 3, 4."""
    return (factorial(l + 1) // 2) ** 2


def _decode(code_id: int, l: int) -> MotifCode:
    """The code of size ``l`` that :func:`_extend_id` gives ``code_id``."""
    pairs = []
    for j in range(l, 1, -1):
        code_id, pair = divmod(code_id, (j + 1) ** 2)
        pairs.append(divmod(pair, j + 1))
    return MotifCode(((0, 1), *reversed(pairs)))


def _count(g: TemporalGraph, levels: tuple[int, ...], delta_c: int,
           window_count: int) -> tuple[dict[int, np.ndarray], list[list[int]]]:
    """Tallies by code id, and window totals, at every size in ``levels``.

    The ends of the ``m`` events are numbered ``2 * event + side``, side 0
    for the source, and ``flat`` holds each end's node rank. The index
    (``order``, from :func:`~motifgen.events.end_index`) lists every end
    grouped by node, in time order within a node, so a node's events in a
    time range are one slice of it; its sort key is ``node_rank * m +
    event``. Times are the graph's int64 offsets, whose span is below 2**63,
    and a ceiling past the span is clamped to it, so no timestamp or node
    id a graph holds can overflow. Per end,
    ``lo_at`` is the index entry of the node's first event after the
    event's timestamp and ``hi_at`` that of its first event beyond the
    event's ceiling.
    A row of the frontier is one instance: its root, its last event, its
    code id, its nodes in digit order and, per node, a cursor: the latest
    event of the instance on that node (-1 padded both). A node's next events
    lie between its first entry after the last event's timestamp and its
    first beyond that event's ceiling. Read at the cursor's end, these bounds
    fall short only where the node has events of its own between the
    cursor's event and the last event (the lower bound) or between their
    ceilings (the upper); only such stale bounds are binary-searched.
    """
    tallies = {l: np.zeros(_tally_width(l), np.int64) for l in levels}
    windows = np.zeros((levels[-1] + 1, window_count), np.int64)
    m, t = len(g), g.t
    flat, order = end_index(g)
    # the events after each event's timestamp, then those within its
    # ceiling; a ceiling past the span reaches no further than the span
    # does, and clamped to it, t - ceiling cannot overflow
    after = np.searchsorted(t, t, side="right").astype(np.int32)
    end = np.searchsorted(t - min(delta_c, g.timespan), t, side="right").astype(np.int32)
    if window_count:  # a window is a run of events: find where each starts
        span = max(g.timespan, 1)
        starts = np.searchsorted(t, [-(-w * span // window_count)
                                     for w in range(1, window_count)])
        window_of = np.repeat(np.arange(window_count), np.diff([0, *starts, m]))
    key = np.empty(2 * m + 1, np.int64)
    np.multiply(flat[order], m, out=key[:-1])
    key[:-1] += order >> 1
    key[-1] = np.iinfo(np.int64).max  # a sentinel ends it
    lo_at, hi_at = np.empty((2, 2 * m), np.int32)
    for i in range(0, 2 * m, TABLE_ROWS):  # in index order: the searches come sorted
        part = order[i:i + TABLE_ROWS]
        e = part >> 1
        base = key[i:i + len(part)] - e
        lo_at[part] = np.searchsorted(key, base + after[e])
        hi_at[part] = np.searchsorted(key, base + end[e])
    roots = np.arange(m, dtype=np.int32)  # a root is the cursor of both its nodes
    stack = [(1, roots, roots, np.zeros(m, np.int32), flat.reshape(m, 2),
              np.broadcast_to(roots[:, None], (m, 2)))]
    while stack:
        size, root, last, code, nodes, cursor = stack.pop()
        if len(root) > CHUNK_ROWS:
            stack.extend((size, root[i:i + CHUNK_ROWS], last[i:i + CHUNK_ROWS],
                          code[i:i + CHUNK_ROWS], nodes[i:i + CHUNK_ROWS],
                          cursor[i:i + CHUNK_ROWS])
                         for i in range(0, len(root), CHUNK_ROWS))
            continue
        valid = nodes >= 0
        fresh = valid.sum(1, dtype=np.int8)  # each row's next unused digit
        row, slot = np.nonzero(valid)
        node, at = nodes[row, slot], 2 * cursor[row, slot]
        at += flat[at] != node  # the end of the node's latest event
        lo, hi = lo_at[at], hi_at[at]
        base = np.multiply(node, m, dtype=np.int64)
        prev = last[row]
        # a bound read at the cursor is stale where its entry falls short
        for bound, limit in ((lo, after), (hi, end)):
            bound_key = base + limit[prev]
            stale = np.flatnonzero(key[bound] < bound_key)
            bound[stale] = np.searchsorted(key, bound_key[stale])
        n = hi - lo
        row, slot = np.repeat(row, n), np.repeat(slot.astype(np.int8), n)
        found = order[np.arange(len(row)) + np.repeat(lo - np.cumsum(n) + n, n)]
        found_src, found_other = (found & 1) == 0, flat[found ^ 1]
        digit = fresh[row]  # the other end's digit: held, or the next unused
        known = np.zeros(len(row), bool)
        for held_digit, column in enumerate(nodes.T):
            hit = column[row] == found_other
            digit[hit] = held_digit
            known |= hit
        # an event found in the lists of two held nodes counts once
        keep = np.flatnonzero(found_src | ~known)
        row, slot, found, found_src, found_other, digit = (
            a[keep] for a in (row, slot, found, found_src, found_other, digit))
        e = found >> 1
        code = _extend_id(code[row], size + 1, np.where(found_src, slot, digit),
                          np.where(found_src, digit, slot))
        size += 1
        if size in levels:
            tallies[size] += np.bincount(code, minlength=len(tallies[size]))
            if window_count:
                w = window_of[root[row]]
                windows[size] += np.bincount(w[w == window_of[e]], minlength=window_count)
        if size < levels[-1] and len(e):
            grown = np.arange(len(e))
            held = np.full((len(e), nodes.shape[1] + 1), -1, np.int32)
            held[:, :-1] = nodes[row]
            held[grown, digit] = found_other
            latest = np.full(held.shape, -1, np.int32)
            latest[:, :-1] = cursor[row]
            latest[grown, slot] = e
            latest[grown, digit] = e
            stack.append((size, root[row], e, code, held, latest))
    return tallies, windows.tolist()


def count_spectra(g: TemporalGraph, l_set: Sequence[int], delta_c: int,
                  window_count: int = 0) -> dict[int, SpectrumCounts]:
    """Count the motif instances of ``g`` whose gaps are at most ``delta_c``
    at every size in ``l_set`` in one pass, and with ``window_count`` > 0
    their per-window totals."""
    check_count_args(l_set, delta_c)
    if window_count < 0:
        raise ValueError(f"window_count must not be negative, got {window_count}")
    levels = tuple(sorted(set(l_set)))
    tallies, windows = _count(g, levels, delta_c, window_count)
    return {l: SpectrumCounts({_decode(code_id, l): count for code_id, count
                               in enumerate(tallies[l].tolist()) if count}, windows[l])
            for l in levels}


def count_motifs(g: TemporalGraph, l: int, delta_c: int) -> SpectrumCounts:
    """Count all ``l``-event motif instances of ``g`` whose gaps are at most
    ``delta_c``: the one-size, windowless case of :func:`count_spectra`. For
    several sizes of one graph, call that once."""
    return count_spectra(g, (l,), delta_c)[l]
