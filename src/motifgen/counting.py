"""Exact counting of l-event temporal motif instances.

An instance is an ordered tuple of ``l`` events with strictly increasing
timestamps, every consecutive gap within the ceiling ``delta_c``, and each
event sharing a node with the earlier ones. Instances may overlap (they are
event subsets, not a partition). A graph holds no self-loop
(building a :class:`~motifgen.events.TemporalGraph` drops them), so every
event roots an instance of code ``01``. Counting grows all instances
together, one event a level: every instance of ``k`` events is a row of
numpy arrays, and its next events come from binary searches in a per-node
time index, in time order (edge-driven expansion, Mackey et al., IEEE
BigData 2018). Canonical
digits are assigned as each event joins, so each instance lands directly on
its type code. Rows are grown a chunk at a time, depth first, so memory is
bounded by one chunk's growth, not by the number of instances.

Growing to depth ``max(l_set)`` passes every shorter instance on its way, so
:func:`count_spectra` records each size in ``l_set`` as it goes
(shared-prefix counting, Paranjape, Benson & Leskovec, WSDM 2017). Given
equal-duration windows of the graph's span, it credits an instance to its
root event's window when its last event lies in that window too: windows
are monotone in time, so then every event of the instance lies inside it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import Sequence

import numpy as np

from .codec import MotifCode
from .events import TemporalGraph

MAX_COUNT_EVENTS = 4  # l >= 5 counting is out of scope
CHUNK_ROWS = 1024  # frontier rows grown at once; bounds the memory of a step


@dataclass
class SpectrumCounts:
    """Per-type instance counts for one (l, delta_c), per-window totals if asked."""

    counts: dict[MotifCode, int]
    windows: list[int] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def by_string(self) -> dict[str, int]:
        return {code.render(): c for code, c in sorted(
            self.counts.items(), key=lambda kv: kv[0].pairs)}


def check_count_args(l_set: Sequence[int], delta_c: int) -> None:
    if not l_set:
        raise ValueError("need at least one motif size")
    for l in l_set:
        if not 2 <= l <= MAX_COUNT_EVENTS:
            raise ValueError(f"l must be in [2, {MAX_COUNT_EVENTS}], got {l}")
    if delta_c <= 0:
        raise ValueError(f"delta_c must be positive, got {delta_c}")


def _unpack(code: int, l: int) -> tuple[tuple[int, int], ...]:
    """Digit pairs of a code packed by :func:`_count`, 6 bits a pair."""
    return tuple(((code >> 6 * k + 3) & 7, (code >> 6 * k) & 7)
                 for k in range(l - 1, -1, -1))


def _count(g: TemporalGraph, levels: tuple[int, ...], delta_c: int,
           inclusive: bool, window_count: int) -> tuple[list[Counter], list[list[int]]]:
    """Counts of the packed codes, and window totals, at every size in ``levels``.

    The index is ``node_rank * m + event`` for both ends of each of the ``m``
    events, sorted. Events are in time order, so a node's events in a time
    range are one slice of it. Timestamps and node ids stay Python ints: only
    node ranks and event indices enter numpy, so no value the parser accepts
    can overflow it.
    A row of the frontier is one instance: its root, its last event, its
    code, which packs each digit pair (a, b) as a << 3 | b, and its nodes in
    digit order, -1 padded.
    """
    counts = [Counter() for _ in range(levels[-1] + 1)]
    windows = np.zeros((len(counts), window_count), np.int64)
    m = len(g.events)
    ts = [e.t for e in g.events]
    ends = [e.src for e in g.events] + [e.dst for e in g.events]
    rank = {node: r for r, node in enumerate(dict.fromkeys(ends))}
    pairs = np.fromiter(map(rank.__getitem__, ends), np.int32, 2 * m).reshape(2, m)
    src, dst = pairs
    # the events after each event's timestamp, then those within its ceiling
    after = np.fromiter(map(bisect_right, repeat(ts), ts), np.int32, m)
    within = bisect_right if inclusive else bisect_left
    end = np.fromiter(map(within, repeat(ts), map(add, ts, repeat(delta_c))), np.int32, m)
    if window_count:  # a window is a run of events: find where each starts
        t0, span = (ts or [0])[0], max(g.timespan, 1)
        starts = [bisect_left(ts, w, key=lambda t: (t - t0) * window_count // span)
                  for w in range(1, window_count)]
        window_of = np.repeat(np.arange(window_count), np.diff([0, *starts, m]))
    del ts, ends, rank  # only the arrays live on while rows grow
    roots = np.arange(m, dtype=np.int32)
    key = np.multiply(pairs, m, dtype=np.int64)
    key += roots
    key = key.ravel()
    key.sort()
    code = np.ones(m, np.int32)  # 1 packs (0, 1)
    stack = [(1, roots, roots, code, pairs.T)]
    while stack:
        size, root, last, code, nodes = stack.pop()
        if len(root) > CHUNK_ROWS:
            stack.extend((size, root[i:i + CHUNK_ROWS], last[i:i + CHUNK_ROWS],
                          code[i:i + CHUNK_ROWS], nodes[i:i + CHUNK_ROWS])
                         for i in range(0, len(root), CHUNK_ROWS))
            continue
        valid = nodes >= 0
        fresh = valid.sum(1)  # each row's next unused digit
        row, slot = np.nonzero(valid)
        node = nodes[row, slot]
        base = np.multiply(node, m, dtype=np.int64)
        lo = np.searchsorted(key, base + after[last[row]])
        n = np.searchsorted(key, base + end[last[row]]) - lo
        row, slot, node = np.repeat(row, n), np.repeat(slot, n), np.repeat(node, n)
        e = key[np.arange(len(row)) + np.repeat(lo - np.cumsum(n) + n, n)] % m
        from_src = node == src[e]  # found in its source's list
        other = np.where(from_src, dst[e], src[e])
        hit = nodes[row] == other[:, None]
        known = hit.any(1)
        digit = np.where(known, hit.argmax(1), fresh[row])
        code = code[row] << 6 | np.where(from_src, slot << 3 | digit, digit << 3 | slot)
        keep = from_src | ~known  # found in both lists of two held nodes: once
        row, e, code, new = (a[keep] for a in (row, e, code, np.where(known, -1, other)))
        size += 1
        if size in levels:
            codes, tally = np.unique(code, return_counts=True)
            counts[size].update(dict(zip(codes.tolist(), tally.tolist())))
            if window_count:
                w = window_of[root[row]]
                windows[size] += np.bincount(w[w == window_of[e]], minlength=window_count)
        if size < levels[-1] and len(e):
            held = np.pad(nodes[row], ((0, 0), (0, 1)), constant_values=-1)
            held[np.arange(len(e)), fresh[row]] = new
            stack.append((size, root[row], e, code, held))
    return counts, windows.tolist()


def count_spectra(g: TemporalGraph, l_set: Sequence[int], delta_c: int,
                  inclusive: bool = True,
                  window_count: int = 0) -> dict[int, SpectrumCounts]:
    """Count the motif instances of ``g`` at every size in ``l_set`` in one
    pass, and with ``window_count`` > 0 their per-window totals.

    ``inclusive`` counts gaps equal to ``delta_c`` as inside the ceiling.
    """
    check_count_args(l_set, delta_c)
    if window_count < 0:
        raise ValueError(f"window_count must not be negative, got {window_count}")
    levels = tuple(sorted(set(l_set)))
    counts, windows = _count(g, levels, delta_c, inclusive, window_count)
    return {l: SpectrumCounts({MotifCode(_unpack(code, l)): c
                               for code, c in counts[l].items()}, windows[l])
            for l in levels}


def count_motifs(g: TemporalGraph, l: int, delta_c: int,
                 inclusive: bool = True) -> SpectrumCounts:
    """Count all ``l``-event motif instances of ``g`` under ``delta_c``: the
    one-size, windowless case of :func:`count_spectra`, with its ``inclusive``
    semantics. For several sizes of one graph, call that once.
    """
    return count_spectra(g, (l,), delta_c, inclusive=inclusive)[l]
