"""Exact counting of l-event temporal motif instances.

An instance is an ordered tuple of ``l`` events with strictly increasing
timestamps, every consecutive gap within the ceiling ``delta_c``, and each
event sharing a node with the earlier ones. Instances may overlap (they are
event subsets, not a partition). Enumeration backtracks from every root
event over a per-node time index, assigning canonical digits incrementally
so each completed instance lands directly on its type code.

One walk to depth ``max(l_set)`` passes every shorter instance on its way
down, so :func:`count_spectra` records each size in ``l_set`` as it goes
(shared-prefix counting, Paranjape, Benson & Leskovec, WSDM 2017). Given
equal-duration windows of the graph's span, it credits an instance to its
root event's window when its last event lies in that window too: windows
are monotone in time, so then every event of the instance lies inside it.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from .codec import MotifCode
from .events import TemporalGraph

MAX_COUNT_EVENTS = 4  # l >= 5 counting is out of scope

WORKERS_ENV_VAR = "MOTIFGEN_WORKERS"


@dataclass
class SpectrumCounts:
    """Per-type instance counts for one (l, delta_c), per-window totals if asked."""

    l: int
    delta_c: int
    counts: dict[MotifCode, int]
    inclusive: bool = True
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
    """Digit pairs of a code packed by :meth:`_Walk.grow`, 6 bits a pair."""
    return tuple(((code >> 6 * k + 3) & 7, (code >> 6 * k) & 7)
                 for k in range(l - 1, -1, -1))


class _Walk:
    """One graph's per-node event index and the state of a walk over some of
    its root events. An object, as recursive closures would form a reference
    cycle that keeps the index alive until the next garbage collection."""

    def __init__(self, g: TemporalGraph, levels: tuple[int, ...], delta_c: int,
                 inclusive: bool, window_count: int):
        self.src, self.dst, self.ts = ([e[k] for e in g.events] for k in range(3))
        self.node_events: dict[int, list[int]] = {}
        for idx, (u, v, _) in enumerate(g.events):
            self.node_events.setdefault(u, []).append(idx)
            self.node_events.setdefault(v, []).append(idx)
        self.levels, self.delta_c, self.inclusive = levels, delta_c, inclusive
        self.window_count = window_count
        t0, span = (self.ts or [0])[0], max(g.timespan, 1)
        self.window_of = [min((t - t0) * window_count // span, window_count - 1)
                          for t in self.ts] if window_count else None

    def candidates(self, last: int) -> set[int]:
        """Events after ``last`` that touch the motif within ``delta_c``."""
        ts, inclusive = self.ts, self.inclusive
        t_last = ts[last]
        bound = t_last + self.delta_c
        out: set[int] = set()
        for node in self.digit_of:
            evs = self.node_events[node]
            j = bisect_right(evs, last)
            while j < len(evs):
                idx = evs[j]
                t = ts[idx]
                if t > bound or (not inclusive and t == bound):
                    break
                if t > t_last:  # equal timestamps never chain
                    out.add(idx)
                j += 1
        return out

    def grow(self, last: int, code: int, size: int) -> None:
        """Extend the instance of ``size`` - 1 events ending at ``last``. Its
        code packs each digit pair (a, b) as a << 3 | b, 6 bits a pair."""
        cands = self.candidates(last)
        if not cands:
            return
        if self.window_count and size in self.levels:
            w = self.window_of[self.root]
            self.windows[size][w] += sum(self.window_of[i] == w for i in cands)
        src, dst, digit_of = self.src, self.dst, self.digit_of
        counts = self.counts[size]
        if size == self.levels[-1]:
            # Leaf: a candidate always touches the motif, so at most one
            # endpoint is new and the fresh digit can be read off directly.
            nd = len(digit_of)
            get = digit_of.get
            for idx in cands:
                counts[code << 6 | get(src[idx], nd) << 3 | get(dst[idx], nd)] += 1
            return
        record = size in self.levels
        for idx in cands:
            nodes = len(digit_of)  # source digit is assigned before target
            key = (code << 6 | digit_of.setdefault(src[idx], nodes) << 3
                   | digit_of.setdefault(dst[idx], len(digit_of)))
            if record:
                counts[key] += 1
            self.grow(idx, key, size + 1)
            for _ in range(len(digit_of) - nodes):
                digit_of.popitem()  # digits unwind last in, first out

    def run(self, roots: range) -> tuple[list[Counter], list[list[int]]]:
        self.counts = [Counter() for _ in range(self.levels[-1] + 1)]
        self.windows = [[0] * self.window_count for _ in self.counts]
        for root in roots:  # digit_of: the motif's nodes in digit order
            self.root, self.digit_of = root, {self.src[root]: 0, self.dst[root]: 1}
            self.grow(root, 1, 2)  # 1 packs the root's pair (0, 1)
        return self.counts, self.windows


def count_spectra(g: TemporalGraph, l_set: Sequence[int], delta_c: int,
                  inclusive: bool = True, window_count: int = 0,
                  workers: int | None = None) -> dict[int, SpectrumCounts]:
    """Count the motif instances of ``g`` at every size in ``l_set`` with one
    walk per root event, and with ``window_count`` > 0 their per-window totals.

    ``inclusive`` counts gaps equal to ``delta_c`` as inside the ceiling.
    ``workers`` > 1 splits the root events over processes (associative
    merge, same result); defaults to the MOTIFGEN_WORKERS env var or 1.
    """
    check_count_args(l_set, delta_c)
    if window_count < 0:
        raise ValueError(f"window_count must not be negative, got {window_count}")
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV_VAR, "1"))
    levels = tuple(sorted(set(l_set)))
    walk = _Walk(g, levels, delta_c, inclusive, window_count)

    n = len(g.events)
    if workers > 1 and n > 1:
        ranges = [range(i, n, workers) for i in range(min(workers, n))]
        counts, windows = walk.run(range(0))  # empty totals to merge into
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part_counts, part_windows in pool.map(walk.run, ranges):
                for l in levels:
                    counts[l].update(part_counts[l])
                    windows[l] = [a + b for a, b in zip(windows[l], part_windows[l])]
    else:
        counts, windows = walk.run(range(n))

    return {l: SpectrumCounts(l, delta_c, {MotifCode(_unpack(code, l)): c
                                           for code, c in counts[l].items()},
                              inclusive, windows[l])
            for l in levels}


def count_motifs(g: TemporalGraph, l: int, delta_c: int,
                 inclusive: bool = True, workers: int | None = None) -> SpectrumCounts:
    """Count all ``l``-event motif instances of ``g`` under ``delta_c``: the
    one-size, windowless case of :func:`count_spectra`, with its ``inclusive``
    and ``workers`` semantics. For several sizes of one graph, call that once.
    """
    return count_spectra(g, (l,), delta_c, inclusive=inclusive,
                         workers=workers)[l]
