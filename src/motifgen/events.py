"""Timestamped edge streams: what a graph is, and its parsing and serialization.

The on-disk format is the SNAP temporal edge-list convention: one ASCII line
``src dst t`` per event, ``#``-prefixed comment lines ignored. Node ids are
opaque non-negative integers (no compaction), timestamps are integer seconds.

This module holds the package's one definition of a graph: building a
:class:`TemporalGraph` drops self-loops (no motif code names one) and
time-orders the events, and :func:`degrees` is the one count of each
node's in- and out-degree over a set of edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import IO, Collection, Iterable, NamedTuple


class Event(NamedTuple):
    """One directed interaction from ``src`` to ``dst`` at time ``t``."""

    src: int
    dst: int
    t: int


class EdgeListParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class EdgeListValidationError(ValueError):
    """Structurally valid line with an inadmissible value (e.g. negative time)."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, init=False)
class TemporalGraph:
    """A time-ordered event stream.

    ``events`` are sorted non-decreasing by timestamp; equal timestamps keep
    their input order (everywhere in this package "time order" means the
    lexicographic (t, input-index) order). A graph holds no self-loop: no
    motif code names one, so building a graph drops self-loops and counts
    them in ``dropped_self_loops``.
    """

    events: tuple[Event, ...]
    dropped_self_loops: int = field(compare=False)

    def __init__(self, events: Iterable[Event | tuple[int, int, int]]):
        evs = [e if isinstance(e, Event) else Event(*e) for e in events]
        kept = [e for e in evs if e.src != e.dst]
        kept.sort(key=itemgetter(2))  # by t; stable: ties keep input order
        object.__setattr__(self, "events", tuple(kept))
        object.__setattr__(self, "dropped_self_loops", len(evs) - len(kept))

    @classmethod
    def from_events(cls, events: Iterable[Event | tuple[int, int, int]]
                    ) -> "TemporalGraph":
        """The graph of ``events``; the same as calling the class."""
        return cls(events)

    @property
    def node_count(self) -> int:
        nodes = set()
        for e in self.events:
            nodes.add(e.src)
            nodes.add(e.dst)
        return len(nodes)

    @property
    def timespan(self) -> int:
        """Seconds between the first and the last event (0 if < 2 events)."""
        if len(self.events) < 2:
            return 0
        return self.events[-1].t - self.events[0].t

    def __len__(self) -> int:
        return len(self.events)


def parse_events(source: str | IO[str]) -> TemporalGraph:
    """Parse a ``src dst t`` edge list, given as text or a text-mode handle,
    into a time-ordered :class:`TemporalGraph`.

    Duplicate ``(src, dst, t)`` lines are retained; self-loop lines are
    dropped, as everywhere a graph is built. Raises
    :class:`EdgeListParseError` for malformed lines and
    :class:`EdgeListValidationError` for negative node ids or timestamps.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    events: list[Event] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise EdgeListParseError(lineno, f"expected 'src dst t', got {stripped!r}")
        try:
            src, dst, t = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer field in {stripped!r}") from None
        if src < 0 or dst < 0:
            raise EdgeListValidationError(lineno, f"negative node id in {stripped!r}")
        if t < 0:
            raise EdgeListValidationError(lineno, f"negative timestamp in {stripped!r}")
        events.append(Event(src, dst, t))

    return TemporalGraph.from_events(events)


def write_events(g: TemporalGraph) -> str:
    """Serialize to the edge-list format, one event per line in stored order.

    ``parse_events(write_events(g))`` reproduces ``g`` event for event.
    """
    return "".join(f"{e.src} {e.dst} {e.t}\n" for e in g.events)


def static_projection(g: TemporalGraph) -> set[tuple[int, int]]:
    """Deduplicated, direction-sensitive set of node pairs underlying ``g``."""
    return {(e.src, e.dst) for e in g.events}


def degrees(edges: Collection[tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """Each node's ``(in, out)`` degree over ``edges``, distinct directed
    node pairs such as :func:`static_projection` returns."""
    in_deg = Counter(v for _u, v in edges)
    out_deg = Counter(u for u, _v in edges)
    return {n: (in_deg[n], out_deg[n]) for n in in_deg.keys() | out_deg.keys()}


def load_events(path) -> TemporalGraph:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_events(fh)


def save_events(g: TemporalGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_events(g))
