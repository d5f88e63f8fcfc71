"""Timestamped edge streams: parsing, validation, ordering, serialization.

The on-disk format is the SNAP temporal edge-list convention: one ASCII line
``src dst t`` per event, ``#``-prefixed comment lines ignored. Node ids are
opaque non-negative integers (no compaction), timestamps are integer seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import IO, Iterable, NamedTuple


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


@dataclass(frozen=True)
class TemporalGraph:
    """A time-ordered event stream.

    ``events`` are sorted non-decreasing by timestamp; equal timestamps keep
    their input order (everywhere in this package "time order" means the
    lexicographic (t, input-index) order).
    """

    events: tuple[Event, ...]
    dropped_self_loops: int = field(default=0, compare=False)

    @classmethod
    def from_events(cls, events: Iterable[Event | tuple[int, int, int]],
                    dropped_self_loops: int = 0) -> "TemporalGraph":
        evs = [e if isinstance(e, Event) else Event(*e) for e in events]
        evs.sort(key=itemgetter(2))  # by t; stable: ties keep input order
        return cls(events=tuple(evs), dropped_self_loops=dropped_self_loops)

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


def parse_events(source: str | bytes | IO) -> TemporalGraph:
    """Parse a ``src dst t`` edge list into a time-ordered :class:`TemporalGraph`.

    Self-loop lines are dropped (and counted on the result); duplicate
    ``(src, dst, t)`` lines are retained. Raises :class:`EdgeListParseError`
    for malformed lines and :class:`EdgeListValidationError` for negative
    node ids or timestamps.
    """
    if isinstance(source, bytes):
        lines: Iterable[str] = source.decode("ascii", errors="replace").splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = (raw.decode("ascii", errors="replace") if isinstance(raw, bytes) else raw
                 for raw in source)

    events: list[Event] = []
    dropped = 0
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
        if src == dst:
            dropped += 1  # self-loops have no motif encoding; reported, not kept
            continue
        events.append(Event(src, dst, t))

    return TemporalGraph.from_events(events, dropped_self_loops=dropped)


def write_events(g: TemporalGraph) -> str:
    """Serialize to the edge-list format, one event per line in stored order.

    ``parse_events(write_events(g))`` reproduces ``g`` event for event.
    """
    return "".join(f"{e.src} {e.dst} {e.t}\n" for e in g.events)


def static_projection(g: TemporalGraph) -> set[tuple[int, int]]:
    """Deduplicated, direction-sensitive set of node pairs underlying ``g``."""
    return {(e.src, e.dst) for e in g.events}


def load_events(path) -> TemporalGraph:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_events(fh)


def save_events(g: TemporalGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_events(g))
