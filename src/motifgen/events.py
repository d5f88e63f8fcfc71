"""Timestamped edge streams: what a graph is, and its parsing and serialization.

The on-disk format is the SNAP temporal edge-list convention: one ASCII line
``src dst t`` per event, ``#``-prefixed comment lines ignored. Node ids are
opaque non-negative integers (no compaction), timestamps are integer seconds.

This module holds the package's one definition of a graph: building a
:class:`TemporalGraph` drops self-loops (no motif code names one) and
time-orders the events into columns. :func:`static_edges` is the one
static projection of a set of events, :func:`degrees` the one count of
each node's in- and out-degree over it, and :func:`end_index` the one
per-node index of event ends, which extraction and counting both walk.
"""

from __future__ import annotations

import io
import re
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np


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


def _ints(values) -> np.ndarray:
    """``values`` as int64, or as Python ints where one does not fit."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


class TemporalGraph:
    """A time-ordered event stream, held as columns.

    Event ``i`` runs from node ``nodes[src[i]]`` to node ``nodes[dst[i]]``
    at time ``t0 + t[i]``. ``src`` and ``dst`` are dense node ranks (int32);
    ``nodes`` lists every node id once, in increasing order, as Python ints,
    so ids of any size stay exact. ``t`` holds int64 offsets from ``t0``,
    the first timestamp, so a graph's span (last minus first timestamp)
    must stay below 2**63 s; building a longer one raises ``ValueError``.
    Events are sorted non-decreasing by timestamp; equal timestamps keep
    their input order (everywhere in this package "time order" means the
    lexicographic (t, input-index) order). A graph holds no self-loop: no
    motif code names one, so building a graph drops self-loops and counts
    them in ``dropped_self_loops``. The columns are read-only.

    ``events`` is a row view derived from the columns: a tuple of
    :class:`Event`, built on first access, which iterating a graph yields.
    The package's stages read the columns.
    """

    __slots__ = ("src", "dst", "t", "t0", "nodes", "dropped_self_loops", "_rows")

    def __init__(self, events: Iterable[Event | tuple[int, int, int]]):
        rows = list(events)
        self._fill(*(zip(*rows, strict=True) if rows else ((), (), ())), 0)

    @classmethod
    def from_events(cls, events: Iterable[Event | tuple[int, int, int]]
                    ) -> "TemporalGraph":
        """The graph of ``events``; the same as calling the class."""
        return cls(events)

    @classmethod
    def from_columns(cls, src: Sequence[int], dst: Sequence[int],
                     t: Sequence[int], t0: int = 0) -> "TemporalGraph":
        """The graph of the events ``(src[i], dst[i], t0 + t[i])``: node ids
        and integer times, as sequences or integer arrays."""
        g = cls.__new__(cls)
        g._fill(src, dst, t, t0)
        return g

    def _fill(self, src, dst, t, t0: int) -> None:
        src, dst, t = _ints(src), _ints(dst), _ints(t)
        kept = src != dst
        self.dropped_self_loops = len(kept) - int(np.count_nonzero(kept))
        order = np.flatnonzero(kept)
        order = order[np.argsort(t[order], kind="stable")]  # stable: ties keep input order
        t = t[order]
        first, span = (int(t[0]), int(t[-1]) - int(t[0])) if len(t) else (0, 0)
        if span >= 2**63:  # beyond int64 offsets
            raise ValueError(f"the timestamps span {span} s; a graph's span "
                             f"must be below 2**63 s")
        self.t = (t - first).astype(np.int64)
        self.t0 = t0 + first
        # rank the node ids by one sort and an int32 scatter, which keeps
        # no int64 inverse as np.unique(return_inverse=True) does
        ids = np.concatenate((src[order], dst[order]))
        by_id = np.argsort(ids)
        ids = ids[by_id]
        new = np.empty(len(ids), bool)  # an id's first place in sorted order
        new[:1] = True
        np.not_equal(ids[1:], ids[:-1], out=new[1:])
        rank = np.empty(len(ids), np.int32)
        rank[by_id] = np.cumsum(new, dtype=np.int32) - 1
        self.src, self.dst = rank[:len(order)], rank[len(order):]
        self.nodes: list[int] = ids[new].tolist()
        self._rows: tuple[Event, ...] | None = None
        for column in (self.src, self.dst, self.t):
            column.flags.writeable = False

    @property
    def events(self) -> tuple[Event, ...]:
        if self._rows is None:
            ids, t0 = self.nodes, self.t0
            self._rows = tuple(map(Event, map(ids.__getitem__, self.src.tolist()),
                                   map(ids.__getitem__, self.dst.tolist()),
                                   [t0 + t for t in self.t.tolist()]))
        return self._rows

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return ((self.t0, self.nodes) == (other.t0, other.nodes)
                and all(map(np.array_equal, (self.src, self.dst, self.t),
                            (other.src, other.dst, other.t))))

    __hash__ = None  # type: ignore[assignment]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def timespan(self) -> int:
        """Seconds between the first and the last event (0 if < 2 events)."""
        return int(self.t[-1]) if len(self.t) else 0

    def __len__(self) -> int:
        return len(self.t)


def static_edges(src: np.ndarray, dst: np.ndarray, n: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct directed pairs of the events ``src[i] -> dst[i]``, node
    ranks below ``n``, in ``(src, dst)`` order: their sources, their
    targets, and the number of events on each."""
    pair, weight = np.unique(np.asarray(src, np.int64) * n + dst, return_counts=True)
    return pair // n, pair % n, weight


def degrees(src: np.ndarray, dst: np.ndarray, n: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``n`` node ranks' in- and out-degree over distinct directed
    pairs ``src[i] -> dst[i]``, such as :func:`static_edges` returns."""
    return np.bincount(dst, minlength=n), np.bincount(src, minlength=n)


def end_index(g: TemporalGraph) -> tuple[np.ndarray, np.ndarray]:
    """The per-node index of event ends. The ``2 * m`` ends are numbered
    ``2 * event + side``, side 0 for the source; returns each end's node
    rank and every end grouped by node, in time order within a node."""
    flat = np.empty(2 * len(g), np.int32)
    flat[0::2], flat[1::2] = g.src, g.dst
    # sorted as the narrowest unsigned type: numpy's stable sort is a radix
    # sort for 8- and 16-bit keys
    key = flat.astype(np.min_scalar_type(g.node_count))
    return flat, np.argsort(key, kind="stable").astype(np.int32)


_PARSE_CHARS = 1 << 18  # characters a bulk-read block holds, before its cut
_WRITE_EVENTS = 1 << 13  # events a written block holds


def _columns(text: str) -> np.ndarray | None:
    """The ``src``, ``dst`` and ``t`` values of an edge list as the rows of
    a ``(3, m)`` array, or ``None`` where the line loop must read it: a line
    without exactly three fields, a field with a character other than a
    digit (a sign, an underscore, a letter), a value of 2**63 - 1 or more,
    a lone carriage return, or a blank other than a space or a tab.

    The text is read in blocks of whole lines, each cut after the first
    newline past ``_PARSE_CHARS`` characters, so that the bulk read's
    per-character temporaries stay the size of one block."""
    blocks, start = [], 0
    while start < len(text):
        end = text.find("\n", start + _PARSE_CHARS) + 1 or len(text)
        values = _block_values(text[start:end])
        if values is None:
            return None
        blocks.append(values)
        start = end
    return np.concatenate(blocks or [np.empty(0, np.int64)]).reshape(-1, 3).T


def _block_values(text: str) -> np.ndarray | None:
    """The fields of whole lines of an edge list in line order, or ``None``
    where :func:`_columns` sends the text to the line loop."""
    text = text.replace("\r\n", "\n")
    if not text.isascii() or "\r" in text:
        return None
    if "#" in text:  # comment lines go; the loop numbers the lines it reads
        text = re.sub(r"\n[ \t]*#[^\n]*", "\n", "\n" + text)[1:]
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    newline = data == 10
    blank = (data == 32) | newline | (data == 9)
    if not (blank | (data >= 48) & (data <= 57)).all():
        return None
    start = np.flatnonzero(~blank & np.concatenate(([True], blank[:-1])))
    line = np.searchsorted(np.flatnonzero(newline), start)  # each field's
    # three fields a line: each triple shares its line, one triple per line
    if (len(line) % 3 or (line[0::3] != line[2::3]).any()
            or (np.diff(line[0::3]) <= 0).any()):
        return None
    # exact for digits below the int64 maximum, where numpy saturates; one
    # value a field (text with no field at all would read as one 0)
    values = np.fromstring(text, np.int64, sep=" ")[:len(start)]
    return values if values.max(initial=0) < 2**63 - 1 else None


def parse_events(source: str | IO[str]) -> TemporalGraph:
    """Parse a ``src dst t`` edge list, given as text or a text-mode handle,
    into a time-ordered :class:`TemporalGraph`.

    Duplicate ``(src, dst, t)`` lines are retained; self-loop lines are
    dropped, as everywhere a graph is built. Raises
    :class:`EdgeListParseError` for malformed lines and
    :class:`EdgeListValidationError` for negative node ids or timestamps.
    Text and handles share one line rule: a line ends at LF, CR or CR LF,
    and any other break character is a blank within its line.
    The fields are converted in bulk; a loop over the lines reads what the
    bulk read does not take, and names the line at fault.
    """
    text = source if isinstance(source, str) else source.read()
    columns = _columns(text)
    if columns is not None:
        return TemporalGraph.from_columns(*columns)
    events: list[Event] = []
    for lineno, line in enumerate(io.StringIO(text, newline=""), start=1):
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


def write_blocks(g: TemporalGraph) -> Iterator[str]:
    """The edge list of ``g`` as consecutive blocks of ``_WRITE_EVENTS``
    lines, one event a line in stored order; a writer that writes each
    block holds one block's text at a time."""
    names, t0 = list(map(str, g.nodes)), g.t0
    for i in range(0, len(g), _WRITE_EVENTS):
        part = slice(i, i + _WRITE_EVENTS)
        yield "".join([f"{names[u]} {names[v]} {t0 + t}\n" for u, v, t
                       in zip(g.src[part].tolist(), g.dst[part].tolist(),
                              g.t[part].tolist())])


def write_events(g: TemporalGraph) -> str:
    """Serialize to the edge-list format, one event per line in stored order.

    ``parse_events(write_events(g))`` reproduces ``g`` event for event.
    """
    return "".join(write_blocks(g))


def load_events(path) -> TemporalGraph:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_events(fh)


def save_events(g: TemporalGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(write_blocks(g))
