"""Canonical digit encoding of temporal motif types.

An ``l``-event motif type is named by ``l`` ordered digit pairs: pair ``k``
is the ``k``-th event, its first digit the source node and its second the
target. Digits label nodes in order of first appearance (source before
target within a pair), so the first pair is always ``(0, 1)`` and two event
sequences are isomorphic as temporal motifs iff their codes are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .events import Event

Pair = tuple[int, int]


class MotifEncodingError(ValueError):
    pass


class _StopState:
    """Sentinel for the terminal state of a transition process."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "STOP"

    def __reduce__(self):  # keep singleton identity across pickling
        return (_StopState, ())


STOP = _StopState()


def _check_pairs(pairs: Sequence[Pair]) -> None:
    if not pairs:
        raise MotifEncodingError("a motif code needs at least one event pair")
    if pairs[0] != (0, 1):
        raise MotifEncodingError(f"first pair must be (0, 1), got {pairs[0]}")
    next_digit = 2
    seen = {0, 1}
    for s, d in pairs[1:]:
        if s == d:
            raise MotifEncodingError(f"self-pair ({s}, {d}) is not encodable")
        for digit in (s, d):  # source digit is assigned before target
            if digit > next_digit:
                raise MotifEncodingError(
                    f"digit {digit} appears before {next_digit}")
            if digit == next_digit:
                next_digit += 1
        if s not in seen and d not in seen:
            raise MotifEncodingError(
                f"pair ({s}, {d}) does not touch any earlier node")
        seen.add(s)
        seen.add(d)


@dataclass(frozen=True, eq=True)
class MotifCode:
    """Canonical code of one temporal motif type (immutable, hashable)."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        _check_pairs(self.pairs)

    @property
    def l(self) -> int:
        """Number of events."""
        return len(self.pairs)

    @property
    def n(self) -> int:
        """Number of nodes (largest digit + 1)."""
        return max(max(p) for p in self.pairs) + 1

    def extend(self, src_digit: int, dst_digit: int) -> "MotifCode":
        """Appends one event pair; at most one digit may be new (== ``n``)."""
        n = self.n
        if src_digit == dst_digit:
            raise MotifEncodingError("source and target digit must differ")
        if src_digit > n or dst_digit > n:
            raise MotifEncodingError(
                f"digit skips ahead: ({src_digit}, {dst_digit}) with {n} nodes")
        # digits <= n and distinct, so at most one is new and one is existing
        return MotifCode(self.pairs + ((src_digit, dst_digit),))

    def is_prefix_of(self, other: "MotifCode") -> bool:
        return other.pairs[: len(self.pairs)] == self.pairs

    def prefix(self, l: int) -> "MotifCode":
        return MotifCode(self.pairs[:l])

    def static_edge_count(self) -> int:
        """Distinct (src, dst) digit pairs in the code."""
        return len(set(self.pairs))

    def render(self) -> str:
        # Plain digit string while unambiguous; dotted pairs once a node
        # label would need two characters (possible from l = 10 on).
        if self.n <= 10:
            return "".join(f"{s}{d}" for s, d in self.pairs)
        return "-".join(f"{s}.{d}" for s, d in self.pairs)

    @classmethod
    def from_string(cls, text: str) -> "MotifCode":
        if "-" in text or "." in text:
            pairs = []
            for chunk in text.split("-"):
                s, d = chunk.split(".")
                pairs.append((int(s), int(d)))
        else:
            if len(text) % 2 != 0:
                raise MotifEncodingError(f"odd-length code string {text!r}")
            pairs = [(int(text[i]), int(text[i + 1])) for i in range(0, len(text), 2)]
        return cls(tuple(pairs))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MotifCode({self.render()})"


CODE_01 = MotifCode(((0, 1),))


def encode(events: Iterable[Event | tuple]) -> MotifCode:
    """Canonical code of an ordered, prefix-connected event list."""
    digit_of: dict[int, int] = {}
    pairs: list[Pair] = []
    for ev in events:
        u, v = ev[0], ev[1]
        if u == v:
            raise MotifEncodingError(f"self-loop event on node {u}")
        if pairs and u not in digit_of and v not in digit_of:
            raise MotifEncodingError(
                f"event ({u}, {v}) shares no node with the earlier events")
        if u not in digit_of:
            digit_of[u] = len(digit_of)
        if v not in digit_of:
            digit_of[v] = len(digit_of)
        pairs.append((digit_of[u], digit_of[v]))
    if not pairs:
        raise MotifEncodingError("cannot encode an empty event list")
    return MotifCode(tuple(pairs))


MAX_SPECTRUM_EVENTS = 6  # spectrum growth is combinatorial; larger l has no use here


def _extensions(n: int) -> list[Pair]:
    """All admissible next pairs for a code with ``n`` nodes (n(n+1) of them)."""
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    pairs += [(n, d) for d in range(n)]
    pairs += [(s, n) for s in range(n)]
    return pairs


@lru_cache(maxsize=None)
def _enumerate_pairs(l: int) -> tuple[tuple[Pair, ...], ...]:
    if l == 1:
        return (((0, 1),),)
    out = []
    for prefix in _enumerate_pairs(l - 1):
        n = max(max(p) for p in prefix) + 1
        for ext in _extensions(n):
            out.append(prefix + (ext,))
    return tuple(out)


def enumerate_codes(l: int) -> list[MotifCode]:
    """Every motif type with exactly ``l`` events, in a stable sorted order.

    Cardinalities are 1, 6, 60, 888 for l = 1..4.
    """
    if not 1 <= l <= MAX_SPECTRUM_EVENTS:
        raise ValueError(f"l must be in [1, {MAX_SPECTRUM_EVENTS}], got {l}")
    codes = [MotifCode(p) for p in _enumerate_pairs(l)]
    codes.sort(key=lambda c: c.pairs)
    return codes


def transition_type_count(l_max: int) -> int:
    """Number of possible motif-to-motif transition types under ``l_max``.

    Each transition into an (l+1)-event type is determined by that type, so
    the total is the sum of the spectrum sizes for l = 2..l_max: 6, 66, 954
    for l_max = 2, 3, 4.
    """
    if l_max < 2:
        raise ValueError("l_max must be at least 2")
    return sum(len(_enumerate_pairs(l)) for l in range(2, l_max + 1))


def static_edge_count(code: MotifCode) -> int:
    return code.static_edge_count()
