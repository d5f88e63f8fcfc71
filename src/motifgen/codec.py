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


STOP = None  # the terminal state of a transition process


def _check_pairs(pairs: Sequence[Pair]) -> None:
    """The one rule of a code: the first pair is ``(0, 1)``, and each later
    pair joins two distinct digits in ``[0, n]``, where ``n`` is the number
    of digits in use; a pair that holds ``n`` puts it in use."""
    if not pairs or pairs[0] != (0, 1):
        raise MotifEncodingError(f"a code starts with the pair (0, 1), got {pairs!r}")
    n = 2
    for s, d in pairs[1:]:
        if s == d or not (0 <= s <= n and 0 <= d <= n):
            raise MotifEncodingError(
                f"pair ({s}, {d}) does not join two distinct digits in [0, {n}]")
        n += n in (s, d)


@dataclass(frozen=True, order=True)
class MotifCode:
    """Canonical code of one temporal motif type (immutable, hashable, ordered)."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        _check_pairs(self.pairs)
        # hashed once: codes key every profile dict, so they are hashed often
        object.__setattr__(self, "_hash", hash((self.pairs,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def l(self) -> int:
        """Number of events."""
        return len(self.pairs)

    @property
    def n(self) -> int:
        """Number of nodes (largest digit + 1)."""
        return max(max(p) for p in self.pairs) + 1

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
    """Canonical code of an ordered, prefix-connected event list; for any other
    list (a self-loop, a disconnected event, no event) ``MotifCode`` raises."""
    digit_of: dict[int, int] = {}
    pairs: list[Pair] = []
    for ev in events:
        u, v = ev[0], ev[1]
        if u not in digit_of:
            digit_of[u] = len(digit_of)
        if v not in digit_of:
            digit_of[v] = len(digit_of)
        pairs.append((digit_of[u], digit_of[v]))
    return MotifCode(tuple(pairs))


MAX_SPECTRUM_EVENTS = 6  # spectrum growth is combinatorial; larger l has no use here


@lru_cache(maxsize=None)
def _enumerate_pairs(l: int) -> tuple[tuple[Pair, ...], ...]:
    if l == 1:
        return (((0, 1),),)
    out = []
    for prefix in _enumerate_pairs(l - 1):
        n = max(max(p) for p in prefix) + 1
        out += (prefix + ((s, d),) for s in range(n + 1) for d in range(n + 1)
                if s != d)
    return tuple(out)


def enumerate_codes(l: int) -> list[MotifCode]:
    """Every motif type with exactly ``l`` events, in a stable sorted order.

    Cardinalities are 1, 6, 60, 888 for l = 1..4.
    """
    if not 1 <= l <= MAX_SPECTRUM_EVENTS:
        raise ValueError(f"l must be in [1, {MAX_SPECTRUM_EVENTS}], got {l}")
    return sorted(MotifCode(p) for p in _enumerate_pairs(l))


def transition_type_count(l_max: int) -> int:
    """Number of possible motif-to-motif transition types under ``l_max``.

    Each transition into an (l+1)-event type is determined by that type, so
    the total is the sum of the spectrum sizes for l = 2..l_max: 6, 66, 954
    for l_max = 2, 3, 4. The sizes come from a recurrence, not enumeration:
    a code on ``n`` nodes has ``n(n-1)`` extensions that keep ``n`` nodes
    and ``2n`` that add one.
    """
    if l_max < 2:
        raise ValueError("l_max must be at least 2")
    sizes = {2: 1}  # spectrum size by node count; l = 1 is the code 01
    total = 0
    for _ in range(2, l_max + 1):
        sizes = {n: sizes.get(n, 0) * n * (n - 1)
                 + sizes.get(n - 1, 0) * 2 * (n - 1)
                 for n in range(2, max(sizes) + 2)}
        total += sum(sizes.values())
    return total
