"""Extraction of motif-transition statistics from an event stream.

Every event starts a chain, which the earliest later event on a node it
holds joins while that lies within ``delta`` of its last event, up to
``l_max`` events. A cold event is one that no earlier cold event's chain
holds, and its chain is a process. The chains are walked level by level over
the per-node index of event ends, a block of starts at a time, and the
profile tallies the cold chains. Probabilities, rates and the mean
final-motif edge count are derived whenever a profile is built. Saved
profiles (format 2) store only counted numbers, each gap count beside its
equal transition count; format 1 files, which also stored derived numbers,
are still read.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .codec import CODE_01, STOP, MotifCode
from .events import Event, TemporalGraph, degrees, end_index, static_edges


class TransitionKey(NamedTuple):
    """One transition type: a source code and its successor (or STOP)."""

    src: MotifCode
    dst: MotifCode | None


class ProcessRecord(NamedTuple):
    """Trace of one finished transition process (kept only on request). They
    are listed as they retire: a "size" stop at its last event, a "time" stop
    at the first event over ``delta`` after it, an "end" stop at the end of
    the stream; ties keep start order."""

    events: list[Event]
    code: MotifCode
    stop_reason: str  # "size", "time" or "end"


@dataclass
class TransitionProfile:
    """The transition statistics of one input graph.

    It holds only additive statistics: ``counts`` (stop keys
    ``TransitionKey(code, STOP)`` included, one per finished process),
    ``delta_t_sums`` (gap sum and gap count of every real transition) and
    the cold-event data. Building a profile checks them and derives the
    rest: ``probs`` rows list the non-stop successors in code order, the
    stop mass being the implicit remainder to 1; ``rates`` are inverse mean
    gaps; ``mu`` is the mean static edge count of the final motifs; and
    ``cold_event_count`` is ``len(t_ce)``. So no profile can disagree with
    itself, and a broken one raises ``ValueError`` when it is built.
    """

    l_max: int
    delta: int
    k_ce: list[tuple[int, int]]
    t_ce: list[int]
    ce_edge_weights: list[int]
    counts: dict[TransitionKey, int]
    delta_t_sums: dict[TransitionKey, tuple[int, int]]
    input_event_count: int
    input_edge_count: int
    processes: list[ProcessRecord] | None = field(default=None, compare=False)
    probs: dict[MotifCode, dict[MotifCode, float]] = field(
        init=False, compare=False, repr=False)
    rates: dict[TransitionKey, float] = field(init=False, compare=False,
                                              repr=False)
    mu: float = field(init=False, compare=False)
    cold_event_count: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _validate(self)
        totals: Counter[MotifCode] = Counter()  # row denominators, stops included
        for key, c in self.counts.items():
            totals[key.src] += c
        self.probs, self.rates = {}, {}
        for key, (s, n) in sorted(self.delta_t_sums.items(), key=_code_order):
            self.probs.setdefault(key.src, {})[key.dst] = (
                self.counts[key] / totals[key.src])
            # a zero mean gap is floored at the 1-second data resolution
            self.rates[key] = 1.0 / (s / n or 1.0)
        self.cold_event_count = len(self.t_ce)  # one stop per process
        self.mu = sum(c * key.src.static_edge_count()
                      for key, c in self.counts.items()
                      if key.dst is STOP) / self.cold_event_count

    def stop_probability(self, code: MotifCode) -> float:
        row = self.probs.get(code, {})
        return max(0.0, 1.0 - sum(row.values()))  # guard float rounding


def _code_order(item: tuple[TransitionKey, object]) -> tuple:
    """Sort key of a ``(key, value)`` item: source, then successor, stop last."""
    src, dst = item[0]
    return src.pairs, dst is STOP, getattr(dst, "pairs", ())


def _check_ints(what: str, values, low: float = 0) -> None:
    for v in values:
        if type(v) is not int or v < low:
            raise ValueError(f"{what}: expected integers >= {low}, got {v!r}")


def _validate(p: TransitionProfile) -> None:
    """Raise ``ValueError`` naming the first broken profile invariant."""
    _check_ints("l_max", [p.l_max], 2)
    _check_ints("delta and input event and edge counts",
                [p.delta, p.input_event_count, p.input_edge_count], 1)
    _check_ints("cold timestamps", p.t_ce, -math.inf)
    if any(len(pair) != 2 for pair in p.k_ce):
        raise ValueError("k_ce entries must be (in, out) degree pairs")
    _check_ints("cold degrees", [d for pair in p.k_ce for d in pair])
    stubs_in = sum(i for i, _o in p.k_ce)
    stubs_out = sum(o for _i, o in p.k_ce)
    if stubs_in != stubs_out:
        raise ValueError(f"unbalanced stub totals: {stubs_out} out vs {stubs_in} in")
    if len(p.ce_edge_weights) != stubs_out:
        raise ValueError(f"expected one weight per cold static edge: "
                         f"{len(p.ce_edge_weights)} weights, {stubs_out} edges")
    _check_ints("cold edge weights", p.ce_edge_weights, 1)
    if not p.t_ce or sum(p.ce_edge_weights) != len(p.t_ce):
        raise ValueError(f"cold edge weights sum to {sum(p.ce_edge_weights)}, "
                         f"not to the {len(p.t_ce)} (>= 1) cold events")
    _check_ints("transition counts", p.counts.values(), 1)
    stops = transitions = 0
    for (src, dst), c in p.counts.items():
        if dst is STOP:
            if src.l > p.l_max:
                raise ValueError(f"{src} is longer than l_max {p.l_max}")
            stops += c
            continue
        transitions += 1
        if dst.pairs[:-1] != src.pairs or dst.l > p.l_max:
            raise ValueError(f"{dst} does not extend {src} by one event "
                             f"within l_max {p.l_max}")
        if p.delta_t_sums.get(TransitionKey(src, dst), (0, None))[1] != c:
            raise ValueError(f"gap count of {src} -> {dst} differs from "
                             f"its transition count {c}")
    if stops != len(p.t_ce):
        raise ValueError(f"stop counts total {stops}, "
                         f"not the {len(p.t_ce)} cold events")
    if len(p.delta_t_sums) != transitions:
        raise ValueError("gap sums listed for a transition without a count")
    _check_ints("gap sums and counts",
                (v for pair in p.delta_t_sums.values() for v in pair), 0)


BLOCK_STARTS = 4096  # chains walked at once; bounds the memory of the walk


def _walk(g: TemporalGraph, succ: np.ndarray, start: np.ndarray, dc: int,
          l_max: int) -> list[tuple[np.ndarray, ...]]:
    """Grow the chains of the events ``start`` a level at a time, each with
    its nodes in digit order (-1 pads) and their next events after its last
    (from ``succ``; ``m`` if none); the earliest joins if at most ``dc``
    later. Per level: the grown chains' starts, the new event, digits, gap."""
    m, t = len(g), g.t
    root, last, fresh = start, start, np.full(len(start), 2)
    nodes, ahead = np.stack((g.src[start], g.dst[start])), succ[:, start]
    levels = []
    while len(root) and len(levels) + 1 < l_max:
        e = ahead.min(0)
        gap = t[np.minimum(e, m - 1)] - t[last]
        grow = np.flatnonzero((e < m) & (gap <= dc))
        root, last, gap, fresh = root[grow], e[grow], gap[grow], fresh[grow]
        nodes = np.concatenate((nodes[:, grow], np.full((1, len(grow)), -1, np.int32)))
        ahead = np.concatenate((ahead[:, grow], np.full((1, len(grow)), m, np.int32)))
        digits, grown = [], np.arange(len(grow))
        for side, node in enumerate((g.src[last], g.dst[last])):  # the chain holds one
            digit = fresh.copy()  # a node not held takes the next unused digit
            for held, column in enumerate(nodes[:-1]):
                digit[column == node] = held
            nodes[digit, grown], ahead[digit, grown] = node, succ[side, last]
            digits.append(digit)
        fresh += np.maximum(*digits) == fresh
        levels.append((root, last, *digits, gap))
    return levels


def extract_profile(g: TemporalGraph, delta: int, l_max: int,
                    keep_processes: bool = False) -> TransitionProfile:
    """The transition profile of ``g``, tallied from its cold events' chains."""
    if l_max < 2:
        raise ValueError(f"l_max must be at least 2, got {l_max}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not len(g):
        raise ValueError("cannot extract a profile from an empty graph")

    m, t, n = len(g), g.t, g.node_count
    dc = min(delta, g.timespan)  # no gap exceeds the span; clamped, none overflows
    flat, order = end_index(g)
    same = np.flatnonzero(flat[order[1:]] == flat[order[:-1]])  # next entry: same node
    succ = np.full((2, m), m, np.int32)  # by side and event: the node's next event
    succ[order[same] & 1, order[same] >> 1] = order[same + 1] >> 1
    hot = bytearray(m + 1)  # the events an earlier cold chain holds; m pads
    is_hot = np.frombuffer(hot, bool)
    steps: dict[int, list[tuple[np.ndarray, ...]]] = {}  # per level: cold rows by block
    for first in range(0, m, BLOCK_STARTS):
        levels = _walk(g, succ, np.arange(first, min(m, first + BLOCK_STARTS)), dc, l_max)
        chain = np.full((BLOCK_STARTS, len(levels)), m, np.int32)
        for k, (root, e, *_rest) in enumerate(levels):
            chain[root - first, k] = e
        grew = levels[0][0]  # in start order, a cold chain marks what it holds
        for i, later in zip(grew.tolist(), chain[grew - first].tolist()):
            if not hot[i]:
                for j in later:
                    hot[j] = 1
        for k, level in enumerate(levels):
            steps.setdefault(k, []).append(tuple(c[~is_hot[level[0]]] for c in level))

    # tally a level at a time: a code id per chain, each distinct code built once
    cold = np.flatnonzero(~is_hot[:m])
    codes, code_of = [[CODE_01]], np.zeros(m, np.int64)  # by level; by start
    counts, delta_t_sums = {}, {}
    stops = Counter({CODE_01: len(cold)})  # chains reaching a code less those it passes on
    for k, blocks in steps.items():  # event k + 2 joins: its digits lie in [0, k + 2]
        first, last, a, b, gap = map(np.concatenate, zip(*blocks))
        pair_values, pair = np.unique(a * (k + 3) + b, return_inverse=True)
        keys, group, sizes = np.unique(code_of[first] * len(pair_values) + pair,
                                       return_inverse=True, return_counts=True)
        high, low = np.zeros((2, len(keys)), np.int64)  # gap sums, exact past int64
        np.add.at(high, group, gap >> 32)
        np.add.at(low, group, gap & 0xFFFFFFFF)
        pairs, level = [divmod(v, k + 3) for v in pair_values.tolist()], []
        for key, c, h, lo in zip(*(x.tolist() for x in (keys, sizes, high, low))):
            src = codes[k][key // len(pairs)]
            step = TransitionKey(src, MotifCode(src.pairs + (pairs[key % len(pairs)],)))
            counts[step], delta_t_sums[step] = c, ((h << 32) + lo, c)
            stops.update({src: -c, step.dst: c})
            level.append(step.dst)
        codes.append(level)
        code_of[first] = group
    counts.update((TransitionKey(code, STOP), c) for code, c in stops.items() if c)

    records = None
    if keep_processes:  # in retirement order, ties in start order
        chains = {c: [c] for c in cold.tolist()}
        for first, last, *_rest in (s for blocks in steps.values() for s in blocks):
            for c, e in zip(first.tolist(), last.tolist()):
                chains[c].append(e)
        after = np.searchsorted(t - dc, t, side="right").tolist()  # over delta later
        ids, src, dst, tt = g.nodes, g.src.tolist(), g.dst.tolist(), t.tolist()
        ended = sorted((chain[-1] if len(chain) == l_max else after[chain[-1]], chain)
                       for chain in chains.values())
        records = [ProcessRecord(
            [Event(ids[src[e]], ids[dst[e]], g.t0 + tt[e]) for e in chain],
            codes[len(chain) - 1][code_of[chain[0]]],
            "size" if len(chain) == l_max else "time" if at < m else "end")
            for at, chain in ended]

    edge_src, edge_dst, weights = static_edges(g.src[cold], g.dst[cold], n)
    in_deg, out_deg = degrees(edge_src, edge_dst, n)
    held = np.flatnonzero(in_deg + out_deg)
    return TransitionProfile(
        l_max=l_max, delta=delta, t_ce=[g.t0 + x for x in t[cold].tolist()],
        k_ce=list(zip(in_deg[held].tolist(), out_deg[held].tolist())),
        ce_edge_weights=sorted(weights.tolist()),
        counts=counts, delta_t_sums=delta_t_sums, input_event_count=m,
        input_edge_count=len(static_edges(g.src, g.dst, n)[0]), processes=records)


def cold_event_fraction(profile: TransitionProfile) -> float:
    return profile.cold_event_count / profile.input_event_count


def observed_transition_type_count(profile: TransitionProfile) -> int:
    """Distinct observed transition types, stop keys excluded."""
    return sum(1 for key in profile.counts if key.dst is not STOP)


PROFILE_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)  # version 1 also stored the derived statistics
_STOP_KEY = "stop"


def profile_to_dict(profile: TransitionProfile) -> dict:
    """JSON-ready form; code keys rendered as strings, stop keyed ``"stop"``.

    Only the additive statistics are written; everything derived from them
    is recomputed when the document is read back. Rows and their successors
    are in code order, stop last, whatever order the profile's dicts hold.
    """
    counts_nested: dict[str, dict[str, int]] = {}
    for key, c in sorted(profile.counts.items(), key=_code_order):
        dst = _STOP_KEY if key.dst is STOP else key.dst.render()
        counts_nested.setdefault(key.src.render(), {})[dst] = c
    dt_nested: dict[str, dict[str, list[int]]] = {}
    for key, (s, n) in sorted(profile.delta_t_sums.items(), key=_code_order):
        dt_nested.setdefault(key.src.render(), {})[key.dst.render()] = [s, n]
    return {
        "version": PROFILE_FORMAT_VERSION,
        "l_max": profile.l_max,
        "delta": profile.delta,
        "input_event_count": profile.input_event_count,
        "input_edge_count": profile.input_edge_count,
        "k_ce": [list(p) for p in profile.k_ce],
        "t_ce": list(profile.t_ce),
        "ce_edge_weights": list(profile.ce_edge_weights),
        "counts": counts_nested,
        "delta_t": dt_nested,
    }


def profile_from_dict(doc: dict) -> TransitionProfile:
    """Build a profile from a version 2 or version 1 document.

    Version 1's derived sections (``probs``, ``rates``, ``mu`` and
    ``cold_event_count``) are ignored. A missing key, a wrong type or a
    broken invariant raises ``ValueError``.
    """
    version = doc.get("version") if isinstance(doc, dict) else None
    if version not in _READABLE_VERSIONS:
        raise ValueError(f"unsupported profile version {version!r}")
    try:
        code = MotifCode.from_string
        counts = {TransitionKey(code(src), STOP if dst == _STOP_KEY else code(dst)): c
                  for src, row in doc["counts"].items() for dst, c in row.items()}
        delta_t_sums = {TransitionKey(code(src), code(dst)): (s, n) for src, row
                        in doc["delta_t"].items() for dst, (s, n) in row.items()}
        return TransitionProfile(
            l_max=doc["l_max"],
            delta=doc["delta"],
            k_ce=[tuple(p) for p in doc["k_ce"]],
            t_ce=list(doc["t_ce"]),
            ce_edge_weights=list(doc["ce_edge_weights"]),
            counts=counts,
            delta_t_sums=delta_t_sums,
            input_event_count=doc["input_event_count"],
            input_edge_count=doc["input_edge_count"],
        )
    except KeyError as exc:
        raise ValueError(f"profile is missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed profile: {exc}") from exc


def save_profile(profile: TransitionProfile, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(profile_to_dict(profile), fh, indent=1)
        fh.write("\n")


def load_profile(path) -> TransitionProfile:
    """Read a saved profile; a malformed or inconsistent file raises
    ``ValueError``."""
    with open(path, "r", encoding="ascii") as fh:
        return profile_from_dict(json.load(fh))
