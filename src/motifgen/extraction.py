"""Single-pass extraction of motif-transition statistics from an event stream.

The scan keeps the live processes in order of their last event and, per
node, the live processes holding it. An event retires those more than
``delta`` after their last event, extends those holding one of its nodes
(so its work follows them, not all live processes), retires any that reach
``l_max`` events, and starts a process if it extended none (a cold event).
The profile keeps what the scan counted: transition and stop counts, gap
sums, and the cold events' degrees, edge weights and timestamps. The
probabilities, exponential rates and mean final-motif edge count are derived
from those counts whenever a profile is built. Saved profiles (format 2)
store only the counted numbers, each gap count beside the equal count of
its transition; format 1 files, which also stored the derived numbers, are
still read.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .codec import STOP, MotifCode, Pair
import numpy as np

from .events import Event, TemporalGraph, degrees, static_edges

PairsKey = tuple[Pair, ...]


class TransitionKey(NamedTuple):
    """One transition type: a source code and its successor (or STOP)."""

    src: MotifCode
    dst: MotifCode | None


class ProcessRecord(NamedTuple):
    """Trace of one finished transition process (kept only on request)."""

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
        row = self.probs.get(code)
        if not row:
            return 1.0
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


class _Proc:
    """One live process during the scan; its events are ``(src rank, dst
    rank, time offset)`` rows."""

    __slots__ = ("digit_of", "pairs", "t_last", "events")

    def __init__(self, ev: tuple[int, int, int]):
        u, v, self.t_last = ev
        self.digit_of = {u: 0, v: 1}
        self.pairs: PairsKey = ((0, 1),)
        self.events = [ev]


def extract_profile(g: TemporalGraph, delta: int, l_max: int,
                    keep_processes: bool = False) -> TransitionProfile:
    """Run the scan over ``g`` and return the assembled profile.

    One forward pass; per-event work follows the live processes holding the
    event's two nodes and those that expire, not all live processes.
    """
    if l_max < 2:
        raise ValueError(f"l_max must be at least 2, got {l_max}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not len(g):
        raise ValueError("cannot extract a profile from an empty graph")

    counts: Counter[tuple[PairsKey, PairsKey | None]] = Counter()
    dt_sum: Counter[tuple[PairsKey, PairsKey]] = Counter()
    cold: list[tuple[int, int, int]] = []  # rows, as the processes keep them
    records: list[ProcessRecord] | None = [] if keep_processes else None
    live: dict[_Proc, None] = {}  # least recently extended first: by t_last
    holding: defaultdict[int, dict[_Proc, None]] = defaultdict(dict)  # by node rank
    ids, t0 = g.nodes, g.t0

    def retire(proc: _Proc, reason: str) -> None:
        del live[proc]
        for node in proc.digit_of:  # drop emptied entries, so memory follows ``live``
            on_node = holding[node]
            del on_node[proc]
            if not on_node:
                del holding[node]
        counts[(proc.pairs, STOP)] += 1
        if records is not None:
            records.append(ProcessRecord(
                [Event(ids[u], ids[v], t0 + t) for u, v, t in proc.events],
                MotifCode(proc.pairs), reason))

    for ev in zip(g.src.tolist(), g.dst.tolist(), g.t.tolist()):
        u, v, t = ev
        while live and t - (oldest := next(iter(live))).t_last > delta:
            retire(oldest, "time")
        extend = holding[u] | holding[v]  # those on u, then those only on v
        if not extend:
            cold.append(ev)
            proc = _Proc(ev)
            live[proc] = holding[u][proc] = holding[v][proc] = None
            continue
        for proc in extend:
            digit_of = proc.digit_of
            if u not in digit_of:
                digit_of[u] = len(digit_of)
                holding[u][proc] = None
            if v not in digit_of:
                digit_of[v] = len(digit_of)
                holding[v][proc] = None
            key = (proc.pairs, proc.pairs + ((digit_of[u], digit_of[v]),))
            counts[key] += 1
            dt_sum[key] += t - proc.t_last
            proc.pairs, proc.t_last = key[1], t
            proc.events.append(ev)
            if len(key[1]) == l_max:
                retire(proc, "size")
            else:  # move to the back of ``live``
                del live[proc]
                live[proc] = None
    for proc in list(live):
        retire(proc, "end")

    # Cold-event degree sequence, by node id, and per-edge weights over the
    # projection of the cold events.
    n = g.node_count
    cold_src, cold_dst, cold_t = zip(*cold)
    edge_src, edge_dst, weights = static_edges(cold_src, cold_dst, n)
    in_deg, out_deg = degrees(edge_src, edge_dst, n)
    held = np.flatnonzero(in_deg + out_deg)

    def transition_key(src: PairsKey, dst: PairsKey | None) -> TransitionKey:
        return TransitionKey(MotifCode(src), dst if dst is STOP else MotifCode(dst))

    return TransitionProfile(
        l_max=l_max,
        delta=delta,
        k_ce=list(zip(in_deg[held].tolist(), out_deg[held].tolist())),
        t_ce=[t0 + t for t in cold_t],
        ce_edge_weights=sorted(weights.tolist()),
        counts={transition_key(*k): c for k, c in counts.items()},
        delta_t_sums={transition_key(*k): (gap, counts[k])
                      for k, gap in dt_sum.items()},
        input_event_count=len(g),
        input_edge_count=len(static_edges(g.src, g.dst, n)[0]),
        processes=records,
    )


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
    are in code order, stop last, so the order in which the scan first met
    each transition does not reach a saved file.
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
        counts: dict[TransitionKey, int] = {}
        for src, row in doc["counts"].items():
            for dst, c in row.items():
                dst_state = STOP if dst == _STOP_KEY else MotifCode.from_string(dst)
                counts[TransitionKey(MotifCode.from_string(src), dst_state)] = c
        delta_t_sums: dict[TransitionKey, tuple[int, int]] = {}
        for src, row in doc["delta_t"].items():
            for dst, (s, n) in row.items():
                key = TransitionKey(MotifCode.from_string(src),
                                    MotifCode.from_string(dst))
                delta_t_sums[key] = (s, n)
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
