"""Shared test utilities: independent oracles and small builders.

The oracles restate the definitions from scratch (per-process first-match
trajectories, exhaustive ordered-subset enumeration) so they share no code
path with the implementations they check. They assign motif digits with
:func:`encode` below, so they share no digit assignment with ``src/`` either:
only ``MotifCode``, whose constructor checks the code's rule, comes from the
package.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterable

from motifgen import (STOP, Event, MotifCode, TemporalGraph, TransitionProfile,
                      enumerate_codes)
from motifgen.extraction import TransitionKey


def encode(events: Iterable[Event | tuple]) -> MotifCode:
    """Canonical code of an ordered, prefix-connected event list: each node
    takes the next digit at its first appearance, source before target. For
    any other list (a self-loop, a disconnected event, no event)
    ``MotifCode`` raises."""
    digit_of: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for ev in events:
        u, v = ev[0], ev[1]
        if u not in digit_of:
            digit_of[u] = len(digit_of)
        if v not in digit_of:
            digit_of[v] = len(digit_of)
        pairs.append((digit_of[u], digit_of[v]))
    return MotifCode(tuple(pairs))


def random_stream(rng: random.Random, n_events: int, n_nodes: int,
                  t_max: int) -> TemporalGraph:
    events = []
    for _ in range(n_events):
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        while v == u:
            v = rng.randrange(n_nodes)
        events.append(Event(u, v, rng.randrange(t_max)))
    return TemporalGraph.from_events(events)


def disjoint_groups_stream(rng: random.Random, n_events: int, n_groups: int,
                           group_size: int, t_max: int) -> TemporalGraph:
    """Events only inside ``n_groups`` disjoint node groups, so many
    processes run side by side and no event can reach most of them."""
    events = []
    for _ in range(n_events):
        base = rng.randrange(n_groups) * group_size
        u, v = rng.sample(range(group_size), 2)
        events.append(Event(base + u, base + v, rng.randrange(t_max)))
    return TemporalGraph.from_events(events)


# ---------------------------------------------------------------- extraction

def _trajectory(events, seed_idx: int, delta: int, l_max: int) -> list[int]:
    """Per-process first-match growth: from the seed event, repeatedly take
    the earliest strictly-later event that touches the node set and arrives
    within ``delta``, until the size limit or the window runs dry."""
    nodes = {events[seed_idx].src, events[seed_idx].dst}
    traj = [seed_idx]
    while len(traj) < l_max:
        last = events[traj[-1]]
        found = None
        for j in range(traj[-1] + 1, len(events)):
            e = events[j]
            if e.t - last.t > delta:
                break
            if e.src in nodes or e.dst in nodes:
                found = j
                break
        if found is None:
            break
        traj.append(found)
        nodes.add(events[found].src)
        nodes.add(events[found].dst)
    return traj


def oracle_extract(g: TemporalGraph, delta: int, l_max: int) -> dict:
    """Definition-level re-derivation of the transition statistics.

    An event is cold iff no earlier-seeded trajectory contains it; every
    cold event seeds one trajectory computed independently by first-match.
    ``processes`` lists each trajectory as ``(events, code, stop_reason)``:
    "size" at ``l_max`` events, "time" when a later event arrives more than
    ``delta`` after its last one, and "end" otherwise.
    """
    events = g.events
    hot: set[int] = set()
    cold_idxs: list[int] = []
    trajectories: list[list[int]] = []
    for i in range(len(events)):
        if i in hot:
            continue
        cold_idxs.append(i)
        traj = _trajectory(events, i, delta, l_max)
        trajectories.append(traj)
        hot.update(traj[1:])

    counts: Counter = Counter()
    dt_sums: Counter = Counter()
    dt_ns: Counter = Counter()
    edge_counts = []
    processes = []
    for traj in trajectories:
        evs = [events[j] for j in traj]
        codes = [encode(evs[:k]) for k in range(1, len(evs) + 1)]
        if len(evs) == l_max:
            reason = "size"
        else:
            reason = "time" if events[-1].t - evs[-1].t > delta else "end"
        processes.append((tuple(evs), codes[-1], reason))
        for k in range(len(codes) - 1):
            key = (codes[k], codes[k + 1])
            counts[key] += 1
            dt_sums[key] += evs[k + 1].t - evs[k].t
            dt_ns[key] += 1
        counts[(codes[-1], STOP)] += 1
        edge_counts.append(codes[-1].static_edge_count())

    return {
        "cold_events": [events[i] for i in cold_idxs],
        "counts": dict(counts),
        "delta_t_sums": {k: (dt_sums[k], dt_ns[k]) for k in dt_ns},
        "mu": sum(edge_counts) / len(edge_counts) if edge_counts else None,
        "processes": processes,
    }


def profile_counts_as_oracle(profile: TransitionProfile) -> dict:
    """Profile counts in the oracle's key convention for direct comparison."""
    out = {}
    for key, c in profile.counts.items():
        out[(key.src, STOP if key.dst is STOP else key.dst)] = c
    return out


# ------------------------------------------------------------------ counting

def oracle_count(g: TemporalGraph, l: int, delta_c: int,
                 inclusive: bool = True) -> dict[MotifCode, int]:
    """Exhaustive filter over all ordered ``l``-subsets of the event list."""
    from itertools import combinations

    events = g.events
    counts: Counter = Counter()
    for subset in combinations(range(len(events)), l):
        evs = [events[i] for i in subset]
        ok = True
        for a, b in zip(evs, evs[1:]):
            gap = b.t - a.t
            if gap <= 0 or gap > delta_c or (not inclusive and gap == delta_c):
                ok = False
                break
        if not ok:
            continue
        nodes = {evs[0].src, evs[0].dst}
        for e in evs[1:]:
            if e.src not in nodes and e.dst not in nodes:
                ok = False
                break
            nodes.add(e.src)
            nodes.add(e.dst)
        if not ok:
            continue
        counts[encode(evs)] += 1
    return dict(counts)


def window_totals(g: TemporalGraph, l: int, delta_c: int, window_count: int,
                  inclusive: bool = True) -> list[int]:
    """Motif totals per equal-duration window of the graph's own span.

    A motif is attributed to a window when all of its events fall inside it:
    each window's events are rebuilt into a subgraph and counted by the
    exhaustive oracle.
    """
    if not g.events:
        return [0] * window_count
    t0 = g.events[0].t
    span = max(g.timespan, 1)
    buckets: list[list] = [[] for _ in range(window_count)]
    for e in g.events:
        w = min((e.t - t0) * window_count // span, window_count - 1)
        buckets[w].append(e)
    totals = []
    for bucket in buckets:
        if len(bucket) < l:
            totals.append(0)
            continue
        sub = TemporalGraph.from_events(bucket)
        totals.append(sum(oracle_count(sub, l, delta_c, inclusive).values()))
    return totals


def time_shuffled(g: TemporalGraph, seed: int) -> TemporalGraph:
    """The time-shuffled null model: ``g``'s events with their timestamps
    permuted. It keeps the static graph and the timestamp multiset, so only
    the order of events, and with it the motifs, is random."""
    ts = [e.t for e in g.events]
    random.Random(seed).shuffle(ts)
    return TemporalGraph.from_events(
        Event(e.src, e.dst, t) for e, t in zip(g.events, ts))


# ----------------------------------------------------------------- profiles

def make_profile(probs: dict[str, dict[str, float]],
                 rates: dict[tuple[str, str], float] | float = 1.0,
                 k_ce: list[tuple[int, int]] | None = None,
                 t_ce: list[int] | None = None,
                 ce_edge_weights: list[int] | None = None,
                 l_max: int = 4, delta: int = 3600, mu: float = 2.0,
                 input_event_count: int | None = None,
                 input_edge_count: int = 10) -> TransitionProfile:
    """Assemble a hand-written profile from code strings.

    A profile holds counts, so each row becomes counts over a common
    denominator of its exact fractions and of its mean gaps ``1 / rate``, its
    remainder stopping at the row's own code; the derived rows and rates then
    equal the given ones. The stops still missing to reach one per cold
    timestamp go to the first code without a row that has ``mu`` static
    edges, which sets the derived ``mu`` exactly when the rows stop nowhere.
    """
    def mean_gap(src: str, dst: str) -> Fraction:
        rate = rates.get((src, dst), 1.0) if isinstance(rates, dict) else rates
        return Fraction(1 / rate).limit_denominator()

    t_ce = t_ce if t_ce is not None else [0]
    counts: dict[TransitionKey, int] = {}
    delta_t_sums: dict[TransitionKey, tuple[int, int]] = {}
    for src, row in probs.items():
        src_code = MotifCode.from_string(src)
        fracs = {dst: Fraction(p).limit_denominator() for dst, p in row.items()}
        gaps = {dst: mean_gap(src, dst) for dst in row}
        # a multiple of every gap denominator, so that each gap sum is whole
        total = (lcm(*(f.denominator for f in fracs.values()))
                 * lcm(*(g.denominator for g in gaps.values())))
        moved = 0
        for dst, f in fracs.items():
            key = TransitionKey(src_code, MotifCode.from_string(dst))
            counts[key] = n = int(f * total)
            delta_t_sums[key] = (int(n * gaps[dst]), n)
            moved += n
        if moved < total:
            counts[TransitionKey(src_code, STOP)] = total - moved
    leftover = len(t_ce) - sum(c for k, c in counts.items() if k.dst is STOP)
    if leftover > 0:
        end = next(c for l in range(1, l_max + 1) for c in enumerate_codes(l)
                   if c.static_edge_count() == mu and c.render() not in probs)
        counts[TransitionKey(end, STOP)] = leftover
    k_ce = k_ce if k_ce is not None else [(0, 1), (1, 0)]
    if ce_edge_weights is not None:
        weights = ce_edge_weights
    else:  # spread the timestamps evenly over the edges
        n_edges = sum(o for _i, o in k_ce)
        base, rem = divmod(len(t_ce), n_edges)
        weights = [base + 1] * rem + [base] * (n_edges - rem)
    return TransitionProfile(
        l_max=l_max,
        delta=delta,
        k_ce=k_ce,
        t_ce=list(t_ce),
        ce_edge_weights=weights,
        counts=counts,
        delta_t_sums=delta_t_sums,
        input_event_count=(input_event_count if input_event_count is not None
                           else len(t_ce)),
        input_edge_count=input_edge_count,
    )
