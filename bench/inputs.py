"""Benchmark inputs: the desk-scale surrogate stream, drawn fast.

The draws are those of ``tests/surrogate.py`` (``desk_scale_stream``), but
nodes are picked with ``cum_weights``, so the cumulative weights are built
once instead of on every draw. ``random.choices`` draws the same values
either way, so for equal arguments the edge list is byte-identical to
``write_events(desk_scale_stream(...))``; the self-test pins that. The text
is formatted here rather than by the package, so that a change to the
package cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
from itertools import accumulate

DEFAULT_SEED = 20260810  # the acceptance suite's surrogate seed


def desk_scale_edges(seed: int = DEFAULT_SEED, n_events: int = 60_000,
                     n_nodes: int = 1900, mean_iet: float = 273.0,
                     reply_p: float = 0.35, repeat_p: float = 0.2,
                     partner_reuse_p: float = 0.3,
                     burst_continue_p: float = 0.6, max_burst: int = 5,
                     within_burst_gap: float = 60.0) -> str:
    """Bursty directed message stream as a ``src dst t`` edge list."""
    rng = random.Random(seed)
    mean_burst = 1.0 / (1.0 - burst_continue_p)
    session_gap = mean_iet * mean_burst

    population = range(n_nodes)
    cum_weights = list(accumulate(1.0 / (i + 1) ** 0.5 for i in population))
    contacts: dict[int, list[int]] = {}

    def pick_node(exclude: tuple[int, ...]) -> int:
        while True:
            node = rng.choices(population, cum_weights=cum_weights, k=1)[0]
            if node not in exclude:
                return node

    def pick_partner(node: int) -> int:
        known = contacts.get(node)
        if known and rng.random() < partner_reuse_p:
            return rng.choice(known)
        other = pick_node((node,))
        contacts.setdefault(node, []).append(other)
        contacts.setdefault(other, []).append(node)
        return other

    events: list[tuple[int, int, int]] = []
    t = 0.0
    while len(events) < n_events:
        t += rng.expovariate(1.0 / session_gap)
        a = pick_node(())
        b = pick_partner(a)
        src, dst = a, b
        session_t = t
        events.append((src, dst, int(session_t)))
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
            events.append((src, dst, int(session_t)))
            burst += 1
    events.sort(key=lambda e: e[2])  # stable, as TemporalGraph.from_events
    return "".join(f"{s} {d} {t}\n" for s, d, t in events)


# The input of each workload: desk_scale_edges arguments besides the seed.
WORKLOAD_INPUTS = {
    "desk60k-pipeline": {"n_events": 60_000},
    "dense60k-count": {"n_events": 60_000, "mean_iet": 10.0},
    "desk240k-generate": {"n_events": 240_000},
}
